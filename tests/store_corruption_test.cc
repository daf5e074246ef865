// Fuzz-ish robustness tests of the provenance store image and the layer
// spill files: bit flips and truncations must come back as Status errors
// (never crashes or silent misreads), and the errors must name the file.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "provenance/store.h"
#include "storage/layer.h"
#include "storage/page.h"

namespace ariadne {
namespace {

Layer MakeLayer(Superstep step, int rel, int n_vertices) {
  Layer layer;
  layer.step = step;
  for (int v = 0; v < n_vertices; ++v) {
    layer.Add(rel, v,
              {{Value(int64_t{v}), Value(static_cast<int64_t>(step)),
                Value(0.5 * v)},
               {Value(int64_t{v}), Value("payload-" + std::to_string(v)),
                Value()}});
  }
  layer.Canonicalize();
  return layer;
}

/// Frames `body` as an APV3 image ([magic][flags 0][fnv1a(body)][body]).
/// Resealing a damaged body gets it past the checksum, so the structural
/// guards behind it (counts, frame bounds, trailing bytes) are exercised.
std::string Seal(const std::string& body) {
  BinaryWriter header;
  header.WriteU32(0x41505633);  // "APV3"
  header.WriteU32(0);
  header.WriteU64(storage::Fnv1a(body));
  return header.MoveData() + body;
}

/// Schema (one relation, value/3) plus an empty static layer frame: the
/// body of an image up to its layer count.
BinaryWriter BodyPrefix() {
  BinaryWriter body;
  body.WriteU64(1);
  body.WriteString("value");
  body.WriteU32(3);
  storage::WriteLayerFrame(Layer{}, body);
  return body;
}

/// The serialized pages of `layer` at the default page size.
std::string PageBlob(const Layer& layer, uint64_t* n_pages) {
  const auto pages = storage::EncodeLayer(layer, storage::kDefaultPageSize);
  std::string blob;
  for (const storage::Page& page : pages) storage::SerializePage(page, &blob);
  *n_pages = pages.size();
  return blob;
}

ProvenanceStore MakeStore() {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  store.static_layer().Add(store.AddRelation("prov-edges", 2), 0,
                           {{Value(int64_t{0}), Value(int64_t{1})}});
  for (Superstep s = 0; s < 4; ++s) {
    EXPECT_TRUE(store.AppendLayer(MakeLayer(s, rel, 25)).ok());
  }
  return store;
}

class StoreCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/corruption_test_store.bin";
    ProvenanceStore store = MakeStore();
    ASSERT_TRUE(store.SaveToFile(path_).ok());
    auto data = ReadFile(path_);
    ASSERT_TRUE(data.ok());
    image_ = std::move(data).value();
    ASSERT_GT(image_.size(), 64u);
  }

  /// Writes `bytes` to the test path and tries to load it.
  Result<ProvenanceStore> LoadBytes(const std::string& bytes) {
    EXPECT_TRUE(WriteFile(path_, bytes).ok());
    return ProvenanceStore::LoadFromFile(path_);
  }

  std::string path_;
  std::string image_;
};

TEST_F(StoreCorruptionTest, PristineImageLoads) {
  auto loaded = LoadBytes(image_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_layers(), 4);
}

TEST_F(StoreCorruptionTest, EveryBitFlipIsRejected) {
  // Walk the image with a stride, flipping one bit at a time. The file
  // checksum (plus magic/flags validation in the header) must catch every
  // single one — and none may crash or hang the loader.
  const size_t stride = std::max<size_t>(1, image_.size() / 97);
  int flips = 0;
  for (size_t pos = 0; pos < image_.size(); pos += stride) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = image_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ bit);
      auto loaded = LoadBytes(corrupt);
      EXPECT_FALSE(loaded.ok())
          << "bit flip at byte " << pos << " was not detected";
      ++flips;
    }
  }
  EXPECT_GE(flips, 100);
}

TEST_F(StoreCorruptionTest, EveryTruncationIsRejected) {
  const size_t stride = std::max<size_t>(1, image_.size() / 61);
  for (size_t cut = 0; cut < image_.size(); cut += stride) {
    auto loaded = LoadBytes(image_.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << cut
                              << " bytes was not detected";
    EXPECT_NE(loaded.status().message().find(path_), std::string::npos)
        << "error does not name the file: " << loaded.status().ToString();
  }
}

TEST_F(StoreCorruptionTest, TrailingGarbageIsRejected) {
  // Appending bytes breaks the checksum; with a resealed checksum the
  // structural trailing-bytes check must still fire (defense in depth).
  EXPECT_FALSE(LoadBytes(image_ + std::string(8, '\x7f')).ok());
  auto resealed = LoadBytes(Seal(image_.substr(16) + std::string(8, '\x7f')));
  ASSERT_FALSE(resealed.ok());
  EXPECT_TRUE(resealed.status().IsParseError()) << resealed.status().ToString();
  EXPECT_NE(resealed.status().message().find("trailing"), std::string::npos);
}

TEST_F(StoreCorruptionTest, ResealedTruncationsAreRejected) {
  // Behind a recomputed checksum, every truncation of the body (schema,
  // static layer frame, layer count, superstep frames) must still fail
  // structurally instead of loading a shorter store.
  const std::string body = image_.substr(16);
  {
    auto ok = LoadBytes(Seal(body));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->num_layers(), 4);
  }
  const size_t stride = std::max<size_t>(1, body.size() / 53);
  for (size_t cut = 0; cut < body.size(); cut += stride) {
    auto loaded = LoadBytes(Seal(body.substr(0, cut)));
    EXPECT_FALSE(loaded.ok()) << "resealed truncation to " << cut
                              << " body bytes was not detected";
  }
}

TEST_F(StoreCorruptionTest, CountCorruptionIsBounded) {
  // An absurd layer count is rejected by the bounds guard instead of
  // driving a huge loop or reserve.
  {
    BinaryWriter body = BodyPrefix();
    body.WriteU64(uint64_t{1} << 60);
    auto loaded = LoadBytes(Seal(body.MoveData()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("layer count"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // A page count larger than its blob could hold names the layer.
  uint64_t n_pages = 0;
  const std::string blob = PageBlob(MakeLayer(0, 0, 25), &n_pages);
  ASSERT_GT(n_pages, 0u);
  {
    BinaryWriter body = BodyPrefix();
    body.WriteU64(1);
    body.WriteI64(0);
    body.WriteU64(uint64_t{1} << 40);
    body.WriteString(blob);
    auto loaded = LoadBytes(Seal(body.MoveData()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("page count"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("(layer 0)"), std::string::npos)
        << loaded.status().ToString();
  }
  // Bytes left over in a layer blob after its last page are rejected.
  {
    BinaryWriter body = BodyPrefix();
    body.WriteU64(1);
    body.WriteI64(0);
    body.WriteU64(n_pages);
    body.WriteString(blob + "xx");
    auto loaded = LoadBytes(Seal(body.MoveData()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("trailing byte(s) in layer blob"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // The static layer goes through the same frame parser.
  {
    BinaryWriter body;
    body.WriteU64(1);
    body.WriteString("value");
    body.WriteU32(3);
    body.WriteI64(0);
    body.WriteU64(uint64_t{1} << 40);
    body.WriteString(blob);
    body.WriteU64(0);
    auto loaded = LoadBytes(Seal(body.MoveData()));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("static layer"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(StoreCorruptionTest, RetiredFormatVersionsAreRefused) {
  // APV1 (row-major layers) and APV2 (row-major static layer) images are
  // no longer read: the error names the version instead of misparsing.
  for (const auto& [magic, name] :
       {std::pair<uint32_t, std::string>{0x41505631, "APV1"},
        std::pair<uint32_t, std::string>{0x41505632, "APV2"}}) {
    BinaryWriter writer;
    writer.WriteU32(magic);
    writer.WriteU32(0);
    writer.WriteU64(0);
    writer.WriteU64(0);
    auto loaded = LoadBytes(writer.MoveData());
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(name), std::string::npos)
        << loaded.status().ToString();
  }
}

// ---- Schema checks on decode: checksum-valid images whose pages do not
// fit the schema they are loaded under fail with a ParseError naming the
// page and its offset in the image.

/// An image (value/3 schema, empty static layer) whose one superstep
/// layer is the serialized pages `blob`.
std::string ImageWithPages(const std::string& blob, uint64_t n_pages) {
  BinaryWriter body = BodyPrefix();
  body.WriteU64(1);
  body.WriteI64(0);
  body.WriteU64(n_pages);
  body.WriteString(blob);
  return Seal(body.data());
}

/// Loads `image` and expects a ParseError naming page 0 at the offset of
/// `blob` in the image, plus `what`.
void ExpectPageRejected(const std::string& image, const std::string& blob,
                        const std::string& what) {
  auto loaded = ProvenanceStore::LoadFromBytes(image, "crafted.apv");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status().ToString();
  const std::string& message = loaded.status().message();
  const std::string page_at =
      "page 0 at offset " + std::to_string(image.find(blob));
  EXPECT_NE(message.find(page_at), std::string::npos) << message;
  EXPECT_NE(message.find("crafted.apv (layer 0)"), std::string::npos)
      << message;
  EXPECT_NE(message.find(what), std::string::npos) << message;
}

/// A page of relation 0 holding one row-major slice of vertex 7 whose
/// rows have the given arities (int cells).
std::string RowMajorPageBlob(const std::vector<int>& arities) {
  storage::Page page;
  page.header.first_vertex = page.header.last_vertex = 7;
  page.header.slice_count = 1;
  std::string& p = page.payload;
  storage::AppendZigzag(&p, 7);
  storage::AppendVarint(&p, arities.size());
  p.push_back(1);  // row-major slice format
  for (int arity : arities) {
    storage::AppendVarint(&p, static_cast<uint64_t>(arity));
    for (int c = 0; c < arity; ++c) {
      p.push_back(static_cast<char>(Value::Kind::kInt));
      storage::AppendZigzag(&p, 7 + c);
    }
  }
  std::string blob;
  storage::SerializePage(page, &blob);
  return blob;
}

TEST(StoreSchemaCheckTest, SliceArityOtherThanSchemaFailsLoad) {
  Layer layer;
  layer.Add(0, 7, {{Value(int64_t{7}), Value(1.5)}});  // value has arity 3
  uint64_t n_pages = 0;
  const std::string blob = PageBlob(layer, &n_pages);
  ExpectPageRejected(ImageWithPages(blob, n_pages), blob,
                     "has arity 2, relation 0 has schema arity 3");
}

TEST(StoreSchemaCheckTest, PageRelationOutsideSchemaFailsLoad) {
  Layer layer;
  layer.Add(4, 7, {{Value(int64_t{7}), Value(1.5), Value(int64_t{0})}});
  uint64_t n_pages = 0;
  const std::string blob = PageBlob(layer, &n_pages);
  ExpectPageRejected(ImageWithPages(blob, n_pages), blob,
                     "page relation id 4 outside the schema (1 relations)");
}

TEST(StoreSchemaCheckTest, MixedArityRowMajorSliceFailsLoad) {
  const std::string blob = RowMajorPageBlob({3, 2});
  ExpectPageRejected(ImageWithPages(blob, 1), blob,
                     "row-major slice mixes arities 3 and 2");
  // The flat slice form cannot hold it even without a schema.
  size_t offset = 0;
  auto page = storage::ParsePage(blob, &offset);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  Layer layer;
  EXPECT_TRUE(storage::DecodePage(*page, &layer).IsParseError());
}

TEST(StoreSchemaCheckTest, UniformRowMajorSliceOfSchemaArityLoads) {
  const std::string blob = RowMajorPageBlob({3, 3});
  auto loaded =
      ProvenanceStore::LoadFromBytes(ImageWithPages(blob, 1), "crafted.apv");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto layer = loaded->GetLayer(0);
  ASSERT_TRUE(layer.ok()) << layer.status().ToString();
  ASSERT_EQ((*layer)->slices.size(), 1u);
  const LayerSlice& slice = (*layer)->slices[0];
  EXPECT_EQ(slice.vertex, 7);
  EXPECT_EQ(slice.arity, 3u);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(TupleToString(slice.TupleAt(1)), "(7, 8, 9)");
  EXPECT_EQ((*layer)->byte_size, 2u * (8 + 3 * 8));
}

}  // namespace
}  // namespace ariadne
