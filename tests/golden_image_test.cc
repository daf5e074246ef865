// Golden store-image digests: FNV-1a of SerializeToString() for small,
// fixed captures, recorded with the row-of-Values layer form that
// preceded flat cell slices. Any change to the layer form, the page
// codec or the capture path that alters a single image byte fails here.
// Each capture is digested twice: held in memory, and spilled under a
// tiny budget (every flushed layer evicted, the image spliced from spill
// pages). The string- and double-vector-valued programs also check that
// the compiled fast capture path and the interpreted path produce the
// same image.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/ariadne.h"

namespace ariadne {
namespace {

/// Min-label propagation over string labels: the test-only program whose
/// vertex values and messages are strings (including the empty string).
class StringLabelProgram final
    : public VertexProgram<std::string, std::string> {
 public:
  std::string InitialValue(VertexId id, const Graph& /*graph*/) const override {
    if (id % 11 == 5) return "";
    return "v" + std::to_string((id * 7) % 13) + (id % 3 == 0 ? "" : "-x");
  }

  void Compute(VertexContext<std::string, std::string>& ctx,
               std::span<const std::string> messages) override {
    std::string label = ctx.value();
    for (const std::string& m : messages) label = std::min(label, m);
    if (ctx.superstep() == 0 || label < ctx.value()) {
      ctx.SetValue(label);
      for (VertexId u : ctx.graph().OutNeighbors(ctx.id())) {
        ctx.SendMessage(u, label);
      }
    }
    ctx.VoteToHalt();
  }
};

Graph Rmat(int scale, uint64_t seed) {
  RmatOptions options;
  options.scale = scale;
  options.avg_degree = 4.0;
  options.seed = seed;
  auto g = GenerateRmat(options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

class GoldenImageTest : public testing::Test {
 protected:
  void SetUp() override {
    std::error_code ec;
    std::filesystem::create_directories(Dir(""), ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  static std::string Dir(const std::string& name) {
    return testing::TempDir() + "/golden_image/" + name;
  }

  /// Captures `query` over `analytic` on `graph` and returns the image
  /// bytes. A non-empty `spill_dir` spills under a 1 KiB budget.
  template <typename P>
  std::string CaptureImage(const Graph& graph, P& analytic,
                           const std::string& query,
                           const std::string& spill_dir,
                           bool fast_capture = true) {
    SessionOptions options;
    options.engine.num_threads = 2;
    Session session(&graph, options);
    auto prepared = session.PrepareOnline(query);
    EXPECT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (!prepared.ok()) return {};
    ProvenanceStore store;
    if (!spill_dir.empty()) {
      storage::LayerStoreOptions storage_options;
      storage_options.dir = spill_dir;
      storage_options.mem_budget_bytes = 1024;
      storage_options.flush_threads = 1;
      Status configured = store.ConfigureStorage(std::move(storage_options));
      EXPECT_TRUE(configured.ok()) << configured.ToString();
    }
    auto stats = session.Capture(analytic, *prepared, &store, 0, nullptr,
                                 fast_capture);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!spill_dir.empty()) {
      EXPECT_GT(store.SpilledLayerCount(), 0);
    }
    auto image = store.SerializeToString();
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    return image.ok() ? *image : std::string();
  }

  /// Asserts the in-memory and the spilled image of one capture both
  /// digest to `want`. `make` builds a fresh analytic per run.
  template <typename Make>
  void ExpectDigest(const std::string& name, const Graph& graph, Make make,
                    const std::string& query, uint64_t want) {
    auto in_memory_analytic = make();
    const std::string in_memory =
        CaptureImage(graph, in_memory_analytic, query, "");
    auto spilled_analytic = make();
    const std::string spilled =
        CaptureImage(graph, spilled_analytic, query, Dir(name));
    const uint64_t got = storage::Fnv1a(in_memory);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, got);
    EXPECT_EQ(got, want) << name << ": in-memory image digest is " << hex
                         << " (" << in_memory.size() << " bytes)";
    EXPECT_EQ(storage::Fnv1a(spilled), want) << name << ": spilled image";
  }
};

TEST_F(GoldenImageTest, PageRankFullCapture) {
  const Graph graph = Rmat(6, 11);
  ExpectDigest(
      "pagerank", graph,
      [] {
        PageRankOptions options;
        options.iterations = 5;
        return PageRankProgram(options);
      },
      queries::CaptureFull(), 0x150c84f570fb9425ull);
}

TEST_F(GoldenImageTest, SsspFullCapture) {
  const Graph graph = Rmat(6, 12);
  ExpectDigest(
      "sssp", graph, [] { return SsspProgram(0); }, queries::CaptureFull(),
      0xc3623df4c8e9b3e5ull);
}

TEST_F(GoldenImageTest, SsspCustomCaptureWithStaticLayer) {
  const Graph graph = Rmat(6, 12);
  ExpectDigest(
      "sssp_custom", graph, [] { return SsspProgram(0); },
      queries::CaptureCustomBackward(), 0xe9a04f7418243780ull);
}

TEST_F(GoldenImageTest, WccFullCapture) {
  const Graph graph = Rmat(6, 13);
  ExpectDigest(
      "wcc", graph, [] { return WccProgram(); }, queries::CaptureFull(),
      0x672279818619a8efull);
}

BipartiteRatings SmallRatings() {
  auto ratings = GenerateBipartiteRatings(
      {.num_users = 30, .num_items = 12, .ratings_per_user = 5});
  EXPECT_TRUE(ratings.ok()) << ratings.status().ToString();
  return std::move(ratings).value();
}

AlsProgram MakeAls(VertexId num_users) {
  AlsOptions options;
  options.num_features = 3;
  options.max_iterations = 3;
  options.tolerance = 0;
  return AlsProgram(options, num_users);
}

TEST_F(GoldenImageTest, AlsDoubleVectorCapture) {
  const BipartiteRatings ratings = SmallRatings();
  const VertexId users = ratings.num_users;
  ExpectDigest(
      "als", ratings.graph, [users] { return MakeAls(users); },
      queries::CaptureFull(), 0x7d7d45ae311cdb2dull);
}

TEST_F(GoldenImageTest, StringValuedCapture) {
  const Graph graph = Rmat(5, 14);
  ExpectDigest(
      "string", graph, [] { return StringLabelProgram(); },
      queries::CaptureFull(), 0x95921f531e5973ebull);
}

TEST_F(GoldenImageTest, FastCaptureMatchesInterpretedForPayloadKinds) {
  {
    const Graph graph = Rmat(5, 14);
    StringLabelProgram fast_program, interpreted_program;
    const std::string fast =
        CaptureImage(graph, fast_program, queries::CaptureFull(), "");
    const std::string interpreted =
        CaptureImage(graph, interpreted_program, queries::CaptureFull(), "",
                     /*fast_capture=*/false);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, interpreted) << "string-valued program";
  }
  {
    const BipartiteRatings ratings = SmallRatings();
    AlsProgram fast_program = MakeAls(ratings.num_users);
    AlsProgram interpreted_program = MakeAls(ratings.num_users);
    const std::string fast = CaptureImage(ratings.graph, fast_program,
                                          queries::CaptureFull(), "");
    const std::string interpreted =
        CaptureImage(ratings.graph, interpreted_program,
                     queries::CaptureFull(), "", /*fast_capture=*/false);
    ASSERT_FALSE(fast.empty());
    EXPECT_EQ(fast, interpreted) << "double-vector-valued program";
  }
}

}  // namespace
}  // namespace ariadne
