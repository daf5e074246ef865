#include "provenance/store.h"

#include <cstring>
#include <utility>

#include "common/serialize.h"
#include "storage/page.h"

namespace ariadne {

namespace {

/// Image magic: "APV" + format version. Versions 1 (row-major layers)
/// and 2 (row-major static layer) are no longer read.
constexpr uint32_t kStoreMagicBase = 0x41505600;
constexpr uint32_t kStoreVersion = 3;
constexpr uint32_t kStoreMagic = kStoreMagicBase | ('0' + kStoreVersion);

/// Bytes before the checksummed body of an image:
/// [u32 magic][u32 flags][u64 fnv1a(body)].
constexpr size_t kHeaderBytes = 4 + 4 + 8;

/// Header flags bit 0: the image holds a *degraded* capture — the body
/// starts with a degraded-metadata section (see SerializeToString) and
/// layered eval refuses full-history queries over the loaded store.
constexpr uint32_t kFlagDegraded = 1u;

}  // namespace

void ProvenanceStore::MarkDegraded(Superstep at_step,
                                   std::vector<int> surviving_rels,
                                   std::string reason) {
  if (degraded()) return;  // first degradation wins; it names the cause
  degraded_at_ = at_step;
  surviving_rels_ = std::move(surviving_rels);
  degraded_reason_ = std::move(reason);
}

int ProvenanceStore::AddRelation(const std::string& name, int arity) {
  const int existing = RelId(name);
  if (existing >= 0) return existing;
  schema_.push_back(StoredRelation{name, arity});
  return static_cast<int>(schema_.size() - 1);
}

int ProvenanceStore::RelId(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> ProvenanceStore::arities() const {
  std::vector<int> out;
  out.reserve(schema_.size());
  for (const auto& rel : schema_) out.push_back(rel.arity);
  return out;
}

StoreSchema ProvenanceStore::ToStoreSchema() const {
  StoreSchema out;
  for (const auto& rel : schema_) {
    out.relations.push_back(StoreSchema::Entry{rel.name, rel.arity});
  }
  return out;
}

Status ProvenanceStore::EnableSpill(std::string dir, size_t budget_bytes) {
  storage::LayerStoreOptions options;
  options.dir = std::move(dir);
  options.mem_budget_bytes = budget_bytes;
  return ConfigureStorage(std::move(options));
}

Status ProvenanceStore::ConfigureStorage(storage::LayerStoreOptions options) {
  return layers_->Configure(std::move(options));
}

Status ProvenanceStore::AppendLayer(Layer layer) {
  return layers_->Append(std::make_shared<Layer>(std::move(layer)));
}

Status ProvenanceStore::Flush() { return layers_->Drain(); }

Result<const Layer*> ProvenanceStore::GetLayer(int step) {
  auto layer = layers_->Read(step);
  if (!layer.ok()) return layer.status();
  loaded_ = std::move(layer).value();
  return loaded_.get();
}

Result<std::shared_ptr<const Layer>> ProvenanceStore::GetLayerRelations(
    int step, const std::vector<int>& rels) const {
  return layers_->ReadRelations(step, rels);
}

void ProvenanceStore::PrefetchLayer(int step,
                                    const std::vector<int>& rels) const {
  layers_->Prefetch(step, rels);
}

size_t ProvenanceStore::TotalBytes() const {
  return static_layer_.byte_size + layers_->TotalBytes();
}

size_t ProvenanceStore::InMemoryBytes() const {
  return static_layer_.byte_size + layers_->InMemoryBytes();
}

int64_t ProvenanceStore::TotalTuples() const {
  int64_t n = 0;
  for (const auto& slice : static_layer_.slices) {
    n += static_cast<int64_t>(slice.size());
  }
  return n + layers_->TotalTuples();
}

Status ProvenanceStore::SaveToFile(const std::string& path) const {
  ARIADNE_ASSIGN_OR_RETURN(std::string image, SerializeToString());
  return WriteFile(path, image);
}

Result<std::string> ProvenanceStore::SerializeToString() const {
  BinaryWriter body;
  if (degraded()) {
    // Degraded section comes first (gated by header flags bit 0), so a
    // complete capture's image has no trace of it.
    body.WriteI64(degraded_at_);
    body.WriteString(degraded_reason_);
    body.WriteU64(surviving_rels_.size());
    for (int rel : surviving_rels_) body.WriteI64(rel);
  }
  body.WriteU64(schema_.size());
  for (const auto& rel : schema_) {
    body.WriteString(rel.name);
    body.WriteU32(static_cast<uint32_t>(rel.arity));
  }
  // The static layer and every superstep layer share one frame format;
  // frames always hold default-size pages, so the image bytes do not
  // depend on the spill configuration the store ran under. Flushed
  // default-size layers splice their spill pages instead of re-encoding.
  storage::WriteLayerFrame(static_layer_, body);
  const int n_layers = layers_->num_layers();
  body.WriteU64(static_cast<uint64_t>(n_layers));
  for (int step = 0; step < n_layers; ++step) {
    Status framed = layers_->AppendLayerFrame(step, body);
    if (!framed.ok()) {
      return framed.WithContext("saving layer " + std::to_string(step));
    }
  }
  BinaryWriter out;
  out.WriteU32(kStoreMagic);
  out.WriteU32(degraded() ? kFlagDegraded : 0);
  out.WriteU64(storage::Fnv1a(body.data()));
  std::string file = out.MoveData();
  file += body.data();
  return file;
}

namespace {

Result<ProvenanceStore> LoadBody(BinaryReader& reader, const std::string& path,
                                 bool degraded) {
  ProvenanceStore store;
  if (degraded) {
    ARIADNE_ASSIGN_OR_RETURN(int64_t at_step, reader.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(std::string reason, reader.ReadString());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_surviving, reader.ReadU64());
    if (at_step < 0 || n_surviving > reader.remaining() / 8) {
      return Status::ParseError("bad degraded-capture section in " + path +
                                " at offset " + std::to_string(reader.pos()));
    }
    std::vector<int> surviving;
    surviving.reserve(n_surviving);
    for (uint64_t i = 0; i < n_surviving; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(int64_t rel, reader.ReadI64());
      surviving.push_back(static_cast<int>(rel));
    }
    store.MarkDegraded(static_cast<Superstep>(at_step), std::move(surviving),
                       std::move(reason));
  }
  ARIADNE_ASSIGN_OR_RETURN(uint64_t n_rels, reader.ReadU64());
  if (n_rels > reader.remaining() / 12) {
    return Status::ParseError("relation count " + std::to_string(n_rels) +
                              " exceeds remaining bytes in " + path +
                              " at offset " + std::to_string(reader.pos()));
  }
  for (uint64_t i = 0; i < n_rels; ++i) {
    ARIADNE_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    ARIADNE_ASSIGN_OR_RETURN(uint32_t arity, reader.ReadU32());
    store.AddRelation(name, static_cast<int>(arity));
  }
  const std::vector<int> arities = store.arities();
  {
    auto layer =
        storage::ReadLayerFrame(reader, path + " (static layer)", arities);
    if (!layer.ok()) return layer.status();
    store.static_layer() = std::move(layer).value();
  }
  ARIADNE_ASSIGN_OR_RETURN(uint64_t n_layers, reader.ReadU64());
  // A layer frame costs >= 24 bytes (step + page count + blob length).
  if (n_layers > reader.remaining() / 24) {
    return Status::ParseError("layer count " + std::to_string(n_layers) +
                              " exceeds remaining bytes in " + path +
                              " at offset " + std::to_string(reader.pos()));
  }
  for (uint64_t i = 0; i < n_layers; ++i) {
    auto layer = storage::ReadLayerFrame(
        reader, path + " (layer " + std::to_string(i) + ")", arities);
    if (!layer.ok()) return layer.status();
    ARIADNE_RETURN_NOT_OK(store.AppendLayer(std::move(layer).value()));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError(std::to_string(reader.remaining()) +
                              " trailing byte(s) in " + path +
                              " after layer data");
  }
  return store;
}

}  // namespace

Result<ProvenanceStore> ProvenanceStore::LoadFromFile(
    const std::string& path) {
  std::string data;
  {
    auto read = ReadFile(path);
    if (!read.ok()) return read.status();
    data = std::move(read).value();
  }
  return LoadFromBytes(std::move(data), path);
}

Result<ProvenanceStore> ProvenanceStore::LoadFromBytes(
    std::string data, const std::string& origin) {
  if (data.size() < 4) {
    return Status::ParseError("truncated provenance store image " + origin +
                              " (" + std::to_string(data.size()) + " bytes)");
  }
  uint32_t magic;
  std::memcpy(&magic, data.data(), sizeof(magic));
  if (magic != kStoreMagic) {
    const char version = static_cast<char>(magic & 0xff);
    if ((magic & ~uint32_t{0xff}) == kStoreMagicBase && version >= '1' &&
        version < '0' + static_cast<char>(kStoreVersion)) {
      return Status::ParseError(
          "provenance store image " + origin + " is format APV" + version +
          ", which this build no longer reads (it reads APV" +
          std::to_string(kStoreVersion) + ")");
    }
    return Status::ParseError("bad provenance store magic in " + origin);
  }
  if (data.size() < kHeaderBytes) {
    return Status::ParseError("truncated provenance store header in " +
                              origin);
  }
  uint32_t flags;
  std::memcpy(&flags, data.data() + 4, sizeof(flags));
  if ((flags & ~kFlagDegraded) != 0) {
    return Status::ParseError("unsupported provenance store flags " +
                              std::to_string(flags) + " in " + origin);
  }
  uint64_t checksum;
  std::memcpy(&checksum, data.data() + 8, sizeof(checksum));
  const uint64_t actual = storage::Fnv1a(
      std::string_view(data).substr(kHeaderBytes));
  if (actual != checksum) {
    return Status::ParseError("provenance store checksum mismatch in " +
                              origin);
  }
  BinaryReader reader(std::move(data));
  (void)reader.ReadU32();  // magic
  (void)reader.ReadU32();  // flags
  (void)reader.ReadU64();  // checksum, just verified
  return LoadBody(reader, origin, (flags & kFlagDegraded) != 0);
}

}  // namespace ariadne
