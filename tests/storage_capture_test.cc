// End-to-end tests of the storage subsystem under capture: a tiny memory
// budget that forces eviction every superstep must not change anything
// observable — the saved image is byte-identical to an unbounded run, and
// layered queries return identical results while staying under budget.
// Saving splices flushed spill pages into the image: the splice must be
// byte-identical to encoding, validate every page, and retry transient
// read faults.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/ariadne.h"
#include "recovery/fault_injector.h"

namespace ariadne {
namespace {

std::vector<std::string> TableStrings(const QueryResult& result,
                                      const std::string& name) {
  const Relation* rel = result.Table(name);
  if (rel == nullptr) return {};
  return rel->ToSortedStrings();
}

class StorageCaptureTest : public testing::Test {
 protected:
  void SetUp() override {
    // An 8x8 grid: SSSP frontiers are wide, so no single layer dominates
    // the store (peak layer ~11% of total bytes — comfortably inside the
    // 25% memory budget the acceptance bar prescribes).
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    std::error_code ec;
    std::filesystem::create_directories(testing::TempDir() +
                                            "/storage_capture",
                                        ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  void TearDown() override { recovery::FaultInjector::Global().Disarm(); }

  std::string Dir(const std::string& name) {
    return testing::TempDir() + "/storage_capture/" + name;
  }

  /// Runs a full SSSP capture; optionally spilling with `budget` bytes
  /// and `flush_threads`, with `engine_threads` compute workers.
  void CaptureStore(ProvenanceStore* store, const std::string& spill_dir,
                    size_t budget, int flush_threads, size_t engine_threads,
                    size_t page_size = storage::kDefaultPageSize) {
    SessionOptions options;
    options.engine.num_threads = engine_threads;
    Session session(&graph_, options);
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    if (!spill_dir.empty()) {
      storage::LayerStoreOptions storage_options;
      storage_options.dir = spill_dir;
      storage_options.mem_budget_bytes = budget;
      storage_options.flush_threads = flush_threads;
      storage_options.page_size = page_size;
      ASSERT_TRUE(store->ConfigureStorage(std::move(storage_options)).ok());
    }
    SsspProgram sssp(0);
    auto stats = session.Capture(sssp, *capture, store);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_GT(store->num_layers(), 4);
  }

  Result<std::string> SaveBytes(const ProvenanceStore& store,
                                const std::string& path) {
    ARIADNE_RETURN_NOT_OK(store.SaveToFile(path));
    return ReadFile(path);
  }

  Graph graph_;
};

TEST_F(StorageCaptureTest, InlineFlusherSpillingCaptureCompletes) {
  // flush_threads = 0 flushes on the appending thread. Append used to
  // queue the flush while holding the layer store's mutex, and the flush
  // took that mutex again: the capture hung at its first barrier.
  ProvenanceStore inline_store;
  CaptureStore(&inline_store, Dir("inline"), 0, 0, 3);
  EXPECT_EQ(inline_store.SpilledLayerCount(), inline_store.num_layers());
  ProvenanceStore threaded_store;
  CaptureStore(&threaded_store, Dir("threaded"), 0, 1, 3);
  auto inline_image = inline_store.SerializeToString();
  auto threaded_image = threaded_store.SerializeToString();
  ASSERT_TRUE(inline_image.ok()) << inline_image.status().ToString();
  ASSERT_TRUE(threaded_image.ok()) << threaded_image.status().ToString();
  EXPECT_EQ(*inline_image, *threaded_image);
}

TEST_F(StorageCaptureTest, SpilledSaveIsByteIdenticalToInMemory) {
  // Reference: unbounded in-memory capture, single-threaded engine.
  ProvenanceStore reference;
  CaptureStore(&reference, "", 0, 0, 1);
  ASSERT_EQ(reference.SpilledLayerCount(), 0);
  auto want = SaveBytes(reference, Dir("ref") + ".bin");
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // A ~one-layer budget forces eviction at every superstep barrier; 0
  // evicts every flushed layer; the last keeps everything resident.
  const size_t one_layer = reference.TotalBytes() / reference.num_layers();
  const size_t unlimited = size_t{1} << 40;
  int variant = 0;
  for (size_t page_size : {storage::kDefaultPageSize, size_t{512}}) {
    for (size_t engine_threads : {size_t{1}, size_t{3}, size_t{4}}) {
      for (size_t budget : {size_t{0}, one_layer, unlimited}) {
        for (int flush_threads : {1, 2}) {
          SCOPED_TRACE("page_size=" + std::to_string(page_size) +
                       " engine_threads=" + std::to_string(engine_threads) +
                       " budget=" + std::to_string(budget) +
                       " flush_threads=" + std::to_string(flush_threads));
          ProvenanceStore store;
          const std::string dir = Dir("v" + std::to_string(variant++));
          CaptureStore(&store, dir, budget, flush_threads, engine_threads,
                       page_size);
          EXPECT_EQ(store.SpilledLayerCount() > 0, budget < unlimited);
          EXPECT_LE(store.InMemoryBytes(), reference.TotalBytes());
          const storage::StorageStats before = store.storage_stats();
          ASSERT_EQ(before.layers_flushed,
                    static_cast<uint64_t>(store.num_layers()));
          EXPECT_LT(before.CompressionRatio(), 1.0);
          const int spilled = store.SpilledLayerCount();
          auto got = SaveBytes(store, dir + ".bin");
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(*got, *want) << "saved image differs under spill";
          const storage::StorageStats saved =
              store.storage_stats().Delta(before);
          EXPECT_EQ(store.SpilledLayerCount(), spilled)
              << "saving re-admitted decoded layers";
          if (page_size == storage::kDefaultPageSize) {
            // Every layer is flushed at the image's page size: each page is
            // read once from its spill file, never through the page cache
            // and never decoded.
            EXPECT_EQ(saved.pages_read, before.pages_written);
            EXPECT_EQ(saved.cache_hits + saved.cache_misses, 0u);
          } else {
            // Other page sizes are encoded from the layer: resident layers
            // read nothing, evicted ones are decoded from their pages.
            EXPECT_EQ(saved.pages_read == 0, spilled == 0);
          }
        }
      }
    }
  }
}

TEST_F(StorageCaptureTest, FlippedSpillPayloadByteFailsSave) {
  ProvenanceStore store;
  const std::string dir = Dir("flip");
  CaptureStore(&store, dir, 0, 1, 1);
  ASSERT_EQ(store.SpilledLayerCount(), store.num_layers());

  // A spill file is a 16-byte header (magic, page count, step) followed
  // by serialized pages; flip a byte inside the first page's payload.
  const std::string victim = dir + "/layer_2.apg";
  auto bytes = ReadFile(victim);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  const size_t at = 16 + storage::kPageWireHeaderBytes + 1;
  ASSERT_LT(at, bytes->size());
  (*bytes)[at] = static_cast<char>((*bytes)[at] ^ 0x20);
  ASSERT_TRUE(WriteFile(victim, *bytes).ok());

  const std::string image = dir + ".bin";
  std::filesystem::remove(image);
  const Status saved = store.SaveToFile(image);
  ASSERT_FALSE(saved.ok()) << "saved an image over a corrupt spill page";
  EXPECT_EQ(saved.code(), StatusCode::kParseError) << saved.ToString();
  EXPECT_NE(saved.message().find(victim), std::string::npos)
      << saved.ToString();
  EXPECT_NE(saved.message().find("page 0 at file offset 16"),
            std::string::npos)
      << saved.ToString();
  EXPECT_NE(saved.message().find("checksum mismatch"), std::string::npos)
      << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(image));
}

TEST_F(StorageCaptureTest, TransientPageReadFaultsOnSpliceAreRetried) {
  ProvenanceStore reference;
  CaptureStore(&reference, "", 0, 0, 1);
  auto want = reference.SerializeToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ProvenanceStore store;
  const std::string dir = Dir("flaky");
  CaptureStore(&store, dir, 0, 1, 1);
  const storage::StorageStats before = store.storage_stats();
  // The 1st and 3rd page-region reads fail once each (EIO); the retry
  // ladder heals both on the next attempt.
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("page-read:1,page-read:3").ok());
  auto got = SaveBytes(store, dir + ".bin");
  EXPECT_EQ(recovery::FaultInjector::Global().fired_count(), 2u);
  recovery::FaultInjector::Global().Disarm();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want);
  const storage::StorageStats saved = store.storage_stats().Delta(before);
  EXPECT_EQ(saved.read_retries, 2u);
  EXPECT_EQ(saved.pages_read, before.pages_written);
}

TEST_F(StorageCaptureTest, BackwardLayeredQueryUnderBudgetMatchesUnbounded) {
  SessionOptions options;
  Session session(&graph_, options);

  ProvenanceStore unbounded;
  CaptureStore(&unbounded, "", 0, 0, 1);
  // Trace the far corner of the grid back from the last superstep.
  QueryParams params{
      {"alpha", Value(static_cast<int64_t>(graph_.num_vertices() - 1))},
      {"sigma", Value(static_cast<int64_t>(unbounded.num_layers() - 1))}};
  auto q10 = session.PrepareOffline(queries::BackwardLineageFull(), unbounded,
                                    params);
  ASSERT_TRUE(q10.ok()) << q10.status().ToString();
  ASSERT_EQ(q10->direction(), Direction::kBackward);
  auto want = session.RunOffline(&unbounded, *q10, EvalMode::kLayered);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Budget <= 25% of the total provenance bytes (the acceptance bar).
  const size_t budget = unbounded.TotalBytes() / 4;
  ProvenanceStore bounded;
  CaptureStore(&bounded, Dir("bounded"), budget, 2, 4);
  EXPECT_GT(bounded.SpilledLayerCount(), 0);

  auto got = session.RunOffline(&bounded, *q10, EvalMode::kLayered);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (const char* table : {"back-trace", "back-lineage"}) {
    EXPECT_EQ(TableStrings(got->result, table),
              TableStrings(want->result, table));
  }
  // Peak decoded layer bytes stayed under the budget...
  EXPECT_LE(got->stats.peak_layer_bytes, budget);
  // ...and the descending pass prefetched the next-lower layers.
  const auto stats = bounded.storage_stats();
  EXPECT_GT(stats.prefetch_requests, 0u);
  EXPECT_GT(stats.pages_read, 0u);

  // Naive evaluation over the bounded store agrees too (it walks layers
  // ascending through the same storage path).
  auto naive = session.RunOffline(&bounded, *q10, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(TableStrings(naive->result, "back-lineage"),
            TableStrings(want->result, "back-lineage"));
}

}  // namespace
}  // namespace ariadne
