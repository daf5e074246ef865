// Chaos soak (DESIGN.md §2.8): the whole capture -> serve pipeline run
// under seeded probabilistic transient faults. Asserts the three
// resilience contracts end to end:
//   1. retried runs are byte-identical to fault-free runs (a healed
//      transient never changes a result or a stored image),
//   2. exhausted-retry runs fail loudly with coherent counters (never a
//      silent wrong answer),
//   3. the server never deadlocks and never loses a promise:
//      submitted == completed + failed + expired + rejected + shed,
//      exactly, under faults, overload and shutdown races.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ariadne.h"
#include "graph/paged_backend.h"
#include "recovery/fault_injector.h"
#include "serve/server.h"
#include "storage/layer_store.h"

namespace ariadne {
namespace {

constexpr uint64_t kSoakSeed = 0xC0FFEE;
constexpr int kSoakQueries = 64;

uint64_t ResolvedResponses(const serve::ServerStats& s) {
  return s.completed + s.failed + s.expired + s.rejected + s.shed;
}

/// Canonical text form of a query result: every table, sorted.
std::string Fingerprint(const QueryResult& result) {
  std::string out;
  for (const std::string& name : result.TableNames()) {
    out += name + ":";
    for (const std::string& row : result.Table(name)->ToSortedStrings()) {
      out += row + "\n";
    }
  }
  return out;
}

class ChaosSoakTest : public testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateGrid(12, 12);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    dir_ = testing::TempDir() + "/chaos_soak";
    std::filesystem::remove_all(dir_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
    recovery::FaultInjector::Global().Disarm();
  }

  void TearDown() override {
    recovery::FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  /// Everything-spills store options: mem budget 1 byte, so every layer
  /// hits the flusher on capture and every serve scan rereads spill pages
  /// ("page-read" hits) instead of being answered from cache.
  storage::LayerStoreOptions SpillingOptions(const std::string& subdir) {
    storage::LayerStoreOptions options;
    options.dir = dir_ + "/" + subdir;
    options.mem_budget_bytes = 1;
    options.flush_threads = 2;
    options.io_backoff_base_ms = 0.01;  // keep the soak fast
    return options;
  }

  /// SSSP full capture into `store` (optionally over paged vertex state),
  /// returning the APV3 image.
  Result<std::string> CaptureImage(ProvenanceStore* store,
                                   const std::string& subdir,
                                   bool paged_vertex_state,
                                   RunStats* stats_out = nullptr) {
    SessionOptions options;
    options.engine.num_threads = 2;
    if (paged_vertex_state) {
      options.engine.paged_vertex_state = true;
      options.engine.vertex_state_budget_bytes = 1 << 12;
      options.engine.vertex_state_dir = dir_;
    }
    Session session(&graph_, options);
    ARIADNE_ASSIGN_OR_RETURN(AnalyzedQuery query,
                             session.PrepareOnline(queries::CaptureFull()));
    ARIADNE_RETURN_NOT_OK(store->ConfigureStorage(SpillingOptions(subdir)));
    SsspProgram sssp(0);
    ARIADNE_ASSIGN_OR_RETURN(RunStats stats,
                             session.Capture(sssp, query, store));
    if (stats_out != nullptr) *stats_out = stats;
    return store->SerializeToString();
  }

  /// Query i asks for the backward lineage of a vertex that was derived
  /// exactly at step sigma (grid distance from the SSSP source == sigma),
  /// so the trace is non-empty — an all-empty soak would prove nothing.
  serve::ServeRequest SoakRequest(int i) const {
    const int64_t sigma = 1 + (i % 11);
    const int64_t row = i % (sigma + 1);
    const int64_t alpha = row * 12 + (sigma - row);
    serve::ServeRequest request;
    request.name = "q" + std::to_string(i);
    request.text = queries::BackwardLineageFull();
    request.params = {{"alpha", Value(alpha)}, {"sigma", Value(sigma)}};
    return request;
  }

  /// Submits kSoakQueries distinct queries and collects one fingerprint
  /// per query (empty string = that query failed).
  std::vector<std::string> ServeSoak(serve::QueryServer& server,
                                     int* failures) {
    std::vector<std::future<serve::ServeResponse>> futures;
    futures.reserve(kSoakQueries);
    for (int i = 0; i < kSoakQueries; ++i) {
      futures.push_back(server.Submit(SoakRequest(i)));
    }
    std::vector<std::string> fingerprints;
    *failures = 0;
    for (auto& future : futures) {
      serve::ServeResponse response = future.get();
      if (response.ok()) {
        fingerprints.push_back(Fingerprint(response.result));
      } else {
        fingerprints.push_back("<FAILED: " + response.status.ToString() + ">");
        ++*failures;
      }
    }
    return fingerprints;
  }

  Graph graph_;
  std::string dir_;
};

TEST_F(ChaosSoakTest, CaptureUnderTransientFaultsIsByteIdentical) {
  ProvenanceStore reference;
  auto want = CaptureImage(&reference, "ref", /*paged_vertex_state=*/false);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // ~1-5% transient flakes across the whole write path, plus one
  // deterministic first-flush failure so retries > 0 is guaranteed
  // regardless of how the probabilistic draws land.
  ASSERT_TRUE(recovery::FaultInjector::Global()
                  .Arm("flusher-write:1,flusher-write@0.05,page-read@0.05,"
                       "vstate-page-read@0.01,vstate-page-write@0.01",
                       kSoakSeed)
                  .ok());
  ProvenanceStore store;
  RunStats stats;
  auto got =
      CaptureImage(&store, "soak", /*paged_vertex_state=*/true, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want) << "faulty-but-healed capture image differs";

  const storage::StorageStats storage = store.storage_stats();
  EXPECT_GE(storage.flush_retries, 1u);
  EXPECT_EQ(storage.layers_quarantined, 0u);
  EXPECT_FALSE(storage.degraded);
  // Per-thread attribution sums back to the total (the lockstep-jitter
  // fix keeps independent counters per flush thread).
  uint64_t per_thread_sum = 0;
  for (uint64_t n : storage.flush_retries_by_thread) per_thread_sum += n;
  EXPECT_EQ(per_thread_sum, storage.flush_retries);
  EXPECT_EQ(stats.vertex_state.gave_up, 0u);
  EXPECT_FALSE(stats.capture_degraded);
}

TEST_F(ChaosSoakTest, ServeSoakHealsTransientFaultsByteIdentically) {
  // The store the server reads: spilled to disk, so scans exercise the
  // "page-read" retry ladder; the graph: paged, so adjacency walks
  // exercise "graph-partition-read".
  ProvenanceStore store;
  ASSERT_TRUE(
      CaptureImage(&store, "serve", /*paged_vertex_state=*/false).ok());
  const std::string spill = dir_ + "/soak_graph.agp";
  ASSERT_TRUE(
      PagedBackend::CreateFrom(graph_, spill, /*vertices_per_partition=*/32)
          .ok());
  PagedBackendOptions paged_options;
  paged_options.budget_bytes = 1 << 14;  // tight enough to keep faulting
  paged_options.io_retry.backoff_base_ms = 0.01;
  auto paged = PagedBackend::Open(spill, paged_options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  auto state = serve::ServiceState::Create(paged->get(), &store);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  serve::ServerOptions server_options;
  server_options.max_inflight = 8;
  server_options.step_retry_backoff_ms = 0.01;

  // Pass 1: fault-free baseline.
  std::vector<std::string> baseline;
  {
    serve::QueryServer server(state->get(), server_options);
    int failures = -1;
    baseline = ServeSoak(server, &failures);
    ASSERT_EQ(failures, 0);
    // The soak is only meaningful if the baseline actually has payloads.
    size_t non_empty = 0;
    for (const std::string& fp : baseline) non_empty += !fp.empty();
    ASSERT_GE(non_empty, static_cast<size_t>(kSoakQueries) / 2);
    const serve::ServerStats stats = server.stats();
    ASSERT_EQ(stats.submitted, static_cast<uint64_t>(kSoakQueries));
    ASSERT_EQ(ResolvedResponses(stats), stats.submitted);
  }

  // Pass 2: the same 64 queries under seeded ~1-2% transient faults on
  // every serve-path injection point, plus one deterministic first-scan
  // failure (retries > 0 must hold however the seeded draws land).
  ASSERT_TRUE(recovery::FaultInjector::Global()
                  .Arm("serve-scan:1,serve-scan@0.02,page-read@0.02,"
                       "graph-partition-read@0.01",
                       kSoakSeed)
                  .ok());
  serve::QueryServer server(state->get(), server_options);
  int failures = -1;
  const std::vector<std::string> soaked = ServeSoak(server, &failures);
  recovery::FaultInjector::Global().Disarm();

  // Zero crashes, zero failures, byte-identical results per query.
  EXPECT_EQ(failures, 0);
  ASSERT_EQ(soaked.size(), baseline.size());
  for (size_t i = 0; i < soaked.size(); ++i) {
    EXPECT_EQ(soaked[i], baseline[i])
        << "query " << i << " result changed under healed faults";
  }

  // Retried, never gave up, and the promise accounting is exact.
  const serve::ServerStats stats = server.stats();
  const storage::StorageStats storage = store.storage_stats();
  EXPECT_GE(stats.step_retries + storage.read_retries, 1u);
  EXPECT_EQ(stats.scan_failures, 0u);
  EXPECT_EQ(stats.breaker_trips, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kSoakQueries));
  EXPECT_EQ(ResolvedResponses(stats), stats.submitted);
  const GraphBackendStats graph_stats = (*paged)->backend_stats();
  EXPECT_EQ(graph_stats.gave_up, 0u);
  EXPECT_TRUE((*paged)->backend_error().ok());
  PagedBackend::ReleaseThreadLeases();
}

TEST_F(ChaosSoakTest, PermanentFaultsFailLoudlyWithCoherentCounters) {
  ProvenanceStore store;
  ASSERT_TRUE(
      CaptureImage(&store, "perm", /*paged_vertex_state=*/false).ok());
  auto state = serve::ServiceState::Create(&graph_, &store);
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  // Every scan fails, forever: retries exhaust, queries fail with the
  // real error, the breaker trips and the rest shed — nothing silent,
  // nothing lost.
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("serve-scan:1+").ok());
  serve::ServerOptions options;
  options.step_retry_backoff_ms = 0.01;
  options.breaker_threshold = 3;
  options.breaker_cooldown_ms = 10'000.0;  // stays open for the whole test
  serve::QueryServer server(state->get(), options);
  // Submit sequentially so each query runs its own (failing) scan — a
  // single batch would coalesce into one wave and produce one scan
  // failure total, never reaching the trip threshold.
  int failed = 0, shed = 0;
  for (int i = 0; i < 16; ++i) {
    serve::ServeResponse response =
        server.Submit(SoakRequest(i)).get();  // must never hang
    ASSERT_FALSE(response.ok()) << response.name;
    if (response.status.IsUnavailable()) {
      ++shed;
    } else {
      ++failed;
    }
  }
  EXPECT_EQ(failed + shed, 16);
  EXPECT_GE(failed, 1) << "at least the pre-trip queries surface the error";
  EXPECT_GE(shed, 1) << "post-trip queries bounce with Unavailable";

  const serve::ServerStats stats = server.stats();
  EXPECT_GE(stats.scan_failures, 1u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GE(stats.step_retries, 1u);  // the ladder ran before exhausting
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(ResolvedResponses(stats), stats.submitted);
  EXPECT_EQ(server.health().breaker, serve::BreakerState::kOpen);
}

TEST_F(ChaosSoakTest, ShutdownUnderFaultsNeverLosesAPromise) {
  ProvenanceStore store;
  ASSERT_TRUE(
      CaptureImage(&store, "race", /*paged_vertex_state=*/false).ok());
  auto state = serve::ServiceState::Create(&graph_, &store);
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  ASSERT_TRUE(recovery::FaultInjector::Global()
                  .Arm("serve-scan@0.05,page-read@0.05", kSoakSeed)
                  .ok());
  for (int round = 0; round < 4; ++round) {
    serve::ServerOptions options;
    options.step_retry_backoff_ms = 0.01;
    auto server =
        std::make_unique<serve::QueryServer>(state->get(), options);
    std::vector<std::future<serve::ServeResponse>> futures;
    std::mutex futures_mu;
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < 8; ++i) {
          auto future = server->Submit(SoakRequest(t * 8 + i));
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(future));
        }
      });
    }
    server->Shutdown(/*drain_timeout_ms=*/round % 2 == 0 ? -1.0 : 1.0);
    for (auto& thread : submitters) thread.join();
    for (auto& future : futures) (void)future.get();  // must never hang
    const serve::ServerStats stats = server->stats();
    EXPECT_EQ(stats.submitted, 32u);
    EXPECT_EQ(ResolvedResponses(stats), stats.submitted)
        << "round " << round << " lost a promise";
  }
}

}  // namespace
}  // namespace ariadne
