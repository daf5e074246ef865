// Paged-vs-in-memory storage backend equivalence (DESIGN.md §2.7).
//
// The out-of-core contract is exact equivalence, not approximation: for
// any thread count and any byte budget, a paged run must produce
// byte-identical vertex values, a byte-identical APV3 capture image, and
// identical PQL query results to the in-memory run. These tests sweep
// budgets of 100%/50%/25% of the topology footprint and 1/4 compute
// threads over every backend combination (paged topology x paged vertex
// state).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/ariadne.h"
#include "engine/engine.h"
#include "graph/paged_backend.h"

namespace ariadne {
namespace {

Graph TestGraph() {
  auto g = GenerateRmat(
      {.scale = 8, .avg_degree = 8, .seed = 17, .max_weight = 2.5});
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::string UniquePath(const std::string& tag) {
  static int counter = 0;
  return testing::TempDir() + "/gbt_" + std::to_string(::getpid()) + "_" +
         tag + "_" + std::to_string(counter++) + ".agp";
}

/// Partition span small enough that the scale-8 test graph splits into
/// 8 partitions (the default targets ~4 MiB fragments, which would put
/// the whole test graph in one — and page nothing).
constexpr VertexId kTestSpan = 32;

/// CreateFrom + Open with a budget that is `fraction` of the decoded
/// topology footprint (so 0.25 forces heavy eviction traffic).
std::unique_ptr<PagedBackend> MakePaged(const Graph& mem,
                                        const std::string& path,
                                        double fraction) {
  EXPECT_TRUE(PagedBackend::CreateFrom(mem, path, kTestSpan).ok());
  auto probe = PagedBackend::Open(path);
  EXPECT_TRUE(probe.ok());
  const uint64_t footprint = (*probe)->backend_stats().footprint_bytes;
  probe->reset();
  PagedBackendOptions options;
  options.budget_bytes =
      static_cast<size_t>(static_cast<double>(footprint) * fraction);
  auto opened = PagedBackend::Open(path, options);
  EXPECT_TRUE(opened.ok());
  return std::move(opened).value();
}

/// Copies a vertex's full adjacency out of `g` (spans from a paged
/// backend stay valid only until the thread touches further partitions).
struct Adjacency {
  std::vector<VertexId> out, in;
  std::vector<double> out_w, in_w;
};

Adjacency CopyAdjacency(const Graph& g, VertexId v) {
  Adjacency a;
  auto on = g.OutNeighbors(v);
  auto ow = g.OutWeights(v);
  auto in = g.InNeighbors(v);
  auto iw = g.InWeights(v);
  a.out.assign(on.begin(), on.end());
  a.out_w.assign(ow.begin(), ow.end());
  a.in.assign(in.begin(), in.end());
  a.in_w.assign(iw.begin(), iw.end());
  return a;
}

TEST(GraphBackendTest, AdjacencyMatchesInMemoryAcrossBudgets) {
  const Graph mem = TestGraph();
  for (double fraction : {1.0, 0.5, 0.25}) {
    const std::string path = UniquePath("adj");
    auto paged = MakePaged(mem, path, fraction);
    ASSERT_NE(paged, nullptr);
    EXPECT_STREQ(paged->backend_name(), "paged");
    EXPECT_TRUE(paged->paged());
    EXPECT_GT(paged->num_partitions(), 1);
    EXPECT_EQ(paged->num_vertices(), mem.num_vertices());
    EXPECT_EQ(paged->num_edges(), mem.num_edges());
    for (VertexId v = 0; v < mem.num_vertices(); ++v) {
      const Adjacency expect = CopyAdjacency(mem, v);
      const Adjacency got = CopyAdjacency(*paged, v);
      ASSERT_EQ(got.out, expect.out) << "vertex " << v;
      ASSERT_EQ(got.out_w, expect.out_w) << "vertex " << v;
      ASSERT_EQ(got.in, expect.in) << "vertex " << v;
      ASSERT_EQ(got.in_w, expect.in_w) << "vertex " << v;
      ASSERT_EQ(paged->OutDegree(v), mem.OutDegree(v));
      ASSERT_EQ(paged->InDegree(v), mem.InDegree(v));
    }
    EXPECT_TRUE(paged->backend_error().ok());
    const GraphBackendStats stats = paged->backend_stats();
    EXPECT_GT(stats.partition_faults + stats.cache_hits, 0u);
    if (fraction < 1.0) {
      EXPECT_GT(stats.evictions, 0u);
    }
    paged.reset();
    std::filesystem::remove(path);
  }
}

/// Runs PageRank and returns the final values; `vs_fraction` < 0 keeps
/// the flat in-RAM vertex state, otherwise pages it under that fraction
/// of its footprint.
std::vector<double> RunPageRank(const Graph& g, size_t threads,
                                double vs_fraction) {
  PageRankProgram program({.iterations = 12});
  EngineOptions options;
  options.num_threads = threads;
  if (vs_fraction >= 0.0) {
    options.paged_vertex_state = true;
    options.vertex_state_budget_bytes = static_cast<size_t>(
        static_cast<double>(g.num_vertices()) * sizeof(double) * vs_fraction);
    options.vertex_state_dir = testing::TempDir();
  }
  Engine<double, double> engine(&g, options);
  auto stats = engine.Run(program);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  std::vector<double> values;
  EXPECT_TRUE(engine.CopyValuesTo(&values).ok());
  return values;
}

void ExpectBytesEqual(const std::vector<double>& got,
                      const std::vector<double>& expect,
                      const std::string& what) {
  ASSERT_EQ(got.size(), expect.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                        got.size() * sizeof(double)),
            0)
      << what;
}

TEST(GraphBackendTest, PageRankByteIdenticalAcrossBackendsThreadsBudgets) {
  const Graph mem = TestGraph();
  const std::vector<double> baseline = RunPageRank(mem, 1, -1.0);
  for (double fraction : {1.0, 0.5, 0.25}) {
    const std::string path = UniquePath("pr");
    auto paged = MakePaged(mem, path, fraction);
    ASSERT_NE(paged, nullptr);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string tag = "budget=" + std::to_string(fraction) +
                              " threads=" + std::to_string(threads);
      // Paged topology, flat vertex state.
      ExpectBytesEqual(RunPageRank(*paged, threads, -1.0), baseline,
                       "paged-graph/flat-state " + tag);
      // Paged topology AND paged vertex state at the same fraction.
      ExpectBytesEqual(RunPageRank(*paged, threads, fraction), baseline,
                       "paged-graph/paged-state " + tag);
      // In-memory topology, paged vertex state.
      ExpectBytesEqual(RunPageRank(mem, threads, fraction), baseline,
                       "memory-graph/paged-state " + tag);
    }
    paged.reset();
    std::filesystem::remove(path);
  }
}

TEST(GraphBackendTest, SsspByteIdenticalUnderTightBudget) {
  const Graph mem = TestGraph();
  const VertexId source = HighestDegreeVertex(mem);
  auto run = [&](const Graph& g, size_t threads, bool paged_vs) {
    SsspProgram program(source);
    EngineOptions options;
    options.num_threads = threads;
    if (paged_vs) {
      options.paged_vertex_state = true;
      options.vertex_state_budget_bytes = 1 << 12;  // force eviction
      options.vertex_state_dir = testing::TempDir();
    }
    Engine<double, double> engine(&g, options);
    auto stats = engine.Run(program);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    std::vector<double> values;
    EXPECT_TRUE(engine.CopyValuesTo(&values).ok());
    return values;
  };
  const std::vector<double> baseline = run(mem, 1, false);
  const std::string path = UniquePath("sssp");
  auto paged = MakePaged(mem, path, 0.25);
  ASSERT_NE(paged, nullptr);
  ExpectBytesEqual(run(*paged, 4, true), baseline, "sssp paged/paged t=4");
  ExpectBytesEqual(run(*paged, 1, true), baseline, "sssp paged/paged t=1");
  paged.reset();
  std::filesystem::remove(path);
}

/// Captures full provenance of PageRank over `g` and returns the APV3
/// store image plus the final values.
void CaptureImage(const Graph& g, size_t threads, bool paged_vs,
                  std::string* image, std::vector<double>* values) {
  PageRankProgram program({.iterations = 6});
  SessionOptions options;
  options.engine.num_threads = threads;
  if (paged_vs) {
    options.engine.paged_vertex_state = true;
    options.engine.vertex_state_budget_bytes = 1 << 12;
    options.engine.vertex_state_dir = testing::TempDir();
  }
  Session session(&g, options);
  auto query = session.PrepareOnline(queries::CaptureFull(), {});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore store;
  auto stats = session.Capture(program, *query, &store, /*retention=*/2,
                               values);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto serialized = store.SerializeToString();
  ASSERT_TRUE(serialized.ok());
  *image = std::move(serialized).value();
}

TEST(GraphBackendTest, CaptureImageByteIdentical) {
  const Graph mem = TestGraph();
  std::string baseline_image;
  std::vector<double> baseline_values;
  CaptureImage(mem, 1, false, &baseline_image, &baseline_values);
  ASSERT_FALSE(baseline_image.empty());

  const std::string path = UniquePath("cap");
  auto paged = MakePaged(mem, path, 0.25);
  ASSERT_NE(paged, nullptr);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::string image;
    std::vector<double> values;
    CaptureImage(*paged, threads, true, &image, &values);
    EXPECT_EQ(image, baseline_image) << "threads=" << threads;
    ExpectBytesEqual(values, baseline_values,
                     "capture values threads=" + std::to_string(threads));
  }
  paged.reset();
  std::filesystem::remove(path);
}

/// Online PQL evaluation (the apt query) must see the same derived
/// tables whichever backend the graph lives in.
TEST(GraphBackendTest, OnlineQueryResultsMatch) {
  const Graph mem = TestGraph();
  auto run_tables = [&](const Graph& g, size_t threads) {
    PageRankProgram program({.iterations = 6});
    SessionOptions options;
    options.engine.num_threads = threads;
    Session session(&g, options);
    auto query = session.PrepareOnline(queries::Apt(), {{"eps", 0.01}});
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto run = session.RunOnline(program, *query, /*retention=*/2);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    std::vector<std::string> rows;
    for (const std::string& name : run->query_result.TableNames()) {
      const Relation* rel = run->query_result.Table(name);
      for (const std::string& row : rel->ToSortedStrings()) {
        rows.push_back(name + row);
      }
    }
    return rows;
  };
  const std::vector<std::string> baseline = run_tables(mem, 1);
  const std::string path = UniquePath("pql");
  auto paged = MakePaged(mem, path, 0.25);
  ASSERT_NE(paged, nullptr);
  EXPECT_EQ(run_tables(*paged, 1), baseline);
  EXPECT_EQ(run_tables(*paged, 4), baseline);
  paged.reset();
  std::filesystem::remove(path);
}

/// A checkpoint written by an in-memory flat-state run resumes under the
/// paged backend with paged vertex state — and lands on byte-identical
/// final values (checkpoints are storage-backend-neutral,
/// recovery/checkpoint.h).
TEST(GraphBackendTest, CheckpointResumesAcrossBackends) {
  const Graph mem = TestGraph();
  const std::string ckpt_dir =
      testing::TempDir() + "/gbt_ckpt_" + std::to_string(::getpid());
  std::filesystem::create_directories(ckpt_dir);
  const std::string fingerprint = "graph-backend-test-pr12";

  const std::vector<double> baseline = RunPageRank(mem, 1, -1.0);

  // Partial in-memory run: halt by superstep cap with a checkpoint taken
  // every barrier.
  {
    PageRankProgram program({.iterations = 12});
    EngineOptions options;
    options.max_supersteps = 5;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_every = 1;
    options.checkpoint_fingerprint = fingerprint;
    Engine<double, double> engine(&mem, options);
    auto stats = engine.Run(program);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(stats->halted_by_cap);
    ASSERT_GT(stats->checkpoints_written, 0);
  }

  // Resume out-of-core: paged topology at 25% budget, paged vertex state.
  const std::string path = UniquePath("ckpt");
  auto paged = MakePaged(mem, path, 0.25);
  ASSERT_NE(paged, nullptr);
  {
    PageRankProgram program({.iterations = 12});
    EngineOptions options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_fingerprint = fingerprint;
    options.resume = true;
    options.paged_vertex_state = true;
    options.vertex_state_budget_bytes = 1 << 12;
    options.vertex_state_dir = testing::TempDir();
    Engine<double, double> engine(paged.get(), options);
    auto stats = engine.Run(program);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GE(stats->resumed_from_step, 0);
    std::vector<double> values;
    ASSERT_TRUE(engine.CopyValuesTo(&values).ok());
    ExpectBytesEqual(values, baseline, "resumed paged run");
  }
  paged.reset();
  std::filesystem::remove(path);
  std::filesystem::remove_all(ckpt_dir);
}

/// BuildFromEdgeList (streaming, never materializes the graph) must open
/// to the same adjacency as the in-memory loader reading the same file.
TEST(GraphBackendTest, StreamedBuildMatchesLoadEdgeList) {
  const Graph mem = TestGraph();
  const std::string el_path = UniquePath("el") + ".el";
  ASSERT_TRUE(SaveEdgeList(mem, el_path).ok());
  auto loaded = LoadEdgeList(el_path, mem.num_vertices());
  ASSERT_TRUE(loaded.ok());

  const std::string agp_path = UniquePath("stream");
  ASSERT_TRUE(PagedBackend::BuildFromEdgeList(el_path, agp_path, kTestSpan,
                                              mem.num_vertices())
                  .ok());
  auto paged = PagedBackend::Open(agp_path);
  ASSERT_TRUE(paged.ok());
  ASSERT_EQ((*paged)->num_vertices(), loaded->num_vertices());
  ASSERT_EQ((*paged)->num_edges(), loaded->num_edges());
  for (VertexId v = 0; v < loaded->num_vertices(); ++v) {
    const Adjacency expect = CopyAdjacency(*loaded, v);
    const Adjacency got = CopyAdjacency(**paged, v);
    ASSERT_EQ(got.out, expect.out) << "vertex " << v;
    ASSERT_EQ(got.out_w, expect.out_w) << "vertex " << v;
    ASSERT_EQ(got.in, expect.in) << "vertex " << v;
    ASSERT_EQ(got.in_w, expect.in_w) << "vertex " << v;
  }
  // No bucket temp files left behind.
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(agp_path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(".bucket."), std::string::npos)
        << entry.path();
  }
  paged->reset();
  std::filesystem::remove(agp_path);
  std::filesystem::remove(el_path);
}

TEST(GraphBackendTest, VerifyAllPartitionsPassesOnCleanFile) {
  const Graph mem = TestGraph();
  const std::string path = UniquePath("verify");
  ASSERT_TRUE(PagedBackend::CreateFrom(mem, path).ok());
  PagedBackendOptions options;
  options.verify_on_open = true;
  auto paged = PagedBackend::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE((*paged)->VerifyAllPartitions().ok());
  paged->reset();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ariadne
