// End-to-end benchmark of Ariadne: provenance capture and served
// provenance queries, with a per-layer breakdown.
//
//   ariadne_perfbench --workload <capture-full|serve-lineage>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --work-dir <dir> [--trace-out <file>]
//                     [--commit <id>] [--source-digest <hex>]
//
// It drives the library only through its public API (Session,
// ProvenanceStore, serve::QueryServer/ServiceState). The seed generates
// every input: the R-MAT graph, the served queries' parameters and the
// arrival schedule. Set-up runs several times and reports its median;
// the timed phase repeats the workload's operation until --seconds have
// passed and reports medians. With --trace 1 the timed phase runs twice,
// untraced and then traced: the traced pass records a span around every
// call into the library, writes them as Chrome trace-event JSON and
// reports per-layer metrics and self times; the difference between the
// passes is the tracing overhead.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it name the build, the thread counts and
// every metric with its unit. Any failed correctness check makes the exit
// code 1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/mem.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/ariadne.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace ariadne;  // NOLINT(build/namespaces)

// ---------------------------------------------------------------- sizing
//
// Sizes are chosen so that one timed operation takes long enough to time
// well, the whole run stays inside 4 hardware threads and a few hundred
// MB, and a 30 s run repeats each operation many times.

/// Set-up repeats at least kSetupRepeats times and until kSetupSeconds
/// have passed, so that a set-up of a few milliseconds is timed often
/// enough for its median to hold still.
constexpr int kSetupRepeats = 5;
constexpr int kSetupMaxRepeats = 200;
constexpr double kSetupSeconds = 1.0;
constexpr double kAvgDegree = 16.0;

// capture-full: PageRank with Query 2 full capture into a spilling store.
constexpr int kCaptureScale = 11;
constexpr int kPageRankIterations = 20;
constexpr size_t kCaptureBudgetBytes = size_t{32} << 20;

// serve-lineage: open-loop queries against loaded SSSP full captures.
constexpr int kServeScale = 8;
constexpr int kServeStores = 24;
/// Distinct parameter sets per query kind; small enough to check every
/// distinct query against a one-shot run, large enough that identical
/// queries rarely meet in flight (coalescing stays rare).
constexpr int kDistinctPerKind = 16;
/// The query mix, one slot per query: kinds 0 = Q10 backward lineage,
/// 1 = forward lineage, 2 = apt Q1, 3 = Q6. Backward:forward:apt is the
/// 4:2:2 mix of the serve micro-benchmark (BENCH_serve.json); Q6 takes one
/// slot in nine because it has no parameters, so every Q6 is the same
/// query and a larger share would make coalescing common.
constexpr int kMixPattern[] = {0, 1, 0, 2, 0, 1, 0, 2, 3};
constexpr int kKinds = 4;
/// Levels of the timed phase: offered rates, as multiples of the nominal
/// rate, and the share of the timed phase each gets. Rate 0 is a closed
/// loop: one client sends the mix back to back, each query as soon as the
/// previous one has returned, so its latency is one user's query time with
/// no queue; that level gives op_ms. The open levels follow. The saturated
/// throughput of this mix measures about 50-70 queries/s on a 4-vCPU host
/// (serve.overload_qps). At the nominal 10/s the server is busy 15-20% of
/// the time, so a slower host shows as slower queries rather than as a
/// queue; 40/s is below capacity but near it, where queueing starts;
/// 160/s is over twice capacity, so the last level saturates and its
/// completion rate is the saturated throughput.
constexpr double kNominalQps = 10.0;
constexpr double kLevelRates[] = {0.0, 1.0, 4.0, 16.0};
constexpr double kLevelShares[] = {0.35, 0.45, 0.08, 0.12};
constexpr size_t kClosedLevel = 0;
constexpr size_t kNominalLevel = 1;
/// Upper bound on the closed loop's queries per second, which sizes its
/// query list; a query takes milliseconds, so the list never runs out.
constexpr double kClosedMaxQps = 1000.0;
constexpr double kP95LimitMs = 200.0;
/// Queries stepped at once by the server. Beyond a few per step worker,
/// more in-flight queries add memory, not throughput; the bound keeps the
/// overload level's footprint independent of how far behind it falls.
constexpr size_t kMaxInflight = 8;
/// How often the load generator polls outstanding responses.
constexpr auto kPollInterval = std::chrono::microseconds(200);

/// Iterations of the host-speed loop (about 20 ms each reading).
constexpr int64_t kSpinIterations = 20'000'000;
constexpr int kSpinReadings = 5;

// ------------------------------------------------------------- utilities

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Order-independent digest of a query result (sorted rows per table).
uint64_t ResultDigest(const QueryResult& result) {
  uint64_t h = Fnv1a("");
  for (const std::string& name : result.TableNames()) {
    h = Fnv1a("== " + name + "\n", h);
    for (const std::string& row : result.Table(name)->ToSortedStrings()) {
      h = Fnv1a(row + "\n", h);
    }
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Resets the kernel's peak-RSS high-water mark (VmHWM) so that the next
/// PeakRssBytes() reading covers only what follows.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Milliseconds a fixed single-threaded integer loop takes: a reading of
/// the host's CPU speed when the run was made. On a shared virtual
/// machine the same loop can take tens of percent longer from one minute
/// to the next, and every timing of the run moves with it; the reading
/// lets a change in the timings be told from a change in the host.
double SpinMs() {
  WallTimer t;
  uint64_t x = 1;
  for (int64_t i = 0; i < kSpinIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return t.ElapsedMillis();
}

Result<Graph> MakeGraph(int scale, uint64_t seed) {
  RmatOptions options;
  options.scale = scale;
  options.avg_degree = kAvgDegree;
  options.seed = seed;
  return GenerateRmat(options);
}

/// Metrics in the order they were set, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  double Get(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Operations attempted and failed, with the reason of each failure.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation; it fails when `status` is an error or any of
  /// `checks` (description, passed) did not pass.
  void Op(const std::string& what, const Status& status,
          std::initializer_list<std::pair<const char*, bool>> checks = {}) {
    ++attempted;
    std::string why;
    if (!status.ok()) why = status.ToString();
    for (const auto& [name, passed] : checks) {
      if (!passed) why += (why.empty() ? "" : "; ") + std::string(name);
    }
    if (!why.empty()) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what + ": " + why);
    }
  }
};

/// Thread budget: every thread the benchmark causes, engine workers,
/// flush threads, serve step threads and the load generator, fits in the
/// machine's hardware threads.
struct Threads {
  size_t nproc = 1;
  size_t engine = 1;
  int flush = 0;
  size_t serve_step = 0;
  size_t generator = 0;
  size_t check = 1;  ///< one-shot checks, after the timed phase
};

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Fixed set of per-layer metric names with units, reported (zero where a
/// workload bypasses the layer) by every traced run.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

// ------------------------------------------------------------ workloads

/// One benchmark workload: set up, then run the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds all inputs. Called several times (kSetupRepeats), each time
  /// on a fresh object.
  virtual Status Setup() = 0;
  /// Repeats the workload's operation for `seconds`. Fills end-to-end
  /// metrics (op_ms, work_per_s, bytes_per_tuple) and per-layer metrics.
  virtual void Run(double seconds, Tracer* tracer, Metrics* m,
                   Outcome* outcome) = 0;
  /// Correctness checks that run outside the timed window.
  virtual void Verify(Tracer* tracer, Outcome* outcome) {
    (void)tracer;
    (void)outcome;
  }
  /// Set-up breakdown, reported with the per-layer metrics.
  virtual void SetupMetrics(Metrics* m) const = 0;
  virtual Threads threads() const = 0;
};

bool SameValues(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return x == y || (std::isnan(x) && std::isnan(y));
         });
}

/// What the first repetition produced; every later one, in either pass,
/// must match it.
struct Reference {
  bool set = false;
  std::vector<double> values;  ///< RunBaseline's final vertex values
  uint64_t digest = 0;         ///< store image digest
  int64_t tuples = 0;

  void Set(uint64_t image_digest, int64_t tuple_count) {
    digest = image_digest;
    tuples = tuple_count;
    set = true;
  }
};

/// Engine counters of one run, folded into per-layer metrics as medians.
struct EngineSample {
  double seconds = 0, compute = 0, merge = 0, rebuild = 0;
  double supersteps = 0, messages = 0;

  static EngineSample Of(const RunStats& s) {
    return {s.seconds,
            s.compute_seconds,
            s.merge_seconds,
            s.rebuild_seconds,
            static_cast<double>(s.supersteps),
            static_cast<double>(s.total_messages)};
  }
};

double MedianOf(const std::vector<EngineSample>& v,
                double EngineSample::*field) {
  std::vector<double> xs;
  for (const EngineSample& s : v) xs.push_back(s.*field);
  return Median(xs);
}

void SetEngineMetrics(const std::vector<double>& baseline_s,
                      const std::vector<EngineSample>& runs, Metrics* m) {
  m->Set("engine.analytic_s", Median(baseline_s), "s");
  m->Set("engine.supersteps", MedianOf(runs, &EngineSample::supersteps),
         "count");
  m->Set("engine.messages", MedianOf(runs, &EngineSample::messages), "count");
  m->Set("engine.compute_s", MedianOf(runs, &EngineSample::compute), "s");
  m->Set("engine.merge_s", MedianOf(runs, &EngineSample::merge), "s");
  m->Set("engine.rebuild_s", MedianOf(runs, &EngineSample::rebuild), "s");
  const double secs = MedianOf(runs, &EngineSample::seconds);
  m->Set("engine.msgs_per_s",
         secs > 0 ? MedianOf(runs, &EngineSample::messages) / secs : 0.0,
         "1/s");
  m->Set("eval.barrier_s",
         secs - MedianOf(runs, &EngineSample::compute) -
             MedianOf(runs, &EngineSample::merge) -
             MedianOf(runs, &EngineSample::rebuild),
         "s");
}

void SetPqlMetrics(const RuleEvalStats& t, double prepare_ms, Metrics* m) {
  m->Set("pql.prepare_ms", prepare_ms, "ms");
  m->Set("pql.rule_evals", static_cast<double>(t.evaluations), "count");
  m->Set("pql.rows_scanned", static_cast<double>(t.rows_scanned), "count");
  m->Set("pql.index_probes", static_cast<double>(t.index_probes), "count");
  m->Set("pql.probe_rows", static_cast<double>(t.probe_rows), "count");
  m->Set("pql.derived", static_cast<double>(t.derived), "count");
  m->Set("pql.rule_s", t.seconds, "s");
  m->Set("pql.derived_per_probe_row",
         t.probe_rows == 0 ? 0.0
                           : static_cast<double>(t.derived) /
                                 static_cast<double>(t.probe_rows),
         "ratio");
}

/// Runs rounds of `round` until `seconds` have passed (at least two).
int RunRounds(double seconds, const std::function<void(int)>& round) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  int n = 0;
  while (n < 2 || Clock::now() < end) round(n++);
  return n;
}

// --- capture-full ---------------------------------------------------------

/// PageRank with Query 2 full capture into a store that spills under a
/// budget smaller than the capture, then SaveToFile. Every vertex is
/// active every superstep: the write path (engine messaging, capture
/// projection, layer seal, page encode and flush) dominates, FastCapture
/// bypasses the PQL evaluator and only SaveToFile reads pages back.
class CaptureFull : public Workload {
 public:
  CaptureFull(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    threads_.nproc = HardwareThreads();
    threads_.flush = 1;
    threads_.engine = std::max<size_t>(1, threads_.nproc - 1);
  }

  Threads threads() const override { return threads_; }

  Status Setup() override {
    WallTimer gen;
    ARIADNE_ASSIGN_OR_RETURN(graph_, MakeGraph(kCaptureScale, seed_));
    gen_s_ = gen.ElapsedSeconds();
    SessionOptions options;
    options.engine.num_threads = threads_.engine;
    session_.emplace(&graph_, options);
    WallTimer prep;
    ARIADNE_ASSIGN_OR_RETURN(query_,
                             session_->PrepareOnline(queries::CaptureFull()));
    prepare_ms_ = prep.ElapsedMillis();
    return Status::OK();
  }

  void SetupMetrics(Metrics* m) const override {
    m->Set("graph.gen_s", gen_s_, "s");
  }

  void Run(double seconds, Tracer* tracer, Metrics* m,
           Outcome* outcome) override {
    PageRankOptions pr_options;
    pr_options.iterations = kPageRankIterations;
    std::vector<double> baseline_s, capture_s, save_s, op_s, bytes_per_tuple,
        tuples_per_s, flush_wait_s, overhead_s;
    std::vector<EngineSample> runs;
    storage::StorageStats last_storage;
    int64_t tuples = 0;
    double logical_mb = 0;

    const int rounds = RunRounds(seconds, [&](int round) {
      const std::string dir = work_dir_ + "/spill-" + std::to_string(round);
      const std::string image = work_dir_ + "/capture.apv2";
      std::vector<double> base_values, values;
      RunStats base;
      {
        Tracer::Scope span(tracer, "session.baseline");
        PageRankProgram pagerank(pr_options);
        WallTimer t;
        auto r = session_->RunBaseline(pagerank, &base_values);
        baseline_s.push_back(t.ElapsedSeconds());
        outcome->Op("baseline", r.status());
        if (r.ok()) base = *r;
      }
      if (!reference_.set) reference_.values = base_values;
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      ProvenanceStore store;
      Status configured;
      {
        Tracer::Scope span(tracer, "provenance.configure");
        storage::LayerStoreOptions so;
        so.dir = dir;
        so.mem_budget_bytes = kCaptureBudgetBytes;
        so.flush_threads = threads_.flush;
        configured = store.ConfigureStorage(so);
      }
      RunStats stats;
      Status captured = configured;
      double cap_s = 0;
      if (configured.ok()) {
        Tracer::Scope span(tracer, "session.capture");
        PageRankProgram pagerank(pr_options);
        WallTimer t;
        auto r = session_->Capture(pagerank, *query_, &store, 0, &values);
        cap_s = t.ElapsedSeconds();
        captured = r.status();
        if (r.ok()) stats = *r;
      }
      Status saved = captured;
      double save = 0;
      if (captured.ok()) {
        Tracer::Scope span(tracer, "provenance.save");
        WallTimer t;
        saved = store.SaveToFile(image);
        save = t.ElapsedSeconds();
      }
      uint64_t digest = 0;
      uint64_t image_bytes = 0;
      {
        Tracer::Scope span(tracer, "check");
        if (saved.ok()) {
          auto bytes = ReadFile(image);
          saved = bytes.status();
          if (bytes.ok()) {
            digest = Fnv1a(*bytes);
            image_bytes = bytes->size();
          }
        }
        if (!reference_.set) reference_.Set(digest, store.TotalTuples());
        outcome->Op("capture", saved,
                    {{"values differ from RunBaseline",
                      SameValues(values, reference_.values) &&
                          SameValues(base_values, reference_.values)},
                     {"tuple count differs across repetitions",
                      store.TotalTuples() == reference_.tuples},
                     {"image digest differs across repetitions",
                      digest == reference_.digest},
                     {"capture degraded", !stats.capture_degraded}});
      }
      if (saved.ok()) {
        const storage::StorageStats st = store.storage_stats();
        last_storage = st;
        tuples = store.TotalTuples();
        logical_mb = static_cast<double>(store.TotalBytes()) / (1 << 20);
        capture_s.push_back(cap_s);
        save_s.push_back(save);
        op_s.push_back(cap_s + save);
        runs.push_back(EngineSample::Of(stats));
        bytes_per_tuple.push_back(
            static_cast<double>(st.compressed_bytes + image_bytes) /
            static_cast<double>(std::max<int64_t>(1, tuples)));
        tuples_per_s.push_back(static_cast<double>(tuples) / (cap_s + save));
        flush_wait_s.push_back(cap_s - stats.seconds);
        overhead_s.push_back(stats.compute_seconds - base.compute_seconds);
      }
      {
        Tracer::Scope span(tracer, "cleanup");
        store = ProvenanceStore();
        std::filesystem::remove_all(dir, ec);
        std::filesystem::remove(image, ec);
      }
    });

    // The operation is the whole write path: capture into the spilling
    // store, then the saved image.
    const double cap = Median(capture_s);
    m->Set("op_ms", Median(op_s) * 1e3, "ms");
    m->Set("work_per_s", Median(tuples_per_s), "1/s");
    m->Set("bytes_per_tuple", Median(bytes_per_tuple), "B");
    m->Set("run.rounds", rounds, "count");
    SetEngineMetrics(baseline_s, runs, m);
    m->Set("eval.capture_s", cap, "s");
    m->Set("eval.compute_overhead_s", Median(overhead_s), "s");
    m->Set("eval.overhead_x",
           Median(baseline_s) > 0 ? cap / Median(baseline_s) : 0.0, "x");
    // Capture returns RunStats only, so the evaluator counters of a
    // capture are not visible through the public API: the pql counters
    // here are constant zeros, not readings. What is read is whether the
    // prepared query has a FastCapture plan, the path that evaluates no
    // rules.
    SetPqlMetrics(RuleEvalStats{}, prepare_ms_, m);
    m->Set("pql.fast_capture", query_->fast_capture().has_value() ? 1 : 0,
           "count");
    m->Set("provenance.tuples", static_cast<double>(tuples), "count");
    m->Set("provenance.mb", logical_mb, "MB");
    m->Set("provenance.save_s", Median(save_s), "s");
    m->Set("storage.layers_flushed",
           static_cast<double>(last_storage.layers_flushed), "count");
    m->Set("storage.pages_written",
           static_cast<double>(last_storage.pages_written), "count");
    m->Set("storage.compressed_mb",
           static_cast<double>(last_storage.compressed_bytes) / (1 << 20),
           "MB");
    m->Set("storage.compression_ratio", last_storage.CompressionRatio(),
           "ratio");
    m->Set("storage.flush_wait_s", Median(flush_wait_s), "s");
    m->Set("storage.flush_retries",
           static_cast<double>(last_storage.flush_retries), "count");
    m->Set("storage.cache_hits", static_cast<double>(last_storage.cache_hits),
           "count");
    m->Set("storage.cache_misses",
           static_cast<double>(last_storage.cache_misses), "count");
    m->Set("storage.cache_hit_ratio", last_storage.CacheHitRate(), "ratio");
    m->Set("storage.cache_evictions",
           static_cast<double>(last_storage.cache_evictions), "count");
    m->Set("storage.read_retries",
           static_cast<double>(last_storage.read_retries), "count");
  }

 private:
  uint64_t seed_;
  std::string work_dir_;
  Threads threads_;
  Graph graph_;
  std::optional<Session> session_;
  std::optional<AnalyzedQuery> query_;
  double gen_s_ = 0, prepare_ms_ = 0;
  Reference reference_;
};

// --- serve-lineage --------------------------------------------------------

struct QuerySpec {
  std::string kind;
  std::string text;
  QueryParams params;
};

/// `i` with its 32 bits in reverse order. Sorted by it, 0..15 run 0, 8,
/// 4, 12, 2, ...: every run of them is spread over the whole range.
uint32_t BitReversed(uint32_t i) {
  uint32_t r = 0;
  for (int b = 0; b < 32; ++b, i >>= 1) r = (r << 1) | (i & 1);
  return r;
}

/// One query of the load generator's schedule.
struct Arrival {
  double due_s = 0;  ///< offset from the level's start
  int spec = 0;      ///< index into the store's distinct query list
};

struct Level {
  double rate = 0;
  double duration_s = 0;
  std::vector<Arrival> arrivals;
};

/// What one level of the open loop measured.
struct LevelSamples {
  std::vector<double> latency_ms, queue_ms, exec_ms, late_ms;
  size_t queries = 0;
  double busy_s = 0;  ///< level start to last completion
  bool pass = true;
  EvalStats eval;

  void Merge(const LevelSamples& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    queries += o.queries;
    busy_s += o.busy_s;
    pass = pass && o.pass;
    eval.Merge(o.eval);
  }
  double throughput() const {
    return busy_s > 0 ? static_cast<double>(queries) / busy_s : 0.0;
  }
};

/// One served store: an SSSP full capture of its own seeded graph, saved
/// and loaded back with a page-cache budget below the store size.
struct ServedStore {
  Graph graph;
  std::optional<ProvenanceStore> store;
  std::unique_ptr<serve::ServiceState> state;
  std::vector<QuerySpec> specs;
  /// Distinct result digests served per query spec.
  std::map<int, std::set<uint64_t>> served;
  uint64_t image_bytes = 0;
};

/// A closed loop (one client, queries back to back) and then an open loop
/// of seeded Poisson arrivals at a few fixed rates against a QueryServer
/// over loaded SSSP full captures whose page-cache budget is below the
/// store size. Only reads: page cache, decode, layered joins
/// and scheduling/shared scans, with no engine and no capture. It is the
/// read side of the storage layer that capture-full writes.
///
/// The loop runs over kServeStores stores in turn, each from its own
/// seeded graph, and pools their samples: SSSP's work on one small R-MAT
/// graph varies by about 10% from seed to seed, and pooling several
/// graphs keeps one seed's figures close to another's.
class ServeLineage : public Workload {
 public:
  ServeLineage(uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)) {
    threads_.nproc = HardwareThreads();
    threads_.generator = 1;
    threads_.flush = 1;
    // The scheduler thread is one of the step workers.
    threads_.serve_step = std::max<size_t>(1, threads_.nproc - 2);
    threads_.engine = std::max<size_t>(1, threads_.nproc - 1);
    threads_.check = threads_.nproc;
  }

  Threads threads() const override { return threads_; }

  Status Setup() override {
    stores_.clear();
    for (int k = 0; k < kServeStores; ++k) {
      auto s = std::make_unique<ServedStore>();
      ARIADNE_RETURN_NOT_OK(SetupStore(k, s.get()));
      stores_.push_back(std::move(s));
    }
    return Status::OK();
  }

  void SetupMetrics(Metrics* m) const override {
    double tuples = 0, bytes = 0;
    for (const auto& s : stores_) {
      tuples += static_cast<double>(s->store->TotalTuples());
      bytes += static_cast<double>(s->store->TotalBytes());
    }
    m->Set("graph.gen_s", gen_s_, "s");
    m->Set("provenance.tuples", tuples, "count");
    m->Set("provenance.mb", bytes / (1 << 20), "MB");
    m->Set("provenance.save_s", save_s_, "s");
    m->Set("provenance.load_s", load_s_, "s");
  }

  void Run(double seconds, Tracer* tracer, Metrics* m,
           Outcome* outcome) override {
    const size_t n_levels = std::size(kLevelRates);
    std::vector<LevelSamples> pooled(n_levels);
    serve::ServerStats totals;
    storage::StorageStats cache;
    double sweep_ms = 0;
    for (size_t k = 0; k < stores_.size(); ++k) {
      ServedStore& s = *stores_[k];
      const storage::StorageStats before = s.store->storage_stats();
      const std::vector<Level> levels =
          Schedule(k, seconds / static_cast<double>(stores_.size()));
      serve::ServerOptions options;
      options.step_threads = threads_.serve_step;
      options.max_inflight = kMaxInflight;
      // Hold every arrival of a level: overload shows as queueing and
      // backlog growth, never as rejections.
      for (const Level& level : levels) {
        options.queue_capacity =
            std::max(options.queue_capacity, level.arrivals.size() + 1);
      }
      {
        serve::QueryServer server(s.state.get(), options);
        for (size_t l = 0; l < n_levels; ++l) {
          pooled[l].Merge(RunLevel(&server, &s, levels[l], tracer, outcome));
        }
        server.Shutdown();
        const serve::ServerStats ss = server.stats();
        totals.submitted += ss.submitted;
        totals.rejected += ss.rejected;
        totals.shed += ss.shed;
        totals.expired += ss.expired;
        totals.coalesced += ss.coalesced;
        totals.group_steps += ss.group_steps;
        totals.query_steps += ss.query_steps;
        totals.scan.subscribers += ss.scan.subscribers;
        totals.scan.shared_hits += ss.scan.shared_hits;
      }
      // Timed sweeps over every layer in both directions: the read path
      // the served queries take, without the evaluator.
      {
        Tracer::Scope span(tracer, "provenance.layer_read");
        WallTimer t;
        const int n = s.store->num_layers();
        Status read = Status::OK();
        for (int pass = 0; pass < 2 && read.ok(); ++pass) {
          for (int i = 0; i < n && read.ok(); ++i) {
            read = s.store->GetLayerRelations(pass == 0 ? i : n - 1 - i, {})
                       .status();
          }
        }
        sweep_ms += t.ElapsedMillis();
        outcome->Op("layer sweep", read);
      }
      const storage::StorageStats d = s.store->storage_stats().Delta(before);
      cache.cache_hits += d.cache_hits;
      cache.cache_misses += d.cache_misses;
      cache.cache_evictions += d.cache_evictions;
      cache.read_retries += d.read_retries;
    }

    // Sustained rate: the highest offered rate whose level, and every
    // open level below it, met the p95 limit (pooled over the stores) with
    // no growing backlog and no failed query on any store.
    double sustained = 0;
    int passed = 0;
    for (size_t l = kNominalLevel; l < n_levels && pooled[l].pass &&
                       Percentile(pooled[l].latency_ms, 0.95) <= kP95LimitMs;
         ++l) {
      sustained = pooled[l].throughput();
      ++passed;
    }
    const LevelSamples& closed = pooled[kClosedLevel];
    const LevelSamples& nominal = pooled[kNominalLevel];
    const LevelSamples& overload = pooled[n_levels - 1];
    m->Set("op_ms", Median(closed.latency_ms), "ms");
    m->Set("work_per_s", overload.throughput(), "1/s");
    double image = 0, tuples = 0;
    for (const auto& s : stores_) {
      image += static_cast<double>(s->image_bytes);
      tuples += static_cast<double>(s->store->TotalTuples());
    }
    m->Set("bytes_per_tuple", image / std::max(1.0, tuples), "B");
    m->Set("serve.query_p50_ms", Percentile(nominal.latency_ms, 0.50), "ms");
    m->Set("serve.query_p95_ms", Percentile(nominal.latency_ms, 0.95), "ms");
    m->Set("serve.queue_ms_p50", Percentile(nominal.queue_ms, 0.50), "ms");
    m->Set("serve.exec_ms_p50", Percentile(nominal.exec_ms, 0.50), "ms");
    m->Set("serve.nominal_queries", static_cast<double>(nominal.queries),
           "count");
    m->Set("serve.closed_queries", static_cast<double>(closed.queries),
           "count");
    std::vector<double> late;
    for (const LevelSamples& l : pooled) {
      late.insert(late.end(), l.late_ms.begin(), l.late_ms.end());
    }
    m->Set("serve.gen_late_ms", Percentile(late, 0.95), "ms");
    m->Set("serve.sustained_qps", sustained, "1/s");
    m->Set("serve.overload_qps", overload.throughput(), "1/s");
    m->Set("serve.levels_passed", passed, "count");
    m->Set("serve.queries", static_cast<double>(totals.submitted), "count");
    m->Set("serve.mean_group_size", totals.MeanGroupSize(), "count");
    m->Set("serve.shared_hit_rate", totals.scan.HitRate(), "ratio");
    m->Set("serve.group_steps", static_cast<double>(totals.group_steps),
           "count");
    m->Set("serve.query_steps", static_cast<double>(totals.query_steps),
           "count");
    m->Set("serve.coalesced", static_cast<double>(totals.coalesced), "count");
    m->Set("serve.rejected", static_cast<double>(totals.rejected), "count");
    m->Set("serve.shed", static_cast<double>(totals.shed), "count");
    m->Set("serve.expired", static_cast<double>(totals.expired), "count");
    SetPqlMetrics(nominal.eval.Total(), prepare_ms_, m);
    m->Set("storage.cache_hits", static_cast<double>(cache.cache_hits),
           "count");
    m->Set("storage.cache_misses", static_cast<double>(cache.cache_misses),
           "count");
    m->Set("storage.cache_hit_ratio", cache.CacheHitRate(), "ratio");
    m->Set("storage.cache_evictions",
           static_cast<double>(cache.cache_evictions), "count");
    m->Set("storage.read_retries", static_cast<double>(cache.read_retries),
           "count");
    m->Set("storage.layer_read_ms", sweep_ms, "ms");
  }

  void Verify(Tracer* tracer, Outcome* outcome) override {
    // Every distinct served query against a one-shot RunOffline of the
    // same program on the same store. The servers are gone by now and the
    // one-shot runs only read the stores (Session::PrepareOffline and
    // RunOffline are const and safe to call concurrently), so they are
    // spread over threads_.check threads; the outcomes are recorded
    // afterwards in a fixed order.
    Tracer::Scope span(tracer, "check.one_shot");
    struct Check {
      const ServedStore* store;
      const QuerySpec* spec;
      const std::set<uint64_t>* digests;
      Status status;
      uint64_t want = 0;
      double prepare_ms = 0;
    };
    std::vector<Check> checks;
    for (const auto& s : stores_) {
      for (const auto& [spec, digests] : s->served) {
        checks.push_back({s.get(), &s->specs[static_cast<size_t>(spec)],
                          &digests, Status::OK()});
      }
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t i = next++; i < checks.size(); i = next++) {
        Check& c = checks[i];
        const Session session(&c.store->graph);
        WallTimer prep;
        auto analyzed = session.PrepareOffline(c.spec->text, *c.store->store,
                                               c.spec->params);
        c.prepare_ms = prep.ElapsedMillis();
        c.status = analyzed.status();
        if (!analyzed.ok()) continue;
        auto run =
            session.RunOffline(&*c.store->store, *analyzed, EvalMode::kLayered);
        c.status = run.status();
        if (run.ok()) c.want = ResultDigest(run->result);
      }
    };
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < threads_.check; ++t) helpers.emplace_back(worker);
    worker();
    for (std::thread& t : helpers) t.join();

    std::vector<double> prepare_ms;
    for (const Check& c : checks) {
      prepare_ms.push_back(c.prepare_ms);
      outcome->Op("one-shot " + c.spec->kind, c.status,
                  {{"served result differs from one-shot RunOffline",
                    c.digests->size() == 1 && *c.digests->begin() == c.want}});
    }
    for (const auto& s : stores_) s->served.clear();
    prepare_ms_ = Median(prepare_ms);
  }

 private:
  Status SetupStore(int k, ServedStore* s) {
    WallTimer gen;
    ARIADNE_ASSIGN_OR_RETURN(
        s->graph, MakeGraph(kServeScale, seed_ * kServeStores + k));
    gen_s_ += gen.ElapsedSeconds();
    const std::string image =
        work_dir_ + "/serve-" + std::to_string(k) + ".apv2";
    {
      SessionOptions options;
      options.engine.num_threads = threads_.engine;
      Session session(&s->graph, options);
      ARIADNE_ASSIGN_OR_RETURN(AnalyzedQuery q2,
                               session.PrepareOnline(queries::CaptureFull()));
      ProvenanceStore captured;
      SsspProgram sssp(HighestDegreeVertex(s->graph));
      ARIADNE_RETURN_NOT_OK(session.Capture(sssp, q2, &captured).status());
      WallTimer save;
      ARIADNE_RETURN_NOT_OK(captured.SaveToFile(image));
      save_s_ += save.ElapsedSeconds();
    }
    WallTimer load;
    ARIADNE_ASSIGN_OR_RETURN(s->store, ProvenanceStore::LoadFromFile(image));
    load_s_ += load.ElapsedSeconds();
    std::error_code ec;
    s->image_bytes = std::filesystem::file_size(image, ec);
    std::filesystem::remove(image, ec);
    const std::string dir = work_dir_ + "/serve-spill-" + std::to_string(k);
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    storage::LayerStoreOptions so;
    so.dir = dir;
    // A quarter of the store's logical bytes: decoded layers and the
    // compressed page cache both hold less than the whole store.
    so.mem_budget_bytes = s->store->TotalBytes() / 4;
    so.flush_threads = threads_.flush;
    ARIADNE_RETURN_NOT_OK(s->store->ConfigureStorage(so));
    ARIADNE_ASSIGN_OR_RETURN(
        s->state, serve::ServiceState::Create(&s->graph, &*s->store));
    s->specs = DistinctQueries(k, *s);
    return Status::OK();
  }

  /// The store's distinct queries, with seeded parameters: Q10 backward
  /// lineage (selective, descending), forward lineage (ascending), apt Q1
  /// and Q6 (full scans). Q6 has no parameters.
  std::vector<QuerySpec> DistinctQueries(int k, const ServedStore& s) const {
    std::mt19937_64 rng(seed_ * kServeStores + k);
    const int layers = s.store->num_layers();
    std::uniform_int_distribution<VertexId> vertex(
        0, s.graph.num_vertices() - 1);
    std::uniform_real_distribution<double> eps(0.01, 0.5);
    std::vector<QuerySpec> specs;
    for (int i = 0; i < kDistinctPerKind; ++i) {
      // Start supersteps spread evenly over the layers (a backward trace
      // costs about its start superstep), vertices at random.
      const int64_t sigma = 1 + int64_t{i} * std::max(1, layers - 1) /
                                    kDistinctPerKind;
      specs.push_back({"q10-backward",
                       queries::BackwardLineageFull(),
                       {{"alpha", Value(int64_t{vertex(rng)})},
                        {"sigma", Value(sigma)}}});
      specs.push_back({"forward",
                       queries::CaptureForwardLineage(),
                       {{"alpha", Value(int64_t{vertex(rng)})}}});
      specs.push_back({"apt-q1", queries::Apt(), {{"eps", Value(eps(rng))}}});
    }
    specs.push_back({"q6", queries::NoMessageNoChangeCheck(), {}});
    return specs;
  }

  /// The seeded open-loop schedule of store `k` for `seconds`: the same
  /// for every pass of one seed.
  std::vector<Level> Schedule(size_t k, double seconds) const {
    std::mt19937_64 rng((seed_ * kServeStores + k) ^ 0xa55a11edull);
    const int q6 = static_cast<int>(stores_[k]->specs.size()) - 1;
    // The mix is stratified so that every seed offers the same work: each
    // level takes its kinds from kMixPattern in turn, and each kind cycles
    // through its distinct parameter sets from the start of the level.
    // Q10's cost grows with its start superstep, so its sets are taken in
    // an order that spreads any run of them over the supersteps
    // (bit-reversed index); the other kinds' sets are in a seeded
    // permutation.
    std::vector<std::vector<int>> cycle(kKinds - 1);
    for (int i = 0; i < kDistinctPerKind; ++i) cycle[0].push_back(i);
    std::sort(cycle[0].begin(), cycle[0].end(),
              [](int a, int b) { return BitReversed(a) < BitReversed(b); });
    for (int& i : cycle[0]) i *= 3;
    for (int kd = 1; kd < kKinds - 1; ++kd) {
      for (int i = 0; i < kDistinctPerKind; ++i) cycle[kd].push_back(3 * i + kd);
      std::shuffle(cycle[kd].begin(), cycle[kd].end(), rng);
    }
    std::vector<Level> levels;
    for (size_t l = 0; l < std::size(kLevelRates); ++l) {
      std::vector<size_t> next(kKinds - 1, 0);
      Level level;
      level.rate = kNominalQps * kLevelRates[l];
      level.duration_s = seconds * kLevelShares[l];
      const bool closed = level.rate == 0;
      const size_t count = static_cast<size_t>(std::lround(
          (closed ? kClosedMaxQps : level.rate) * level.duration_s));
      std::vector<int> kinds;
      for (size_t i = 0; i < count; ++i) {
        kinds.push_back(kMixPattern[i % std::size(kMixPattern)]);
      }
      // The closed loop sends only a prefix of its list: it keeps the
      // pattern's order, so that every prefix holds the mix.
      if (!closed) std::shuffle(kinds.begin(), kinds.end(), rng);
      // Given their count, Poisson arrival times are uniform order
      // statistics over the level. The closed loop has no due times.
      std::uniform_real_distribution<double> at(0.0, level.duration_s);
      for (int kd : kinds) {
        int spec = q6;
        if (kd < kKinds - 1) spec = cycle[kd][next[kd]++ % cycle[kd].size()];
        level.arrivals.push_back({closed ? 0.0 : at(rng), spec});
      }
      std::sort(level.arrivals.begin(), level.arrivals.end(),
                [](const Arrival& a, const Arrival& b) {
                  return a.due_s < b.due_s;
                });
      levels.push_back(std::move(level));
    }
    return levels;
  }

  LevelSamples RunLevel(serve::QueryServer* server, ServedStore* s,
                        const Level& level, Tracer* tracer,
                        Outcome* outcome) {
    Tracer::Scope level_span(tracer, "serve.level");
    struct Sent {
      int spec;
      Clock::time_point due, sent, done;
      double depth;
      std::future<serve::ServeResponse> future;
      std::string name;
      Status status;
      double queue_s, exec_s;
    };
    std::vector<Sent> sent;
    sent.reserve(level.arrivals.size());
    std::vector<size_t> outstanding;
    EvalStats eval;
    const bool closed = level.rate == 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(level.duration_s));
    auto due_at = [&](size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(level.arrivals[i].due_s));
    };
    // The open-loop generator sends each query at its due time and, in
    // between, polls the outstanding responses to time their completion (a
    // coalesced query's ServeResponse carries its leader's exec time, so
    // completion is observed rather than derived). The closed loop sends
    // the next query when the previous one has returned, until the level's
    // time is up, and is due when it is sent.
    while (true) {
      Clock::time_point now = Clock::now();
      const size_t next = sent.size();
      const bool more =
          next < level.arrivals.size() && (!closed || now < end);
      if (!more && outstanding.empty()) break;
      if (more && (closed ? outstanding.empty() : now >= due_at(next))) {
        const serve::HealthSnapshot h = server->health();
        const int spec = level.arrivals[next].spec;
        const QuerySpec& q = s->specs[static_cast<size_t>(spec)];
        serve::ServeRequest request;
        request.name = q.kind;
        request.text = q.text;
        request.params = q.params;
        Sent entry;
        entry.spec = spec;
        entry.depth = static_cast<double>(h.queue_depth + h.inflight);
        entry.sent = Clock::now();
        entry.due = closed ? entry.sent : due_at(next);
        entry.future = server->Submit(std::move(request));
        sent.push_back(std::move(entry));
        outstanding.push_back(next);
        continue;
      }
      if (closed) sent[outstanding.front()].future.wait();
      now = Clock::now();
      for (size_t j = 0; j < outstanding.size();) {
        Sent& q = sent[outstanding[j]];
        if (q.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          q.done = now;
          // Keep the digest, not the result: memory stays bounded by
          // the queries in flight.
          serve::ServeResponse resp = q.future.get();
          q.name = resp.name;
          q.status = resp.status;
          q.queue_s = resp.queue_seconds;
          q.exec_s = resp.exec_seconds;
          if (resp.ok()) {
            s->served[q.spec].insert(ResultDigest(resp.result));
            eval.Merge(resp.stats.eval);
          }
          outstanding[j] = outstanding.back();
          outstanding.pop_back();
        } else {
          ++j;
        }
      }
      if (closed) continue;
      Clock::time_point wake = Clock::now() + kPollInterval;
      if (sent.size() < level.arrivals.size()) {
        wake = std::min(wake, due_at(sent.size()));
      }
      std::this_thread::sleep_until(wake);
    }
    LevelSamples r;
    r.eval = std::move(eval);
    Clock::time_point last_done = start;
    for (const Sent& q : sent) {
      last_done = std::max(last_done, q.done);
      // From the due time: a stalled generator delays later queries, and
      // that wait counts against the server's latency.
      r.latency_ms.push_back(Seconds(q.done - q.due) * 1e3);
      r.queue_ms.push_back(q.queue_s * 1e3);
      r.exec_ms.push_back(q.exec_s * 1e3);
      r.late_ms.push_back(Seconds(q.sent - q.due) * 1e3);
      // A rejected, shed, expired or failed query misses the limit.
      r.pass = r.pass && q.status.ok();
      outcome->Op("query " + q.name, q.status);
      if (tracer->enabled()) {
        const Clock::time_point admitted = std::min(
            q.done, q.sent + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(q.queue_s)));
        const int64_t qid = static_cast<int64_t>(tracer->spans().size()) + 1;
        const int64_t id =
            tracer->Add("serve.query", level_span.id(), qid, q.sent, q.done);
        tracer->Add("serve.queue", id, qid, q.sent, admitted);
        tracer->Add("serve.exec", id, qid, admitted, q.done);
      }
    }
    r.queries = sent.size();
    r.busy_s = Seconds(last_done - start);
    // Backlog: queue depth the generator saw in the first and the last
    // third of the level.
    const size_t third = sent.size() / 3;
    double early = 0, late = 0;
    for (size_t i = 0; i < third; ++i) {
      early += sent[i].depth;
      late += sent[sent.size() - 1 - i].depth;
    }
    const bool backlog_grows = third > 0 && late > 2.0 * early + 2.0 * third;
    r.pass = r.pass && !backlog_grows;
    return r;
  }

  uint64_t seed_;
  std::string work_dir_;
  Threads threads_;
  std::vector<std::unique_ptr<ServedStore>> stores_;
  double gen_s_ = 0, save_s_ = 0, load_s_ = 0, prepare_ms_ = 0;
};

// ------------------------------------------------------------------ main

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"engine.analytic_s", "s"},
      {"engine.supersteps", "count"},
      {"engine.messages", "count"},
      {"engine.compute_s", "s"},
      {"engine.merge_s", "s"},
      {"engine.rebuild_s", "s"},
      {"engine.msgs_per_s", "1/s"},
      {"eval.capture_s", "s"},
      {"eval.compute_overhead_s", "s"},
      {"eval.barrier_s", "s"},
      {"eval.overhead_x", "x"},
      {"pql.prepare_ms", "ms"},
      {"pql.rule_evals", "count"},
      {"pql.rows_scanned", "count"},
      {"pql.index_probes", "count"},
      {"pql.probe_rows", "count"},
      {"pql.derived", "count"},
      {"pql.rule_s", "s"},
      {"pql.derived_per_probe_row", "ratio"},
      {"pql.fast_capture", "count"},
      {"provenance.tuples", "count"},
      {"provenance.mb", "MB"},
      {"provenance.save_s", "s"},
      {"provenance.load_s", "s"},
      {"storage.layers_flushed", "count"},
      {"storage.pages_written", "count"},
      {"storage.compressed_mb", "MB"},
      {"storage.compression_ratio", "ratio"},
      {"storage.flush_wait_s", "s"},
      {"storage.flush_retries", "count"},
      {"storage.cache_hits", "count"},
      {"storage.cache_misses", "count"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.cache_evictions", "count"},
      {"storage.read_retries", "count"},
      {"storage.layer_read_ms", "ms"},
      {"serve.query_p50_ms", "ms"},
      {"serve.query_p95_ms", "ms"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.gen_late_ms", "ms"},
      {"serve.nominal_queries", "count"},
      {"serve.closed_queries", "count"},
      {"serve.sustained_qps", "1/s"},
      {"serve.overload_qps", "1/s"},
      {"serve.levels_passed", "count"},
      {"serve.queries", "count"},
      {"serve.mean_group_size", "count"},
      {"serve.shared_hit_rate", "ratio"},
      {"serve.group_steps", "count"},
      {"serve.query_steps", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"graph.gen_s", "s"},
      {"run.rounds", "count"},
      {"host.spin_ms", "ms"},
      {"run.failed_frac", "ratio"},
      {"self.baseline_s", "s"},
      {"self.capture_s", "s"},
      {"self.configure_s", "s"},
      {"self.save_s", "s"},
      {"self.check_s", "s"},
      {"self.cleanup_s", "s"},
      {"self.layer_read_s", "s"},
      {"self.serve_idle_s", "s"},
      {"self.serve_queue_s", "s"},
      {"self.serve_exec_s", "s"},
      {"self.untraced_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.bad_nesting", "count"},
  };
  return names;
}

/// Span name -> self-time metric.
const std::map<std::string, std::string>& SelfMetricOfSpan() {
  static const std::map<std::string, std::string> m = {
      {"session.baseline", "self.baseline_s"},
      {"session.capture", "self.capture_s"},
      {"provenance.configure", "self.configure_s"},
      {"provenance.save", "self.save_s"},
      {"check", "self.check_s"},
      {"cleanup", "self.cleanup_s"},
      {"provenance.layer_read", "self.layer_read_s"},
      {"serve.level", "self.serve_idle_s"},
      {"serve.queue", "self.serve_queue_s"},
      {"serve.exec", "self.serve_exec_s"},
      {"timed", "self.untraced_s"},
  };
  return m;
}

const char* kEndToEnd[][2] = {{"setup_s", "s"},
                              {"op_ms", "ms"},
                              {"work_per_s", "1/s"},
                              {"peak_rss_mb", "MB"},
                              {"bytes_per_tuple", "B"}};

std::string Usage() {
  return "usage: ariadne_perfbench --workload "
         "<capture-full|serve-lineage> --seed <n> "
         "--seconds <s> --trace <0|1> --work-dir <dir> "
         "[--trace-out <file>] [--commit <id>] [--source-digest <hex>]";
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) {
        return std::nullopt;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.work_dir.empty()) {
    return std::nullopt;
  }
  if (a.trace && a.trace_out.empty()) return std::nullopt;
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "capture-full") {
    return std::make_unique<CaptureFull>(a.seed, a.work_dir);
  }
  if (a.workload == "serve-lineage") {
    return std::make_unique<ServeLineage>(a.seed, a.work_dir);
  }
  return nullptr;
}

/// One timed pass: resets peak RSS, runs the workload, records peak RSS.
void TimedPass(Workload* w, double seconds, Tracer* tracer, Metrics* m,
               Outcome* outcome, bool* rss_reset) {
  *rss_reset = ResetPeakRss();
  int64_t root = 0;
  {
    Tracer::Scope span(tracer, "timed");
    root = span.id();
    w->Run(seconds, tracer, m, outcome);
  }
  m->Set("peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1 << 20),
         "MB");
  if (tracer->enabled()) {
    m->Set("trace.coverage", tracer->Coverage(root), "ratio");
  }
}

int Main(int argc, char** argv) {
  const std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", Usage().c_str());
    return 2;
  }
  const Args& args = *parsed;
  if (MakeWorkload(args) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n%s\n", args.workload.c_str(),
                 Usage().c_str());
    return 2;
  }
  // Validate every output location before any work runs.
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec || !std::filesystem::is_directory(args.work_dir)) {
    std::fprintf(stderr, "cannot create work dir %s\n", args.work_dir.c_str());
    return 2;
  }
  std::unique_ptr<std::ofstream> trace_file;
  if (args.trace) {
    trace_file = std::make_unique<std::ofstream>(args.trace_out);
    if (!*trace_file) {
      std::fprintf(stderr, "cannot open trace output %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }

  // Set-up, several times; the last instance runs the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  WallTimer setup_total;
  while (static_cast<int>(setup_s.size()) < kSetupRepeats ||
         (setup_total.ElapsedSeconds() < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kSetupMaxRepeats)) {
    workload.reset();
    workload = MakeWorkload(args);
    WallTimer t;
    const Status s = workload->Setup();
    setup_s.push_back(t.ElapsedSeconds());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const Threads th = workload->threads();
  json::JsonObject context;
  context.Set("workload", args.workload)
      .Set("seed", static_cast<int64_t>(args.seed))
      .Set("seconds", args.seconds)
      .Set("trace", args.trace)
      .Set("commit", args.commit)
      .Set("source_digest", args.source_digest)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("nproc", static_cast<int64_t>(th.nproc))
      .Set("engine_threads", static_cast<int64_t>(th.engine))
      .Set("flush_threads", static_cast<int64_t>(th.flush))
      .Set("serve_step_threads", static_cast<int64_t>(th.serve_step))
      .Set("generator_threads", static_cast<int64_t>(th.generator))
      .Set("check_threads", static_cast<int64_t>(th.check))
      .Set("setup_repeats", static_cast<int64_t>(setup_s.size()));
  std::printf("context %s\n", context.Dump().c_str());
  std::fflush(stdout);

  Metrics e2e;
  Outcome outcome;
  e2e.Set("setup_s", Median(setup_s), "s");
  // Host speed, read before the timed phase and after the last check.
  std::vector<double> spin_ms;
  auto read_host_speed = [&] {
    for (int i = 0; i < kSpinReadings; ++i) spin_ms.push_back(SpinMs());
  };
  read_host_speed();
  bool rss_reset = false;
  Tracer off(false);
  TimedPass(workload.get(), args.seconds, &off, &e2e, &outcome, &rss_reset);
  workload->Verify(&off, &outcome);

  Metrics layer;
  if (args.trace) {
    Tracer tracer(true);
    Metrics traced;
    TimedPass(workload.get(), args.seconds, &tracer, &traced, &outcome,
              &rss_reset);
    workload->Verify(&tracer, &outcome);
    for (const auto& [name, unit] : LayerMetricNames()) layer.Set(name, 0, unit);
    workload->SetupMetrics(&layer);
    for (const auto& metric : traced.all()) {
      layer.Set(metric.name, metric.value, metric.unit);
    }
    for (const auto& [span, seconds] : tracer.SelfSeconds()) {
      auto it = SelfMetricOfSpan().find(span);
      if (it != SelfMetricOfSpan().end()) layer.Set(it->second, seconds, "s");
    }
    const double op_off = e2e.Get("op_ms");
    layer.Set("trace.overhead_pct",
              op_off > 0 ? 100.0 * (traced.Get("op_ms") - op_off) / op_off
                         : 0.0,
              "%");
    layer.Set("trace.bad_nesting",
              static_cast<double>(tracer.CountBadNesting()), "count");
    *trace_file << tracer.ToChromeJson() << "\n";
    trace_file->close();
    if (!*trace_file) {
      outcome.Op("write trace",
                 Status::IOError("cannot write " + args.trace_out));
    }
  }
  read_host_speed();
  layer.Set("host.spin_ms", Median(spin_ms), "ms");
  if (!rss_reset) {
    outcome.Op("reset peak RSS", Status::IOError("cannot write /proc/self/clear_refs"));
  }
  std::filesystem::remove_all(args.work_dir, ec);

  const bool correct = outcome.failed == 0;
  for (const std::string& f : outcome.failures) {
    std::printf("failure %s\n", f.c_str());
  }
  layer.Set("run.failed_frac",
            static_cast<double>(outcome.failed) /
                static_cast<double>(std::max<int64_t>(1, outcome.attempted)),
            "ratio");
  // Every metric is printed by name with its unit; the final JSON line
  // carries the end-to-end set (untraced) or the per-layer set (traced).
  json::JsonObject metrics;
  auto report = [&](const std::string& name, double value,
                    const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    metrics.SetRaw(name, "{\"value\": " + std::string(buf) + ", \"unit\": \"" +
                             unit + "\"}");
  };
  for (const auto& [name, unit] : kEndToEnd) {
    std::printf("metric %s %.6g %s\n", name, e2e.Get(name), unit);
    if (!args.trace) report(name, e2e.Get(name), unit);
  }
  if (!args.trace) {
    std::printf("metric host.spin_ms %.6g ms\n", layer.Get("host.spin_ms"));
  } else {
    for (const auto& [name, unit] : LayerMetricNames()) {
      std::printf("metric %s %.6g %s\n", name.c_str(), layer.Get(name),
                  unit.c_str());
      report(name, layer.Get(name), unit);
    }
  }
  json::JsonObject result;
  result.Set("correct", correct)
      .Set("attempted", outcome.attempted)
      .Set("failed", outcome.failed)
      .SetRaw("metrics", metrics.Dump());
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
