#ifndef ARIADNE_BENCH_BENCH_COMMON_H_
#define ARIADNE_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/ariadne.h"

namespace ariadne::bench {

/// Laptop-scale R-MAT stand-ins for the paper's web crawls (Table 2).
/// Sizes grow in the same order as IN-04 < UK-02 < AR-05 < UK-05; the
/// experiments report ratios, which depend on the degree distribution and
/// superstep counts rather than absolute scale (see DESIGN.md §2).
struct WebDataset {
  std::string name;        ///< e.g. "WEB-XS (IN-04 stand-in)"
  std::string short_name;  ///< e.g. "WEB-XS"
  RmatOptions rmat;
  bool naive_feasible;  ///< paper: Naive only scaled to the two smallest
};

const std::vector<WebDataset>& WebDatasets();

/// The MovieLens-20M stand-in for the ALS experiments.
BipartiteRatingsOptions MlSynOptions(int seed = 7);

/// PageRank iteration count used across all experiments (paper: 20).
PageRankOptions BenchPageRankOptions();

/// The three web-graph analytics of the evaluation.
enum class AnalyticKind { kPageRank, kSssp, kWcc };
const char* AnalyticName(AnalyticKind kind);

/// SSSP source / capture source per the paper: the SSSP source for SSSP,
/// the highest-degree vertex for PageRank and WCC.
VertexId CaptureSource(AnalyticKind kind, const Graph& graph);

/// apt query epsilon per analytic (paper §6.2.2).
double AptEpsilon(AnalyticKind kind);

/// Dispatchers over the statically-typed analytics.
Result<RunStats> RunBaseline(AnalyticKind kind, const Graph& graph);
Result<RunStats> RunCapture(AnalyticKind kind, const Graph& graph,
                            const AnalyzedQuery& capture_query,
                            ProvenanceStore* store, int retention_window = 2,
                            bool use_fast_capture = true);
Result<OnlineRunResult> RunOnlineQuery(AnalyticKind kind, const Graph& graph,
                                       const AnalyzedQuery& query,
                                       int retention_window = 2);

/// Moves a captured store fully onto disk (budget 0), standing in for the
/// paper's HDFS-resident provenance graph: offline querying then pays
/// real (re)load costs per layer, exactly as in the paper's setup, while
/// online evaluation never touches storage.
Status SpillToDisk(ProvenanceStore* store);

/// Repetition count for timed sections; override with ARIADNE_BENCH_REPS.
/// The paper reports the trimmed mean of 5 runs; the default here is 1 so
/// the full harness stays fast — raise it for careful measurements.
int BenchReps();

/// Runs `fn` BenchReps() times and returns the trimmed-mean seconds
/// (drops min and max when reps >= 3, matching the paper's methodology).
double TimedSeconds(const std::function<void()>& fn);

/// Fixed-width table printer for paper-style output.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  void Print() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the bench banner: which paper table/figure, what the paper
/// reported, what to look for in the output below.
void PrintBanner(const std::string& experiment, const std::string& paper_says);

std::string Ratio(double value, double baseline);

// ------------------------------------------------------------------ JSON
// JSON emission lives in common/json.h (shared with ariadne_run
// --stats-json and ariadne_serve); these aliases keep existing bench
// call sites (`bench::JsonObject`, ...) source-compatible.

using json::JsonEscape;
using json::JsonObject;
using json::JsonArray;

/// Removes `--json <path>` / `--json=<path>` from the argument list (so
/// the rest can go to benchmark::Initialize) and returns the path, or ""
/// when the flag is absent. An unwritable path exits the process with
/// status 1 right away, before any sweep runs.
std::string ConsumeJsonFlag(int* argc, char** argv);

/// Writes `doc` plus a newline to `path` and reports it on stderr;
/// prints the error and returns false when the file cannot be written.
bool WriteJsonFile(const std::string& path, const JsonObject& doc);

}  // namespace ariadne::bench

#endif  // ARIADNE_BENCH_BENCH_COMMON_H_
