#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>

#include "common/string_util.h"
#include "common/timer.h"

namespace ariadne::bench {

const std::vector<WebDataset>& WebDatasets() {
  static const std::vector<WebDataset>* kDatasets = new std::vector<WebDataset>{
      // Edge weights span [0, 2.5) instead of the paper's [0, 1): our
      // R-MAT stand-ins have ~5x smaller diameters than the web crawls,
      // so this keeps typical SSSP distances (median ~5) — and therefore
      // the meaning of the apt epsilon = 0.1 — comparable to the paper.
      {"WEB-XS (IN-04 stand-in)", "WEB-XS",
       RmatOptions{.scale = 10, .avg_degree = 16, .seed = 101,
                   .max_weight = 2.5},
       true},
      {"WEB-S (UK-02 stand-in)", "WEB-S",
       RmatOptions{.scale = 11, .avg_degree = 16, .seed = 102,
                   .max_weight = 2.5},
       true},
      {"WEB-M (AR-05 stand-in)", "WEB-M",
       RmatOptions{.scale = 12, .avg_degree = 20, .seed = 103,
                   .max_weight = 2.5},
       false},
      {"WEB-L (UK-05 stand-in)", "WEB-L",
       RmatOptions{.scale = 13, .avg_degree = 24, .seed = 104,
                   .max_weight = 2.5},
       false},
  };
  return *kDatasets;
}

BipartiteRatingsOptions MlSynOptions(int seed) {
  BipartiteRatingsOptions options;
  options.num_users = 1500;
  options.num_items = 400;
  options.ratings_per_user = 40;
  options.seed = static_cast<uint64_t>(seed);
  return options;
}

PageRankOptions BenchPageRankOptions() {
  PageRankOptions options;
  options.iterations = 20;  // the paper's web-graph runs use 20 supersteps
  return options;
}

const char* AnalyticName(AnalyticKind kind) {
  switch (kind) {
    case AnalyticKind::kPageRank:
      return "PageRank";
    case AnalyticKind::kSssp:
      return "SSSP";
    case AnalyticKind::kWcc:
      return "WCC";
  }
  return "?";
}

VertexId CaptureSource(AnalyticKind kind, const Graph& graph) {
  // Paper §6.1: highest-degree vertex for PageRank and WCC, the source
  // for SSSP — chosen as an upper bound on influenced-set size.
  (void)kind;
  return HighestDegreeVertex(graph);
}

double AptEpsilon(AnalyticKind kind) {
  switch (kind) {
    case AnalyticKind::kPageRank:
      return 0.01;  // paper §6.2.2
    case AnalyticKind::kSssp:
      return 0.1;
    case AnalyticKind::kWcc:
      return 1.0;
  }
  return 0.0;
}

namespace {

template <typename Fn>
Result<RunStats> Dispatch(AnalyticKind kind, const Graph& graph, Fn&& fn) {
  switch (kind) {
    case AnalyticKind::kPageRank: {
      PageRankProgram program(BenchPageRankOptions());
      return fn(program);
    }
    case AnalyticKind::kSssp: {
      SsspProgram program(CaptureSource(kind, graph));
      return fn(program);
    }
    case AnalyticKind::kWcc: {
      WccProgram program;
      return fn(program);
    }
  }
  return Status::Internal("unknown analytic");
}

}  // namespace

Result<RunStats> RunBaseline(AnalyticKind kind, const Graph& graph) {
  Session session(&graph);
  return Dispatch(kind, graph, [&](auto& program) {
    return session.RunBaseline(program);
  });
}

Result<RunStats> RunCapture(AnalyticKind kind, const Graph& graph,
                            const AnalyzedQuery& capture_query,
                            ProvenanceStore* store, int retention_window,
                            bool use_fast_capture) {
  Session session(&graph);
  return Dispatch(kind, graph, [&](auto& program) {
    return session.Capture(program, capture_query, store, retention_window,
                           nullptr, use_fast_capture);
  });
}

Result<OnlineRunResult> RunOnlineQuery(AnalyticKind kind, const Graph& graph,
                                       const AnalyzedQuery& query,
                                       int retention_window) {
  Session session(&graph);
  Result<OnlineRunResult> out = Status::Internal("not run");
  auto st = Dispatch(kind, graph, [&](auto& program) -> Result<RunStats> {
    out = session.RunOnline(program, query, retention_window);
    if (!out.ok()) return out.status();
    return out->engine_stats;
  });
  if (!st.ok()) return st.status();
  return out;
}

Status SpillToDisk(ProvenanceStore* store) {
  static int counter = 0;
  const std::string dir =
      "/tmp/ariadne_bench_spill_" + std::to_string(++counter);
  std::filesystem::create_directories(dir);
  return store->EnableSpill(dir, /*budget_bytes=*/0);
}

int BenchReps() {
  const char* env = std::getenv("ARIADNE_BENCH_REPS");
  if (env != nullptr) {
    const int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 1;
}

double TimedSeconds(const std::function<void()>& fn) {
  const int reps = BenchReps();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  size_t begin = 0, end = samples.size();
  if (samples.size() >= 3) {
    ++begin;
    --end;
  }
  const double sum = std::accumulate(samples.begin() + static_cast<ptrdiff_t>(begin),
                                     samples.begin() + static_cast<ptrdiff_t>(end), 0.0);
  return sum / static_cast<double>(end - begin);
}

TablePrinter::TablePrinter(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths;
  for (const auto& row : rows_) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    std::string line = "  ";
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      line += rows_[r][c];
      line.append(widths[c] - rows_[r][c].size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule = "  ";
      for (size_t c = 0; c < widths.size(); ++c) {
        rule.append(widths[c], '-');
        rule.append(2, ' ');
      }
      std::printf("%s\n", rule.c_str());
    }
  }
}

void PrintBanner(const std::string& experiment,
                 const std::string& paper_says) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("Paper reports: %s\n", paper_says.c_str());
  std::printf("(reps per timing: %d; set ARIADNE_BENCH_REPS for more)\n\n",
              BenchReps());
}

std::string Ratio(double value, double baseline) {
  if (baseline <= 0) return "n/a";
  return FormatDouble(value / baseline, 2) + "x";
}

std::string ConsumeJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < *argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (!path.empty()) {
    // Probe with append mode so an existing file is left untouched, and
    // remove the probe file again if it did not exist before.
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    std::FILE* probe = std::fopen(path.c_str(), "a");
    if (probe == nullptr) {
      std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                   std::strerror(errno));
      std::exit(1);
    }
    std::fclose(probe);
    if (!existed) std::filesystem::remove(path, ec);
  }
  return path;
}

bool WriteJsonFile(const std::string& path, const JsonObject& doc) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const std::string text = doc.Dump() + "\n";
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace ariadne::bench
