// Reproduces paper Figure 12: backward lineage tracing — Query 10 over
// the full provenance graph vs Query 12 over the Query-11 custom capture
// (no message payloads, no per-message destinations), both evaluated with
// descending layered evaluation.
//
// Shape to check: querying the custom provenance graph is several times
// faster than the full one (paper: Full 2.6-3.4x the analytic's runtime,
// Custom ~0.5x, i.e. a 5-7x gap), and both return the identical lineage.

#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"

namespace ariadne::bench {
namespace {

/// A vertex active in the last layer plus that superstep (the paper
/// starts the trace from a vertex that computed in the last superstep).
Result<std::pair<VertexId, Superstep>> TraceSeed(ProvenanceStore& store) {
  for (int step = store.num_layers() - 1; step >= 0; --step) {
    ARIADNE_ASSIGN_OR_RETURN(const Layer* layer, store.GetLayer(step));
    const int superstep_rel = store.RelId("superstep");
    for (const auto& slice : layer->slices) {
      if (slice.rel == superstep_rel && !slice.empty()) {
        return std::make_pair(slice.vertex, layer->step);
      }
    }
  }
  return Status::NotFound("no active vertex in any layer");
}

int Run() {
  SetLogLevel(LogLevel::kWarning);
  PrintBanner(
      "Figure 12: backward lineage, full (Q10) vs custom (Q11+Q12) capture",
      "layered backward tracing takes 2.6-3.4x the analytic on the full "
      "provenance graph but only ~0.5x on the custom graph; identical "
      "lineage either way");

  TablePrinter table({"Dataset", "Analytic", "Base(s)", "Full(s)",
                      "Full/Base", "Custom(s)", "Custom/Base", "Lineage",
                      "Match"});
  for (const auto& dataset : WebDatasets()) {
    auto base_graph = GenerateRmat(dataset.rmat);
    if (!base_graph.ok()) return 1;
    // WCC messages along BOTH edge directions; the paper's Query 11/12
    // custom-capture scheme presumes messages follow out-edges ("for
    // analytics where vertices send messages to all their outgoing
    // neighbors"), so WCC runs on a symmetrized copy, matching Giraph's
    // practice of symmetrizing input for connected components.
    GraphBuilder sym_builder;
    sym_builder.EnsureVertices(base_graph->num_vertices());
    for (VertexId v = 0; v < base_graph->num_vertices(); ++v) {
      auto nbrs = base_graph->OutNeighbors(v);
      auto weights = base_graph->OutWeights(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        sym_builder.AddEdge(v, nbrs[i], weights[i]);
        sym_builder.AddEdge(nbrs[i], v, weights[i]);
      }
    }
    sym_builder.Dedup();
    auto sym_graph = sym_builder.Build();
    if (!sym_graph.ok()) return 1;

    for (AnalyticKind kind : {AnalyticKind::kPageRank, AnalyticKind::kSssp,
                              AnalyticKind::kWcc}) {
      const Graph* graph_ptr =
          kind == AnalyticKind::kWcc ? &*sym_graph : &*base_graph;
      const Graph& graph_ref = *graph_ptr;
      Session session(graph_ptr);
      auto full_capture = session.PrepareOnline(queries::CaptureFull());
      auto custom_capture =
          session.PrepareOnline(queries::CaptureCustomBackward());
      if (!full_capture.ok() || !custom_capture.ok()) return 1;
      const double base = TimedSeconds([&] {
        ARIADNE_CHECK(RunBaseline(kind, graph_ref).ok());
      });

      ProvenanceStore full_store, custom_store;
      ARIADNE_CHECK(RunCapture(kind, graph_ref, *full_capture, &full_store).ok());
      ARIADNE_CHECK(
          RunCapture(kind, graph_ref, *custom_capture, &custom_store).ok());
      auto seed_probe = TraceSeed(full_store);  // before spilling
      ARIADNE_CHECK(SpillToDisk(&full_store).ok());
      ARIADNE_CHECK(SpillToDisk(&custom_store).ok());

      auto& seed = seed_probe;
      if (!seed.ok()) {
        std::fprintf(stderr, "%s\n", seed.status().ToString().c_str());
        return 1;
      }
      const QueryParams params{
          {"alpha", Value(static_cast<int64_t>(seed->first))},
          {"sigma", Value(static_cast<int64_t>(seed->second))}};

      auto q10 = session.PrepareOffline(queries::BackwardLineageFull(),
                                        full_store, params);
      auto q12 = session.PrepareOffline(queries::BackwardLineageCustom(),
                                        custom_store, params);
      if (!q10.ok() || !q12.ok()) return 1;

      size_t full_lineage = 0, custom_lineage = 0;
      std::vector<std::string> full_rows, custom_rows;
      const double full_time = TimedSeconds([&] {
        auto run = session.RunOffline(&full_store, *q10, EvalMode::kLayered);
        ARIADNE_CHECK(run.ok());
        full_lineage = run->result.TupleCount("back-lineage");
        const Relation* rel = run->result.Table("back-lineage");
        full_rows = rel == nullptr ? std::vector<std::string>{}
                                   : rel->ToSortedStrings();
      });
      const double custom_time = TimedSeconds([&] {
        auto run =
            session.RunOffline(&custom_store, *q12, EvalMode::kLayered);
        ARIADNE_CHECK(run.ok());
        custom_lineage = run->result.TupleCount("back-lineage");
        const Relation* rel = run->result.Table("back-lineage");
        custom_rows = rel == nullptr ? std::vector<std::string>{}
                                     : rel->ToSortedStrings();
      });
      table.AddRow({dataset.short_name, AnalyticName(kind),
                    FormatDouble(base, 3), FormatDouble(full_time, 3),
                    Ratio(full_time, base), FormatDouble(custom_time, 3),
                    Ratio(custom_time, base), std::to_string(full_lineage),
                    full_rows == custom_rows ? "yes" : "NO"});
      (void)custom_lineage;
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace ariadne::bench

int main() { return ariadne::bench::Run(); }
