// Ablation (paper §3): the compact provenance representation — the input
// graph annotated with per-vertex relations — against the unfolded
// provenance graph with one materialized node per (vertex, superstep) and
// one edge object per message/evolution edge.
//
// Shape to check: the compact representation is several times smaller;
// the gap grows with superstep count (the unfolded graph pays per-node
// and per-edge object overheads that the compact tables amortize).

#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"

namespace ariadne::bench {
namespace {

/// Cost model for the unfolded provenance graph, per paper §3: a node
/// object per (vertex, superstep) with its value, plus an edge object per
/// send/receive message edge (with payload) and per evolution edge.
/// Object sizes mirror our engine's in-memory costs: 48B per vertex
/// object (id, value slot, adjacency header), 24B per edge object.
size_t UnfoldedBytes(ProvenanceStore& store) {
  constexpr size_t kNodeBytes = 48;
  constexpr size_t kEdgeBytes = 24;
  const int superstep_rel = store.RelId("superstep");
  const int evolution_rel = store.RelId("evolution");
  const int send_rel = store.RelId("send-message");
  const int receive_rel = store.RelId("receive-message");
  size_t nodes = 0, edges = 0, payload = 0;
  for (int s = 0; s < store.num_layers(); ++s) {
    const Layer* layer = *store.GetLayer(s);
    for (const auto& slice : layer->slices) {
      if (slice.rel == superstep_rel) {
        nodes += slice.size();
      } else if (slice.rel == evolution_rel) {
        edges += slice.size();
      } else if (slice.rel == send_rel || slice.rel == receive_rel) {
        edges += slice.size();
        for (size_t i = 0; i < slice.size(); ++i) {
          payload += slice.ValueOf(slice.row(i)[2]).ByteSize();
        }
      }
    }
  }
  return nodes * kNodeBytes + edges * kEdgeBytes + payload;
}

int Run() {
  SetLogLevel(LogLevel::kWarning);
  PrintBanner("Ablation: compact vs unfolded provenance representation",
              "the paper's compact format replaces n provenance nodes per "
              "vertex by one node with n-tuple annotations (\"much cheaper "
              "to represent n data items than vertex objects\")");

  TablePrinter table({"Dataset", "Analytic", "Compact", "Unfolded",
                      "Unfolded/Compact"});
  for (const auto& dataset : WebDatasets()) {
    auto graph = GenerateRmat(dataset.rmat);
    if (!graph.ok()) return 1;
    Session session(&*graph);
    auto capture = session.PrepareOnline(queries::CaptureFull());
    if (!capture.ok()) return 1;
    for (AnalyticKind kind : {AnalyticKind::kPageRank, AnalyticKind::kWcc}) {
      ProvenanceStore store;
      ARIADNE_CHECK(RunCapture(kind, *graph, *capture, &store).ok());
      const size_t compact = store.TotalBytes();
      const size_t unfolded = UnfoldedBytes(store);
      table.AddRow({dataset.short_name, AnalyticName(kind),
                    HumanBytes(compact), HumanBytes(unfolded),
                    Ratio(static_cast<double>(unfolded),
                          static_cast<double>(compact))});
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace ariadne::bench

int main() { return ariadne::bench::Run(); }
