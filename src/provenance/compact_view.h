#ifndef ARIADNE_PROVENANCE_COMPACT_VIEW_H_
#define ARIADNE_PROVENANCE_COMPACT_VIEW_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "provenance/store.h"

namespace ariadne {

/// The compact provenance representation of paper §3 (Figure 4) as a
/// browsable API: one node per input vertex, annotated with its relation
/// tables across all supersteps. Where the ProvenanceStore organizes
/// tuples by *layer* (for layered evaluation), this view re-groups them
/// by *vertex* — the shape a developer inspects when debugging a single
/// vertex's history ("what did vertex 42 do, and when?").
class CompactProvenance {
 public:
  /// Materializes the per-vertex view from `store` (loads spilled layers
  /// on demand; the view owns copies of the layer slices).
  static Result<CompactProvenance> Build(ProvenanceStore* store);

  /// Vertices with at least one captured fact, ascending.
  std::vector<VertexId> Vertices() const;

  /// Tuples of `relation` at `vertex` (empty when absent), materialized.
  /// Tuples appear in capture (superstep) order.
  std::vector<Tuple> Table(VertexId vertex,
                           const std::string& relation) const;

  /// Value history of a vertex: (superstep, value), ascending, from the
  /// stored `value` (or `prov-value`) relation.
  std::vector<std::pair<Superstep, Value>> ValueHistory(VertexId vertex) const;

  /// Supersteps the vertex was active in, ascending.
  std::vector<Superstep> ActiveSupersteps(VertexId vertex) const;

  /// The evolution chain (paper Fig 3): consecutive activation pairs.
  std::vector<std::pair<Superstep, Superstep>> Evolution(
      VertexId vertex) const;

  /// Peers this vertex sent messages to / received messages from, with
  /// the superstep of each exchange (message payloads elided).
  std::vector<std::pair<VertexId, Superstep>> SentTo(VertexId vertex) const;
  std::vector<std::pair<VertexId, Superstep>> ReceivedFrom(
      VertexId vertex) const;

  /// Human-readable single-vertex dump (the Figure 4 box).
  std::string Describe(VertexId vertex) const;

  size_t TotalBytes() const { return total_bytes_; }

 private:
  struct VertexTables {
    std::unordered_map<int, std::vector<LayerSlice>> by_relation;
  };

  /// Calls f(slice, row) for every row of `rel` at `vertex`, in capture
  /// order; rows are read in place from the slices' cells.
  template <typename F>
  void ForEachRow(VertexId vertex, int rel, F f) const {
    if (rel < 0) return;
    auto it = vertices_.find(vertex);
    if (it == vertices_.end()) return;
    auto jt = it->second.by_relation.find(rel);
    if (jt == it->second.by_relation.end()) return;
    for (const LayerSlice& slice : jt->second) {
      for (size_t i = 0; i < slice.size(); ++i) f(slice, slice.row(i));
    }
  }

  std::vector<StoredRelation> schema_;
  std::unordered_map<VertexId, VertexTables> vertices_;
  int value_rel_ = -1, superstep_rel_ = -1, evolution_rel_ = -1;
  int send_rel_ = -1, receive_rel_ = -1;
  size_t total_bytes_ = 0;
};

}  // namespace ariadne

#endif  // ARIADNE_PROVENANCE_COMPACT_VIEW_H_
