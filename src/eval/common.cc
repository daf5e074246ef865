#include "eval/common.h"

#include <algorithm>

#include "provenance/store.h"

namespace ariadne {

const char* CaptureDegradePolicyToString(CaptureDegradePolicy policy) {
  switch (policy) {
    case CaptureDegradePolicy::kFail:
      return "fail";
    case CaptureDegradePolicy::kCaptureOff:
      return "capture-off";
    case CaptureDegradePolicy::kForwardLineage:
      return "forward-lineage";
  }
  return "?";
}

Status CheckDegradedCapture(const AnalyzedQuery& query,
                            const ProvenanceStore& store) {
  if (!store.degraded()) return Status::OK();
  const std::vector<int>& surviving = store.surviving_relations();
  for (size_t r = 0; r < store.schema().size(); ++r) {
    if (query.PredId(store.schema()[r].name) < 0) continue;  // not read
    if (std::find(surviving.begin(), surviving.end(), static_cast<int>(r)) !=
        surviving.end()) {
      continue;
    }
    return Status::Unsupported(
        "cannot evaluate over a degraded capture: relation '" +
        store.schema()[r].name + "' stopped being captured at superstep " +
        std::to_string(store.degraded_at()) +
        (store.degraded_reason().empty()
             ? std::string()
             : " (" + store.degraded_reason() + ")") +
        "; re-run capture or restrict the query to surviving relations");
  }
  return Status::OK();
}

void DedupKeepFirst(LayerSlice& run) {
  const size_t n = run.size();
  if (n < 2) return;
  // Slots hold positions of kept rows (all < kept <= i, so a move into
  // position `kept` never disturbs a row the table points at).
  constexpr uint32_t kEmpty = ~uint32_t{0};
  size_t capacity = 1;
  while (capacity < 2 * n) capacity <<= 1;
  thread_local std::vector<uint32_t> table;
  table.assign(capacity, kEmpty);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t slot = run.RowHash(i) & (capacity - 1);
    bool duplicate = false;
    for (; table[slot] != kEmpty; slot = (slot + 1) & (capacity - 1)) {
      if (run.RowsEqual(table[slot], i)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (kept != i) {
      std::copy_n(run.row(i), run.arity, run.mutable_row(kept));
    }
    table[slot] = static_cast<uint32_t>(kept++);
  }
  // Side entries of dropped rows stay: cells reference them by index.
  run.rows = static_cast<uint32_t>(kept);
  run.cells.resize(kept * run.arity);
}

void AppendMessagePeers(const LayerSlice& slice, std::vector<VertexId>& out) {
  if (slice.arity < 2) return;
  for (size_t i = 0; i < slice.size(); ++i) {
    const Cell& peer = slice.row(i)[1];
    if (peer.tag == Value::Kind::kInt) out.push_back(peer.i);
  }
}

void InsertSliceRows(const LayerSlice& slice, Relation& rel) {
  for (size_t i = 0; i < slice.size(); ++i) {
    rel.InsertCells({slice.row(i), slice.arity}, slice.side);
  }
}

void DeliverShips(Database& db, const ShipBundle& bundle) {
  for (const auto& [pred, tuples] : bundle) {
    Relation& rel = db.Rel(pred);
    for (const Tuple& t : tuples) rel.Insert(t);
  }
}

namespace {

ShipBundlePtr CollectImpl(const AnalyzedQuery& query, NodeQueryState& state,
                          VertexId self, const ShipRouting* routing_filter) {
  const auto& shipped = query.shipped_preds();
  if (shipped.empty() || state.db == nullptr) return nullptr;
  const Value self_loc(static_cast<int64_t>(self));
  ShipBundle bundle;
  for (size_t k = 0; k < shipped.size(); ++k) {
    const int pred = shipped[k];
    if (routing_filter != nullptr &&
        query.pred(pred).routing != *routing_filter) {
      continue;
    }
    const Relation* rel = state.db->RelIfExists(pred);
    const size_t size = rel == nullptr ? 0 : rel->size();
    size_t& watermark = state.ship_watermarks[k];
    if (size > watermark) {
      std::vector<Tuple> tuples;
      tuples.reserve(size - watermark);
      for (size_t i = watermark; i < size; ++i) {
        const Relation::RowView row = rel->row_view(i);
        if (row.size() > 0 && row.Equals(0, self_loc)) {
          tuples.push_back(row.ToTuple());
        }
      }
      watermark = size;
      if (!tuples.empty()) bundle.emplace_back(pred, std::move(tuples));
    }
  }
  if (bundle.empty()) return nullptr;
  return std::make_shared<const ShipBundle>(std::move(bundle));
}

}  // namespace

ShipBundlePtr CollectShipDelta(const AnalyzedQuery& query,
                               NodeQueryState& state, VertexId self) {
  return CollectImpl(query, state, self, nullptr);
}

ShipBundlePtr CollectShipDeltaForRouting(const AnalyzedQuery& query,
                                         NodeQueryState& state, VertexId self,
                                         ShipRouting routing) {
  return CollectImpl(query, state, self, &routing);
}

void ApplyRetention(const AnalyzedQuery& query, Database& db,
                    Superstep current, int window) {
  if (window <= 0) return;
  const Superstep cutoff = current - window;
  if (cutoff < 0) return;
  for (int p = 0; p < query.num_preds(); ++p) {
    const PredicateInfo& info = query.pred(p);
    if (info.is_idb() || IsStaticEdb(info.edb) || IsTransientEdb(info.edb)) {
      continue;
    }
    const auto step_col = EdbStepColumn(info.edb);
    if (!step_col.has_value()) continue;
    Relation* rel = db.MutableRelIfExists(p);
    if (rel == nullptr || rel->empty()) continue;
    const int col = *step_col;
    rel->RemoveIf([col, cutoff](const Tuple& t) {
      const Value& v = t[static_cast<size_t>(col)];
      return v.is_int() && v.AsInt() < cutoff;
    });
  }
}

const char* EvalModeToString(EvalMode mode) {
  switch (mode) {
    case EvalMode::kOnline:
      return "online";
    case EvalMode::kLayered:
      return "layered";
    case EvalMode::kNaive:
      return "naive";
  }
  return "?";
}

Status ValidateMode(const AnalyzedQuery& query, EvalMode mode) {
  switch (mode) {
    case EvalMode::kOnline:
      if (!query.vc_compatible() ||
          (query.direction() != Direction::kForward &&
           query.direction() != Direction::kLocal)) {
        return Status::InvalidArgument(
            "online evaluation requires a forward (or local) VC-compatible "
            "query; this query is " +
            std::string(DirectionToString(query.direction())));
      }
      return Status::OK();
    case EvalMode::kLayered:
      if (!query.vc_compatible() ||
          query.direction() == Direction::kUndirected) {
        return Status::InvalidArgument(
            "layered evaluation requires a directed VC-compatible query; "
            "this query is " +
            std::string(DirectionToString(query.direction())));
      }
      return Status::OK();
    case EvalMode::kNaive:
      return Status::OK();
  }
  return Status::Internal("unknown mode");
}

}  // namespace ariadne
