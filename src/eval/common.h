#ifndef ARIADNE_EVAL_COMMON_H_
#define ARIADNE_EVAL_COMMON_H_

#include <memory>
#include <vector>

#include "engine/types.h"
#include "pql/analysis.h"
#include "pql/evaluator.h"
#include "pql/relation.h"
#include "storage/layer.h"

namespace ariadne {

/// Tuples of shipped relations travelling between provenance nodes,
/// grouped by predicate id. Attached to analytic messages during online
/// evaluation (paper §5.2: "appends the query tables to the messages")
/// and carried by dedicated ship messages during layered evaluation.
using ShipBundle = std::vector<std::pair<int, std::vector<Tuple>>>;
using ShipBundlePtr = std::shared_ptr<const ShipBundle>;

/// Per-provenance-node evaluation state shared by the online wrapper and
/// the layered query program.
struct NodeQueryState {
  std::unique_ptr<Database> db;
  Superstep last_active = -1;
  Superstep last_retention = 0;
  /// Per query->shipped_preds() position: rows already shipped.
  std::vector<size_t> ship_watermarks;
  /// Per query->output_preds() position: rows already persisted (capture).
  std::vector<size_t> capture_watermarks;

  Database& EnsureDb(const AnalyzedQuery& query) {
    if (db == nullptr) {
      db = std::make_unique<Database>(&query);
      ship_watermarks.assign(query.shipped_preds().size(), 0);
      capture_watermarks.assign(query.output_preds().size(), 0);
    }
    return *db;
  }
};

/// Inserts a bundle's tuples into `db`.
void DeliverShips(Database& db, const ShipBundle& bundle);

/// Collects tuples of shipped relations inserted since the node's ship
/// watermarks, advancing the watermarks. Only tuples *located at* `self`
/// (column 0) are shipped: remote tuples that arrived via earlier ships
/// are someone else's partition and must not be re-shipped (distributed
/// semantics, and the difference between O(E) and epidemic flooding).
/// Returns nullptr when nothing new.
ShipBundlePtr CollectShipDelta(const AnalyzedQuery& query,
                               NodeQueryState& state, VertexId self);

/// Like CollectShipDelta, but restricted to shipped predicates with the
/// given routing (used by layered evaluation, where different routings
/// target different neighbors).
ShipBundlePtr CollectShipDeltaForRouting(const AnalyzedQuery& query,
                                         NodeQueryState& state, VertexId self,
                                         ShipRouting routing);

/// Removes repeated rows from the cell run `run`, keeping each row's
/// first occurrence in its original position order (set semantics for
/// one capture run, under Value equality: Int(1) != Double(1.0),
/// 0.0 == -0.0, NaN != NaN, payloads by content). Positions of kept rows
/// are hashed into an open-addressing table; kept rows move down in
/// place.
void DedupKeepFirst(LayerSlice& run);

/// Appends column 1 of each row of a send-message / receive-message
/// slice (the message's other end, when it is an int) to `out`.
void AppendMessagePeers(const LayerSlice& slice, std::vector<VertexId>& out);

/// Inserts every row of `slice` into `rel` straight from its cells.
void InsertSliceRows(const LayerSlice& slice, Relation& rel);

/// Drops EDB history older than `window` supersteps from `db` (relations
/// whose EDB kind has a superstep column). Keeps IDB results intact.
void ApplyRetention(const AnalyzedQuery& query, Database& db,
                    Superstep current, int window);

/// Statistics of an offline (layered / naive) query evaluation.
struct OfflineEvalStats {
  double seconds = 0.0;
  Superstep supersteps = 0;       ///< processing steps (layered)
  size_t peak_layer_bytes = 0;    ///< largest single materialized layer
  size_t materialized_bytes = 0;  ///< evaluation-state bytes at the end
  size_t result_tuples = 0;
  EvalStats eval;  ///< per-rule evaluator counters, merged over vertices
};

struct OfflineRun {
  QueryResult result;
  OfflineEvalStats stats;
};

/// How a query is evaluated (paper §5 / §6.2): online alongside the
/// analytic, layered over a captured store, or naively over the fully
/// materialized provenance graph.
enum class EvalMode { kOnline, kLayered, kNaive };

const char* EvalModeToString(EvalMode mode);

/// Checks the (query class, mode) compatibility rules of Definition 5.2:
/// online needs a forward (or purely local) VC-compatible query; layered
/// needs a directed VC-compatible query; naive accepts anything.
Status ValidateMode(const AnalyzedQuery& query, EvalMode mode);

/// What capture does when spilling fails unrecoverably mid-run — the
/// degradation ladder of DESIGN.md §2.4. The analytic's output is exact
/// under every policy; only the captured provenance differs.
enum class CaptureDegradePolicy {
  /// Surface the storage error as the capture run's error (pre-recovery
  /// behavior, and the default).
  kFail,
  /// Stop capturing entirely: no further layers are appended, the store
  /// is marked degraded, RunStats::capture_degraded is set.
  kCaptureOff,
  /// Keep capturing only the forward-lineage skeleton (the superstep and
  /// evolution relations) in memory; derived relations stop at the
  /// degradation point.
  kForwardLineage,
};

const char* CaptureDegradePolicyToString(CaptureDegradePolicy policy);

/// Refusal gate for offline evaluation over a degraded capture: OK when
/// the store is complete, or when every store relation the query reads is
/// in the store's surviving set. Otherwise a clear Unsupported error
/// naming the missing relation and the degradation point — a degraded
/// store must never silently answer a full-history query.
class ProvenanceStore;  // fwd (provenance/store.h includes this header)
Status CheckDegradedCapture(const AnalyzedQuery& query,
                            const ProvenanceStore& store);

}  // namespace ariadne

#endif  // ARIADNE_EVAL_COMMON_H_
