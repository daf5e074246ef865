#include "eval/naive.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/timer.h"
#include "engine/engine.h"
#include "pql/evaluator.h"

namespace ariadne {

namespace {

struct NaiveShipMessage {
  ShipBundlePtr ships;
};

/// The traditional evaluation strategy (paper §6.2 "Naive"): materialize
/// the ENTIRE provenance graph in the engine at once — every vertex holds
/// all of its layers' facts up front — then run the query vertex program
/// to fixpoint, exchanging remote tables along the recorded message edges
/// without any layer ordering. Memory scales with the whole provenance
/// graph, which is exactly why the paper's Naive "was not able to scale
/// beyond the two smallest datasets".
class NaiveProgram final : public VertexProgram<char, NaiveShipMessage> {
 public:
  NaiveProgram(const Graph* graph, const ProvenanceStore* store,
               const AnalyzedQuery* query)
      : graph_(graph), store_(store), query_(query), evaluator_(query) {
    rel_to_pred_.resize(store_->schema().size(), -1);
    for (size_t r = 0; r < store_->schema().size(); ++r) {
      rel_to_pred_[r] = query_->PredId(store_->schema()[r].name);
    }
    send_rel_ = store_->RelId("send-message");
    receive_rel_ = store_->RelId("receive-message");
  }

  /// Materializes every layer into the per-vertex databases.
  Status Prepare() {
    states_.clear();
    states_.resize(static_cast<size_t>(graph_->num_vertices()));
    // Adjacency fallback caches are filled lazily, each slot only by its
    // own vertex's Compute, so sizing them here keeps the fill race-free.
    adj_cache_.assign(3, std::vector<std::vector<VertexId>>(
                             static_cast<size_t>(graph_->num_vertices())));
    adj_filled_.assign(3, std::vector<uint8_t>(
                              static_cast<size_t>(graph_->num_vertices()), 0));
    auto load = [&](const Layer& layer) {
      for (const auto& slice : layer.slices) {
        // Routing indexes follow the recorded message edges even when the
        // query itself does not read send/receive-message.
        if (slice.rel == send_rel_) {
          AppendMessagePeers(slice, route_out_[slice.vertex]);
        } else if (slice.rel == receive_rel_) {
          AppendMessagePeers(slice, route_in_[slice.vertex]);
        }
        const int pred = rel_to_pred_[static_cast<size_t>(slice.rel)];
        if (pred < 0) continue;
        NodeQueryState& st = states_[static_cast<size_t>(slice.vertex)];
        InsertSliceRows(slice, st.EnsureDb(*query_).Rel(pred));
      }
    };
    load(store_->static_data());
    for (int step = 0; step < store_->num_layers(); ++step) {
      // GetLayerRelations (not GetLayer) keeps the store const: the
      // returned shared_ptr owns the decoded layer until `load` copied
      // its tuples out, without touching the store's loaded-layer slot.
      ARIADNE_ASSIGN_OR_RETURN(std::shared_ptr<const Layer> layer,
                               store_->GetLayerRelations(step, {}));
      load(*layer);
    }
    for (auto* index : {&route_out_, &route_in_}) {
      for (auto& [vertex, targets] : *index) SortUnique(targets);
    }
    return Status::OK();
  }

  char InitialValue(VertexId, const Graph&) const override { return 0; }

  void RegisterAggregators(AggregatorRegistry& registry) override {
    registry.Register("naive.progress", AggregateOp::kSum);
  }

  void Compute(VertexContext<char, NaiveShipMessage>& ctx,
               std::span<const NaiveShipMessage> messages) override {
    const VertexId v = ctx.id();
    NodeQueryState& st = states_[static_cast<size_t>(v)];
    Database& db = st.EnsureDb(*query_);
    for (const auto& m : messages) {
      if (m.ships != nullptr) DeliverShips(db, *m.ships);
    }

    EvalContext ectx;
    ectx.db = &db;
    ectx.graph = graph_;
    ectx.local_vertex = v;
    // Strata are synchronized globally: negation may only read lower
    // strata once they are complete everywhere.
    ectx.max_stratum = current_stratum_;
    auto evaluated = evaluator_.Evaluate(ectx);
    if (!evaluated.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_.ok()) first_error_ = evaluated.status();
      return;
    }
    bool progress = *evaluated;

    // Ship fresh deltas along all recorded message edges (no layer
    // ordering); the master advances the stratum after a quiet round.
    for (ShipRouting routing :
         {ShipRouting::kAlongMessages, ShipRouting::kAlongReverseMessages,
          ShipRouting::kAlongOutEdges, ShipRouting::kAlongInEdges}) {
      ShipBundlePtr bundle =
          CollectShipDeltaForRouting(*query_, st, v, routing);
      if (bundle == nullptr) continue;
      progress = true;
      for (VertexId target : RoutingTargets(v, routing)) {
        ctx.SendMessage(target, NaiveShipMessage{bundle});
      }
    }
    if (progress) ctx.AggregateDouble("naive.progress", 1.0);
    // Never vote to halt: every vertex stays active every round until the
    // master ends the run — the cost profile that makes Naive "naive".
  }

  void MasterCompute(MasterContext& master) override {
    if (master.aggregators->Get("naive.progress") == 0.0) {
      ++current_stratum_;
      if (current_stratum_ >= query_->num_strata()) master.halt = true;
    }
  }

  QueryResult CollectResult() const {
    QueryResult result;
    for (const auto& state : states_) {
      if (state.db != nullptr) result.Merge(*query_, *state.db);
    }
    return result;
  }

  size_t StateBytes() const {
    size_t bytes = 0;
    for (const auto& state : states_) {
      if (state.db != nullptr) bytes += state.db->TotalBytes();
    }
    return bytes;
  }

  EvalStats CollectEvalStats() const {
    EvalStats merged;
    for (const auto& state : states_) {
      if (state.db != nullptr) merged.Merge(state.db->eval_stats());
    }
    return merged;
  }

  const Status& status() const { return first_error_; }

 private:
  static void SortUnique(std::vector<VertexId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }

  /// Lazily materializes the sorted-unique adjacency list for `v` in
  /// cache plane `plane` (0 = both directions, 1 = out, 2 = in). Each
  /// slot is written only by its own vertex's Compute, never shared.
  std::span<const VertexId> CachedAdjacency(int plane, VertexId v) {
    std::vector<VertexId>& slot =
        adj_cache_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
    uint8_t& filled =
        adj_filled_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
    if (!filled) {
      // Hint the paged graph backend: naive eval fills adjacency in
      // ascending vertex order, so boundary crossings prefetch the next
      // partition (no-op for the in-memory backend).
      graph_->AdviseSequentialScan(v);
      if (plane != 2) {
        auto nbrs = graph_->OutNeighbors(v);
        slot.insert(slot.end(), nbrs.begin(), nbrs.end());
      }
      if (plane != 1) {
        auto nbrs = graph_->InNeighbors(v);
        slot.insert(slot.end(), nbrs.begin(), nbrs.end());
      }
      SortUnique(slot);
      filled = 1;
    }
    return slot;
  }

  /// All distinct peers over every superstep (the naive mode holds the
  /// whole unfolded graph, so ships fan out along all recorded edges).
  /// Falls back to static adjacency in both directions when the store did
  /// not capture message records (overshipping is safe). Route maps are
  /// built once in Prepare and never mutated, so spans stay valid.
  std::span<const VertexId> RoutingTargets(VertexId v, ShipRouting routing) {
    const bool along_messages = routing == ShipRouting::kAlongMessages ||
                                routing == ShipRouting::kAlongReverseMessages;
    if (along_messages) {
      const auto& index = routing == ShipRouting::kAlongMessages
                              ? route_out_
                              : route_in_;
      const int rel = routing == ShipRouting::kAlongMessages ? send_rel_
                                                             : receive_rel_;
      if (rel >= 0) {
        auto it = index.find(v);
        if (it == index.end()) return {};
        return it->second;
      }
      return CachedAdjacency(0, v);
    }
    return CachedAdjacency(routing == ShipRouting::kAlongOutEdges ? 1 : 2, v);
  }

  const Graph* graph_;
  const ProvenanceStore* store_;
  const AnalyzedQuery* query_;
  RuleEvaluator evaluator_;
  std::vector<int> rel_to_pred_;
  int send_rel_ = -1, receive_rel_ = -1;
  int current_stratum_ = 0;
  std::unordered_map<VertexId, std::vector<VertexId>> route_out_;
  std::unordered_map<VertexId, std::vector<VertexId>> route_in_;
  /// Lazy sorted-unique static-adjacency fallbacks, one plane per
  /// direction class (both / out / in), one slot per vertex.
  std::vector<std::vector<std::vector<VertexId>>> adj_cache_;
  std::vector<std::vector<uint8_t>> adj_filled_;
  std::vector<NodeQueryState> states_;
  std::mutex mu_;
  Status first_error_;
};

}  // namespace

Result<OfflineRun> NaiveEvaluator::Run() {
  ARIADNE_RETURN_NOT_OK(ValidateMode(*query_, EvalMode::kNaive));
  // Same refusal as layered eval: a degraded capture must never silently
  // answer a full-history query (DESIGN.md §2.4).
  ARIADNE_RETURN_NOT_OK(CheckDegradedCapture(*query_, *store_));
  if (store_->num_layers() == 0) {
    return Status::InvalidArgument("provenance store has no layers");
  }
  WallTimer timer;
  NaiveProgram program(graph_, store_, query_);
  ARIADNE_RETURN_NOT_OK(program.Prepare());
  const size_t loaded_bytes = program.StateBytes();

  EngineOptions engine_options;
  // Each stratum needs at most one round per layer plus a quiet round;
  // undirected queries may bounce ships both ways, hence the factor.
  engine_options.max_supersteps =
      query_->num_strata() * (2 * store_->num_layers() + 4);
  Engine<char, NaiveShipMessage> engine(graph_, engine_options);
  ARIADNE_ASSIGN_OR_RETURN(RunStats stats, engine.Run(program));
  ARIADNE_RETURN_NOT_OK(program.status());

  OfflineRun run;
  run.result = program.CollectResult();
  run.stats.seconds = timer.ElapsedSeconds();
  run.stats.supersteps = stats.supersteps;
  run.stats.peak_layer_bytes = loaded_bytes;
  run.stats.materialized_bytes = program.StateBytes();
  run.stats.result_tuples = run.result.TotalTuples();
  run.stats.eval = program.CollectEvalStats();
  return run;
}

}  // namespace ariadne
