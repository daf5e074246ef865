#ifndef ARIADNE_EVAL_ONLINE_H_
#define ARIADNE_EVAL_ONLINE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "analytics/value_traits.h"
#include "common/logging.h"
#include "engine/vertex_program.h"
#include "eval/common.h"
#include "provenance/store.h"
#include "recovery/checkpoint.h"
#include "storage/page.h"

namespace ariadne {

/// Envelope around an analytic's message during online/capture runs:
/// the sender id (needed by the receive-message provenance relation) and
/// an optional bundle of query tables riding along (paper §5.2).
template <typename M>
struct OnlineMessage {
  VertexId src = 0;
  M payload{};
  ShipBundlePtr ships;  ///< shared by all messages of one scatter
};

namespace recovery {

/// Checkpoint serialization of in-flight online messages, so capture runs
/// are engine-checkpointable. Ships serialize by content; on restore each
/// message owns its own bundle (sharing is a memory optimization, not a
/// semantic property). In the checkpoint-supported fast-capture path
/// ships are always null anyway.
template <typename M>
  requires Checkpointable<M>
struct CheckpointTraits<OnlineMessage<M>> {
  static void Write(BinaryWriter& w, const OnlineMessage<M>& m) {
    w.WriteI64(m.src);
    CheckpointTraits<M>::Write(w, m.payload);
    const ShipBundle* ships = m.ships.get();
    w.WriteU64(ships == nullptr ? 0 : ships->size());
    if (ships == nullptr) return;
    for (const auto& [pred, tuples] : *ships) {
      w.WriteI64(pred);
      w.WriteU64(tuples.size());
      for (const Tuple& t : tuples) {
        w.WriteU64(t.size());
        for (const Value& value : t) w.WriteValue(value);
      }
    }
  }

  static Result<OnlineMessage<M>> Read(BinaryReader& r) {
    OnlineMessage<M> m;
    ARIADNE_ASSIGN_OR_RETURN(int64_t src, r.ReadI64());
    m.src = static_cast<VertexId>(src);
    ARIADNE_ASSIGN_OR_RETURN(m.payload, CheckpointTraits<M>::Read(r));
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_rels, r.ReadU64());
    if (n_rels == 0) return m;
    if (n_rels > r.remaining() / 16) {
      return Status::ParseError("ship bundle relation count " +
                                std::to_string(n_rels) +
                                " exceeds remaining checkpoint bytes");
    }
    ShipBundle bundle;
    bundle.reserve(n_rels);
    for (uint64_t k = 0; k < n_rels; ++k) {
      ARIADNE_ASSIGN_OR_RETURN(int64_t pred, r.ReadI64());
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n_tuples, r.ReadU64());
      if (n_tuples > r.remaining() / 8) {
        return Status::ParseError("ship bundle tuple count " +
                                  std::to_string(n_tuples) +
                                  " exceeds remaining checkpoint bytes");
      }
      std::vector<Tuple> tuples;
      tuples.reserve(n_tuples);
      for (uint64_t i = 0; i < n_tuples; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(uint64_t arity, r.ReadU64());
        if (arity > r.remaining()) {
          return Status::ParseError(
              "ship tuple arity " + std::to_string(arity) +
              " exceeds remaining checkpoint bytes");
        }
        Tuple t;
        t.reserve(arity);
        for (uint64_t c = 0; c < arity; ++c) {
          ARIADNE_ASSIGN_OR_RETURN(Value value, r.ReadValue());
          t.push_back(std::move(value));
        }
        tuples.push_back(std::move(t));
      }
      bundle.emplace_back(static_cast<int>(pred), std::move(tuples));
    }
    m.ships = std::make_shared<const ShipBundle>(std::move(bundle));
    return m;
  }
};

}  // namespace recovery

struct OnlineOptions {
  /// Persist derived relations (plus the superstep/evolution skeleton)
  /// into `store`, layer by layer — this is capture mode (paper Fig 1a).
  /// With a null store the run is pure online querying (paper Fig 2).
  ProvenanceStore* store = nullptr;
  /// EDB history window in supersteps (0 = keep everything). Safe for
  /// queries that only join the previous activation (evolution / i-1).
  int retention_window = 0;
  /// Disable the compiled projection fast path for capture queries and
  /// interpret them like any other query (ablation / fair comparisons).
  bool disable_fast_capture = false;
  /// What to do when the store reports an unrecoverable append/spill
  /// failure mid-run (DESIGN.md §2.4). Anything but kFail keeps the
  /// analytic alive and degrades the capture instead.
  CaptureDegradePolicy degrade_policy = CaptureDegradePolicy::kFail;
};

/// Wraps an unmodified analytic `P` and evaluates a forward PQL query in
/// lockstep with it (paper §5.2, Theorem 5.4). The wrapper is itself an
/// ordinary vertex program: the engine is untouched, the analytic is
/// untouched, and query tables ride on the analytic's own messages.
///
/// The same wrapper implements declarative capture (paper Fig 1a): with a
/// ProvenanceStore attached, the query's derived tuples are persisted per
/// layer. Projection-only capture queries (paper Queries 2 and 11) take a
/// compiled fast path that bypasses Datalog evaluation entirely.
template <typename P>
class OnlineProgram final
    : public VertexProgram<typename P::ValueType,
                           OnlineMessage<typename P::MessageType>> {
 public:
  using V = typename P::ValueType;
  using M = typename P::MessageType;
  using WrappedMessage = OnlineMessage<M>;

  /// All pointers must outlive the program. `query` must be analyzed with
  /// transient EDBs allowed and must pass ValidateMode for kOnline.
  OnlineProgram(P* analytic, const AnalyzedQuery* query, const Graph* graph,
                OnlineOptions options = {})
      : analytic_(analytic),
        query_(query),
        graph_(graph),
        options_(options),
        evaluator_(query) {
    value_pred_ = query_->PredId("value");
    vertex_value_now_pred_ = query_->PredId("vertex-value");
    superstep_pred_ = query_->PredId("superstep");
    evolution_pred_ = query_->PredId("evolution");
    send_pred_ = query_->PredId("send-message");
    send_now_pred_ = query_->PredId("send");
    receive_pred_ = query_->PredId("receive-message");
    receive_now_pred_ = query_->PredId("receive");
    if (options_.store != nullptr) {
      for (int pred : query_->output_preds()) {
        capture_rels_.push_back(options_.store->AddRelation(
            query_->pred(pred).name, query_->pred(pred).arity));
      }
      skeleton_superstep_rel_ = options_.store->AddRelation("superstep", 2);
      skeleton_evolution_rel_ = options_.store->AddRelation("evolution", 3);
    }
  }

  // ---- VertexProgram interface (transparent delegation) ----

  V InitialValue(VertexId id, const Graph& graph) const override {
    return analytic_->InitialValue(id, graph);
  }

  void RegisterAggregators(AggregatorRegistry& registry) override {
    analytic_->RegisterAggregators(registry);
    // Run start: reset wrapper state.
    const size_t n = static_cast<size_t>(graph_->num_vertices());
    states_.clear();
    states_.resize(n);
    last_active_.assign(n, -1);
    slots_.clear();
    slots_.resize(options_.store != nullptr ? n : 0);
    captured_.assign(slots_.size(), 0);
    n_captured_.store(0, std::memory_order_relaxed);
    first_error_ = Status::OK();
    capture_degraded_ = false;
    capture_degraded_at_ = -1;
    capture_off_ = false;
    forward_lineage_only_ = false;
    checkpointed_layers_ = 0;
    segments_valid_bytes_ = 0;
    if (options_.store != nullptr) ProjectStaticCapture();
  }

  /// Runs serially after the merge phase, so it may read every capture
  /// slot the workers filled during compute without a lock.
  void MasterCompute(MasterContext& master) override {
    analytic_->MasterCompute(master);
    if (options_.store == nullptr) return;
    Layer sealed = SealLayer(master.superstep);
    if (capture_off_) return;  // degraded, policy = capture-off
    Status s = options_.store->AppendLayer(std::move(sealed));
    if (s.ok() && !capture_degraded_) {
      // Append succeeds while the write-behind flusher still has
      // allowance, so also poll the sticky flush error here: the
      // barrier is where the degrade ladder can act on it.
      s = options_.store->storage_flush_error();
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      HandleAppendFailureLocked(master.superstep, s);
    }
  }

  void Compute(VertexContext<V, WrappedMessage>& ctx,
               std::span<const WrappedMessage> messages) override {
    const VertexId v = ctx.id();
    const Superstep step = ctx.superstep();

    // 1. Run the analytic against an adapter that buffers its sends.
    Adapter adapter(&ctx);
    std::vector<M> payloads;
    payloads.reserve(messages.size());
    for (const auto& m : messages) payloads.push_back(m.payload);
    analytic_->Compute(adapter, payloads);

    // 2. Evaluate the query over the transient provenance of this step.
    ShipBundlePtr outgoing_ships;
    if (query_->fast_capture().has_value() && options_.store != nullptr &&
        !options_.disable_fast_capture) {
      FastCapture(ctx, adapter, messages);
    } else {
      outgoing_ships = GenericEvaluate(ctx, adapter, messages);
    }
    last_active_[static_cast<size_t>(v)] = step;

    // 3. Release the analytic's messages, with query tables attached.
    //    Ships only ride analytic messages (Theorem 5.4 part ii).
    for (auto& [target, payload] : adapter.sends) {
      ctx.SendMessage(target,
                      WrappedMessage{v, std::move(payload), outgoing_ships});
    }
    if (adapter.voted_halt) ctx.VoteToHalt();
  }

  // ---- Results ----

  /// Union of the query's derived tables across all vertices.
  QueryResult CollectResult() const {
    QueryResult result;
    for (const auto& state : states_) {
      if (state.db != nullptr) result.Merge(*query_, *state.db);
    }
    return result;
  }

  /// Per-rule evaluator counters, merged across all vertices.
  EvalStats CollectEvalStats() const {
    EvalStats merged;
    for (const auto& state : states_) {
      if (state.db != nullptr) merged.Merge(state.db->eval_stats());
    }
    return merged;
  }

  /// First evaluation error encountered (OK when the run was clean).
  const Status& status() const { return first_error_; }

  /// True when a storage failure downgraded the capture mid-run (the
  /// analytic itself completed exactly; only the store is partial).
  bool capture_degraded() const { return capture_degraded_; }
  Superstep capture_degraded_at() const { return capture_degraded_at_; }

  /// Bytes held by per-vertex query databases (transient provenance).
  size_t TransientBytes() const {
    size_t bytes = 0;
    for (const auto& state : states_) {
      if (state.db != nullptr) bytes += state.db->TotalBytes();
    }
    return bytes;
  }

  // ---- Checkpoint hooks (engine barrier; no worker concurrency) ----

  /// Only capture runs on the compiled fast path checkpoint: the generic
  /// path keeps per-vertex Datalog databases with no serialization.
  bool checkpoint_supported(std::string* why) const override {
    if (!analytic_->checkpoint_supported(why)) return false;
    if (options_.store == nullptr) {
      if (why != nullptr) {
        *why = "online query evaluation keeps per-vertex Datalog state "
               "that does not serialize; checkpointing supports capture "
               "runs only";
      }
      return false;
    }
    if (!query_->fast_capture().has_value() || options_.disable_fast_capture) {
      if (why != nullptr) {
        *why = "capture via the generic evaluation path keeps per-vertex "
               "Datalog state; only projection-only (fast-capture) queries "
               "support checkpointing";
      }
      return false;
    }
    return true;
  }

  /// Body layout: analytic state, last-active vector, degradation
  /// flags (+ reason and surviving relations when degraded), the store
  /// schema, then a watermark into the segments sidecar. The layers
  /// themselves go to the sidecar incrementally — only layers sealed
  /// since the previous checkpoint are encoded, so per-checkpoint cost
  /// is O(new layers), not O(whole store). The static layer is not
  /// checkpointed: RegisterAggregators re-projects it deterministically
  /// on resume.
  Status SaveCheckpointState(BinaryWriter& w,
                             const CheckpointIo& io) override {
    ARIADNE_RETURN_NOT_OK(analytic_->SaveCheckpointState(w, io));
    w.WriteU64(last_active_.size());
    for (Superstep s : last_active_) w.WriteI64(s);
    w.WriteU8(capture_degraded_ ? 1 : 0);
    w.WriteI64(capture_degraded_at_);
    if (capture_degraded_) {
      w.WriteString(options_.store->degraded_reason());
      const std::vector<int>& surviving =
          options_.store->surviving_relations();
      w.WriteU64(surviving.size());
      for (int rel : surviving) w.WriteI64(rel);
    }
    const auto& schema = options_.store->schema();
    w.WriteU64(schema.size());
    for (const auto& rel : schema) {
      w.WriteString(rel.name);
      w.WriteU32(static_cast<uint32_t>(rel.arity));
    }
    const int n_layers = options_.store->num_layers();
    if (n_layers > checkpointed_layers_) {
      BinaryWriter segment;
      segment.WriteU64(static_cast<uint64_t>(n_layers - checkpointed_layers_));
      for (int step = checkpointed_layers_; step < n_layers; ++step) {
        // Same layer frame as the store image, so resumed stores
        // re-serialize byte-identically.
        Status framed = options_.store->AppendLayerFrame(step, segment);
        if (!framed.ok()) {
          return framed.WithContext("checkpointing layer " +
                                    std::to_string(step));
        }
      }
      ARIADNE_ASSIGN_OR_RETURN(
          segments_valid_bytes_,
          recovery::AppendSegmentFile(recovery::SegmentsPath(io.dir),
                                      segments_valid_bytes_,
                                      segment.data()));
      checkpointed_layers_ = n_layers;
    }
    w.WriteI64(checkpointed_layers_);
    w.WriteU64(segments_valid_bytes_);
    return Status::OK();
  }

  Status LoadCheckpointState(BinaryReader& r,
                             const CheckpointIo& io) override {
    ARIADNE_RETURN_NOT_OK(analytic_->LoadCheckpointState(r, io));
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
    if (n != last_active_.size()) {
      return Status::ParseError(
          "checkpointed last-active vector covers " + std::to_string(n) +
          " vertices, graph has " + std::to_string(last_active_.size()));
    }
    for (size_t i = 0; i < last_active_.size(); ++i) {
      ARIADNE_ASSIGN_OR_RETURN(int64_t s, r.ReadI64());
      last_active_[i] = static_cast<Superstep>(s);
    }
    ARIADNE_ASSIGN_OR_RETURN(uint8_t degraded, r.ReadU8());
    ARIADNE_ASSIGN_OR_RETURN(int64_t degraded_at, r.ReadI64());
    std::string degraded_reason;
    std::vector<int> surviving;
    if (degraded != 0) {
      ARIADNE_ASSIGN_OR_RETURN(degraded_reason, r.ReadString());
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n_surviving, r.ReadU64());
      if (n_surviving > r.remaining() / 8) {
        return Status::ParseError(
            "surviving-relation count " + std::to_string(n_surviving) +
            " exceeds remaining checkpoint bytes");
      }
      for (uint64_t i = 0; i < n_surviving; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(int64_t rel, r.ReadI64());
        surviving.push_back(static_cast<int>(rel));
      }
    }
    // The ctor already registered this run's schema in the live store;
    // a mismatch means the checkpoint belongs to a different query.
    ARIADNE_ASSIGN_OR_RETURN(uint64_t n_rels, r.ReadU64());
    if (n_rels != options_.store->schema().size()) {
      return Status::ParseError(
          "checkpointed store schema has " + std::to_string(n_rels) +
          " relations, expected " +
          std::to_string(options_.store->schema().size()));
    }
    for (uint64_t i = 0; i < n_rels; ++i) {
      ARIADNE_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      ARIADNE_ASSIGN_OR_RETURN(uint32_t arity, r.ReadU32());
      const auto& live = options_.store->schema()[i];
      if (name != live.name || static_cast<int>(arity) != live.arity) {
        return Status::ParseError(
            "checkpointed store relation " + std::to_string(i) + " is '" +
            name + "/" + std::to_string(arity) + "', expected '" + live.name +
            "/" + std::to_string(live.arity) + "'");
      }
    }
    ARIADNE_ASSIGN_OR_RETURN(int64_t n_ckpt_layers, r.ReadI64());
    ARIADNE_ASSIGN_OR_RETURN(uint64_t valid_bytes, r.ReadU64());
    if (options_.store->num_layers() != 0) {
      return Status::InvalidArgument(
          "resume requires an empty provenance store (it already holds " +
          std::to_string(options_.store->num_layers()) + " layer(s))");
    }
    // Re-applying degradation before the appends keeps the replay
    // resident-only, exactly like the degraded original.
    capture_degraded_ = degraded != 0;
    capture_degraded_at_ = static_cast<Superstep>(degraded_at);
    capture_off_ = capture_degraded_ &&
                   options_.degrade_policy == CaptureDegradePolicy::kCaptureOff;
    forward_lineage_only_ =
        capture_degraded_ &&
        options_.degrade_policy == CaptureDegradePolicy::kForwardLineage;
    if (capture_degraded_) {
      options_.store->EnterStorageDegradedMode();
      options_.store->MarkDegraded(capture_degraded_at_, std::move(surviving),
                                   std::move(degraded_reason));
    }
    const std::string segments_path = recovery::SegmentsPath(io.dir);
    const std::vector<int> arities = options_.store->arities();
    ARIADNE_ASSIGN_OR_RETURN(
        std::vector<std::string> segments,
        recovery::ReadSegmentsFile(segments_path, valid_bytes));
    int64_t appended = 0;
    for (size_t seg = 0; seg < segments.size(); ++seg) {
      BinaryReader sr(std::move(segments[seg]));
      ARIADNE_ASSIGN_OR_RETURN(uint64_t n_seg_layers, sr.ReadU64());
      // A layer frame costs >= 24 bytes (step + page count + blob length).
      if (n_seg_layers > sr.remaining() / 24) {
        return Status::ParseError(
            "layer count " + std::to_string(n_seg_layers) +
            " exceeds segment " + std::to_string(seg) + " of " +
            segments_path);
      }
      for (uint64_t i = 0; i < n_seg_layers; ++i) {
        ARIADNE_ASSIGN_OR_RETURN(
            Layer layer,
            storage::ReadLayerFrame(sr,
                                    segments_path + " (segment " +
                                        std::to_string(seg) + ")",
                                    arities));
        if (layer.step != appended) {
          return Status::ParseError(
              "segment " + std::to_string(seg) + " of " + segments_path +
              " holds layer for superstep " + std::to_string(layer.step) +
              ", expected " + std::to_string(appended));
        }
        ARIADNE_RETURN_NOT_OK(options_.store->AppendLayer(std::move(layer)));
        ++appended;
      }
    }
    if (appended != n_ckpt_layers) {
      return Status::ParseError(
          "checkpoint references " + std::to_string(n_ckpt_layers) +
          " layer(s) but " + segments_path + " holds " +
          std::to_string(appended));
    }
    checkpointed_layers_ = static_cast<int>(appended);
    segments_valid_bytes_ = valid_bytes;
    return Status::OK();
  }

 private:
  /// Presents the plain VertexContext<V, M> face to the analytic while
  /// buffering its sends for ship attachment.
  class Adapter final : public VertexContext<V, M> {
   public:
    explicit Adapter(VertexContext<V, WrappedMessage>* real) : real_(real) {}

    VertexId id() const override { return real_->id(); }
    Superstep superstep() const override { return real_->superstep(); }
    const Graph& graph() const override { return real_->graph(); }
    const V& value() const override { return real_->value(); }
    void SetValue(V value) override { real_->SetValue(std::move(value)); }
    void SendMessage(VertexId target, M message) override {
      sends.emplace_back(target, std::move(message));
    }
    void VoteToHalt() override { voted_halt = true; }
    void AggregateDouble(const std::string& name, double v) override {
      real_->AggregateDouble(name, v);
    }
    double GetAggregate(const std::string& name) const override {
      return real_->GetAggregate(name);
    }

    std::vector<std::pair<VertexId, M>> sends;
    bool voted_halt = false;

   private:
    VertexContext<V, WrappedMessage>* real_;
  };

  NodeQueryState& state(VertexId v) {
    return states_[static_cast<size_t>(v)];
  }

  /// Generic path: materialize this step's EDB facts, deliver arrived
  /// ships, run the stratified evaluator, collect ship deltas, persist
  /// capture deltas.
  ShipBundlePtr GenericEvaluate(VertexContext<V, WrappedMessage>& ctx,
                                Adapter& adapter,
                                std::span<const WrappedMessage> messages) {
    const VertexId v = ctx.id();
    const Superstep step = ctx.superstep();
    NodeQueryState& st = state(v);
    Database& db = st.EnsureDb(*query_);
    const Value loc(static_cast<int64_t>(v));
    const Value step_v(static_cast<int64_t>(step));

    // Transient views describe only the current superstep. The superstep
    // relation is also current-activation-only during online evaluation:
    // past activations are reachable via evolution and the step columns
    // of value/send-message/receive-message (see catalog.h).
    for (int pred : {vertex_value_now_pred_, send_now_pred_, receive_now_pred_,
                     superstep_pred_}) {
      if (pred < 0) continue;
      Relation* rel = db.MutableRelIfExists(pred);
      if (rel != nullptr && !rel->empty()) rel->Clear();
    }

    // Arrived ships + receive facts.
    for (const auto& m : messages) {
      if (m.ships != nullptr) DeliverShips(db, *m.ships);
      if (receive_pred_ >= 0 || receive_now_pred_ >= 0) {
        Value payload = ValueTraits<M>::ToValue(m.payload);
        if (receive_pred_ >= 0) {
          db.Rel(receive_pred_)
              .Insert({loc, Value(static_cast<int64_t>(m.src)), payload,
                       step_v});
        }
        if (receive_now_pred_ >= 0) {
          db.Rel(receive_now_pred_)
              .Insert({loc, Value(static_cast<int64_t>(m.src)),
                       std::move(payload)});
        }
      }
    }

    // Post-compute vertex state.
    if (value_pred_ >= 0) {
      db.Rel(value_pred_)
          .Insert({loc, ValueTraits<V>::ToValue(ctx.value()), step_v});
    }
    if (vertex_value_now_pred_ >= 0) {
      db.Rel(vertex_value_now_pred_)
          .Insert({loc, ValueTraits<V>::ToValue(ctx.value())});
    }
    if (superstep_pred_ >= 0) {
      db.Rel(superstep_pred_).Insert({loc, step_v});
    }
    const Superstep prev = last_active_[static_cast<size_t>(v)];
    if (evolution_pred_ >= 0 && prev >= 0) {
      db.Rel(evolution_pred_)
          .Insert({loc, Value(static_cast<int64_t>(prev)), step_v});
    }
    for (const auto& [target, payload] : adapter.sends) {
      if (send_pred_ < 0 && send_now_pred_ < 0) break;
      Value pv = ValueTraits<M>::ToValue(payload);
      if (send_pred_ >= 0) {
        db.Rel(send_pred_)
            .Insert({loc, Value(static_cast<int64_t>(target)), pv, step_v});
      }
      if (send_now_pred_ >= 0) {
        db.Rel(send_now_pred_)
            .Insert({loc, Value(static_cast<int64_t>(target)),
                     std::move(pv)});
      }
    }

    // Stratified fixpoint over this node's database.
    EvalContext ectx;
    ectx.db = &db;
    ectx.graph = graph_;
    ectx.local_vertex = v;
    auto evaluated = evaluator_.Evaluate(ectx);
    if (!evaluated.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_.ok()) first_error_ = evaluated.status();
    }

    // Ship deltas leave only when the analytic actually sends (the
    // receive-message guard means nobody can reference them otherwise).
    ShipBundlePtr ships;
    if (!adapter.sends.empty()) {
      ships = CollectShipDelta(*query_, st, v);
    }

    if (options_.store != nullptr) PersistCaptureDeltas(st, v, prev, step);

    // Retention rebuilds relations (resetting semi-naive watermarks), so
    // amortize it: trim every 2*window steps, keeping at most 3*window of
    // history — still O(window) memory, without per-step rebuild costs.
    if (options_.retention_window > 0 &&
        step - st.last_retention >= 2 * options_.retention_window) {
      ApplyRetention(*query_, db, step, options_.retention_window);
      st.last_retention = step;
    }
    return ships;
  }

  /// Appends newly derived output tuples (and the superstep/evolution
  /// skeleton) of vertex `v` to its capture slot. Only tuples located at
  /// `v` are persisted: tuples that arrived via ships belong to their own
  /// vertex's layer slices (persisting copies would multiply the store by
  /// the average degree).
  void PersistCaptureDeltas(NodeQueryState& st, VertexId v, Superstep prev,
                            Superstep step) {
    const auto& outputs = query_->output_preds();
    const Value self_loc(static_cast<int64_t>(v));
    bool captured = false;
    for (size_t k = 0; k < outputs.size(); ++k) {
      const Relation* rel = st.db->RelIfExists(outputs[k]);
      const size_t size = rel == nullptr ? 0 : rel->size();
      size_t& watermark = st.capture_watermarks[k];
      if (size > watermark) {
        LayerSlice run =
            NewRun(v, capture_rels_[k], query_->pred(outputs[k]).arity);
        for (size_t i = watermark; i < size; ++i) {
          const Relation::RowView row = rel->row_view(i);
          if (row.size() > 0 && row.Equals(0, self_loc)) CopyRow(row, run);
        }
        watermark = size;
        captured |= AddCaptureRun(v, std::move(run));
      }
    }
    if (captured) AppendSkeleton(v, prev, step);
  }

  static LayerSlice NewRun(VertexId v, int rel, size_t arity) {
    LayerSlice run;
    run.rel = rel;
    run.vertex = v;
    run.arity = static_cast<uint32_t>(arity);
    return run;
  }

  /// Appends a relation row to `run`, copying string and double-vector
  /// payloads out of the relation's pools into the run's side store.
  static void CopyRow(const Relation::RowView& row, LayerSlice& run) {
    Cell* out = run.AddRow();
    for (size_t c = 0; c < run.arity; ++c) out[c] = run.Encode(row.value(c));
  }

  /// Adds one run of `v`'s tuples to its capture slot. Called by the
  /// worker computing `v`: each vertex is computed by exactly one worker
  /// per superstep, so the slot needs no lock, and the only shared write
  /// is the claim of a position in `captured_`. Returns false for an
  /// empty run.
  bool AddCaptureRun(VertexId v, LayerSlice run) {
    if (run.empty()) return false;
    std::vector<CaptureRun>& slot = slots_[static_cast<size_t>(v)];
    if (slot.empty()) {
      captured_[n_captured_.fetch_add(1, std::memory_order_relaxed)] = v;
    }
    const size_t bytes = run.ByteSize();
    slot.push_back(CaptureRun{std::move(run), bytes});
    return true;
  }

  /// Drains the capture slots into the layer of superstep `step`, walking
  /// relation ids, then vertex ids, in ascending order: the (rel, vertex)
  /// order that makes the layer, and every byte encoded from it,
  /// identical for any engine thread count. Runs of one vertex and
  /// relation keep their capture order; each run's cell buffers move into
  /// the layer as its slice. The cost grows with the vertices that
  /// captured (a sort of their ids, then one pass per relation), not with
  /// V, so idle vertices of a sparse analytic cost nothing. In the
  /// kForwardLineage degraded mode only the skeleton relations are kept.
  Layer SealLayer(Superstep step) {
    const size_t n = n_captured_.exchange(0, std::memory_order_relaxed);
    const auto vertices = std::span(captured_).first(n);
    std::sort(vertices.begin(), vertices.end());
    Layer layer;
    layer.step = step;
    size_t n_runs = 0;
    for (VertexId v : vertices) n_runs += slots_[static_cast<size_t>(v)].size();
    layer.slices.reserve(n_runs);
    const int n_rels = static_cast<int>(options_.store->schema().size());
    for (int rel = 0; rel < n_rels && !capture_off_; ++rel) {
      if (forward_lineage_only_ && rel != skeleton_superstep_rel_ &&
          rel != skeleton_evolution_rel_) {
        continue;
      }
      for (VertexId v : vertices) {
        for (CaptureRun& run : slots_[static_cast<size_t>(v)]) {
          if (run.slice.rel != rel) continue;
          layer.slices.push_back(std::move(run.slice));
          layer.byte_size += run.bytes;
        }
      }
    }
    for (VertexId v : vertices) slots_[static_cast<size_t>(v)].clear();
    return layer;
  }

  /// The degradation ladder (DESIGN.md §2.4). The failed layer itself is
  /// never lost: AppendLayer registers the entry before reporting a flush
  /// error, so the store still holds complete layers up to and including
  /// `step` — only later supersteps are degraded.
  void HandleAppendFailureLocked(Superstep step, const Status& s) {
    if (options_.degrade_policy == CaptureDegradePolicy::kFail ||
        capture_degraded_) {
      if (first_error_.ok()) first_error_ = s;
      return;
    }
    capture_degraded_ = true;
    capture_degraded_at_ = step;
    options_.store->EnterStorageDegradedMode();
    std::vector<int> surviving;
    if (options_.degrade_policy == CaptureDegradePolicy::kForwardLineage) {
      forward_lineage_only_ = true;
      surviving = {skeleton_superstep_rel_, skeleton_evolution_rel_};
    } else {
      capture_off_ = true;
    }
    options_.store->MarkDegraded(step, surviving, s.message());
    ARIADNE_LOG(Warning)
        << "capture degraded at superstep " << step << " (policy "
        << CaptureDegradePolicyToString(options_.degrade_policy)
        << "): " << s.message();
  }

  void AppendSkeleton(VertexId v, Superstep prev, Superstep step) {
    LayerSlice superstep = NewRun(v, skeleton_superstep_rel_, 2);
    Cell* row = superstep.AddRow();
    row[0] = Cell::Int(v);
    row[1] = Cell::Int(step);
    AddCaptureRun(v, std::move(superstep));
    if (prev >= 0) {
      LayerSlice evolution = NewRun(v, skeleton_evolution_rel_, 3);
      row = evolution.AddRow();
      row[0] = Cell::Int(v);
      row[1] = Cell::Int(prev);
      row[2] = Cell::Int(step);
      AddCaptureRun(v, std::move(evolution));
    }
  }

  /// Fast path for projection-only capture queries: no per-vertex
  /// database, records project straight into cell runs of the vertex's
  /// capture slot.
  void FastCapture(VertexContext<V, WrappedMessage>& ctx, Adapter& adapter,
                   std::span<const WrappedMessage> messages) {
    const VertexId v = ctx.id();
    const Superstep step = ctx.superstep();
    const Cell step_cell = Cell::Int(step);
    const auto& plan = *query_->fast_capture();

    // The EDB record being projected: (loc, value, step) or (loc, other
    // end, payload, step), refilled per record in place. Its payload
    // column (`payload_col`: the vertex value or the message) is kept as
    // a Value and encoded into each run that projects it, so string and
    // vector payloads land in that run's side store; every other column
    // is an int cell.
    std::array<Cell, 4> record{Cell::Int(v), Cell(), Cell(), step_cell};
    Value payload;
    int payload_col = 1;
    auto project = [&](const FastCaptureProjection& projection,
                       LayerSlice& run) {
      Cell* out = run.AddRow();
      for (size_t k = 0; k < projection.columns.size(); ++k) {
        const int col = projection.columns[k];
        if (col == -1) {
          out[k] = step_cell;
        } else if (col == payload_col) {
          out[k] = run.Encode(payload);
        } else {
          out[k] = record[static_cast<size_t>(col)];
        }
      }
    };

    bool captured = false;
    for (size_t pi = 0; pi < plan.projections.size(); ++pi) {
      const auto& projection = plan.projections[pi];
      LayerSlice run = NewRun(v, FastCaptureRel(pi), projection.columns.size());
      switch (projection.source) {
        case EdbKind::kVertexValueNow:
        case EdbKind::kValue:
          payload = ValueTraits<V>::ToValue(ctx.value());
          payload_col = 1;
          record[2] = step_cell;
          project(projection, run);
          break;
        case EdbKind::kSendNow:
        case EdbKind::kSendMessage:
          run.cells.reserve(adapter.sends.size() * run.arity);
          payload_col = 2;
          for (const auto& [target, message] : adapter.sends) {
            record[1] = Cell::Int(target);
            payload = ValueTraits<M>::ToValue(message);
            project(projection, run);
          }
          break;
        case EdbKind::kReceiveNow:
        case EdbKind::kReceiveMessage:
          run.cells.reserve(messages.size() * run.arity);
          payload_col = 2;
          for (const auto& m : messages) {
            record[1] = Cell::Int(m.src);
            payload = ValueTraits<M>::ToValue(m.payload);
            project(projection, run);
          }
          break;
        case EdbKind::kEdge:
          break;  // static, projected once in ProjectStaticCapture
        default:
          break;
      }
      // Provenance relations are sets: duplicate identical events (e.g. a
      // WCC vertex messaging a reciprocal neighbor via both adjacency
      // directions) must collapse, exactly as the interpreted path dedups.
      DedupKeepFirst(run);
      captured |= AddCaptureRun(v, std::move(run));
    }
    if (captured) AppendSkeleton(v, last_active_[static_cast<size_t>(v)], step);
  }

  /// Store relation id for fast-capture projection `pi` (its head pred's
  /// position among the query outputs).
  int FastCaptureRel(size_t pi) const {
    const int head = (*query_->fast_capture()).projections[pi].head_pred;
    const auto& outputs = query_->output_preds();
    for (size_t k = 0; k < outputs.size(); ++k) {
      if (outputs[k] == head) return capture_rels_[k];
    }
    ARIADNE_CHECK(false);
    return -1;
  }

  /// Projects static (edge-sourced) capture rules into the store's static
  /// segment, once per run.
  void ProjectStaticCapture() {
    if (!query_->fast_capture().has_value()) return;
    const auto& plan = *query_->fast_capture();
    for (size_t pi = 0; pi < plan.projections.size(); ++pi) {
      const auto& projection = plan.projections[pi];
      if (projection.source != EdbKind::kEdge) continue;
      const int store_rel = FastCaptureRel(pi);
      for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
        LayerSlice slice = NewRun(v, store_rel, projection.columns.size());
        for (VertexId u : graph_->OutNeighbors(v)) {
          const std::array<Cell, 2> source{Cell::Int(v), Cell::Int(u)};
          Cell* out = slice.AddRow();
          for (size_t k = 0; k < projection.columns.size(); ++k) {
            const int col = projection.columns[k];
            ARIADNE_CHECK(col >= 0);
            out[k] = source[static_cast<size_t>(col)];
          }
        }
        options_.store->static_layer().Add(std::move(slice));
      }
    }
  }

  P* analytic_;
  const AnalyzedQuery* query_;
  const Graph* graph_;
  OnlineOptions options_;
  RuleEvaluator evaluator_;

  int value_pred_ = -1, vertex_value_now_pred_ = -1;
  int superstep_pred_ = -1, evolution_pred_ = -1;
  int send_pred_ = -1, send_now_pred_ = -1;
  int receive_pred_ = -1, receive_now_pred_ = -1;

  std::vector<NodeQueryState> states_;
  std::vector<Superstep> last_active_;
  std::vector<int> capture_rels_;  ///< store rel per output pred position
  int skeleton_superstep_rel_ = -1;
  int skeleton_evolution_rel_ = -1;

  /// One run of a vertex's capture slot: the tuples one projection (or
  /// one output relation of the generic path) captured this superstep,
  /// already in the slice form the layer keeps.
  struct CaptureRun {
    LayerSlice slice;
    size_t bytes = 0;  ///< slice.ByteSize(), computed by the worker
  };
  /// Per-vertex capture slots of the current superstep (capture runs
  /// only), filled lock-free by the computing worker, drained by
  /// SealLayer. The vertices holding a non-empty slot are
  /// captured_[0, n_captured_), in claim order.
  std::vector<std::vector<CaptureRun>> slots_;
  std::vector<VertexId> captured_;
  std::atomic<size_t> n_captured_{0};

  /// Guards first_error_ (set by workers on the generic path) and the
  /// degrade ladder.
  std::mutex mu_;
  Status first_error_;
  bool capture_degraded_ = false;
  Superstep capture_degraded_at_ = -1;
  bool capture_off_ = false;          ///< degraded, kCaptureOff
  bool forward_lineage_only_ = false;  ///< degraded, kForwardLineage
  /// Incremental-checkpoint watermark: layers [0, checkpointed_layers_)
  /// are durable in the segments sidecar, whose valid prefix is
  /// segments_valid_bytes_ long (DESIGN.md §2.4).
  int checkpointed_layers_ = 0;
  uint64_t segments_valid_bytes_ = 0;
};

}  // namespace ariadne

#endif  // ARIADNE_EVAL_ONLINE_H_
