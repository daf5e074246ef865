#include "eval/layered_step.h"

#include <algorithm>

#include "pql/evaluator.h"

namespace ariadne {

namespace {

void SortUnique(std::vector<VertexId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

}  // namespace


// ---- LayerView ----

bool LayerView::HasRel(int rel) const {
  if (rels.empty()) return true;
  return std::binary_search(rels.begin(), rels.end(), rel);
}

bool LayerView::Covers(const std::vector<int>& needed) const {
  if (rels.empty()) return true;   // view holds every relation
  if (needed.empty()) return false;  // query reads all, view is partial
  return std::includes(rels.begin(), rels.end(), needed.begin(),
                       needed.end());
}

std::shared_ptr<const LayerView> BuildLayerView(
    std::shared_ptr<const Layer> layer, int step, int send_rel,
    int receive_rel, std::vector<int> rels) {
  auto view = std::make_shared<LayerView>();
  view->step = step;
  view->layer = std::move(layer);
  view->rels = std::move(rels);
  for (const auto& slice : view->layer->slices) {
    view->by_vertex[slice.vertex].push_back(&slice);
    // The layer's recorded message edges, for ship routing.
    if (slice.rel == send_rel) {
      AppendMessagePeers(slice, view->route_out[slice.vertex]);
    } else if (slice.rel == receive_rel) {
      AppendMessagePeers(slice, view->route_in[slice.vertex]);
    }
  }
  for (auto* index : {&view->route_out, &view->route_in}) {
    for (auto& [vertex, targets] : *index) SortUnique(targets);
  }
  return view;
}

// ---- AdjacencyCache ----

AdjacencyCache::AdjacencyCache(const Graph* graph) : graph_(graph) {
  planes_.assign(3, std::vector<std::vector<VertexId>>(
                        static_cast<size_t>(graph_->num_vertices())));
  filled_.assign(3, std::vector<uint8_t>(
                        static_cast<size_t>(graph_->num_vertices()), 0));
}

void AdjacencyCache::Precompute() {
  for (int plane = 0; plane < 3; ++plane) {
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      // Sequential whole-graph sweep: with a paged graph backend this
      // hint overlaps the next partition's fault with this one's fills
      // (no-op for the in-memory backend).
      graph_->AdviseSequentialScan(v);
      Fill(plane, v);
    }
  }
  precomputed_ = true;
}

void AdjacencyCache::Fill(int plane, VertexId v) {
  std::vector<VertexId>& slot =
      planes_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
  uint8_t& filled =
      filled_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
  if (filled) return;
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

std::span<const VertexId> AdjacencyCache::Get(int plane, VertexId v) {
  if (!precomputed_) Fill(plane, v);
  return planes_[static_cast<size_t>(plane)][static_cast<size_t>(v)];
}

size_t AdjacencyCache::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& plane : planes_) {
    for (const auto& slot : plane) bytes += slot.size() * sizeof(VertexId);
  }
  return bytes;
}

// ---- LayeredQueryRun ----

LayeredQueryRun::LayeredQueryRun(const Graph* graph,
                                 const ProvenanceStore* store,
                                 const AnalyzedQuery* query,
                                 AdjacencyCache* adjacency)
    : graph_(graph),
      store_(store),
      query_(query),
      evaluator_(query),
      adjacency_(adjacency) {
  descending_ = query_->direction() == Direction::kBackward;
  // Stored relation -> query predicate resolution (by name).
  rel_to_pred_.resize(store_->schema().size(), -1);
  for (size_t r = 0; r < store_->schema().size(); ++r) {
    rel_to_pred_[r] = query_->PredId(store_->schema()[r].name);
  }
  // Ship routing follows the *recorded* message edges of the store,
  // independent of whether the query itself reads them.
  send_rel_ = store_->RelId("send-message");
  receive_rel_ = store_->RelId("receive-message");
  // Relations this query actually touches (query predicates + the message
  // edges used for routing). Layer reads — and the "did this layer touch
  // v" gate below — are restricted to them, so a shared LayerView built
  // for a relation *superset* still evaluates exactly the vertices a
  // private needed-rels-only view would.
  for (size_t r = 0; r < rel_to_pred_.size(); ++r) {
    if (RelMatters(static_cast<int>(r))) {
      needed_rels_.push_back(static_cast<int>(r));
    }
  }
  if (needed_rels_.size() == rel_to_pred_.size()) {
    needed_rels_.clear();  // all relations: no point filtering
  }
}

bool LayeredQueryRun::RelMatters(int rel) const {
  return rel_to_pred_[static_cast<size_t>(rel)] >= 0 || rel == send_rel_ ||
         rel == receive_rel_;
}

Status LayeredQueryRun::Init() {
  ARIADNE_RETURN_NOT_OK(ValidateMode(*query_, EvalMode::kLayered));
  // A degraded capture (DESIGN.md §2.4) is missing history; refuse any
  // query that reads a relation outside the surviving set.
  ARIADNE_RETURN_NOT_OK(CheckDegradedCapture(*query_, *store_));
  if (store_->num_layers() == 0) {
    return Status::InvalidArgument("provenance store has no layers");
  }
  total_steps_ = store_->num_layers();
  processing_step_ = 0;
  if (adjacency_ == nullptr) {
    owned_adjacency_ = std::make_unique<AdjacencyCache>(graph_);
    adjacency_ = owned_adjacency_.get();
  }
  states_.clear();
  states_.resize(static_cast<size_t>(graph_->num_vertices()));
  // Index the static segment once.
  static_index_.clear();
  for (const auto& slice : store_->static_data().slices) {
    static_index_[slice.vertex].push_back(&slice);
  }
  inbox_.clear();
  next_inbox_.clear();
  peak_layer_bytes_ = 0;
  first_error_ = Status::OK();
  return Status::OK();
}

int LayeredQueryRun::NextLayerStep() const {
  if (done()) return -1;
  return descending_ ? total_steps_ - 1 - processing_step_ : processing_step_;
}

int LayeredQueryRun::LayerStepAfterNext() const {
  if (processing_step_ + 1 >= total_steps_) return -1;
  return descending_ ? total_steps_ - 2 - processing_step_
                     : processing_step_ + 1;
}

void LayeredQueryRun::InsertSlice(Database& db, const LayerSlice& slice) {
  const int pred = rel_to_pred_[static_cast<size_t>(slice.rel)];
  if (pred < 0) return;  // relation not referenced by this query
  InsertSliceRows(slice, db.Rel(pred));
}

std::span<const VertexId> LayeredQueryRun::RoutingTargets(
    VertexId v, ShipRouting routing, const LayerView& view) {
  const bool along_messages = routing == ShipRouting::kAlongMessages ||
                              routing == ShipRouting::kAlongReverseMessages;
  if (along_messages) {
    const auto& index = routing == ShipRouting::kAlongMessages
                            ? view.route_out
                            : view.route_in;
    const int rel = routing == ShipRouting::kAlongMessages ? send_rel_
                                                           : receive_rel_;
    if (rel >= 0) {
      auto it = index.find(v);
      if (it == index.end()) return {};
      return it->second;
    }
    // Store lacks message records: conservative static fallback —
    // overshipping is safe (receivers merely hold extra copies),
    // undershipping is not.
    return adjacency_->Get(0, v);
  }
  return adjacency_->Get(routing == ShipRouting::kAlongOutEdges ? 1 : 2, v);
}

Status LayeredQueryRun::Step(const LayerView& view) {
  if (done()) return Status::InvalidArgument("layered run already finished");
  if (view.step != NextLayerStep()) {
    return Status::InvalidArgument("layered run fed layer " +
                                   std::to_string(view.step) + ", expected " +
                                   std::to_string(NextLayerStep()));
  }
  if (!view.Covers(needed_rels_)) {
    return Status::InvalidArgument(
        "layer view does not cover the query's relations");
  }
  const int step = processing_step_;
  peak_layer_bytes_ = std::max(peak_layer_bytes_, view.layer->byte_size);

  // Ships sent during the previous step arrive at this one's barrier.
  inbox_ = std::move(next_inbox_);
  next_inbox_.clear();

  // The BSP engine ran Compute for every vertex each superstep, but a
  // vertex that received nothing and has no new facts returned before
  // evaluating (after step 0). Processing exactly the touched set, in
  // ascending vertex order, reproduces the engine's schedule — including
  // its deterministic ship delivery order (senders merged ascending).
  std::vector<VertexId> active;
  if (step == 0) {
    active.resize(static_cast<size_t>(graph_->num_vertices()));
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      active[static_cast<size_t>(v)] = v;
    }
  } else {
    for (const auto& [v, ships] : inbox_) active.push_back(v);
    for (const auto& [v, slices] : view.by_vertex) {
      // A shared superset view may hold slices of relations this query
      // never reads; they must not count as "touched".
      for (const LayerSlice* slice : slices) {
        if (RelMatters(slice->rel)) {
          active.push_back(v);
          break;
        }
      }
    }
    SortUnique(active);
  }

  for (VertexId v : active) {
    NodeQueryState& st = states_[static_cast<size_t>(v)];
    Database& db = st.EnsureDb(*query_);

    bool touched = false;
    if (auto it = inbox_.find(v); it != inbox_.end()) {
      for (const ShipBundlePtr& ships : it->second) {
        DeliverShips(db, *ships);
        touched = true;
      }
    }
    // Static facts on first activation.
    if (step == 0) {
      auto it = static_index_.find(v);
      if (it != static_index_.end()) {
        for (const LayerSlice* slice : it->second) InsertSlice(db, *slice);
        touched = true;
      }
    }
    // This layer's facts for v.
    if (auto it = view.by_vertex.find(v); it != view.by_vertex.end()) {
      for (const LayerSlice* slice : it->second) {
        if (!RelMatters(slice->rel)) continue;
        InsertSlice(db, *slice);
        touched = true;
      }
    }
    if (!touched && step > 0) continue;  // nothing new for v

    EvalContext ectx;
    ectx.db = &db;
    ectx.graph = graph_;
    ectx.local_vertex = v;
    auto evaluated = evaluator_.Evaluate(ectx);
    if (!evaluated.ok()) {
      if (first_error_.ok()) first_error_ = evaluated.status();
      continue;
    }

    // Route fresh ship deltas per routing class.
    if (query_->shipped_preds().empty()) continue;
    for (ShipRouting routing :
         {ShipRouting::kAlongMessages, ShipRouting::kAlongReverseMessages,
          ShipRouting::kAlongOutEdges, ShipRouting::kAlongInEdges}) {
      ShipBundlePtr bundle =
          CollectShipDeltaForRouting(*query_, st, v, routing);
      if (bundle == nullptr) continue;
      for (VertexId target : RoutingTargets(v, routing, view)) {
        next_inbox_[target].push_back(bundle);
      }
    }
  }

  ++processing_step_;
  return Status::OK();
}

Result<OfflineRun> LayeredQueryRun::Finish(double seconds) {
  if (!done()) {
    return Status::InvalidArgument("layered run has unprocessed layers");
  }
  ARIADNE_RETURN_NOT_OK(first_error_);

  OfflineRun run;
  size_t state_bytes = 0;
  for (const auto& state : states_) {
    if (state.db == nullptr) continue;
    run.result.Merge(*query_, *state.db);
    run.stats.eval.Merge(state.db->eval_stats());
    state_bytes += state.db->TotalBytes();
  }
  run.stats.seconds = seconds;
  run.stats.supersteps = total_steps_;
  run.stats.peak_layer_bytes = peak_layer_bytes_;
  run.stats.materialized_bytes = state_bytes + peak_layer_bytes_;
  run.stats.result_tuples = run.result.TotalTuples();
  return run;
}

}  // namespace ariadne
