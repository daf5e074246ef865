#include "provenance/compact_view.h"

#include <algorithm>

namespace ariadne {

Result<CompactProvenance> CompactProvenance::Build(ProvenanceStore* store) {
  CompactProvenance view;
  view.schema_ = store->schema();
  auto rel_id = [&](const char* a, const char* b = nullptr) {
    const int primary = store->RelId(a);
    if (primary >= 0 || b == nullptr) return primary;
    return store->RelId(b);
  };
  view.value_rel_ = rel_id("value", "prov-value");
  view.superstep_rel_ = rel_id("superstep");
  view.evolution_rel_ = rel_id("evolution");
  view.send_rel_ = rel_id("send-message", "prov-send");
  view.receive_rel_ = rel_id("receive-message");

  auto absorb = [&](const Layer& layer) {
    view.total_bytes_ += layer.byte_size;
    for (const auto& slice : layer.slices) {
      view.vertices_[slice.vertex].by_relation[slice.rel].push_back(slice);
    }
  };
  absorb(store->static_data());
  for (int step = 0; step < store->num_layers(); ++step) {
    ARIADNE_ASSIGN_OR_RETURN(const Layer* layer, store->GetLayer(step));
    absorb(*layer);
  }
  return view;
}

std::vector<VertexId> CompactProvenance::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(vertices_.size());
  for (const auto& [v, tables] : vertices_) out.push_back(v);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Tuple> CompactProvenance::Table(
    VertexId vertex, const std::string& relation) const {
  std::vector<Tuple> out;
  for (size_t r = 0; r < schema_.size(); ++r) {
    if (schema_[r].name != relation) continue;
    ForEachRow(vertex, static_cast<int>(r),
               [&](const LayerSlice& slice, const Cell* row) {
                 Tuple t;
                 for (size_t k = 0; k < slice.arity; ++k) {
                   t.push_back(slice.ValueOf(row[k]));
                 }
                 out.push_back(std::move(t));
               });
    break;
  }
  return out;
}

namespace {

bool IsInt(const Cell& c) { return c.tag == Value::Kind::kInt; }

}  // namespace

std::vector<std::pair<Superstep, Value>> CompactProvenance::ValueHistory(
    VertexId vertex) const {
  std::vector<std::pair<Superstep, Value>> out;
  // Stored as value(x, d, i) or prov-value(x, i, d): detect by column
  // kind (the superstep column is the integer one).
  const bool prov_value =
      value_rel_ >= 0 &&
      schema_[static_cast<size_t>(value_rel_)].name == "prov-value";
  ForEachRow(vertex, value_rel_, [&](const LayerSlice& slice, const Cell* t) {
    if (slice.arity != 3) return;
    if (prov_value) {
      if (IsInt(t[1])) {
        out.emplace_back(static_cast<Superstep>(t[1].i), slice.ValueOf(t[2]));
      }
    } else if (IsInt(t[2])) {
      out.emplace_back(static_cast<Superstep>(t[2].i), slice.ValueOf(t[1]));
    }
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<Superstep> CompactProvenance::ActiveSupersteps(
    VertexId vertex) const {
  std::vector<Superstep> out;
  ForEachRow(vertex, superstep_rel_,
             [&](const LayerSlice& slice, const Cell* t) {
               if (slice.arity == 2 && IsInt(t[1])) {
                 out.push_back(static_cast<Superstep>(t[1].i));
               }
             });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<Superstep, Superstep>> CompactProvenance::Evolution(
    VertexId vertex) const {
  std::vector<std::pair<Superstep, Superstep>> out;
  ForEachRow(vertex, evolution_rel_,
             [&](const LayerSlice& slice, const Cell* t) {
               if (slice.arity == 3 && IsInt(t[1]) && IsInt(t[2])) {
                 out.emplace_back(static_cast<Superstep>(t[1].i),
                                  static_cast<Superstep>(t[2].i));
               }
             });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<VertexId, Superstep>> CompactProvenance::SentTo(
    VertexId vertex) const {
  std::vector<std::pair<VertexId, Superstep>> out;
  ForEachRow(vertex, send_rel_, [&](const LayerSlice& slice, const Cell* t) {
    // send-message(x, y, m, i) or prov-send(x, i).
    if (slice.arity == 4 && IsInt(t[1]) && IsInt(t[3])) {
      out.emplace_back(t[1].i, static_cast<Superstep>(t[3].i));
    } else if (slice.arity == 2 && IsInt(t[1])) {
      out.emplace_back(-1, static_cast<Superstep>(t[1].i));
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<VertexId, Superstep>> CompactProvenance::ReceivedFrom(
    VertexId vertex) const {
  std::vector<std::pair<VertexId, Superstep>> out;
  ForEachRow(vertex, receive_rel_,
             [&](const LayerSlice& slice, const Cell* t) {
               if (slice.arity == 4 && IsInt(t[1]) && IsInt(t[3])) {
                 out.emplace_back(t[1].i, static_cast<Superstep>(t[3].i));
               }
             });
  std::sort(out.begin(), out.end());
  return out;
}

std::string CompactProvenance::Describe(VertexId vertex) const {
  std::string out = "vertex " + std::to_string(vertex) + "\n";
  const auto values = ValueHistory(vertex);
  if (!values.empty()) {
    out += "  values:";
    for (const auto& [step, value] : values) {
      out += " @" + std::to_string(step) + "=" + value.ToString();
    }
    out += "\n";
  }
  const auto active = ActiveSupersteps(vertex);
  if (!active.empty()) {
    out += "  active:";
    for (Superstep s : active) out += " " + std::to_string(s);
    out += "\n";
  }
  const auto sent = SentTo(vertex);
  if (!sent.empty()) {
    out += "  sent:";
    for (const auto& [peer, step] : sent) {
      out += " ->" + (peer >= 0 ? std::to_string(peer) : std::string("?")) +
             "@" + std::to_string(step);
    }
    out += "\n";
  }
  const auto received = ReceivedFrom(vertex);
  if (!received.empty()) {
    out += "  received:";
    for (const auto& [peer, step] : received) {
      out += " <-" + std::to_string(peer) + "@" + std::to_string(step);
    }
    out += "\n";
  }
  return out;
}

}  // namespace ariadne
