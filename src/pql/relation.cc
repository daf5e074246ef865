#include "pql/relation.h"

#include <algorithm>

namespace ariadne {

namespace {

/// Same mixing step as common/value.cc — row hashes must keep matching
/// TupleHash of the materialized tuples (the dedup set compares both).
size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

size_t KindSeed(Value::Kind kind) { return static_cast<size_t>(kind); }

}  // namespace

size_t TupleHash::operator()(const Tuple& t) const {
  size_t seed = t.size();
  for (const Value& v : t) {
    seed ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

size_t TupleByteSize(const Tuple& t) {
  size_t bytes = 8;  // row overhead
  for (const Value& v : t) bytes += v.ByteSize();
  return bytes;
}

// ------------------------------------------------------------- RowView

const std::string& Relation::RowView::AsString(size_t col) const {
  return rel_->string_pool_[cells_[col].ref];
}

const std::vector<double>& Relation::RowView::AsDoubleVector(
    size_t col) const {
  return rel_->vec_pool_[cells_[col].ref];
}

Value Relation::RowView::value(size_t col) const {
  return rel_->CellToValue(cells_[col]);
}

bool Relation::RowView::Equals(size_t col, const Value& v) const {
  return rel_->CellEqualsValue(cells_[col], v);
}

Tuple Relation::RowView::ToTuple() const {
  Tuple t;
  t.reserve(n_);
  for (size_t i = 0; i < n_; ++i) t.push_back(value(i));
  return t;
}

// ----------------------------------------------------- cell primitives

Value Relation::CellToValue(const Cell& c) const {
  switch (c.tag) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt:
      return Value(c.i);
    case Value::Kind::kDouble:
      return Value(c.d);
    case Value::Kind::kString:
      return Value(string_pool_[c.ref]);
    case Value::Kind::kDoubleVector:
      return Value(vec_pool_[c.ref]);
  }
  return Value();
}

bool Relation::CellEqualsValue(const Cell& c, const Value& v) const {
  if (c.tag != v.kind()) return false;
  switch (c.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return c.i == v.AsInt();
    case Value::Kind::kDouble:
      return c.d == v.AsDouble();
    case Value::Kind::kString:
      return string_pool_[c.ref] == v.AsString();
    case Value::Kind::kDoubleVector:
      return vec_pool_[c.ref] == v.AsDoubleVector();
  }
  return false;
}

size_t Relation::CellHash(const Cell& c) const {
  const size_t seed = KindSeed(c.tag);
  switch (c.tag) {
    case Value::Kind::kNull:
      return HashCombine(seed, 0);
    case Value::Kind::kInt:
      return HashCombine(seed, std::hash<int64_t>()(c.i));
    case Value::Kind::kDouble:
      return HashCombine(seed, std::hash<double>()(c.d));
    case Value::Kind::kString:
      return HashCombine(seed, string_hashes_[c.ref]);
    case Value::Kind::kDoubleVector:
      return vec_hashes_[c.ref];
  }
  return seed;
}

size_t Relation::RowHash(uint32_t i) const {
  const uint32_t begin = row_begin_[i], end = row_begin_[i + 1];
  size_t seed = end - begin;
  for (uint32_t c = begin; c < end; ++c) {
    seed ^= CellHash(cells_[c]) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
            (seed >> 2);
  }
  return seed;
}

bool Relation::RowEqualsTuple(uint32_t i, const Tuple& t) const {
  const uint32_t begin = row_begin_[i], end = row_begin_[i + 1];
  if (end - begin != t.size()) return false;
  for (uint32_t c = begin; c < end; ++c) {
    if (!CellEqualsValue(cells_[c], t[c - begin])) return false;
  }
  return true;
}

bool Relation::RowEqualsRow(uint32_t a, uint32_t b) const {
  const uint32_t abegin = row_begin_[a], aend = row_begin_[a + 1];
  const uint32_t bbegin = row_begin_[b], bend = row_begin_[b + 1];
  if (aend - abegin != bend - bbegin) return false;
  for (uint32_t k = 0; k < aend - abegin; ++k) {
    const Cell& ca = cells_[abegin + k];
    const Cell& cb = cells_[bbegin + k];
    if (ca.tag != cb.tag) return false;
    switch (ca.tag) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kInt:
        if (ca.i != cb.i) return false;
        break;
      case Value::Kind::kDouble:
        if (ca.d != cb.d) return false;
        break;
      case Value::Kind::kString:
      case Value::Kind::kDoubleVector:
        // Interned: equal payloads share one pool id.
        if (ca.ref != cb.ref) return false;
        break;
    }
  }
  return true;
}

uint32_t Relation::InternString(const std::string& s) {
  auto it = string_ids_.find(std::string_view(s));
  if (it != string_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(string_pool_.size());
  string_pool_.push_back(s);
  string_hashes_.push_back(std::hash<std::string>()(string_pool_.back()));
  string_ids_.emplace(std::string_view(string_pool_.back()), id);
  return id;
}

uint32_t Relation::InternDoubleVector(const std::vector<double>& v) {
  size_t h = KindSeed(Value::Kind::kDoubleVector);
  for (double d : v) h = HashCombine(h, std::hash<double>()(d));
  auto& candidates = vec_ids_[h];
  for (uint32_t id : candidates) {
    if (vec_pool_[id] == v) return id;
  }
  const uint32_t id = static_cast<uint32_t>(vec_pool_.size());
  vec_pool_.push_back(v);
  vec_hashes_.push_back(h);
  candidates.push_back(id);
  return id;
}

uint32_t Relation::EncodeRow(const Tuple& t) {
  for (const Value& v : t) {
    Cell c;
    c.tag = v.kind();
    switch (v.kind()) {
      case Value::Kind::kNull:
        c.i = 0;
        break;
      case Value::Kind::kInt:
        c.i = v.AsInt();
        break;
      case Value::Kind::kDouble:
        c.d = v.AsDouble();
        break;
      case Value::Kind::kString:
        c.ref = InternString(v.AsString());
        break;
      case Value::Kind::kDoubleVector:
        c.ref = InternDoubleVector(v.AsDoubleVector());
        break;
    }
    cells_.push_back(c);
  }
  row_begin_.push_back(static_cast<uint32_t>(cells_.size()));
  return static_cast<uint32_t>(row_begin_.size() - 2);
}

// ------------------------------------------------------------ mutation

bool Relation::Insert(const Tuple& t) {
  // Duplicate check without storing: hash the candidate via the probe
  // sentinel, then commit only when new.
  probe_ = &t;
  if (dedup_.find(kProbeIdx) != dedup_.end()) {
    probe_ = nullptr;
    return false;
  }
  probe_ = nullptr;
  const uint32_t idx = EncodeRow(t);
  dedup_.insert(idx);
  CommitRow(idx, TupleByteSize(t));
  return true;
}

bool Relation::InsertCells(std::span<const Cell> row,
                           std::span<const Value> side) {
  // Store first, then dedup against the stored row: a duplicate is
  // rolled back. Interned payloads of a dropped row stay pooled, like
  // the payloads of rows removed by Clear.
  const size_t base = cells_.size();
  size_t bytes = 8;  // TupleByteSize row overhead
  for (Cell c : row) {
    switch (c.tag) {
      case Value::Kind::kNull:
        bytes += 1;
        break;
      case Value::Kind::kInt:
      case Value::Kind::kDouble:
        bytes += 8;
        break;
      case Value::Kind::kString: {
        const std::string& s = side[c.ref].AsString();
        bytes += sizeof(size_t) + s.size();
        c.ref = InternString(s);
        break;
      }
      case Value::Kind::kDoubleVector: {
        const std::vector<double>& v = side[c.ref].AsDoubleVector();
        bytes += sizeof(size_t) + v.size() * sizeof(double);
        c.ref = InternDoubleVector(v);
        break;
      }
    }
    cells_.push_back(c);
  }
  row_begin_.push_back(static_cast<uint32_t>(cells_.size()));
  const uint32_t idx = static_cast<uint32_t>(row_begin_.size() - 2);
  if (!dedup_.insert(idx).second) {
    row_begin_.pop_back();
    cells_.resize(base);
    return false;
  }
  CommitRow(idx, bytes);
  return true;
}

void Relation::CommitRow(uint32_t idx, size_t bytes) {
  byte_size_ += bytes;
  ++version_;
  // Extend any live indexes so Probe results stay complete.
  for (auto& [col, index] : indexes_) {
    if (index.indexed_up_to == idx) {
      index.buckets[CellToValue(cells_[row_begin_[idx] + col])].push_back(
          idx);
      index.indexed_up_to = idx + 1;
    }
  }
}

bool Relation::Contains(const Tuple& t) const {
  auto* self = const_cast<Relation*>(this);
  self->probe_ = &t;
  const bool found = self->dedup_.find(kProbeIdx) != self->dedup_.end();
  self->probe_ = nullptr;
  return found;
}

const std::vector<uint32_t>& Relation::Probe(int col, const Value& v) {
  static const std::vector<uint32_t> kEmpty;
  ColumnIndex& index = indexes_[col];
  while (index.indexed_up_to < size()) {
    const uint32_t i = static_cast<uint32_t>(index.indexed_up_to);
    index.buckets[CellToValue(cells_[row_begin_[i] + col])].push_back(i);
    ++index.indexed_up_to;
  }
  auto it = index.buckets.find(v);
  return it == index.buckets.end() ? kEmpty : it->second;
}

bool Relation::ReplaceAll(std::vector<Tuple> tuples) {
  // Deduplicate the input so the no-change check compares sets.
  std::unordered_set<Tuple, TupleHash> incoming(tuples.begin(), tuples.end());
  if (incoming.size() == size()) {
    bool same = true;
    for (const Tuple& t : incoming) {
      if (!Contains(t)) {
        same = false;
        break;
      }
    }
    if (same) return false;
  }
  Clear();
  for (const Tuple& t : incoming) Insert(t);
  return true;
}

void Relation::RemoveIf(const std::function<bool(const Tuple&)>& pred) {
  std::vector<Tuple> kept;
  kept.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    Tuple t = TupleAt(i);
    if (!pred(t)) kept.push_back(std::move(t));
  }
  Clear();
  for (const Tuple& t : kept) Insert(t);
}

void Relation::Clear() {
  dedup_.clear();
  cells_.clear();
  row_begin_.assign(1, 0);
  indexes_.clear();
  byte_size_ = 0;
  ++version_;
  ++epoch_;
}

std::vector<std::string> Relation::ToSortedStrings() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(TupleToString(TupleAt(i)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ariadne
