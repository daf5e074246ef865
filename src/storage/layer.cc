#include "storage/layer.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string_view>

#include "common/logging.h"

namespace ariadne {

namespace {

size_t Mix(size_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Bits of `d` with -0.0 folded onto 0.0, so equal doubles hash equal.
uint64_t DoubleBits(double d) {
  if (d == 0.0) return 0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

Cell LayerSlice::Encode(Value v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return Cell();
    case Value::Kind::kInt:
      return Cell::Int(v.AsInt());
    case Value::Kind::kDouble:
      return Cell::Double(v.AsDouble());
    case Value::Kind::kString:
    case Value::Kind::kDoubleVector: {
      const Value::Kind tag = v.kind();
      side.push_back(std::move(v));
      return Cell::Ref(tag, static_cast<uint32_t>(side.size() - 1));
    }
  }
  return Cell();
}

void LayerSlice::AppendTuple(const Tuple& t) {
  ARIADNE_CHECK(t.size() == arity);
  Cell* out = AddRow();
  for (size_t k = 0; k < arity; ++k) out[k] = Encode(t[k]);
}

Value LayerSlice::ValueOf(const Cell& c) const {
  switch (c.tag) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kInt:
      return Value(c.i);
    case Value::Kind::kDouble:
      return Value(c.d);
    case Value::Kind::kString:
    case Value::Kind::kDoubleVector:
      return side[c.ref];
  }
  return Value();
}

Tuple LayerSlice::TupleAt(size_t i) const {
  const Cell* r = row(i);
  Tuple t;
  t.reserve(arity);
  for (size_t k = 0; k < arity; ++k) t.push_back(ValueOf(r[k]));
  return t;
}

bool LayerSlice::CellEquals(const Cell& a, const LayerSlice& other,
                            const Cell& b) const {
  if (a.tag != b.tag) return false;
  switch (a.tag) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return a.i == b.i;
    case Value::Kind::kDouble:
      return a.d == b.d;
    case Value::Kind::kString:
      return String(a) == other.String(b);
    case Value::Kind::kDoubleVector:
      // Element-wise ==, even for a shared entry: a NaN element makes a
      // vector unequal to itself, as Value equality does.
      return DoubleVector(a) == other.DoubleVector(b);
  }
  return false;
}

bool LayerSlice::RowsEqual(size_t a, size_t b) const {
  const Cell* ra = row(a);
  const Cell* rb = row(b);
  for (size_t k = 0; k < arity; ++k) {
    if (!CellEquals(ra[k], *this, rb[k])) return false;
  }
  return true;
}

size_t LayerSlice::RowHash(size_t i) const {
  const Cell* r = row(i);
  size_t h = arity;
  for (size_t k = 0; k < arity; ++k) {
    const Cell& c = r[k];
    h = Mix(h, static_cast<uint64_t>(c.tag));
    switch (c.tag) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kInt:
        h = Mix(h, static_cast<uint64_t>(c.i));
        break;
      case Value::Kind::kDouble:
        h = Mix(h, DoubleBits(c.d));
        break;
      case Value::Kind::kString:
        h = Mix(h, std::hash<std::string_view>()(String(c)));
        break;
      case Value::Kind::kDoubleVector:
        for (double d : DoubleVector(c)) h = Mix(h, DoubleBits(d));
        break;
    }
  }
  return h;
}

size_t LayerSlice::ByteSize() const {
  // TupleByteSize: 8 bytes of row overhead plus Value::ByteSize per cell:
  // 8 inline, 1 for null, 8 + payload for strings and vectors.
  size_t bytes = size_t{8} * rows + size_t{8} * cells.size();
  for (const Cell& c : cells) {
    if (c.tag == Value::Kind::kNull) {
      bytes -= 7;
    } else if (c.tag == Value::Kind::kString) {
      bytes += String(c).size();
    } else if (c.tag == Value::Kind::kDoubleVector) {
      bytes += DoubleVector(c).size() * sizeof(double);
    }
  }
  return bytes;
}

bool LayerSlice::operator==(const LayerSlice& other) const {
  if (rel != other.rel || vertex != other.vertex || arity != other.arity ||
      rows != other.rows) {
    return false;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (!CellEquals(cells[i], other, other.cells[i])) return false;
  }
  return true;
}

void Layer::Add(LayerSlice slice) {
  if (slice.empty()) return;
  byte_size += slice.ByteSize();
  slices.push_back(std::move(slice));
}

void Layer::Add(int rel, VertexId vertex, const std::vector<Tuple>& tuples) {
  if (tuples.empty()) return;
  LayerSlice slice;
  slice.rel = rel;
  slice.vertex = vertex;
  slice.arity = static_cast<uint32_t>(tuples[0].size());
  slice.cells.reserve(tuples.size() * slice.arity);
  for (const Tuple& t : tuples) slice.AppendTuple(t);
  Add(std::move(slice));
}

void Layer::Canonicalize() {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const LayerSlice& a, const LayerSlice& b) {
                     if (a.rel != b.rel) return a.rel < b.rel;
                     return a.vertex < b.vertex;
                   });
}

}  // namespace ariadne
