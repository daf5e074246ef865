#ifndef ARIADNE_STORAGE_LAYER_H_
#define ARIADNE_STORAGE_LAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cell.h"
#include "engine/types.h"
#include "pql/relation.h"

namespace ariadne {

/// Schema entry of a stored provenance relation.
struct StoredRelation {
  std::string name;
  int arity = 0;
};

/// All tuples one vertex contributed to one relation within a layer, as
/// one run of `rows` rows of `arity` tagged cells, row-major in `cells`.
/// Ints and doubles live in the cells; strings and double vectors live in
/// the slice's `side` store, referenced by Cell::ref (several cells may
/// share one entry). Capture writes this form, the page codec encodes and
/// decodes it, and the read path inserts its rows into relations, so no
/// per-tuple heap object exists anywhere on that path.
struct LayerSlice {
  int rel = 0;  ///< index into ProvenanceStore schema
  VertexId vertex = 0;
  uint32_t arity = 0;
  uint32_t rows = 0;
  std::vector<Cell> cells;  ///< rows * arity
  std::vector<Value> side;  ///< string / double-vector payloads

  size_t size() const { return rows; }
  bool empty() const { return rows == 0; }
  const Cell* row(size_t i) const { return cells.data() + i * arity; }
  Cell* mutable_row(size_t i) { return cells.data() + i * arity; }

  /// Appends one row of `arity` null cells and returns it for filling.
  Cell* AddRow() {
    cells.resize(cells.size() + arity);
    ++rows;
    return cells.data() + cells.size() - arity;
  }
  /// The cell holding `v`: inline kinds in place, strings and double
  /// vectors appended to the side store.
  Cell Encode(Value v);
  /// Appends `t` as one row. Precondition: t.size() == arity.
  void AppendTuple(const Tuple& t);

  const std::string& String(const Cell& c) const {
    return side[c.ref].AsString();
  }
  const std::vector<double>& DoubleVector(const Cell& c) const {
    return side[c.ref].AsDoubleVector();
  }
  /// Materializes one cell / one row (copies side payloads).
  Value ValueOf(const Cell& c) const;
  Tuple TupleAt(size_t i) const;

  /// Value equality of cell `a` of this slice and cell `b` of `other`:
  /// Int(1) != Double(1.0), 0.0 == -0.0, NaN != NaN, payloads by content.
  bool CellEquals(const Cell& a, const LayerSlice& other,
                  const Cell& b) const;
  /// Row equality / hash under CellEquals (equal rows hash equal).
  bool RowsEqual(size_t a, size_t b) const;
  size_t RowHash(size_t i) const;

  /// Sum of TupleByteSize over the rows, computed from the cells.
  size_t ByteSize() const;

  /// Value-level equality of relation, vertex, arity and rows in order.
  bool operator==(const LayerSlice& other) const;
};

/// One layer of the provenance graph (Definition 5.1): everything captured
/// during one superstep, in the compact per-vertex representation. Also
/// the unit of storage: the page codec (storage/page.h) encodes one layer
/// into fixed-size compressed pages, and the layer store spills/reloads
/// whole layers or per-relation subsets of them.
struct Layer {
  Superstep step = 0;
  std::vector<LayerSlice> slices;
  size_t byte_size = 0;

  /// Appends a non-empty slice, accounting its bytes.
  void Add(LayerSlice slice);
  /// Convenience form: the tuples, all of one arity, as a new slice.
  void Add(int rel, VertexId vertex, const std::vector<Tuple>& tuples);

  /// Stable-sorts slices into (rel, vertex) order: the canonical order
  /// the capture seal (eval/online.h) produces directly, for layers
  /// assembled in another order.
  void Canonicalize();

  /// Value-level equality of step, slices (in order) and byte size.
  bool operator==(const Layer&) const = default;
};

}  // namespace ariadne

#endif  // ARIADNE_STORAGE_LAYER_H_
