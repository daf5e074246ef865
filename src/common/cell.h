#ifndef ARIADNE_COMMON_CELL_H_
#define ARIADNE_COMMON_CELL_H_

#include <cstdint>

#include "common/value.h"

namespace ariadne {

/// One flat column cell: the in-memory form of a tuple field shared by
/// provenance layers (storage/layer.h) and PQL relations
/// (pql/relation.h). 16 bytes; the payload interpretation follows the
/// tag: an inline int or double, or, for strings and double vectors, an
/// id into the owner's side store (a layer slice's side values, a
/// relation's interning pools).
struct Cell {
  Value::Kind tag = Value::Kind::kNull;
  union {
    int64_t i = 0;
    double d;
    uint32_t ref;
  };

  static Cell Int(int64_t v) {
    Cell c;
    c.tag = Value::Kind::kInt;
    c.i = v;
    return c;
  }
  static Cell Double(double v) {
    Cell c;
    c.tag = Value::Kind::kDouble;
    c.d = v;
    return c;
  }
  static Cell Ref(Value::Kind tag, uint32_t ref) {
    Cell c;
    c.tag = tag;
    c.ref = ref;
    return c;
  }
};

static_assert(sizeof(Cell) == 16, "a cell is a tag plus one 8-byte word");

}  // namespace ariadne

#endif  // ARIADNE_COMMON_CELL_H_
