#ifndef ARIADNE_STORAGE_LAYER_H_
#define ARIADNE_STORAGE_LAYER_H_

#include <string>
#include <vector>

#include "engine/types.h"
#include "pql/relation.h"

namespace ariadne {

/// Schema entry of a stored provenance relation.
struct StoredRelation {
  std::string name;
  int arity = 0;
};

/// All tuples one vertex contributed to one relation within a layer.
struct LayerSlice {
  int rel = 0;  ///< index into ProvenanceStore schema
  VertexId vertex = 0;
  std::vector<Tuple> tuples;

  /// Value-level equality (strict: Value(1) != Value(1.0)).
  bool operator==(const LayerSlice&) const = default;
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

  void Add(int rel, VertexId vertex, std::vector<Tuple> tuples);

  /// Stable-sorts slices into (rel, vertex) order: the canonical order
  /// the capture seal (eval/online.h) produces directly, for layers
  /// assembled in another order.
  void Canonicalize();

  /// Value-level equality of step, slices (in order) and byte size.
  bool operator==(const Layer&) const = default;
};

}  // namespace ariadne

#endif  // ARIADNE_STORAGE_LAYER_H_
