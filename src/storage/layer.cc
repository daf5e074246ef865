#include "storage/layer.h"

#include <algorithm>

namespace ariadne {

void Layer::Add(int rel, VertexId vertex, std::vector<Tuple> tuples) {
  if (tuples.empty()) return;
  LayerSlice slice;
  slice.rel = rel;
  slice.vertex = vertex;
  slice.tuples = std::move(tuples);
  for (const Tuple& t : slice.tuples) byte_size += TupleByteSize(t);
  slices.push_back(std::move(slice));
}

void Layer::Canonicalize() {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const LayerSlice& a, const LayerSlice& b) {
                     if (a.rel != b.rel) return a.rel < b.rel;
                     return a.vertex < b.vertex;
                   });
}

}  // namespace ariadne
