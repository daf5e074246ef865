#ifndef ARIADNE_PQL_RELATION_H_
#define ARIADNE_PQL_RELATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cell.h"
#include "common/value.h"

namespace ariadne {

/// One row of a PQL relation as an exchange value. Column 0 is always the
/// location specifier (a vertex id as Value::kInt) — see DESIGN.md:
/// keeping the location explicit lets the same evaluation code run
/// per-vertex (online/layered) and globally (naive).
///
/// Relations no longer *store* rows in this form (see Relation::Cell);
/// Tuple remains the format tuples enter and leave a Relation in.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const;
};

std::string TupleToString(const Tuple& t);

/// Set-semantics relation with insertion-order row access (for delta
/// scans via external watermarks), duplicate elimination, and lazily
/// built, incrementally maintained single-column hash indexes for joins.
///
/// Storage is flat: rows live as fixed-size cells in one contiguous
/// arena (ints and doubles inline; strings and double vectors interned
/// into per-relation pools and referenced by id), so inserts, probes and
/// dedup do no per-row heap allocation. `byte_size()` still accounts the
/// logical Tuple footprint, keeping the paper's provenance-size numbers
/// unchanged.
class Relation {
 public:
  /// One flat column cell (common/cell.h); string and double-vector
  /// cells hold an id into this relation's pools.
  using Cell = ::ariadne::Cell;

  /// Borrowed view of one stored row. Valid until the next mutating call
  /// on the owning relation (same lifetime rule as Probe results).
  class RowView {
   public:
    RowView() = default;

    size_t size() const { return n_; }
    Value::Kind kind(size_t col) const { return cells_[col].tag; }
    bool is_int(size_t col) const {
      return cells_[col].tag == Value::Kind::kInt;
    }
    int64_t AsInt(size_t col) const { return cells_[col].i; }
    double AsDouble(size_t col) const { return cells_[col].d; }
    const std::string& AsString(size_t col) const;
    const std::vector<double>& AsDoubleVector(size_t col) const;

    /// Materializes column `col` as a Value (copies interned payloads).
    Value value(size_t col) const;

    /// Column-against-Value comparison without materializing the cell.
    bool Equals(size_t col, const Value& v) const;

    Tuple ToTuple() const;

   private:
    friend class Relation;
    RowView(const Relation* rel, const Cell* cells, uint32_t n)
        : rel_(rel), cells_(cells), n_(n) {}

    const Relation* rel_ = nullptr;
    const Cell* cells_ = nullptr;
    uint32_t n_ = 0;
  };

  explicit Relation(int arity = 0) : arity_(arity) {}

  // Non-copyable/non-movable: the dedup set's hasher captures a pointer
  // to this object's row storage.
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  int arity() const { return arity_; }
  size_t size() const { return row_begin_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Borrowed view of row `i` (invalidated by the next mutating call).
  RowView row_view(size_t i) const {
    return RowView(this, cells_.data() + row_begin_[i],
                   row_begin_[i + 1] - row_begin_[i]);
  }

  /// Materializes row `i` as a Tuple (copies interned payloads).
  Tuple TupleAt(size_t i) const { return row_view(i).ToTuple(); }

  /// Inserts a tuple; returns false (and drops it) when already present.
  bool Insert(const Tuple& t);

  /// Inserts one row given as cells whose string / double-vector payloads
  /// are `side[cell.ref]` (a layer slice's row and side store), interning
  /// those payloads into this relation's pools. Same set semantics,
  /// byte accounting and index maintenance as Insert, with no Tuple.
  bool InsertCells(std::span<const Cell> row, std::span<const Value> side);

  bool Contains(const Tuple& t) const;

  /// Row indices whose column `col` equals `v`. Builds an index on `col`
  /// on first use and extends it incrementally afterwards. The returned
  /// reference is invalidated by the next mutating call.
  const std::vector<uint32_t>& Probe(int col, const Value& v);

  /// Whether Probe already built an index on `col` (profiling: lets the
  /// evaluator count index builds before triggering one).
  bool HasIndex(int col) const { return indexes_.count(col) != 0; }

  /// Approximate memory footprint of the stored tuples (indexes excluded)
  /// — the unit of the provenance-size accounting (Tables 3-4).
  size_t byte_size() const { return byte_size_; }

  /// Monotone mutation counter; evaluation watermarks compare sums of
  /// versions to skip rules whose inputs did not change.
  uint64_t version() const { return version_; }

  /// Bumped whenever existing rows are rearranged or removed (Clear,
  /// RemoveIf, ReplaceAll). Row-index-based delta watermarks are only
  /// valid within one epoch; on a mismatch the consumer rescans.
  uint64_t epoch() const { return epoch_; }

  /// Replaces the full contents (aggregate re-evaluation). Returns true
  /// if the contents changed.
  bool ReplaceAll(std::vector<Tuple> tuples);

  /// Removes rows matching `pred` (online history retention); rebuilds
  /// dedup and index state.
  void RemoveIf(const std::function<bool(const Tuple&)>& pred);

  void Clear();

  /// Deterministic dump for tests/goldens.
  std::vector<std::string> ToSortedStrings() const;

 private:
  /// Sentinel index addressing `probe_` instead of a stored row, so
  /// membership tests hash a candidate tuple without copying it in.
  static constexpr uint32_t kProbeIdx = 0xffffffffu;

  struct IdxHash {
    const Relation* rel;
    size_t operator()(uint32_t i) const {
      return i == kProbeIdx ? TupleHash()(*rel->probe_) : rel->RowHash(i);
    }
  };
  struct IdxEq {
    const Relation* rel;
    bool operator()(uint32_t a, uint32_t b) const {
      if (a == b) return true;
      if (a == kProbeIdx) std::swap(a, b);
      if (b == kProbeIdx) return rel->RowEqualsTuple(a, *rel->probe_);
      return rel->RowEqualsRow(a, b);
    }
  };
  struct ColumnIndex {
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets;
    size_t indexed_up_to = 0;
  };

  /// Appends `t` to the arena (interning strings/vectors); returns the
  /// new row index. Does not touch dedup/indexes/version.
  uint32_t EncodeRow(const Tuple& t);
  /// Accounts a newly stored row `idx` of `bytes` logical bytes: version
  /// bump and extension of the live indexes.
  void CommitRow(uint32_t idx, size_t bytes);

  uint32_t InternString(const std::string& s);
  uint32_t InternDoubleVector(const std::vector<double>& v);

  Value CellToValue(const Cell& c) const;
  bool CellEqualsValue(const Cell& c, const Value& v) const;
  /// Matches Value::Hash of the materialized cell exactly (the dedup set
  /// mixes row hashes with hashes of probe Tuples).
  size_t CellHash(const Cell& c) const;
  size_t RowHash(uint32_t i) const;
  bool RowEqualsTuple(uint32_t i, const Tuple& t) const;
  bool RowEqualsRow(uint32_t a, uint32_t b) const;

  int arity_;
  /// Cell arena + row offsets: row i is cells_[row_begin_[i],
  /// row_begin_[i+1]). One extra trailing offset, so size() is cheap.
  std::vector<Cell> cells_;
  std::vector<uint32_t> row_begin_{0};

  /// Interning pools. Deques keep element addresses stable so views and
  /// the intern maps can reference them. Pools survive Clear(): retention
  /// churn re-inserts mostly the same payloads, and stale entries are
  /// unreachable once no row references them.
  std::deque<std::string> string_pool_;
  std::vector<size_t> string_hashes_;  ///< std::hash of each pooled string
  std::unordered_map<std::string_view, uint32_t> string_ids_;
  std::deque<std::vector<double>> vec_pool_;
  std::vector<size_t> vec_hashes_;  ///< Value-compatible payload hashes
  std::unordered_map<size_t, std::vector<uint32_t>> vec_ids_;

  const Tuple* probe_ = nullptr;
  std::unordered_set<uint32_t, IdxHash, IdxEq> dedup_{0, IdxHash{this},
                                                      IdxEq{this}};
  std::unordered_map<int, ColumnIndex> indexes_;
  size_t byte_size_ = 0;
  uint64_t version_ = 0;
  uint64_t epoch_ = 0;
};

/// Memory size of one tuple (sum of value footprints + row overhead).
size_t TupleByteSize(const Tuple& t);

}  // namespace ariadne

#endif  // ARIADNE_PQL_RELATION_H_
