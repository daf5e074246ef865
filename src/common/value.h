#ifndef ARIADNE_COMMON_VALUE_H_
#define ARIADNE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace ariadne {

/// Runtime-typed value used throughout provenance capture and PQL
/// evaluation. Analytics remain statically typed; `ValueTraits<T>`
/// (analytics/value_traits.h) converts their vertex/message types into
/// `Value`s when provenance is recorded.
///
/// Supported kinds mirror what vertex-centric analytics exchange in
/// practice: 64-bit integers (ids, labels, supersteps), doubles (ranks,
/// distances, errors), strings (labels/diagnostics) and double vectors
/// (ALS feature vectors).
class Value {
 public:
  enum class Kind : uint8_t {
    kNull = 0,
    kInt = 1,
    kDouble = 2,
    kString = 3,
    kDoubleVector = 4,
  };

  Value() = default;
  Value(int64_t v) : rep_(v) {}                       // NOLINT(runtime/explicit)
  Value(int v) : rep_(static_cast<int64_t>(v)) {}     // NOLINT(runtime/explicit)
  Value(double v) : rep_(v) {}                        // NOLINT(runtime/explicit)
  Value(std::string v) : rep_(std::move(v)) {}        // NOLINT(runtime/explicit)
  Value(const char* v) : rep_(std::string(v)) {}      // NOLINT(runtime/explicit)
  Value(std::vector<double> v) : rep_(std::move(v)) {}  // NOLINT(runtime/explicit)

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_double_vector() const { return kind() == Kind::kDoubleVector; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Precondition: matching kind (asserted in debug builds).
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  const std::vector<double>& AsDoubleVector() const {
    return std::get<std::vector<double>>(rep_);
  }

  /// Numeric coercion: ints widen to double; errors on non-numeric kinds.
  Result<double> ToDouble() const;
  /// Integer view; errors on non-integers (doubles are not truncated).
  Result<int64_t> ToInt() const;

  /// Strict structural equality (kind and payload). Note: Value(1) !=
  /// Value(1.0); use NumericCompare for coercing comparison predicates.
  bool operator==(const Value& other) const { return rep_ == other.rep_; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Total order: first by kind, then by payload. Gives deterministic
  /// sorting of heterogeneous tuples (relation dumps, test golden output).
  bool operator<(const Value& other) const;

  /// Three-way numeric/lexicographic comparison used by PQL comparison
  /// predicates (θ ∈ {=,≠,<,≤,>,≥}). Numeric kinds coerce (1 == 1.0);
  /// strings compare lexicographically; errors on incompatible kinds.
  Result<int> NumericCompare(const Value& other) const;

  /// Arithmetic for PQL terms (i - 1, s / d, ...). Int op int stays int
  /// except division, which always yields double. Double vectors support
  /// elementwise + and - (used by UDFs like euclidean distance).
  Result<Value> Add(const Value& other) const;
  Result<Value> Sub(const Value& other) const;
  Result<Value> Mul(const Value& other) const;
  Result<Value> Div(const Value& other) const;

  /// Hash consistent with operator==.
  size_t Hash() const;

  std::string ToString() const;

  /// Approximate heap + inline footprint in bytes; used for provenance
  /// size accounting (paper Tables 3 and 4).
  size_t ByteSize() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string,
               std::vector<double>>
      rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Parses a literal given on a command line or in a `%! param` pragma:
/// the whole text as a base-10 int64 when it is one and in range, else as
/// a double when it is one and in range, else the text itself as a
/// string. Out-of-range integers therefore become doubles, never a
/// clamped int64.
Value ParseValueLiteral(const std::string& text);

}  // namespace ariadne

#endif  // ARIADNE_COMMON_VALUE_H_
