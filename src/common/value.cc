#include "common/value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>

namespace ariadne {

namespace {

size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

Result<double> Value::ToDouble() const {
  switch (kind()) {
    case Kind::kInt:
      return static_cast<double>(AsInt());
    case Kind::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument("cannot coerce " + ToString() +
                                     " to double");
  }
}

Result<int64_t> Value::ToInt() const {
  if (is_int()) return AsInt();
  return Status::InvalidArgument("cannot coerce " + ToString() + " to int");
}

bool Value::operator<(const Value& other) const {
  if (kind() != other.kind()) return kind() < other.kind();
  return rep_ < other.rep_;
}

Result<int> Value::NumericCompare(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    const double a = is_int() ? static_cast<double>(AsInt()) : AsDouble();
    const double b =
        other.is_int() ? static_cast<double>(other.AsInt()) : other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (is_string() && other.is_string()) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_null() && other.is_null()) return 0;
  return Status::InvalidArgument("incomparable values: " + ToString() +
                                 " vs " + other.ToString());
}

namespace {

Result<Value> NumericBinary(const Value& a, const Value& b, char op) {
  if (a.is_int() && b.is_int() && op != '/') {
    const int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case '+':
        return Value(x + y);
      case '-':
        return Value(x - y);
      case '*':
        return Value(x * y);
    }
  }
  if (a.is_double_vector() && b.is_double_vector() &&
      (op == '+' || op == '-')) {
    const auto& x = a.AsDoubleVector();
    const auto& y = b.AsDoubleVector();
    if (x.size() != y.size()) {
      return Status::InvalidArgument("vector arity mismatch in arithmetic");
    }
    std::vector<double> out(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      out[i] = op == '+' ? x[i] + y[i] : x[i] - y[i];
    }
    return Value(std::move(out));
  }
  ARIADNE_ASSIGN_OR_RETURN(double x, a.ToDouble());
  ARIADNE_ASSIGN_OR_RETURN(double y, b.ToDouble());
  switch (op) {
    case '+':
      return Value(x + y);
    case '-':
      return Value(x - y);
    case '*':
      return Value(x * y);
    case '/':
      if (y == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      return Value(x / y);
  }
  return Status::Internal("unknown arithmetic operator");
}

}  // namespace

Result<Value> Value::Add(const Value& other) const {
  return NumericBinary(*this, other, '+');
}
Result<Value> Value::Sub(const Value& other) const {
  return NumericBinary(*this, other, '-');
}
Result<Value> Value::Mul(const Value& other) const {
  return NumericBinary(*this, other, '*');
}
Result<Value> Value::Div(const Value& other) const {
  return NumericBinary(*this, other, '/');
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(kind());
  switch (kind()) {
    case Kind::kNull:
      return HashCombine(seed, 0);
    case Kind::kInt:
      return HashCombine(seed, std::hash<int64_t>()(AsInt()));
    case Kind::kDouble:
      return HashCombine(seed, std::hash<double>()(AsDouble()));
    case Kind::kString:
      return HashCombine(seed, std::hash<std::string>()(AsString()));
    case Kind::kDoubleVector: {
      for (double d : AsDoubleVector()) {
        seed = HashCombine(seed, std::hash<double>()(d));
      }
      return seed;
    }
  }
  return seed;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "null";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      std::ostringstream os;
      os << AsDouble();
      return os.str();
    }
    case Kind::kString:
      return "\"" + AsString() + "\"";
    case Kind::kDoubleVector: {
      std::ostringstream os;
      os << "[";
      const auto& v = AsDoubleVector();
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) os << ",";
        os << v[i];
      }
      os << "]";
      return os.str();
    }
  }
  return "?";
}

size_t Value::ByteSize() const {
  switch (kind()) {
    case Kind::kNull:
      return 1;
    case Kind::kInt:
      return sizeof(int64_t);
    case Kind::kDouble:
      return sizeof(double);
    case Kind::kString:
      return sizeof(size_t) + AsString().size();
    case Kind::kDoubleVector:
      return sizeof(size_t) + AsDoubleVector().size() * sizeof(double);
  }
  return 0;
}

Value ParseValueLiteral(const std::string& text) {
  const char* begin = text.c_str();
  const char* finish = begin + text.size();
  if (begin == finish) return Value(text);
  char* end = nullptr;
  errno = 0;
  const long long i = std::strtoll(begin, &end, 10);
  if (end == finish && errno == 0) return Value(static_cast<int64_t>(i));
  errno = 0;
  const double d = std::strtod(begin, &end);
  if (end == finish && errno == 0) return Value(d);
  return Value(text);
}

}  // namespace ariadne
