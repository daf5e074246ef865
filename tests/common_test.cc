#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/value.h"

namespace ariadne {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, WithContextPrefixes) {
  Status s = Status::IOError("disk gone").WithContext("loading graph");
  EXPECT_EQ(s.ToString(), "IOError: loading graph: disk gone");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  ARIADNE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.ValueOr(42), 42);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*DoubleIt(5), 10);
  EXPECT_FALSE(DoubleIt(0).ok());
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  Value vec(std::vector<double>{1, 2});
  EXPECT_EQ(vec.AsDoubleVector().size(), 2u);
}

TEST(ValueTest, StrictEqualityDistinguishesKinds) {
  EXPECT_NE(Value(int64_t{1}), Value(1.0));
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_EQ(Value(1.5), Value(1.5));
}

TEST(ValueTest, NumericCompareCoerces) {
  EXPECT_EQ(*Value(int64_t{1}).NumericCompare(Value(1.0)), 0);
  EXPECT_EQ(*Value(int64_t{1}).NumericCompare(Value(2.0)), -1);
  EXPECT_EQ(*Value(3.0).NumericCompare(Value(int64_t{2})), 1);
  EXPECT_EQ(*Value("a").NumericCompare(Value("b")), -1);
  EXPECT_FALSE(Value("a").NumericCompare(Value(1.0)).ok());
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(*Value(int64_t{2}).Add(Value(int64_t{3})), Value(int64_t{5}));
  EXPECT_EQ(*Value(int64_t{2}).Mul(Value(int64_t{3})), Value(int64_t{6}));
  EXPECT_EQ(*Value(int64_t{7}).Sub(Value(int64_t{2})), Value(int64_t{5}));
  // Division always yields double.
  EXPECT_EQ(*Value(int64_t{6}).Div(Value(int64_t{3})), Value(2.0));
  EXPECT_EQ(*Value(1.5).Add(Value(int64_t{1})), Value(2.5));
  EXPECT_FALSE(Value(1.0).Div(Value(0.0)).ok());
  EXPECT_FALSE(Value("x").Add(Value(1.0)).ok());
}

TEST(ValueTest, VectorArithmetic) {
  Value a(std::vector<double>{1, 2});
  Value b(std::vector<double>{0.5, 1});
  EXPECT_EQ(*a.Sub(b), Value(std::vector<double>{0.5, 1.0}));
  EXPECT_FALSE(a.Add(Value(std::vector<double>{1})).ok());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, TotalOrderIsDeterministic) {
  std::vector<Value> vs = {Value("z"), Value(1.0), Value(int64_t{5}), Value()};
  std::sort(vs.begin(), vs.end());
  EXPECT_TRUE(vs[0].is_null());
  EXPECT_TRUE(vs[1].is_int());
  EXPECT_TRUE(vs[2].is_double());
  EXPECT_TRUE(vs[3].is_string());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(std::vector<double>{1, 2}).ToString(), "[1,2]");
}

TEST(ValueTest, ParseValueLiteral) {
  EXPECT_EQ(ParseValueLiteral("42"), Value(int64_t{42}));
  EXPECT_EQ(ParseValueLiteral("-7"), Value(int64_t{-7}));
  EXPECT_EQ(ParseValueLiteral("2.5"), Value(2.5));
  EXPECT_EQ(ParseValueLiteral("1e3"), Value(1000.0));
  EXPECT_EQ(ParseValueLiteral("abc"), Value("abc"));
  EXPECT_EQ(ParseValueLiteral("12abc"), Value("12abc"));
  EXPECT_EQ(ParseValueLiteral(""), Value(""));
  // Integers outside int64 fall back to a double instead of clamping to
  // INT64_MAX/INT64_MIN; doubles outside double range stay strings.
  EXPECT_EQ(ParseValueLiteral("9223372036854775807"),
            Value(int64_t{9223372036854775807}));
  EXPECT_EQ(ParseValueLiteral("9223372036854775808"),
            Value(9223372036854775808.0));
  EXPECT_EQ(ParseValueLiteral("-9223372036854775809"),
            Value(-9223372036854775809.0));
  EXPECT_EQ(ParseValueLiteral("1e999"), Value("1e999"));
}

// ---------------------------------------------------------------- Serialize

TEST(SerializeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(1234567);
  w.WriteI64(-99);
  w.WriteDouble(3.25);
  w.WriteString("hello");
  BinaryReader r(w.MoveData());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 1234567u);
  EXPECT_EQ(*r.ReadI64(), -99);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, ValuesRoundTrip) {
  std::vector<Value> values = {Value(), Value(int64_t{-5}), Value(2.75),
                               Value("str"),
                               Value(std::vector<double>{1.5, -2.5})};
  BinaryWriter w;
  for (const auto& v : values) w.WriteValue(v);
  BinaryReader r(w.MoveData());
  for (const auto& v : values) {
    auto got = r.ReadValue();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedReadFails) {
  BinaryWriter w;
  w.WriteU8(1);
  BinaryReader r(w.MoveData());
  EXPECT_TRUE(r.ReadU8().ok());
  EXPECT_FALSE(r.ReadI64().ok());
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/ariadne_serialize_test.bin";
  ASSERT_TRUE(WriteFile(path, "payload\x00\x01"
                              "x")
                  .ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::string("payload\x00\x01"
                               "x"));
  EXPECT_FALSE(ReadFile(path + ".missing").ok());
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DoubleInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RandomTest, ZipfSkewsTowardsHead) {
  Rng rng(5);
  ZipfSampler zipf(100, 1.2);
  int head = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // The head 10% of items should receive well over 10% of samples.
  EXPECT_GT(head, trials / 4);
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ',', /*skip_empty=*/false),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Join({"x", "y"}, "-"), "x-y");
  EXPECT_EQ(Trim("  hi\t\n"), "hi");
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024 * 1024), "5.00 GB");
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, InlineModeRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelModeCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace ariadne
