#include <gtest/gtest.h>

#include <limits>

#include "eval/common.h"
#include "pql/parser.h"
#include "pql/queries.h"

namespace ariadne {
namespace {

Result<AnalyzedQuery> AnalyzeText(const std::string& text) {
  auto program = ParseProgram(text);
  if (!program.ok()) return program.status();
  return Analyze(*program, Catalog::Default(), UdfRegistry::Default());
}

TEST(ValidateModeTest, ForwardLocalBackwardMatrix) {
  auto forward = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(forward.ok());
  ASSERT_EQ(forward->direction(), Direction::kForward);
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kOnline).ok());
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*forward, EvalMode::kNaive).ok());

  auto backward = AnalyzeText(
      "p(x, i) <- send-message(x, y, m, i), q(y, j), j = i + 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(backward.ok());
  ASSERT_EQ(backward->direction(), Direction::kBackward);
  EXPECT_FALSE(ValidateMode(*backward, EvalMode::kOnline).ok());
  EXPECT_TRUE(ValidateMode(*backward, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*backward, EvalMode::kNaive).ok());

  auto undirected = AnalyzeText(
      "t(y, i) <- superstep(y, i).\n"
      "r(x, i) <- superstep(x, i), t(y, i).");
  ASSERT_TRUE(undirected.ok());
  ASSERT_EQ(undirected->direction(), Direction::kUndirected);
  EXPECT_FALSE(ValidateMode(*undirected, EvalMode::kOnline).ok());
  EXPECT_FALSE(ValidateMode(*undirected, EvalMode::kLayered).ok());
  EXPECT_TRUE(ValidateMode(*undirected, EvalMode::kNaive).ok());
}

TEST(EvalModeTest, Names) {
  EXPECT_STREQ(EvalModeToString(EvalMode::kOnline), "online");
  EXPECT_STREQ(EvalModeToString(EvalMode::kLayered), "layered");
  EXPECT_STREQ(EvalModeToString(EvalMode::kNaive), "naive");
}

TEST(ShipDeltaTest, OnlySelfLocatedTuplesShip) {
  auto query = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->shipped_preds().size(), 1u);
  const int q_pred = query->shipped_preds()[0];

  NodeQueryState state;
  Database& db = state.EnsureDb(*query);
  // Local tuple (located at vertex 5) and a foreign one that arrived via
  // an earlier ship (located at vertex 9).
  db.Rel(q_pred).Insert({Value(int64_t{5}), Value(int64_t{0})});
  db.Rel(q_pred).Insert({Value(int64_t{9}), Value(int64_t{0})});

  ShipBundlePtr bundle = CollectShipDelta(*query, state, /*self=*/5);
  ASSERT_NE(bundle, nullptr);
  ASSERT_EQ(bundle->size(), 1u);
  ASSERT_EQ((*bundle)[0].second.size(), 1u);
  EXPECT_EQ((*bundle)[0].second[0][0], Value(int64_t{5}));

  // Watermark advanced: nothing new to ship.
  EXPECT_EQ(CollectShipDelta(*query, state, 5), nullptr);
  // New local tuple ships; the foreign one stays filtered forever.
  db.Rel(q_pred).Insert({Value(int64_t{5}), Value(int64_t{1})});
  bundle = CollectShipDelta(*query, state, 5);
  ASSERT_NE(bundle, nullptr);
  EXPECT_EQ((*bundle)[0].second.size(), 1u);
}

TEST(ShipDeltaTest, RoutingFilterSelectsPredicates) {
  auto query = AnalyzeText(
      "p(x, i) <- receive-message(x, y, m, i), q(y, j), j = i - 1.\n"
      "q(x, i) <- superstep(x, i).");
  ASSERT_TRUE(query.ok());
  const int q_pred = query->shipped_preds()[0];
  ASSERT_EQ(query->pred(q_pred).routing, ShipRouting::kAlongMessages);

  NodeQueryState state;
  state.EnsureDb(*query).Rel(q_pred).Insert(
      {Value(int64_t{1}), Value(int64_t{0})});
  // Wrong routing class: nothing collected, watermark untouched.
  EXPECT_EQ(CollectShipDeltaForRouting(*query, state, 1,
                                       ShipRouting::kAlongInEdges),
            nullptr);
  EXPECT_NE(CollectShipDeltaForRouting(*query, state, 1,
                                       ShipRouting::kAlongMessages),
            nullptr);
}

LayerSlice RunOf(const std::vector<Tuple>& tuples, size_t arity) {
  LayerSlice run;
  run.arity = static_cast<uint32_t>(arity);
  for (const Tuple& t : tuples) run.AppendTuple(t);
  return run;
}

std::vector<Tuple> RowsOf(const LayerSlice& run) {
  std::vector<Tuple> out;
  for (size_t i = 0; i < run.size(); ++i) out.push_back(run.TupleAt(i));
  return out;
}

TEST(DedupKeepFirstTest, KeepsFirstOccurrencesInOrder) {
  // Short and long runs (the table grows with the run) must both keep
  // exactly the first occurrence of each tuple, in order.
  for (int64_t distinct : {3, 40}) {
    SCOPED_TRACE("distinct=" + std::to_string(distinct));
    std::vector<Tuple> tuples;
    std::vector<Tuple> want;
    for (int64_t round = 0; round < 3; ++round) {
      for (int64_t k = distinct - 1; k >= 0; --k) {
        Tuple t{Value(int64_t{7}), Value(k),
                Value(0.5 * static_cast<double>(k))};
        if (round == 0) want.push_back(t);
        tuples.push_back(std::move(t));
      }
    }
    // Strict value equality: an int and the equal double are distinct.
    tuples.push_back({Value(int64_t{7}), Value(0.0), Value(0.0)});
    want.push_back({Value(int64_t{7}), Value(0.0), Value(0.0)});
    LayerSlice run = RunOf(tuples, 3);
    DedupKeepFirst(run);
    EXPECT_EQ(RowsOf(run), want);
    EXPECT_EQ(run.cells.size(), want.size() * 3);
  }
  LayerSlice empty;
  empty.arity = 3;
  DedupKeepFirst(empty);
  EXPECT_TRUE(empty.empty());
}

TEST(DedupKeepFirstTest, VerdictsMatchRelationInsert) {
  // Every row is checked against a Relation, whose Insert defines set
  // semantics for tuples: the flat dedup must keep exactly the rows
  // Insert accepts, in first-occurrence order, and account their bytes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Value loc(int64_t{4});
  const std::vector<Tuple> tuples = {
      {loc, Value(0.0), Value("a")},
      {loc, Value(-0.0), Value("a")},  // 0.0 == -0.0: dropped
      {loc, Value(nan), Value("a")},
      {loc, Value(nan), Value("a")},  // NaN != NaN: kept again
      {loc, Value(int64_t{1}), Value("b")},
      {loc, Value(1.0), Value("b")},  // Int(1) != Double(1.0): kept
      {loc, Value(int64_t{1}), Value(std::string("b"))},  // dropped
      {loc, Value(std::vector<double>{1.0, 2.0}), Value("")},
      {loc, Value(std::vector<double>{1.0, 2.0}), Value("")},  // dropped
      {loc, Value(std::vector<double>{1.0, -0.0}), Value("")},
      {loc, Value(std::vector<double>{1.0, 0.0}), Value("")},  // dropped
      {loc, Value(std::vector<double>{nan}), Value("")},
      {loc, Value(std::vector<double>{nan}), Value("")},  // kept again
      {loc, Value(), Value("c")},
      {loc, Value(), Value("c")},  // null == null: dropped
      {loc, Value("ab"), Value("c")},
      {loc, Value("a"), Value("bc")},  // different split: kept
  };
  Relation relation(3);
  std::vector<Tuple> want;
  size_t want_bytes = 0;
  for (const Tuple& t : tuples) {
    if (relation.Insert(t)) {
      want.push_back(t);
      want_bytes += TupleByteSize(t);
    }
  }
  ASSERT_EQ(want.size(), 12u);
  LayerSlice run = RunOf(tuples, 3);
  DedupKeepFirst(run);
  ASSERT_EQ(run.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // TupleToString: NaN rows compare unequal even to themselves.
    EXPECT_EQ(TupleToString(run.TupleAt(i)), TupleToString(want[i]))
        << "row " << i;
  }
  EXPECT_EQ(run.ByteSize(), want_bytes);
  EXPECT_EQ(relation.byte_size(), want_bytes);

  // The read path's insert-from-cells agrees with Insert too.
  Relation from_cells(3);
  for (size_t i = 0; i < run.size(); ++i) {
    EXPECT_TRUE(from_cells.InsertCells({run.row(i), run.arity}, run.side))
        << "row " << i;
  }
  LayerSlice again = RunOf(tuples, 3);
  size_t accepted = 0;
  for (size_t i = 0; i < again.size(); ++i) {
    accepted += from_cells.InsertCells({again.row(i), again.arity},
                                       again.side)
                    ? 1
                    : 0;
  }
  // Only the NaN rows are new again (NaN never equals a stored NaN).
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(from_cells.size(), want.size() + 4);
}

TEST(RetentionTest, DropsOnlySteppedEdbHistory) {
  auto program = ParseProgram(queries::Apt());
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->BindParameters({{"eps", Value(0.01)}}).ok());
  auto query =
      Analyze(*program, Catalog::Default(), UdfRegistry::Default());
  ASSERT_TRUE(query.ok());

  Database db(&*query);
  const int value = query->PredId("value");
  const int no_execute = query->PredId("no-execute");
  for (int64_t step = 0; step < 10; ++step) {
    db.Rel(value).Insert({Value(int64_t{1}), Value(0.5), Value(step)});
    db.Rel(no_execute).Insert({Value(int64_t{1}), Value(step)});
  }
  ApplyRetention(*query, db, /*current=*/9, /*window=*/2);
  // EDB history trimmed to steps >= 7...
  EXPECT_EQ(db.RelIfExists(value)->size(), 3u);
  // ...but IDB results (the query's output) are never dropped.
  EXPECT_EQ(db.RelIfExists(no_execute)->size(), 10u);

  // Window 0 disables retention entirely.
  ApplyRetention(*query, db, 9, 0);
  EXPECT_EQ(db.RelIfExists(value)->size(), 3u);
}

}  // namespace
}  // namespace ariadne
