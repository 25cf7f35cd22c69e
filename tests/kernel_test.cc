#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/parallel.h"
#include "kernel/exec_tracer.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;
using bat::Properties;

Bat AttrBat(std::vector<Oid> heads, std::vector<int32_t> tails,
            Properties props = Properties{}) {
  return Bat(Column::MakeOid(std::move(heads)),
             Column::MakeInt(std::move(tails)), props);
}

std::vector<Oid> Heads(const Bat& b) {
  std::vector<Oid> out;
  for (size_t i = 0; i < b.size(); ++i) out.push_back(b.head().OidAt(i));
  return out;
}

std::vector<int32_t> IntTails(const Bat& b) {
  std::vector<int32_t> out;
  for (size_t i = 0; i < b.size(); ++i) {
    out.push_back(static_cast<int32_t>(b.tail().NumAt(i)));
  }
  return out;
}

// ---------------------------------------------------------------- select

TEST(SelectTest, PointSelectScan) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {7, 5, 7, 9});
  Bat out = Select(ctx, ab, Value::Int(7)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_TRUE(out.props().tsorted);  // all tail values equal
}

TEST(SelectTest, PointSelectBinarySearchOnSorted) {
  ExecContext ctx;
  Bat ab = AttrBat({4, 2, 1, 3}, {1, 5, 7, 7}, Properties{false, false,
                                                          false, true});
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Select(ctx, ab, Value::Int(7)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_EQ(tracer.LastImplOf("select"), "binsearch_select");
}

TEST(SelectTest, RangeSelectInclusiveBothEnds) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4, 5}, {10, 20, 30, 40, 50},
                   Properties{true, false, false, true});
  Bat out =
      SelectRange(ctx, ab, Value::Int(20), Value::Int(40)).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3, 4}));
}

TEST(SelectTest, OpenEndedRange) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat lo = SelectRange(ctx, ab, Value::Int(20), Value()).ValueOrDie();
  EXPECT_EQ(Heads(lo), (std::vector<Oid>{2, 3}));
  Bat hi = SelectRange(ctx, ab, Value(), Value::Int(20)).ValueOrDie();
  EXPECT_EQ(Heads(hi), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, CmpVariants) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {1, 2, 3, 4});
  EXPECT_EQ(Heads(SelectCmp(ctx, ab, CmpOp::kLt, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2}));
  EXPECT_EQ(Heads(SelectCmp(ctx, ab, CmpOp::kLe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2, 3}));
  EXPECT_EQ(Heads(SelectCmp(ctx, ab, CmpOp::kGt, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{4}));
  EXPECT_EQ(Heads(SelectCmp(ctx, ab, CmpOp::kGe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{3, 4}));
  EXPECT_EQ(Heads(SelectCmp(ctx, ab, CmpOp::kNe, Value::Int(3)).ValueOrDie()),
            (std::vector<Oid>{1, 2, 4}));
}

TEST(SelectTest, SelectOnStrings) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeStr({"alpha", "beta", "alpha"}));
  Bat out = Select(ctx, ab, Value::Str("alpha")).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, SelectLikePattern) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeStr({"PROMO BRASS", "SMALL STEEL", "LARGE BRASS"}));
  Bat out = SelectLike(ctx, ab, "%BRASS").ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SelectTest, SelectOnDates) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3}),
         Column::MakeDate({Date::FromYmd(1994, 1, 1),
                           Date::FromYmd(1994, 6, 1),
                           Date::FromYmd(1995, 1, 1)}));
  Bat out = SelectRange(ctx, ab, Value::MakeDate(Date::FromYmd(1994, 1, 1)),
                        Value::MakeDate(Date::FromYmd(1994, 12, 31)))
                .ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2}));
}

TEST(SelectTest, EmptyResult) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2}, {5, 6});
  Bat out = Select(ctx, ab, Value::Int(99)).ValueOrDie();
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------- join

TEST(JoinTest, HashJoinProjectsOutJoinColumns) {
  ExecContext ctx;
  // AB = [item, order], CD = [order, clerk-code]
  Bat ab = AttrBat({100, 101, 102}, {7, 8, 7});
  Bat cd = AttrBat({7, 9}, {55, 66});
  // int tails join with oid-typed... use oid-oid: rebuild.
  Bat ab2(Column::MakeOid({100, 101, 102}), Column::MakeOid({7, 8, 7}));
  Bat cd2(Column::MakeOid({7, 9}), Column::MakeInt({55, 66}));
  Bat out = Join(ctx, ab2, cd2).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{100, 102}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{55, 55}));
}

TEST(JoinTest, MergeJoinChosenWhenSorted) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3}), Column::MakeOid({10, 20, 30}),
         Properties{true, true, true, true});
  Bat cd(Column::MakeOid({10, 20, 40}), Column::MakeInt({1, 2, 4}),
         Properties{true, true, true, true});
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("join"), "merge_join");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{1, 2}));
}

TEST(JoinTest, MergeJoinHandlesDuplicateKeysBothSides) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2}), Column::MakeOid({10, 10}),
         Properties{false, false, false, true});
  Bat cd(Column::MakeOid({10, 10}), Column::MakeInt({5, 6}),
         Properties{false, false, true, false});
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.size(), 4u);  // full cross product of the key run
}

TEST(JoinTest, PositionalFetchJoinOnVoidAlignment) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({5, 6, 7}), Column::MakeVoid(0, 3));
  Bat cd(Column::MakeVoid(0, 3), Column::MakeInt({11, 12, 13}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("join"), "fetch_join");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{5, 6, 7}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{11, 12, 13}));
}

TEST(JoinTest, JoinIsClosedInBinaryModel) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1}), Column::MakeOid({2}));
  Bat cd(Column::MakeOid({2}), Column::MakeStr({"x"}));
  Bat out = Join(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.head().type(), MonetType::kOidT);
  EXPECT_EQ(out.tail().type(), MonetType::kStr);
  EXPECT_EQ(out.tail().Str(0), "x");
}

// ---------------------------------------------------------------- semijoin

TEST(SemijoinTest, HashSemijoinKeepsMatchingHeads) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40});
  Bat cd(Column::MakeOid({2, 4, 9}), Column::MakeVoid(0, 3));
  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{20, 40}));
}

TEST(SemijoinTest, SyncSemijoinWhenOperandsSynced) {
  ExecContext ctx;
  auto head = Column::MakeOid({1, 2, 3});
  Bat ab(head, Column::MakeInt({10, 20, 30}));
  Bat cd(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "sync_semijoin");
  EXPECT_EQ(out.size(), 3u);
}

TEST(SemijoinTest, MergeSemijoinWhenBothHeadSorted) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30},
                   Properties{true, false, true, true});
  Bat cd(Column::MakeOid({2, 3, 5}), Column::MakeVoid(0, 3),
         Properties{true, false, true, true});
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "merge_semijoin");
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3}));
}

TEST(SemijoinTest, DatavectorSemijoinUsedAndCached) {
  ExecContext ctx;
  // Attribute BAT sorted on tail with a datavector attached.
  Bat attr(Column::MakeOid({3, 1, 2, 4}), Column::MakeInt({5, 6, 7, 8}),
           Properties{false, false, false, true});
  auto dv = std::make_shared<bat::Datavector>(
      Column::MakeOid({1, 2, 3, 4}), Column::MakeInt({6, 7, 5, 8}));
  attr.SetDatavector(dv);

  Bat sel(Column::MakeOid({2, 4}), Column::MakeVoid(0, 2),
          Properties{true, false, true, false});
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out1 = Semijoin(ctx, attr, sel).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
  EXPECT_EQ(Heads(out1), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out1), (std::vector<int32_t>{7, 8}));

  // Second semijoin with the same right operand reuses the LOOKUP array.
  Bat attr2(Column::MakeOid({4, 3, 2, 1}), Column::MakeInt({80, 50, 70, 60}),
            Properties{false, false, false, true});
  attr2.SetDatavector(std::make_shared<bat::Datavector>(
      dv->extent(), Column::MakeInt({60, 70, 50, 80})));
  // Use the same accelerator object to model the shared-extent cache.
  Bat out2 = Semijoin(ctx, attr, sel).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin(cached)");
  EXPECT_EQ(Heads(out2), Heads(out1));
  EXPECT_TRUE(out1.SyncedWith(out2));
}

TEST(SemijoinTest, DiffIsAntiSemijoin) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat cd(Column::MakeOid({2}), Column::MakeVoid(0, 1));
  Bat out = Diff(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
}

TEST(SemijoinTest, UnionMergesByHead) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2}, {10, 20});
  Bat cd = AttrBat({2, 3}, {99, 30});
  Bat out = Union(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 2, 3}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{10, 20, 30}));
}

// ---------------------------------------------------------------- group

TEST(GroupTest, AssignsDenseOidsPerDistinctValue) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {1994, 1995, 1994, 1996});
  Bat out = Group(ctx, ab).ValueOrDie();
  const auto gids = Heads(out.Mirror());  // tail as oids
  EXPECT_EQ(gids[0], gids[2]);
  EXPECT_NE(gids[0], gids[1]);
  EXPECT_NE(gids[1], gids[3]);
  EXPECT_EQ(gids[0], 0u);  // dense from zero, first-appearance order
  EXPECT_EQ(gids[1], 1u);
  EXPECT_EQ(gids[3], 2u);
  // group is a tail rewrite: result stays synced with its operand.
  EXPECT_TRUE(out.SyncedWith(ab));
}

TEST(GroupTest, RefineSplitsGroups) {
  ExecContext ctx;
  Bat years = AttrBat({1, 2, 3, 4}, {1994, 1994, 1994, 1995});
  Bat grp = Group(ctx, years).ValueOrDie();
  Bat flags(Column::MakeOid({1, 2, 3, 4}), Column::MakeChr({'A', 'B', 'A',
                                                            'A'}));
  Bat refined = GroupRefine(ctx, grp, flags).ValueOrDie();
  const auto gids = Heads(refined.Mirror());
  EXPECT_EQ(gids[0], gids[2]);  // (1994,'A')
  EXPECT_NE(gids[0], gids[1]);  // (1994,'B')
  EXPECT_NE(gids[0], gids[3]);  // (1995,'A')
}

TEST(GroupTest, RefiningANonOidTailIsATypeError) {
  // The refinement extends the group oids of its first operand's tail; any
  // other tail type used to throw std::bad_variant_access.
  ExecContext ctx;
  Bat names(Column::MakeOid({1, 2}), Column::MakeStr({"a", "b"}));
  Bat vals = AttrBat({1, 2}, {10, 20});
  EXPECT_EQ(GroupRefine(ctx, names, vals).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(GroupRefine(ctx, vals, names).status().code(),
            StatusCode::kTypeError);
  // A void tail is a dense oid sequence: it refines.
  EXPECT_TRUE(GroupRefine(ctx, VoidTail(ctx, vals).ValueOrDie(), names).ok());
}

// ---------------------------------------------------------------- multiplex

TEST(MultiplexTest, VoidTailUnderAStringFunctionIsATypeError) {
  ExecContext ctx;
  Bat ext = VoidTail(ctx, AttrBat({1, 2}, {10, 20})).ValueOrDie();
  EXPECT_EQ(Multiplex(ctx, "concat", {ext, Value::Str("x")}).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Multiplex(ctx, "not", {ext}).status().code(),
            StatusCode::kTypeError);
}

TEST(MultiplexTest, SyncedNumericFastPath) {
  ExecContext ctx;
  auto head = Column::MakeOid({1, 2, 3});
  Bat price(head, Column::MakeDbl({10.0, 20.0, 30.0}));
  Bat disc(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Multiplex(ctx, "*", {price, disc}).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_synced_numeric");
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 4.0);
  EXPECT_TRUE(out.SyncedWith(price));
}

TEST(MultiplexTest, ConstantArgumentBroadcasts) {
  ExecContext ctx;
  Bat disc(Column::MakeOid({1, 2}), Column::MakeDbl({0.1, 0.25}));
  Bat out = Multiplex(ctx, "-", {Value::Dbl(1.0), disc}).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 0.9);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 0.75);
}

TEST(MultiplexTest, YearExtraction) {
  ExecContext ctx;
  Bat dates(Column::MakeOid({1, 2}),
            Column::MakeDate({Date::FromYmd(1994, 3, 1),
                              Date::FromYmd(1996, 7, 9)}));
  Bat out = Multiplex(ctx, "year", {dates}).ValueOrDie();
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{1994, 1996}));
}

TEST(MultiplexTest, HeadJoinAlignmentWhenNotSynced) {
  ExecContext ctx;
  Bat a(Column::MakeOid({1, 2, 3}), Column::MakeDbl({1, 2, 3}));
  Bat b(Column::MakeOid({3, 1}), Column::MakeDbl({30, 10}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Multiplex(ctx, "+", {a, b}).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_headjoin");
  // Only heads 1 and 3 exist on both sides.
  EXPECT_EQ(Heads(out), (std::vector<Oid>{1, 3}));
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 11.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 33.0);
}

TEST(MultiplexTest, DivisionByZeroFailsOnEveryVariant) {
  // The synced typed loop, the head-join alignment and a constant divisor
  // report a zero divisor as the same error, at degrees 1 and 4; 70000
  // rows give the degree-4 plan four blocks, and the zero sits in the last.
  SetParallelBlockCap(4);
  constexpr size_t kRows = 70000;
  std::vector<Oid> heads(kRows);
  std::iota(heads.begin(), heads.end(), Oid{1});
  const std::vector<double> threes(kRows, 3.0), twos(kRows, 2.0);
  std::vector<double> zero_late = twos;
  zero_late[kRows - 5] = 0.0;
  const Bat x(Column::MakeOid(heads), Column::MakeDbl(threes));
  const Bat synced_twos(x.head_col(), Column::MakeDbl(twos));
  const Bat synced_zero(x.head_col(), Column::MakeDbl(zero_late));
  const Bat joined_twos(Column::MakeOid(heads), Column::MakeDbl(twos));
  const Bat joined_zero(Column::MakeOid(heads), Column::MakeDbl(zero_late));
  struct Case {
    const char* what;
    MxArg ok, zero;  // a nonzero control divisor and the zero one
    const char* impl;
  };
  const Case cases[] = {
      {"synced", synced_twos, synced_zero, "multiplex_synced_numeric"},
      {"head-join", joined_twos, joined_zero, "multiplex_headjoin"},
      {"constant", Value::Dbl(2.0), Value::Dbl(0.0),
       "multiplex_synced_numeric"},
  };
  for (int degree : {1, 4}) {
    for (const Case& c : cases) {
      const std::string what =
          std::string(c.what) + " at degree " + std::to_string(degree);
      ExecTracer tracer;
      ExecContext ctx;
      ctx.WithTracer(&tracer).WithParallelDegree(degree);
      EXPECT_TRUE(Multiplex(ctx, "/", {x, c.ok}).ok()) << what;
      EXPECT_EQ(tracer.LastImplOf("multiplex"), c.impl) << what;
      const Status s = Multiplex(ctx, "/", {x, c.zero}).status();
      EXPECT_EQ(s.code(), StatusCode::kExecutionError) << what;
      EXPECT_EQ(s.message(), "division by zero") << what;
    }
  }
  SetParallelBlockCap(0);
}

TEST(MultiplexTest, ComparisonYieldsBits) {
  ExecContext ctx;
  Bat a(Column::MakeOid({1, 2}), Column::MakeInt({5, 9}));
  Bat out = Multiplex(ctx, "<", {a, Value::Int(7)}).ValueOrDie();
  EXPECT_EQ(out.tail().type(), MonetType::kBit);
  EXPECT_EQ(out.tail().GetValue(0).AsBit(), true);
  EXPECT_EQ(out.tail().GetValue(1).AsBit(), false);
}

// ---------------------------------------------------------------- aggregates

TEST(AggregateTest, SetAggregateSumGroupsByHead) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({0, 1, 0, 1, 2}),
         Column::MakeDbl({1.0, 2.0, 3.0, 4.0, 5.0}));
  Bat out = SetAggregate(ctx, AggKind::kSum, ab).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 4.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 6.0);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(2), 5.0);
  EXPECT_TRUE(out.props().hkey);
  EXPECT_TRUE(out.props().hsorted);
}

TEST(AggregateTest, SetAggregateCountAvgMinMax) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({0, 0, 1}), Column::MakeInt({3, 5, 7}));
  Bat cnt = SetAggregate(ctx, AggKind::kCount, ab).ValueOrDie();
  EXPECT_EQ(cnt.tail().GetValue(0).AsLng(), 2);
  Bat avg = SetAggregate(ctx, AggKind::kAvg, ab).ValueOrDie();
  EXPECT_DOUBLE_EQ(avg.tail().NumAt(0), 4.0);
  Bat mn = SetAggregate(ctx, AggKind::kMin, ab).ValueOrDie();
  EXPECT_EQ(mn.tail().GetValue(0).AsInt(), 3);
  Bat mx = SetAggregate(ctx, AggKind::kMax, ab).ValueOrDie();
  EXPECT_EQ(mx.tail().GetValue(1).AsInt(), 7);
}

TEST(AggregateTest, MinMaxPreserveStrings) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({0, 0}), Column::MakeStr({"beta", "alpha"}));
  Bat mn = SetAggregate(ctx, AggKind::kMin, ab).ValueOrDie();
  EXPECT_EQ(mn.tail().Str(0), "alpha");
}

TEST(AggregateTest, ScalarAggregates) {
  ExecContext ctx;
  Bat ab(Column::MakeVoid(0, 4), Column::MakeInt({1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(
      ScalarAggregate(ctx, AggKind::kSum, ab).ValueOrDie().AsDbl(), 10.0);
  EXPECT_EQ(ScalarAggregate(ctx, AggKind::kCount, ab).ValueOrDie().AsLng(), 4);
  EXPECT_DOUBLE_EQ(
      ScalarAggregate(ctx, AggKind::kAvg, ab).ValueOrDie().AsDbl(), 2.5);
  EXPECT_EQ(ScalarAggregate(ctx, AggKind::kMin, ab).ValueOrDie().AsInt(), 1);
  EXPECT_EQ(ScalarAggregate(ctx, AggKind::kMax, ab).ValueOrDie().AsInt(), 4);
}

// ---------------------------------------------------------------- reshape

TEST(ReshapeTest, UniqueRemovesDuplicateBuns) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({0, 0, 1, 0}), Column::MakeInt({5, 5, 5, 6}));
  Bat out = Unique(ctx, ab).ValueOrDie();
  EXPECT_EQ(out.size(), 3u);  // (0,5), (1,5), (0,6)
}

TEST(ReshapeTest, HeadUniqueKeepsFirstPerHead) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({2, 2, 1}), Column::MakeInt({5, 6, 7}));
  Bat out = HeadUnique(ctx, ab).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 1}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{5, 7}));
  EXPECT_TRUE(out.props().hkey);
}

TEST(ReshapeTest, MarkAttachesDenseOids) {
  ExecContext ctx;
  Bat ab = AttrBat({5, 6, 7}, {1, 2, 3});
  Bat out = Mark(ctx, ab, 100).ValueOrDie();
  EXPECT_TRUE(out.tail().is_void());
  EXPECT_EQ(out.tail().OidAt(2), 102u);
  EXPECT_TRUE(out.props().tkey);
}

TEST(ReshapeTest, SliceTakesPositionalWindow) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40});
  Bat out = Slice(ctx, ab, 1, 3).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3}));
  Bat clamped = Slice(ctx, ab, 2, 99).ValueOrDie();
  EXPECT_EQ(clamped.size(), 2u);
}

TEST(ReshapeTest, SortTailOrdersAscending) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3}, {30, 10, 20});
  Bat out = SortTail(ctx, ab).ValueOrDie();
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{10, 20, 30}));
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 3, 1}));
  EXPECT_TRUE(out.props().tsorted);
  EXPECT_TRUE(out.Validate().ok());
}

TEST(ReshapeTest, TopNDescendingTakesLargest) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2, 3, 4}, {10, 40, 20, 30});
  Bat out = TopN(ctx, ab, 2, /*descending=*/true).ValueOrDie();
  EXPECT_EQ(Heads(out), (std::vector<Oid>{2, 4}));
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{40, 30}));
  Bat asc = TopN(ctx, ab, 2, /*descending=*/false).ValueOrDie();
  EXPECT_EQ(IntTails(asc), (std::vector<int32_t>{10, 20}));
}

TEST(ReshapeTest, TopNClampsToSize) {
  ExecContext ctx;
  Bat ab = AttrBat({1}, {10});
  EXPECT_EQ(TopN(ctx, ab, 5, true).ValueOrDie().size(), 1u);
}

TEST(ReshapeTest, ProjectConstBroadcasts) {
  ExecContext ctx;
  Bat ab = AttrBat({1, 2}, {0, 0});
  Bat out = ProjectConst(ctx, ab, Value::Str("x")).ValueOrDie();
  EXPECT_EQ(out.tail().Str(1), "x");
  EXPECT_TRUE(out.SyncedWith(ab));
}

TEST(ReshapeTest, AppendConcatenates) {
  ExecContext ctx;
  Bat ab = AttrBat({1}, {10});
  Bat cd = AttrBat({2}, {20});
  Bat out = Append(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  Bat bad_typed(Column::MakeOid({1}), Column::MakeStr({"x"}));
  EXPECT_FALSE(Append(ctx, ab, bad_typed).ok());
}

// ---------------------------------------------------------------- scalars

TEST(ScalarFnTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "%BRASS"));
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "PROMO%"));
  EXPECT_TRUE(LikeMatch("PROMO BRASS", "%OMO%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", "abcd"));
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_TRUE(LikeMatch("aXbYc", "a%b%c"));
}

TEST(ScalarFnTest, ArithmeticAndDivisionByZero) {
  EXPECT_DOUBLE_EQ(
      ScalarApply("+", {Value::Int(2), Value::Dbl(0.5)}).ValueOrDie().AsDbl(),
      2.5);
  EXPECT_FALSE(ScalarApply("/", {Value::Int(1), Value::Int(0)}).ok());
}

TEST(ScalarFnTest, WronglyTypedArgumentsAreTypeErrors) {
  // A void column yields oid values; none of these may reach AsStr/AsBit.
  const Value oid = Value::MakeOid(3);
  const std::pair<const char*, std::vector<Value>> calls[] = {
      {"concat", {oid, Value::Str("x")}},
      {"and", {oid, Value::Bit(true)}},
      {"not", {oid}},
      {"ifthen", {oid, Value::Int(1), Value::Int(2)}},
      {"like", {oid, Value::Str("%")}},
      {"length", {oid}},
      {"year", {Value::Int(1994)}},
      {"+", {Value::Str("x"), Value::Int(1)}},
  };
  for (const auto& [fn, args] : calls) {
    EXPECT_EQ(ScalarApply(fn, args).status().code(), StatusCode::kTypeError)
        << fn;
  }
  EXPECT_EQ(ScalarApply("not", {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScalarFnTest, ResultTypes) {
  EXPECT_EQ(ScalarResultType("*", {MonetType::kFlt, MonetType::kDbl})
                .ValueOrDie(),
            MonetType::kDbl);
  EXPECT_EQ(ScalarResultType("=", {MonetType::kStr, MonetType::kStr})
                .ValueOrDie(),
            MonetType::kBit);
  EXPECT_EQ(ScalarResultType("year", {MonetType::kDate}).ValueOrDie(),
            MonetType::kInt);
  EXPECT_FALSE(ScalarResultType("bogus", {}).ok());
}

}  // namespace
}  // namespace moaflat::kernel
