#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernel/exec_tracer.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"
#include "storage/string_heap.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;
using bat::ColumnPtr;
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

TEST(JoinTest, SerialHashJoinReportsEveryTouchToAnLruPager) {
  // A one-block hash join touches the caller's accountant directly: a
  // capacity-limited pager must see the probe's true touch sequence, not a
  // replay of each page's first touch. Reference: the probe tail read
  // sequentially, then c[pos], a[i], d[pos] for every match in probe order
  // (heads and tails are oids equal to their positions, so the result rows
  // spell out i and pos).
  constexpr size_t kLeft = 40000;
  constexpr size_t kRight = 20000;
  Rng rng(29);
  std::vector<Oid> left_pos(kLeft);
  std::iota(left_pos.begin(), left_pos.end(), Oid{0});
  std::vector<int32_t> fks(kLeft);
  for (auto& v : fks) v = static_cast<int32_t>(rng.Uniform(0, kRight - 1));
  std::vector<int32_t> keys(kRight);
  for (auto& v : keys) v = static_cast<int32_t>(rng.Uniform(0, kRight - 1));
  std::vector<Oid> right_pos(kRight);
  std::iota(right_pos.begin(), right_pos.end(), Oid{0});
  const Bat ab(Column::MakeOid(left_pos), Column::MakeInt(fks));
  const Bat cd(Column::MakeInt(keys), Column::MakeOid(right_pos));

  storage::IoStats io(4);
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithIo(&io).WithTracer(&tracer).WithParallelDegree(1);
  const Bat out = Join(ctx, ab, cd).ValueOrDie();
  ASSERT_EQ(tracer.LastImplOf("join"), "hash_join");

  storage::IoStats ref(4);
  ab.tail().TouchAll(&ref);
  for (size_t r = 0; r < out.size(); ++r) {
    const size_t i = out.head().OidAt(r);
    const size_t pos = out.tail().OidAt(r);
    cd.head().TouchAt(&ref, pos);
    ab.head().TouchAt(&ref, i);
    cd.tail().TouchAt(&ref, pos);
  }
  EXPECT_GT(ref.evictions(), 0u);
  EXPECT_EQ(io.faults(), ref.faults());
  EXPECT_EQ(io.evictions(), ref.evictions());
  EXPECT_EQ(io.logical_touches(), ref.logical_touches());
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
  EXPECT_EQ(Multiplex(ctx, *FindScalarFn("concat"), {ext, Value::Str("x")})
                .status()
                .code(),
            StatusCode::kTypeError);
  EXPECT_EQ(Multiplex(ctx, *FindScalarFn("not"), {ext}).status().code(),
            StatusCode::kTypeError);
}

TEST(MultiplexTest, SyncedNumericFastPath) {
  ExecContext ctx;
  auto head = Column::MakeOid({1, 2, 3});
  Bat price(head, Column::MakeDbl({10.0, 20.0, 30.0}));
  Bat disc(head, Column::MakeDbl({0.1, 0.2, 0.3}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Multiplex(ctx, *FindScalarFn("*"), {price, disc}).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("multiplex"), "multiplex_synced");
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 4.0);
  EXPECT_TRUE(out.SyncedWith(price));
}

TEST(MultiplexTest, ConstantArgumentBroadcasts) {
  ExecContext ctx;
  Bat disc(Column::MakeOid({1, 2}), Column::MakeDbl({0.1, 0.25}));
  Bat out =
      Multiplex(ctx, *FindScalarFn("-"), {Value::Dbl(1.0), disc}).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.tail().NumAt(0), 0.9);
  EXPECT_DOUBLE_EQ(out.tail().NumAt(1), 0.75);
}

TEST(MultiplexTest, YearExtraction) {
  ExecContext ctx;
  Bat dates(Column::MakeOid({1, 2}),
            Column::MakeDate({Date::FromYmd(1994, 3, 1),
                              Date::FromYmd(1996, 7, 9)}));
  Bat out = Multiplex(ctx, *FindScalarFn("year"), {dates}).ValueOrDie();
  EXPECT_EQ(IntTails(out), (std::vector<int32_t>{1994, 1996}));
}

TEST(MultiplexTest, HeadJoinAlignmentWhenNotSynced) {
  ExecContext ctx;
  Bat a(Column::MakeOid({1, 2, 3}), Column::MakeDbl({1, 2, 3}));
  Bat b(Column::MakeOid({3, 1}), Column::MakeDbl({30, 10}));
  ExecTracer tracer;
  ctx.WithTracer(&tracer);
  Bat out = Multiplex(ctx, *FindScalarFn("+"), {a, b}).ValueOrDie();
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
      {"synced", synced_twos, synced_zero, "multiplex_synced"},
      {"head-join", joined_twos, joined_zero, "multiplex_headjoin"},
      {"constant", Value::Dbl(2.0), Value::Dbl(0.0), "multiplex_synced"},
  };
  for (int degree : {1, 4}) {
    for (const Case& c : cases) {
      const std::string what =
          std::string(c.what) + " at degree " + std::to_string(degree);
      ExecTracer tracer;
      ExecContext ctx;
      ctx.WithTracer(&tracer).WithParallelDegree(degree);
      EXPECT_TRUE(Multiplex(ctx, *FindScalarFn("/"), {x, c.ok}).ok()) << what;
      EXPECT_EQ(tracer.LastImplOf("multiplex"), c.impl) << what;
      const Status s =
          Multiplex(ctx, *FindScalarFn("/"), {x, c.zero}).status();
      EXPECT_EQ(s.code(), StatusCode::kExecutionError) << what;
      EXPECT_EQ(s.message(), "division by zero") << what;
    }
  }
  SetParallelBlockCap(0);
}

TEST(MultiplexTest, ComparisonYieldsBits) {
  ExecContext ctx;
  Bat a(Column::MakeOid({1, 2}), Column::MakeInt({5, 9}));
  Bat out =
      Multiplex(ctx, *FindScalarFn("<"), {a, Value::Int(7)}).ValueOrDie();
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
      ScalarApply(*FindScalarFn("+"), {Value::Int(2), Value::Dbl(0.5)})
          .ValueOrDie()
          .AsDbl(),
      2.5);
  EXPECT_FALSE(
      ScalarApply(*FindScalarFn("/"), {Value::Int(1), Value::Int(0)}).ok());
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
    EXPECT_EQ(ScalarApply(*FindScalarFn(fn), args).status().code(),
              StatusCode::kTypeError)
        << fn;
  }
  EXPECT_EQ(ScalarApply(*FindScalarFn("not"), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScalarFnTest, ResultTypes) {
  EXPECT_EQ(ScalarResultType(*FindScalarFn("*"),
                             {MonetType::kFlt, MonetType::kDbl})
                .ValueOrDie(),
            MonetType::kDbl);
  EXPECT_EQ(ScalarResultType(*FindScalarFn("="),
                             {MonetType::kStr, MonetType::kStr})
                .ValueOrDie(),
            MonetType::kBit);
  EXPECT_EQ(
      ScalarResultType(*FindScalarFn("year"), {MonetType::kDate}).ValueOrDie(),
      MonetType::kInt);
  EXPECT_EQ(FindScalarFn("bogus"), nullptr);
}

// ------------------------------------------------------------ golden table
//
// Every kernel whose value loop reads column values — compares, hashes,
// equalities, numeric views — run over seeded operands of every storage
// shape and pinned row by row: result size, a digest of the head and tail
// values, and the four properties. Sync keys are left out (they mix
// process-wide heap ids). Each row is computed at degrees 1 and 4 (block
// cap 4) and must read the same at both. The dbl operands carry NaN; no
// operand carries -0.0, a value >= 2^53 or a str x non-str pair.

constexpr size_t kGoldenRows = 66000;  // four blocks at degree 4

/// FNV-1a over the stored values of `c` (typed reads: no boxing).
uint64_t ValueDigest(const Column& c) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t k = 0; k < n; ++k) {
      h ^= b[k];
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.is_void()) {
      const Oid v = c.OidAt(i);
      mix(&v, sizeof(v));
    } else if (c.type() == MonetType::kStr) {
      const std::string_view s = c.Str(i);
      mix(s.data(), s.size());
      mix("", 1);
    } else {
      Column::VisitType(c.type(), [&](auto tag) {
        using T = typename decltype(tag)::type;
        const T v = c.Data<T>()[i];
        mix(&v, sizeof(v));
      });
    }
  }
  return h;
}

std::string GoldenRow(const std::string& name, const Result<Bat>& r) {
  if (!r.ok()) return name + " error " + r.status().ToString();
  const Bat& b = *r;
  using ull = unsigned long long;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s n=%zu %s:%016llx %s:%016llx %d%d%d%d",
                name.c_str(), b.size(), TypeName(b.head().type()),
                static_cast<ull>(ValueDigest(b.head())),
                TypeName(b.tail().type()),
                static_cast<ull>(ValueDigest(b.tail())), b.props().hsorted,
                b.props().hkey, b.props().tsorted, b.props().tkey);
  return buf;
}

std::string GoldenScalar(const std::string& name, const Result<Value>& r) {
  if (!r.ok()) return name + " error " + r.status().ToString();
  if (r->type() == MonetType::kStr) return name + " str:" + r->AsStr();
  if (r->type() != MonetType::kDbl) return name + " " + r->ToString();
  const double d = r->AsDbl();
  unsigned long long bits;
  std::memcpy(&bits, &d, sizeof(d));
  char buf[64];
  std::snprintf(buf, sizeof(buf), " dbl:%016llx", bits);
  return name + buf;
}

/// Runs the registered variant `name` of `op` directly, or returns nullopt
/// when its predicate rejects the operands.
template <typename Sig, typename... Args>
std::optional<Result<Bat>> RunVariant(const ExecContext& ctx, const char* op,
                                      const std::string& name,
                                      const DispatchInput& in,
                                      const Args&... args) {
  for (const KernelRegistry::Variant& v :
       *KernelRegistry::Global().VariantsOf(op)) {
    if (v.name != name) continue;
    if (!v.applicable(in)) return std::nullopt;
    OpRecorder rec(ctx, op);
    return (*std::any_cast<std::function<Sig>>(&v.exec))(ctx, args..., rec);
  }
  ADD_FAILURE() << "no variant " << name << " of " << op;
  return std::nullopt;
}

enum class Shape { kVoid, kOid, kInt, kLng, kDbl, kDate, kStr };

constexpr Shape kShapes[] = {Shape::kVoid, Shape::kOid, Shape::kInt,
                             Shape::kLng,  Shape::kDbl, Shape::kDate,
                             Shape::kStr};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kVoid: return "void";
    case Shape::kOid: return "oid";
    case Shape::kInt: return "int";
    case Shape::kLng: return "lng";
    case Shape::kDbl: return "dbl";
    case Shape::kDate: return "date";
    case Shape::kStr: return "str";
  }
  return "?";
}

/// Seeded operand columns: values are drawn from a domain 0..dom-1 and
/// mapped into each shape so that equal draws are equal values across
/// columns of one shape (and void/oid share the oid domain from 100).
struct GoldenGen {
  std::shared_ptr<storage::StringHeap> heap =
      std::make_shared<storage::StringHeap>();

  Value At(Shape s, int64_t v) const {
    switch (s) {
      case Shape::kVoid: return Value::MakeOid(100 + 600 * v);
      case Shape::kOid: return Value::MakeOid(100 + v);
      case Shape::kInt: return Value::Int(static_cast<int32_t>(v - 50));
      case Shape::kLng: return Value::Lng((v - 50) * 1000003);
      case Shape::kDbl: return Value::Dbl(0.5 * static_cast<double>(v - 50));
      case Shape::kDate:
        return Value::MakeDate(Date(9000 + static_cast<int32_t>(v)));
      case Shape::kStr: return Value::Str("k" + std::to_string(v));
    }
    return Value();
  }

  /// `fresh_heap` puts a str column on its own heap instead of the shared
  /// one.
  ColumnPtr Make(Shape s, size_t n, int64_t dom, uint64_t seed,
                 bool fresh_heap = false) const {
    Rng rng(seed);
    std::vector<int64_t> v(n);
    for (int64_t& x : v) x = rng.Uniform(0, dom - 1);
    switch (s) {
      case Shape::kVoid:
        return Column::MakeVoid(100, n);
      case Shape::kOid: {
        std::vector<Oid> out;
        for (int64_t x : v) out.push_back(At(s, x).AsOid());
        return Column::MakeOid(std::move(out));
      }
      case Shape::kInt: {
        std::vector<int32_t> out;
        for (int64_t x : v) out.push_back(At(s, x).AsInt());
        return Column::MakeInt(std::move(out));
      }
      case Shape::kLng: {
        std::vector<int64_t> out;
        for (int64_t x : v) out.push_back(At(s, x).AsLng());
        return Column::MakeLng(std::move(out));
      }
      case Shape::kDbl: {
        std::vector<double> out;
        for (int64_t x : v) {
          out.push_back(rng.Chance(1.0 / 32)
                            ? std::numeric_limits<double>::quiet_NaN()
                            : At(s, x).AsDbl());
        }
        return Column::MakeDbl(std::move(out));
      }
      case Shape::kDate: {
        std::vector<Date> out;
        for (int64_t x : v) out.push_back(At(s, x).AsDate());
        return Column::MakeDate(std::move(out));
      }
      case Shape::kStr: {
        auto h = fresh_heap ? std::make_shared<storage::StringHeap>() : heap;
        std::vector<int32_t> out;
        for (int64_t x : v) out.push_back(h->Intern(At(s, x).AsStr()));
        return Column::MakeStrOffsets(std::move(h), std::move(out));
      }
    }
    return nullptr;
  }
};

ColumnPtr IotaOids(size_t n, Oid base = 0) {
  std::vector<Oid> v(n);
  std::iota(v.begin(), v.end(), base);
  return Column::MakeOid(std::move(v));
}

/// Sorts `ab` on its head (through the tail sort of its mirror).
Bat HeadSorted(const ExecContext& ctx, const Bat& ab) {
  return SortTail(ctx, ab.Mirror()).ValueOrDie().Mirror();
}

/// The binary operand pairs: the join column's shape on each side and
/// whether a str right side shares the left side's heap.
struct ShapePair {
  const char* name;
  Shape left, right;
  bool fresh_heap;
};

constexpr ShapePair kPairs[] = {
    {"int", Shape::kInt, Shape::kInt, false},
    {"lng", Shape::kLng, Shape::kLng, false},
    {"dbl", Shape::kDbl, Shape::kDbl, false},
    {"date", Shape::kDate, Shape::kDate, false},
    {"oid", Shape::kOid, Shape::kOid, false},
    {"oid-void", Shape::kOid, Shape::kVoid, false},
    {"void-oid", Shape::kVoid, Shape::kOid, false},
    {"str-shared", Shape::kStr, Shape::kStr, false},
    {"str-distinct", Shape::kStr, Shape::kStr, true},
};

std::vector<std::string> GoldenTable(int degree) {
  ExecContext ctx;
  ctx.WithParallelDegree(degree);
  const GoldenGen gen;
  std::vector<std::string> rows;
  auto add = [&rows](const std::string& name,
                     const std::optional<Result<Bat>>& r) {
    if (r.has_value()) rows.push_back(GoldenRow(name, *r));
  };

  for (const Shape s : kShapes) {
    const std::string sn = ShapeName(s);
    // select: range, point, one-sided and != on an unsorted and a sorted
    // tail, through every applicable variant.
    const Bat ab(IotaOids(kGoldenRows), gen.Make(s, kGoldenRows, 97, 11));
    const Bat sorted = SortTail(ctx, ab).ValueOrDie();
    const Bound none{};
    const Bound lo{true, true, gen.At(s, 20)};
    const Bound hi{true, true, gen.At(s, 60)};
    const Bound pt{true, true, gen.At(s, 40)};
    const Bound pt_ex{true, false, gen.At(s, 40)};
    const struct {
      const char* name;
      Bound lo, hi;
    } ranges[] = {{"range", lo, hi},
                  {"point", pt, pt},
                  {"lt", none, pt_ex},
                  {"ge", pt, none}};
    for (const Bat* b : {&ab, &sorted}) {
      const std::string bn = sn + (b == &sorted ? "/sorted" : "");
      for (const auto& r : ranges) {
        for (const char* impl : {"binsearch_select", "scan_select"}) {
          add("select/" + bn + "/" + r.name + "/" + impl,
              RunVariant<SelectImplSig>(ctx, "select", impl,
                                        MakeInput(ctx, *b), *b, r.lo, r.hi));
        }
      }
      add("select/" + bn + "/ne", SelectCmp(ctx, *b, CmpOp::kNe, pt.value));
    }
    // sort and topn.
    add("sort/" + sn, SortTail(ctx, ab));
    add("topn/" + sn + "/asc", TopN(ctx, ab, 50, false));
    add("topn/" + sn + "/desc", TopN(ctx, ab, 50, true));
    // unique and hunique over a few-valued head and tail.
    const Bat dup(gen.Make(s, kGoldenRows, 13, 12),
                  gen.Make(s, kGoldenRows, 7, 13));
    add("unique/" + sn, Unique(ctx, dup));
    add("hunique/" + sn, HeadUnique(ctx, dup));
    // group, then both refinements: positional (synced) and aligned
    // through a reversed head.
    const Result<Bat> grouped = Group(ctx, ab);
    add("group/" + sn, grouped);
    ColumnPtr refine = gen.Make(s, kGoldenRows, 5, 14);
    const Bat synced(ab.head_col(), refine);
    std::vector<Oid> reversed(kGoldenRows);
    for (size_t i = 0; i < kGoldenRows; ++i) reversed[i] = kGoldenRows - 1 - i;
    const Bat aligned(Column::MakeOid(std::move(reversed)), refine);
    for (const char* impl : {"sync_group_refine", "hash_group_refine"}) {
      for (const Bat* cd : {&synced, &aligned}) {
        add("refine/" + sn + (cd == &aligned ? "/aligned/" : "/synced/") +
                impl,
            RunVariant<BinaryImplSig>(ctx, "group_refine", impl,
                                      MakeInput(ctx, *grouped, *cd), *grouped,
                                      *cd));
      }
    }
    // set aggregates over unsorted and sorted group heads, and the scalar
    // aggregates.
    const Bat agg(gen.Make(Shape::kOid, kGoldenRows, 50, 15),
                  gen.Make(s, kGoldenRows, 97, 16));
    const Bat agg_sorted = HeadSorted(ctx, agg);
    for (const AggKind kind : {AggKind::kSum, AggKind::kAvg, AggKind::kMin,
                               AggKind::kMax}) {
      const std::string kn = AggKindName(kind);
      for (const Bat* b : {&agg, &agg_sorted}) {
        for (const char* impl :
             {"run_set_aggregate", "hash_set_aggregate"}) {
          add("aggr/" + sn + (b == &agg_sorted ? "/sorted/" : "/") + kn +
                  "/" + impl,
              RunVariant<SetAggImplSig>(ctx, "set_aggregate", impl,
                                        MakeInput(ctx, *b), kind, *b));
        }
      }
      rows.push_back(GoldenScalar("scalar/" + sn + "/" + kn,
                                  ScalarAggregate(ctx, kind, agg)));
    }
    // the insert property guard: a run that keeps every property, and one
    // that breaks sortedness and both keys.
    const Bat base =
        SortTail(ctx, HeadUnique(ctx, Bat(gen.Make(s, 400, 1000, 17),
                                           IotaOids(400)))
                          .ValueOrDie()
                          .Mirror())
            .ValueOrDie();
    const Bat claimed(IotaOids(base.size()), base.tail_col(),
                      Properties{true, true, true, true});
    add("insert/" + sn + "/keeps",
        InsertBuns(ctx, claimed, {Value::MakeOid(5000), Value::MakeOid(5001)},
                   {gen.At(s, 2000), gen.At(s, 2001)}));
    add("insert/" + sn + "/breaks",
        InsertBuns(ctx, claimed, {Value::MakeOid(5000), Value::MakeOid(3)},
                   {gen.At(s, 2000), base.tail().GetValue(1)}));
  }

  for (const ShapePair& p : kPairs) {
    const std::string pn = p.name;
    // theta: band and nested for every comparison.
    const Bat left(IotaOids(kGoldenRows / 2), gen.Make(p.left, kGoldenRows / 2,
                                                       97, 21));
    const Bat right(gen.Make(p.right, 5, 97, 22, p.fresh_heap),
                    IotaOids(5, 7000));
    const struct {
      CmpOp op;
      const char* name;
    } cmps[] = {{CmpOp::kNe, "ne"},
                {CmpOp::kLt, "lt"},
                {CmpOp::kLe, "le"},
                {CmpOp::kGt, "gt"},
                {CmpOp::kGe, "ge"}};
    for (const auto& [op, opn] : cmps) {
      DispatchInput in = MakeInput(ctx, left, right);
      in.param = OpParam{static_cast<int64_t>(op)};
      for (const char* impl : {"sort_band_thetajoin", "nested_thetajoin"}) {
        add("theta/" + pn + "/" + opn + "/" + impl,
            RunVariant<ThetaImplSig>(ctx, "thetajoin", impl, in, left, right,
                                     op));
      }
    }
    // equi-join: hash on unsorted operands, merge and hash on sorted ones.
    const Bat ab(IotaOids(kGoldenRows), gen.Make(p.left, kGoldenRows, 97, 23));
    const Bat cd(gen.Make(p.right, 120, 97, 24, p.fresh_heap),
                 IotaOids(120, 9000));
    const Bat ab_sorted = SortTail(ctx, ab).ValueOrDie();
    const Bat cd_sorted = HeadSorted(ctx, cd);
    for (const char* impl : {"merge_join", "hash_join"}) {
      add("join/" + pn + "/" + impl,
          RunVariant<BinaryImplSig>(ctx, "join", impl, MakeInput(ctx, ab, cd),
                                    ab, cd));
      add("join/" + pn + "/sorted/" + impl,
          RunVariant<BinaryImplSig>(ctx, "join", impl,
                                    MakeInput(ctx, ab_sorted, cd_sorted),
                                    ab_sorted, cd_sorted));
    }
    // semijoin (merge and hash), kdiff and kunion over head columns.
    const Bat sl(gen.Make(p.left, kGoldenRows, 97, 25), IotaOids(kGoldenRows));
    const Bat sr(gen.Make(p.right, 40, 97, 26, p.fresh_heap),
                 IotaOids(40, 9000));
    const Bat sl_sorted = HeadSorted(ctx, sl);
    const Bat sr_sorted = HeadSorted(ctx, sr);
    for (const char* impl : {"merge_semijoin", "hash_semijoin"}) {
      add("semijoin/" + pn + "/" + impl,
          RunVariant<BinaryImplSig>(ctx, "semijoin", impl,
                                    MakeInput(ctx, sl, sr), sl, sr));
      add("semijoin/" + pn + "/sorted/" + impl,
          RunVariant<BinaryImplSig>(ctx, "semijoin", impl,
                                    MakeInput(ctx, sl_sorted, sr_sorted),
                                    sl_sorted, sr_sorted));
    }
    add("kdiff/" + pn, Diff(ctx, sl, sr));
    add("kunion/" + pn, Union(ctx, sl, sr));
  }
  return rows;
}

constexpr const char* kGolden[] = {
    "select/void/range/scan_select n=24001 oid:7508dbd266b525d7 oid:7c9b35ce23f2ffa8 0000",
    "select/void/point/scan_select n=1 oid:04e9464ec866c6ec oid:43b9c612cc742699 0011",
    "select/void/lt/scan_select n=24000 oid:9a904dac6afb4343 oid:3bbb478b3f2ff9c3 0000",
    "select/void/ge/scan_select n=42000 oid:213f55f0674a26f3 oid:1af3949c4c52bf0b 0000",
    "select/void/ne n=65999 oid:db57e458fe684a5c oid:a7b5ff7967ee0971 0000",
    "select/void/sorted/range/binsearch_select n=24001 oid:7508dbd266b525d7 oid:7c9b35ce23f2ffa8 1010",
    "select/void/sorted/range/scan_select n=24001 oid:7508dbd266b525d7 oid:7c9b35ce23f2ffa8 0010",
    "select/void/sorted/point/binsearch_select n=1 oid:04e9464ec866c6ec oid:43b9c612cc742699 1011",
    "select/void/sorted/point/scan_select n=1 oid:04e9464ec866c6ec oid:43b9c612cc742699 0011",
    "select/void/sorted/lt/binsearch_select n=24000 oid:9a904dac6afb4343 oid:3bbb478b3f2ff9c3 1010",
    "select/void/sorted/lt/scan_select n=24000 oid:9a904dac6afb4343 oid:3bbb478b3f2ff9c3 0010",
    "select/void/sorted/ge/binsearch_select n=42000 oid:213f55f0674a26f3 oid:1af3949c4c52bf0b 1010",
    "select/void/sorted/ge/scan_select n=42000 oid:213f55f0674a26f3 oid:1af3949c4c52bf0b 0010",
    "select/void/sorted/ne n=65999 oid:db57e458fe684a5c oid:a7b5ff7967ee0971 0010",
    "sort/void n=66000 oid:6b9843b0e132aeb3 oid:46a821a02c06a54b 0010",
    "topn/void/asc n=50 oid:4b5b953cfdfb6f62 oid:77ff4bc63da2cd62 0010",
    "topn/void/desc n=50 oid:5de22b8199296d12 oid:1279a569b0e4ea3e 0000",
    "unique/void n=66000 oid:46a821a02c06a54b oid:46a821a02c06a54b 0000",
    "hunique/void n=66000 oid:46a821a02c06a54b oid:46a821a02c06a54b 0100",
    "group/void n=66000 oid:6b9843b0e132aeb3 oid:6b9843b0e132aeb3 0000",
    "refine/void/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:6b9843b0e132aeb3 0000",
    "refine/void/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:6b9843b0e132aeb3 0000",
    "refine/void/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:6b9843b0e132aeb3 0000",
    "aggr/void/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:0386afd76130cd3e 1100",
    "aggr/void/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:0386afd76130cd3e 1100",
    "aggr/void/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:0386afd76130cd3e 1100",
    "scalar/void/sum dbl:41e046bb1b000000",
    "aggr/void/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:c5a9db42d0de625d 1100",
    "aggr/void/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:c5a9db42d0de625d 1100",
    "aggr/void/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:c5a9db42d0de625d 1100",
    "scalar/void/avg dbl:40e0297000000000",
    "aggr/void/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:7abfce3eb8063591 1100",
    "aggr/void/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:7abfce3eb8063591 1100",
    "aggr/void/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:7abfce3eb8063591 1100",
    "scalar/void/min 100@0",
    "aggr/void/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:3515a8cb55a38cbf 1100",
    "aggr/void/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:3515a8cb55a38cbf 1100",
    "aggr/void/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:3515a8cb55a38cbf 1100",
    "scalar/void/max 66099@0",
    "insert/void/keeps n=402 oid:9c76de721edeaa1a oid:dbdac74413567598 1111",
    "insert/void/breaks n=402 oid:73e3d9b7f4943025 oid:d09941a36def5e8d 0000",
    "select/oid/range/scan_select n=28044 oid:bed397d3a4af03a1 oid:7621a4372073226e 0000",
    "select/oid/point/scan_select n=716 oid:f682fec6b2a88ed1 oid:237fcfa9f35f7803 0010",
    "select/oid/lt/scan_select n=27354 oid:3cae10c6000a3f02 oid:730c6c9e2212d6cc 0000",
    "select/oid/ge/scan_select n=38646 oid:9159ccf9e914f73e oid:25fcf31b21cab3a9 0000",
    "select/oid/ne n=65284 oid:7ed8b23e4352a449 oid:f904a62b1b892e26 0000",
    "select/oid/sorted/range/binsearch_select n=28044 oid:279a38d1fe87d201 oid:fb039ab2998e3d6e 0010",
    "select/oid/sorted/range/scan_select n=28044 oid:279a38d1fe87d201 oid:fb039ab2998e3d6e 0010",
    "select/oid/sorted/point/binsearch_select n=716 oid:f682fec6b2a88ed1 oid:237fcfa9f35f7803 1010",
    "select/oid/sorted/point/scan_select n=716 oid:f682fec6b2a88ed1 oid:237fcfa9f35f7803 0010",
    "select/oid/sorted/lt/binsearch_select n=27354 oid:1ad197d7b462af46 oid:ec6dbc604764faac 0010",
    "select/oid/sorted/lt/scan_select n=27354 oid:1ad197d7b462af46 oid:ec6dbc604764faac 0010",
    "select/oid/sorted/ge/binsearch_select n=38646 oid:7d564d92603bfdbe oid:42e794fd07428b29 0010",
    "select/oid/sorted/ge/scan_select n=38646 oid:7d564d92603bfdbe oid:42e794fd07428b29 0010",
    "select/oid/sorted/ne n=65284 oid:222d22ff76c06a7d oid:eb9720ab97d28986 0010",
    "sort/oid n=66000 oid:a204308f59fe4067 oid:9f219b2961364286 0010",
    "topn/oid/asc n=50 oid:02cb93548f2c7b19 oid:14948be5d891bd03 0010",
    "topn/oid/desc n=50 oid:36349a721448803f oid:bbe81f42e01d4b43 0000",
    "unique/oid n=91 oid:706607d9aeb043b3 oid:46c5ee02ae833268 0000",
    "hunique/oid n=13 oid:63818a9f50f52413 oid:9265d6f1a5648b2b 0100",
    "group/oid n=66000 oid:6b9843b0e132aeb3 oid:43c7634cf3337e62 0000",
    "refine/oid/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/oid/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/oid/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:60aab8c37afd526a 0000",
    "aggr/oid/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:88335106098f08a0 1100",
    "aggr/oid/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:88335106098f08a0 1100",
    "aggr/oid/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:88335106098f08a0 1100",
    "scalar/oid/sum dbl:4162a2a480000000",
    "aggr/oid/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:1bf03bd4577dccfb 1100",
    "aggr/oid/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:1bf03bd4577dccfb 1100",
    "aggr/oid/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:1bf03bd4577dccfb 1100",
    "scalar/oid/avg dbl:4062811a7ff80e66",
    "aggr/oid/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:14948be5d891bd03 1100",
    "aggr/oid/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:14948be5d891bd03 1100",
    "aggr/oid/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:14948be5d891bd03 1100",
    "scalar/oid/min 100@0",
    "aggr/oid/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:bbe81f42e01d4b43 1100",
    "aggr/oid/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:bbe81f42e01d4b43 1100",
    "aggr/oid/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 oid:bbe81f42e01d4b43 1100",
    "scalar/oid/max 196@0",
    "insert/oid/keeps n=328 oid:9ad1e1757420edd3 oid:b6df4033f6cd98bc 1111",
    "insert/oid/breaks n=328 oid:021ccac4fe33f894 oid:e6443492ffa2fb0e 0000",
    "select/int/range/scan_select n=28044 oid:bed397d3a4af03a1 int:76a1aa2dd8d50976 0000",
    "select/int/point/scan_select n=716 oid:f682fec6b2a88ed1 int:361a759719983d33 0010",
    "select/int/lt/scan_select n=27354 oid:3cae10c6000a3f02 int:7d9c4c509beaba30 0000",
    "select/int/ge/scan_select n=38646 oid:9159ccf9e914f73e int:57c3dd009b47fd0e 0000",
    "select/int/ne n=65284 oid:7ed8b23e4352a449 int:99ae2237012ffccd 0000",
    "select/int/sorted/range/binsearch_select n=28044 oid:279a38d1fe87d201 int:9c007450740ed6b6 0010",
    "select/int/sorted/range/scan_select n=28044 oid:279a38d1fe87d201 int:9c007450740ed6b6 0010",
    "select/int/sorted/point/binsearch_select n=716 oid:f682fec6b2a88ed1 int:361a759719983d33 1010",
    "select/int/sorted/point/scan_select n=716 oid:f682fec6b2a88ed1 int:361a759719983d33 0010",
    "select/int/sorted/lt/binsearch_select n=27354 oid:1ad197d7b462af46 int:cc43f34e3e514ce8 0010",
    "select/int/sorted/lt/scan_select n=27354 oid:1ad197d7b462af46 int:cc43f34e3e514ce8 0010",
    "select/int/sorted/ge/binsearch_select n=38646 oid:7d564d92603bfdbe int:cd0edfa22ed80f3e 0010",
    "select/int/sorted/ge/scan_select n=38646 oid:7d564d92603bfdbe int:cd0edfa22ed80f3e 0010",
    "select/int/sorted/ne n=65284 oid:222d22ff76c06a7d int:8f4c13f253b81785 0010",
    "sort/int n=66000 oid:a204308f59fe4067 int:a594533183cdea75 0010",
    "topn/int/asc n=50 oid:02cb93548f2c7b19 int:48206190eac858ab 0010",
    "topn/int/desc n=50 oid:36349a721448803f int:5f9f48d3ef684b83 0000",
    "unique/int n=91 int:410b3e5b3e1a527a int:3aef1b0fd9f463cd 0000",
    "hunique/int n=13 int:5ab89c7549f22d92 int:8182dc91e4d9a742 0100",
    "group/int n=66000 oid:6b9843b0e132aeb3 oid:43c7634cf3337e62 0000",
    "refine/int/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/int/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/int/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:60aab8c37afd526a 0000",
    "aggr/int/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:3c5da900d4c42885 1100",
    "aggr/int/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:3c5da900d4c42885 1100",
    "aggr/int/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:3c5da900d4c42885 1100",
    "scalar/int/sum dbl:c0ffabc000000000",
    "aggr/int/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:18fe47b62b142f7c 1100",
    "aggr/int/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:18fe47b62b142f7c 1100",
    "aggr/int/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:18fe47b62b142f7c 1100",
    "scalar/int/avg dbl:bfff72c003f8cd0c",
    "aggr/int/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 int:48206190eac858ab 1100",
    "aggr/int/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 int:48206190eac858ab 1100",
    "aggr/int/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 int:48206190eac858ab 1100",
    "scalar/int/min -50",
    "aggr/int/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 int:5f9f48d3ef684b83 1100",
    "aggr/int/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 int:5f9f48d3ef684b83 1100",
    "aggr/int/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 int:5f9f48d3ef684b83 1100",
    "scalar/int/max 46",
    "insert/int/keeps n=328 oid:9ad1e1757420edd3 int:486e86a329e16f4f 1111",
    "insert/int/breaks n=328 oid:021ccac4fe33f894 int:45a90156e7c81823 0000",
    "select/lng/range/scan_select n=28044 oid:bed397d3a4af03a1 lng:98c965c2ae1c464d 0000",
    "select/lng/point/scan_select n=716 oid:f682fec6b2a88ed1 lng:cdf33d78ec80992b 0010",
    "select/lng/lt/scan_select n=27354 oid:3cae10c6000a3f02 lng:e91cc0a04a9493f4 0000",
    "select/lng/ge/scan_select n=38646 oid:9159ccf9e914f73e lng:4103fd26d4527e3c 0000",
    "select/lng/ne n=65284 oid:7ed8b23e4352a449 lng:8be65965f151aea3 0000",
    "select/lng/sorted/range/binsearch_select n=28044 oid:279a38d1fe87d201 lng:02fd2501fc177a01 0010",
    "select/lng/sorted/range/scan_select n=28044 oid:279a38d1fe87d201 lng:02fd2501fc177a01 0010",
    "select/lng/sorted/point/binsearch_select n=716 oid:f682fec6b2a88ed1 lng:cdf33d78ec80992b 1010",
    "select/lng/sorted/point/scan_select n=716 oid:f682fec6b2a88ed1 lng:cdf33d78ec80992b 0010",
    "select/lng/sorted/lt/binsearch_select n=27354 oid:1ad197d7b462af46 lng:184799f9b9d87300 0010",
    "select/lng/sorted/lt/scan_select n=27354 oid:1ad197d7b462af46 lng:184799f9b9d87300 0010",
    "select/lng/sorted/ge/binsearch_select n=38646 oid:7d564d92603bfdbe lng:c9183f912d55954c 0010",
    "select/lng/sorted/ge/scan_select n=38646 oid:7d564d92603bfdbe lng:c9183f912d55954c 0010",
    "select/lng/sorted/ne n=65284 oid:222d22ff76c06a7d lng:ca6c69016f49f2b3 0010",
    "sort/lng n=66000 oid:a204308f59fe4067 lng:38277c31318f4f2b 0010",
    "topn/lng/asc n=50 oid:02cb93548f2c7b19 lng:a7fd2b1a1a34eff7 0010",
    "topn/lng/desc n=50 oid:36349a721448803f lng:7120560ab18baf57 0000",
    "unique/lng n=91 lng:d3ca0cfd138e527e lng:5f0bb91e2266a350 0000",
    "hunique/lng n=13 lng:54b8c0e6a2fe2bd6 lng:b548adc08c1bda73 0100",
    "group/lng n=66000 oid:6b9843b0e132aeb3 oid:43c7634cf3337e62 0000",
    "refine/lng/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/lng/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/lng/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:60aab8c37afd526a 0000",
    "aggr/lng/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:b6b2437f55fd99b2 1100",
    "aggr/lng/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:b6b2437f55fd99b2 1100",
    "aggr/lng/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:b6b2437f55fd99b2 1100",
    "scalar/lng/sum dbl:c23e342d17340000",
    "aggr/lng/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:e761f042c9f1ca35 1100",
    "aggr/lng/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:e761f042c9f1ca35 1100",
    "aggr/lng/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:e761f042c9f1ca35 1100",
    "scalar/lng/avg dbl:c13dfdd10c4db32b",
    "aggr/lng/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:a7fd2b1a1a34eff7 1100",
    "aggr/lng/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:a7fd2b1a1a34eff7 1100",
    "aggr/lng/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:a7fd2b1a1a34eff7 1100",
    "scalar/lng/min -50000150",
    "aggr/lng/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:7120560ab18baf57 1100",
    "aggr/lng/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:7120560ab18baf57 1100",
    "aggr/lng/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 lng:7120560ab18baf57 1100",
    "scalar/lng/max 46000138",
    "insert/lng/keeps n=328 oid:9ad1e1757420edd3 lng:dbbebe12d6de25ae 1111",
    "insert/lng/breaks n=328 oid:021ccac4fe33f894 lng:181131401e7bd6bb 0000",
    "select/dbl/range/scan_select n=29199 oid:53c0e332fb89dd1d dbl:d6b21b7163b27233 0000",
    "select/dbl/point/scan_select n=2726 oid:fad005013f021947 dbl:4544929c156f4103 0010",
    "select/dbl/lt/scan_select n=26542 oid:2a72e318573c0b49 dbl:730db6d04a90cff4 0000",
    "select/dbl/ge/scan_select n=39458 oid:6ac8ab04be2bcd09 dbl:26b30da22ca95ad2 0000",
    "select/dbl/ne n=63274 oid:907438fa0b614bab dbl:f78d41654c9ee905 0000",
    "select/dbl/sorted/range/binsearch_select n=20179 oid:3ffbda9dbd57e3ea dbl:b9136f2af4462478 0010",
    "select/dbl/sorted/range/scan_select n=29199 oid:364031dcbf1a93b5 dbl:7224313519ec2ca7 0010",
    "select/dbl/sorted/point/binsearch_select n=508 oid:967eef0032ff353e dbl:6c13b7972e184503 1010",
    "select/dbl/sorted/point/scan_select n=2726 oid:b48fbb619a1d06bb dbl:bb46fd5254973f63 0010",
    "select/dbl/sorted/lt/binsearch_select n=21522 oid:e30aa905c5f2fe45 dbl:32fcb8a351dcf13c 0010",
    "select/dbl/sorted/lt/scan_select n=26542 oid:d155acc44a4dd281 dbl:8cff0bb0db9d2b34 0010",
    "select/dbl/sorted/ge/binsearch_select n=44478 oid:11988ea603644e29 dbl:dd4e435453cfd9b6 0010",
    "select/dbl/sorted/ge/scan_select n=39458 oid:c8edffba4b442c41 dbl:cd0a52d84ea2ce7e 0010",
    "select/dbl/sorted/ne n=63274 oid:6befe0dbdbb9842b dbl:50a647fc9b2abbf5 0010",
    "sort/dbl n=66000 oid:bf82f060ff550ec3 dbl:a0a33d939d8c5cc9 0010",
    "topn/dbl/asc n=50 oid:fb071cad1934da49 dbl:e0efc47deb18a2c3 0010",
    "topn/dbl/desc n=50 oid:f51d2a4845914c26 dbl:718b00b45a27f189 0000",
    "unique/dbl n=4134 dbl:f01962f7a3ad05d9 dbl:36c1f9c1611d4374 0000",
    "hunique/dbl n=2116 dbl:9af22b0b705e41e3 dbl:9196b84da63e8962 0100",
    "group/dbl n=66000 oid:6b9843b0e132aeb3 oid:9fd687f70dda2b03 0000",
    "refine/dbl/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:9b42143c13aa6b85 0000",
    "refine/dbl/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:9b42143c13aa6b85 0000",
    "refine/dbl/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:ca43aebf386bee03 0000",
    "aggr/dbl/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "aggr/dbl/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "aggr/dbl/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "scalar/dbl/sum dbl:7ff8000000000000",
    "aggr/dbl/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "aggr/dbl/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "aggr/dbl/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:637757fdbf4af133 1100",
    "scalar/dbl/avg dbl:7ff8000000000000",
    "aggr/dbl/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:46e0f4e12433afa3 1100",
    "aggr/dbl/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:46e0f4e12433afa3 1100",
    "aggr/dbl/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:46e0f4e12433afa3 1100",
    "scalar/dbl/min dbl:c039000000000000",
    "aggr/dbl/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:dcc9c3595ce81e63 1100",
    "aggr/dbl/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:dcc9c3595ce81e63 1100",
    "aggr/dbl/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:dcc9c3595ce81e63 1100",
    "scalar/dbl/max dbl:4037000000000000",
    "insert/dbl/keeps n=335 oid:97c2fa4e7dbb6aa1 dbl:324261bdca4fea4d 1111",
    "insert/dbl/breaks n=335 oid:a5d319ea5000ba2a dbl:d87eebbfdb1c34ba 0000",
    "select/date/range/scan_select n=28044 oid:bed397d3a4af03a1 date:992f15353ed84f5e 0000",
    "select/date/point/scan_select n=716 oid:f682fec6b2a88ed1 date:1b69deed2f0dd2e3 0010",
    "select/date/lt/scan_select n=27354 oid:3cae10c6000a3f02 date:903ac82cbc08bcd4 0000",
    "select/date/ge/scan_select n=38646 oid:9159ccf9e914f73e date:fa6f90385a948309 0000",
    "select/date/ne n=65284 oid:7ed8b23e4352a449 date:cfd51144075523a2 0000",
    "select/date/sorted/range/binsearch_select n=28044 oid:279a38d1fe87d201 date:5e91de2340ef86ea 0010",
    "select/date/sorted/range/scan_select n=28044 oid:279a38d1fe87d201 date:5e91de2340ef86ea 0010",
    "select/date/sorted/point/binsearch_select n=716 oid:f682fec6b2a88ed1 date:1b69deed2f0dd2e3 1010",
    "select/date/sorted/point/scan_select n=716 oid:f682fec6b2a88ed1 date:1b69deed2f0dd2e3 0010",
    "select/date/sorted/lt/binsearch_select n=27354 oid:1ad197d7b462af46 date:b53da09780f88970 0010",
    "select/date/sorted/lt/scan_select n=27354 oid:1ad197d7b462af46 date:b53da09780f88970 0010",
    "select/date/sorted/ge/binsearch_select n=38646 oid:7d564d92603bfdbe date:6adc28b5300e5d7d 0010",
    "select/date/sorted/ge/scan_select n=38646 oid:7d564d92603bfdbe date:6adc28b5300e5d7d 0010",
    "select/date/sorted/ne n=65284 oid:222d22ff76c06a7d date:14003eb37f3eba4e 0010",
    "sort/date n=66000 oid:a204308f59fe4067 date:b5de957973adaa6e 0010",
    "topn/date/asc n=50 oid:02cb93548f2c7b19 date:b1ddae0423fa5163 0010",
    "topn/date/desc n=50 oid:36349a721448803f date:9969f916851cefa3 0000",
    "unique/date n=91 date:2d3917ac53d8f52e date:8f03189b44e6b9bd 0000",
    "hunique/date n=13 date:da48c144aebbf04a date:46f03c671002995e 0100",
    "group/date n=66000 oid:6b9843b0e132aeb3 oid:43c7634cf3337e62 0000",
    "refine/date/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/date/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/date/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:60aab8c37afd526a 0000",
    "aggr/date/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f27a875fcf5975cd 1100",
    "aggr/date/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f27a875fcf5975cd 1100",
    "aggr/date/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f27a875fcf5975cd 1100",
    "scalar/date/sum dbl:41c1cc0c32000000",
    "aggr/date/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f653edce2efd9465 1100",
    "aggr/date/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f653edce2efd9465 1100",
    "aggr/date/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:f653edce2efd9465 1100",
    "scalar/date/avg dbl:40c1ac0469ffe03a",
    "aggr/date/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 date:b1ddae0423fa5163 1100",
    "aggr/date/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 date:b1ddae0423fa5163 1100",
    "aggr/date/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 date:b1ddae0423fa5163 1100",
    "scalar/date/min 1994-08-23",
    "aggr/date/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 date:9969f916851cefa3 1100",
    "aggr/date/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 date:9969f916851cefa3 1100",
    "aggr/date/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 date:9969f916851cefa3 1100",
    "scalar/date/max 1994-11-27",
    "insert/date/keeps n=328 oid:9ad1e1757420edd3 date:ee3d74b9108534d1 1111",
    "insert/date/breaks n=328 oid:021ccac4fe33f894 date:cc18e7aa7c322f78 0000",
    "select/str/range/scan_select n=30722 oid:202947508718b15c str:db270fc47f8a2b23 0000",
    "select/str/point/scan_select n=716 oid:f682fec6b2a88ed1 str:3444b74405a3b583 0010",
    "select/str/lt/scan_select n=23935 oid:cca37cab868e1185 str:39927e5ab9e1a30e 0000",
    "select/str/ge/scan_select n=42065 oid:d629243afff06069 str:3358b58ec080e279 0000",
    "select/str/ne n=65284 oid:7ed8b23e4352a449 str:c19843ce04c8a74a 0000",
    "select/str/sorted/range/binsearch_select n=30722 oid:ddec4f2702adf320 str:fa121cfa3e0c6265 0010",
    "select/str/sorted/range/scan_select n=30722 oid:ddec4f2702adf320 str:fa121cfa3e0c6265 0010",
    "select/str/sorted/point/binsearch_select n=716 oid:f682fec6b2a88ed1 str:3444b74405a3b583 1010",
    "select/str/sorted/point/scan_select n=716 oid:f682fec6b2a88ed1 str:3444b74405a3b583 0010",
    "select/str/sorted/lt/binsearch_select n=23935 oid:3dbf40d88e7aad2d str:a0695cab4e3a449a 0010",
    "select/str/sorted/lt/scan_select n=23935 oid:3dbf40d88e7aad2d str:a0695cab4e3a449a 0010",
    "select/str/sorted/ge/binsearch_select n=42065 oid:c701aa9437e85c3d str:2ed5f0f5692254dd 0010",
    "select/str/sorted/ge/scan_select n=42065 oid:c701aa9437e85c3d str:2ed5f0f5692254dd 0010",
    "select/str/sorted/ne n=65284 oid:c982f56c1a52f251 str:e33c457329abae7e 0010",
    "sort/str n=66000 oid:79eb4bf531ecbc63 str:a5da21239c7baf2e 0010",
    "topn/str/asc n=50 oid:02cb93548f2c7b19 str:1da3f5a229a50d21 0010",
    "topn/str/desc n=50 oid:36349a721448803f str:8a8d123b0117bc1f 0000",
    "unique/str n=91 str:c6b8ed7af3efbb3b str:5158278b0853674d 0000",
    "hunique/str n=13 str:a610cca80462aff5 str:a062c36342d9fefe 0100",
    "group/str n=66000 oid:6b9843b0e132aeb3 oid:43c7634cf3337e62 0000",
    "refine/str/synced/sync_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/str/synced/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:0d27c9b7ff22401b 0000",
    "refine/str/aligned/hash_group_refine n=66000 oid:6b9843b0e132aeb3 oid:60aab8c37afd526a 0000",
    "aggr/str/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "aggr/str/sorted/sum/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "aggr/str/sorted/sum/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "scalar/str/sum dbl:0000000000000000",
    "aggr/str/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "aggr/str/sorted/avg/run_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "aggr/str/sorted/avg/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 dbl:5c2597ab80ad3e43 1100",
    "scalar/str/avg dbl:0000000000000000",
    "aggr/str/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 str:1da3f5a229a50d21 1100",
    "aggr/str/sorted/min/run_set_aggregate n=50 oid:77ff4bc63da2cd62 str:1da3f5a229a50d21 1100",
    "aggr/str/sorted/min/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 str:1da3f5a229a50d21 1100",
    "scalar/str/min str:k0",
    "aggr/str/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 str:8a8d123b0117bc1f 1100",
    "aggr/str/sorted/max/run_set_aggregate n=50 oid:77ff4bc63da2cd62 str:8a8d123b0117bc1f 1100",
    "aggr/str/sorted/max/hash_set_aggregate n=50 oid:77ff4bc63da2cd62 str:8a8d123b0117bc1f 1100",
    "scalar/str/max str:k96",
    "insert/str/keeps n=328 oid:9ad1e1757420edd3 str:d99e20b94aaf807b 1101",
    "insert/str/breaks n=328 oid:021ccac4fe33f894 str:9150f7bd3e31db17 0000",
    "theta/int/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/int/lt/sort_band_thetajoin n=54851 oid:53f8ae2bc7252667 oid:4a7895733ef1ebc9 0000",
    "theta/int/lt/nested_thetajoin n=54851 oid:53f8ae2bc7252667 oid:3a7ff734ae10a739 0000",
    "theta/int/le/sort_band_thetajoin n=56585 oid:5d25a9eae973c400 oid:39170451d039b18d 0000",
    "theta/int/le/nested_thetajoin n=56585 oid:5d25a9eae973c400 oid:4405116e6d732699 0000",
    "theta/int/gt/sort_band_thetajoin n=108415 oid:cc1793366e6d8b74 oid:f01bbf887782b855 0000",
    "theta/int/gt/nested_thetajoin n=108415 oid:cc1793366e6d8b74 oid:6236f68d4f0618c9 0000",
    "theta/int/ge/sort_band_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:66f92e81653ce3e9 0000",
    "theta/int/ge/nested_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:b2186b3a76f9cc0d 0000",
    "join/int/sorted/merge_join n=81920 oid:fcd996adc076c63b oid:9bdbbf449771a0d8 0000",
    "join/int/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/int/sorted/hash_join n=81920 oid:fcd996adc076c63b oid:1b22a7bc41286eb0 0000",
    "semijoin/int/sorted/merge_semijoin n=23271 int:960922586a5d226d oid:382b337244f50a14 1000",
    "semijoin/int/hash_semijoin n=23271 int:0967952bff086f45 oid:8057c90c6f0eaeb4 0000",
    "semijoin/int/sorted/hash_semijoin n=23271 int:960922586a5d226d oid:382b337244f50a14 1000",
    "kdiff/int n=42729 int:5a8eefe6bcc06649 oid:a1ffcc984956bf0c 0000",
    "kunion/int n=66000 int:da5b6ed8c3c08c87 oid:6b9843b0e132aeb3 0000",
    "theta/lng/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/lng/lt/sort_band_thetajoin n=54851 oid:53f8ae2bc7252667 oid:4a7895733ef1ebc9 0000",
    "theta/lng/lt/nested_thetajoin n=54851 oid:53f8ae2bc7252667 oid:3a7ff734ae10a739 0000",
    "theta/lng/le/sort_band_thetajoin n=56585 oid:5d25a9eae973c400 oid:39170451d039b18d 0000",
    "theta/lng/le/nested_thetajoin n=56585 oid:5d25a9eae973c400 oid:4405116e6d732699 0000",
    "theta/lng/gt/sort_band_thetajoin n=108415 oid:cc1793366e6d8b74 oid:f01bbf887782b855 0000",
    "theta/lng/gt/nested_thetajoin n=108415 oid:cc1793366e6d8b74 oid:6236f68d4f0618c9 0000",
    "theta/lng/ge/sort_band_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:66f92e81653ce3e9 0000",
    "theta/lng/ge/nested_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:b2186b3a76f9cc0d 0000",
    "join/lng/sorted/merge_join n=81920 oid:fcd996adc076c63b oid:9bdbbf449771a0d8 0000",
    "join/lng/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/lng/sorted/hash_join n=81920 oid:fcd996adc076c63b oid:1b22a7bc41286eb0 0000",
    "semijoin/lng/sorted/merge_semijoin n=23271 lng:78efe74dbab8526e oid:382b337244f50a14 1000",
    "semijoin/lng/hash_semijoin n=23271 lng:0ae645e117a08a12 oid:8057c90c6f0eaeb4 0000",
    "semijoin/lng/sorted/hash_semijoin n=23271 lng:78efe74dbab8526e oid:382b337244f50a14 1000",
    "kdiff/lng n=42729 lng:f348e9441c22ddff oid:a1ffcc984956bf0c 0000",
    "kunion/lng n=66000 lng:1991e0f179a8fa26 oid:6b9843b0e132aeb3 0000",
    "theta/dbl/ne/nested_thetajoin n=158250 oid:7a16b335ae292db0 oid:439072a7f6181a0b 0000",
    "theta/dbl/lt/sort_band_thetajoin n=53101 oid:55aa8d7ad7f41138 oid:6df9a6d57d9d1cd5 0000",
    "theta/dbl/lt/nested_thetajoin n=53101 oid:55aa8d7ad7f41138 oid:48cfcb7da42cd7b1 0000",
    "theta/dbl/le/sort_band_thetajoin n=59851 oid:3dddf8062c98130f oid:08d8b37fcb930195 0000",
    "theta/dbl/le/nested_thetajoin n=59851 oid:3dddf8062c98130f oid:5c27a63c5c8b3ba1 0000",
    "theta/dbl/gt/sort_band_thetajoin n=105149 oid:7d4ad9ba299a693b oid:f17323ed486b1f29 0000",
    "theta/dbl/gt/nested_thetajoin n=105149 oid:7d4ad9ba299a693b oid:0e34b461a38efe6d 0000",
    "theta/dbl/ge/sort_band_thetajoin n=111899 oid:eb10cc9dbff7164c oid:f7edeb7538eb4f91 0000",
    "theta/dbl/ge/nested_thetajoin n=111899 oid:eb10cc9dbff7164c oid:170db39bafa51325 0000",
    "join/dbl/sorted/merge_join n=42668 oid:6aeebc29f56deb10 oid:da940078cacc322e 0000",
    "join/dbl/hash_join n=77535 oid:dbd29651091289fa oid:f901bc8bd2a288e3 0000",
    "join/dbl/sorted/hash_join n=77535 oid:0e47ad19bfcc8da2 oid:eadee21a6eb5d46f 0000",
    "semijoin/dbl/sorted/merge_semijoin n=49409 dbl:3e2b38eca2f82755 oid:f18346b221100c5a 1000",
    "semijoin/dbl/hash_semijoin n=22555 dbl:1be57db74a51943b oid:4f336fb4d25eba97 0000",
    "semijoin/dbl/sorted/hash_semijoin n=22555 dbl:c339fb0145541d4f oid:e706c1445e0f63a3 1000",
    "kdiff/dbl n=43445 dbl:3c5f010a79f9d6be oid:2d0fd8b88d68450f 0000",
    "kunion/dbl n=66002 dbl:17c539bbf5ca2c86 oid:62290ec3e947796f 0000",
    "theta/date/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/date/lt/sort_band_thetajoin n=54851 oid:53f8ae2bc7252667 oid:4a7895733ef1ebc9 0000",
    "theta/date/lt/nested_thetajoin n=54851 oid:53f8ae2bc7252667 oid:3a7ff734ae10a739 0000",
    "theta/date/le/sort_band_thetajoin n=56585 oid:5d25a9eae973c400 oid:39170451d039b18d 0000",
    "theta/date/le/nested_thetajoin n=56585 oid:5d25a9eae973c400 oid:4405116e6d732699 0000",
    "theta/date/gt/sort_band_thetajoin n=108415 oid:cc1793366e6d8b74 oid:f01bbf887782b855 0000",
    "theta/date/gt/nested_thetajoin n=108415 oid:cc1793366e6d8b74 oid:6236f68d4f0618c9 0000",
    "theta/date/ge/sort_band_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:66f92e81653ce3e9 0000",
    "theta/date/ge/nested_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:b2186b3a76f9cc0d 0000",
    "join/date/sorted/merge_join n=81920 oid:fcd996adc076c63b oid:9bdbbf449771a0d8 0000",
    "join/date/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/date/sorted/hash_join n=81920 oid:fcd996adc076c63b oid:1b22a7bc41286eb0 0000",
    "semijoin/date/sorted/merge_semijoin n=23271 date:7143c1fc2af42ee9 oid:382b337244f50a14 1000",
    "semijoin/date/hash_semijoin n=23271 date:189a6b4fb55fcd99 oid:8057c90c6f0eaeb4 0000",
    "semijoin/date/sorted/hash_semijoin n=23271 date:7143c1fc2af42ee9 oid:382b337244f50a14 1000",
    "kdiff/date n=42729 date:08d9c65ae7a7f185 oid:a1ffcc984956bf0c 0000",
    "kunion/date n=66000 date:cae662764d1a24bf oid:6b9843b0e132aeb3 0000",
    "theta/oid/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/oid/lt/sort_band_thetajoin n=54851 oid:53f8ae2bc7252667 oid:4a7895733ef1ebc9 0000",
    "theta/oid/lt/nested_thetajoin n=54851 oid:53f8ae2bc7252667 oid:3a7ff734ae10a739 0000",
    "theta/oid/le/sort_band_thetajoin n=56585 oid:5d25a9eae973c400 oid:39170451d039b18d 0000",
    "theta/oid/le/nested_thetajoin n=56585 oid:5d25a9eae973c400 oid:4405116e6d732699 0000",
    "theta/oid/gt/sort_band_thetajoin n=108415 oid:cc1793366e6d8b74 oid:f01bbf887782b855 0000",
    "theta/oid/gt/nested_thetajoin n=108415 oid:cc1793366e6d8b74 oid:6236f68d4f0618c9 0000",
    "theta/oid/ge/sort_band_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:66f92e81653ce3e9 0000",
    "theta/oid/ge/nested_thetajoin n=110149 oid:2702a88ec0a4eb13 oid:b2186b3a76f9cc0d 0000",
    "join/oid/sorted/merge_join n=81920 oid:fcd996adc076c63b oid:9bdbbf449771a0d8 0000",
    "join/oid/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/oid/sorted/hash_join n=81920 oid:fcd996adc076c63b oid:1b22a7bc41286eb0 0000",
    "semijoin/oid/sorted/merge_semijoin n=23271 oid:a38036875504bd80 oid:382b337244f50a14 1000",
    "semijoin/oid/hash_semijoin n=23271 oid:a4d44611c27c94e0 oid:8057c90c6f0eaeb4 0000",
    "semijoin/oid/sorted/hash_semijoin n=23271 oid:a38036875504bd80 oid:382b337244f50a14 1000",
    "kdiff/oid n=42729 oid:da885c405e6c7edc oid:a1ffcc984956bf0c 0000",
    "kunion/oid n=66000 oid:179a9b411b41277f oid:6b9843b0e132aeb3 0000",
    "theta/oid-void/ne/nested_thetajoin n=163304 oid:b090a7a00f2ef6d0 oid:d0533f8f1e0f83ce 0000",
    "theta/oid-void/lt/sort_band_thetajoin n=3341 oid:9d76d536c61d910d oid:4553a0c94f8af909 0000",
    "theta/oid-void/lt/nested_thetajoin n=3341 oid:9d76d536c61d910d oid:4553a0c94f8af909 0000",
    "theta/oid-void/le/sort_band_thetajoin n=5037 oid:7f9f73ff8e5939ae oid:7af0abfe4f3b4d68 0000",
    "theta/oid-void/le/nested_thetajoin n=5037 oid:7f9f73ff8e5939ae oid:7af0abfe4f3b4d68 0000",
    "theta/oid-void/gt/sort_band_thetajoin n=159963 oid:ed39a4cf9f938056 oid:9a31afcf139efc34 0000",
    "theta/oid-void/gt/nested_thetajoin n=159963 oid:ed39a4cf9f938056 oid:9a31afcf139efc34 0000",
    "theta/oid-void/ge/sort_band_thetajoin n=161659 oid:1d76d7e42b532741 oid:4ef70484c10b4ecd 0000",
    "theta/oid-void/ge/nested_thetajoin n=161659 oid:1d76d7e42b532741 oid:4ef70484c10b4ecd 0000",
    "join/oid-void/sorted/merge_join n=66000 oid:2e3de0d14db0c4cb oid:240f1f65b4131e7d 0000",
    "join/oid-void/hash_join n=66000 oid:6b9843b0e132aeb3 oid:0ba049051cba4b2d 0000",
    "join/oid-void/sorted/hash_join n=66000 oid:2e3de0d14db0c4cb oid:240f1f65b4131e7d 0000",
    "semijoin/oid-void/sorted/merge_semijoin n=26972 oid:bec859b8c12c019d oid:8828a2c224a4c94b 1000",
    "semijoin/oid-void/hash_semijoin n=26972 oid:b4f67584338df49d oid:5af49447e335d207 0000",
    "semijoin/oid-void/sorted/hash_semijoin n=26972 oid:bec859b8c12c019d oid:8828a2c224a4c94b 1000",
    "kdiff/oid-void n=39028 oid:51997a4a695ca9c1 oid:cb7bbc466459b23b 0000",
    "kunion/oid-void n=66000 oid:179a9b411b41277f oid:6b9843b0e132aeb3 0000",
    "theta/void-oid/ne/nested_thetajoin n=164995 oid:6ba259fbb02a097a oid:f7f76f85f66800da 0000",
    "theta/void-oid/lt/sort_band_thetajoin n=161 oid:8a1427b4a317280d oid:1cb66e83f0487236 0000",
    "theta/void-oid/lt/nested_thetajoin n=161 oid:8a1427b4a317280d oid:92406614ca7a3d7a 0000",
    "theta/void-oid/le/sort_band_thetajoin n=166 oid:2542044b01be12f4 oid:bf090b0d3eabbf67 0000",
    "theta/void-oid/le/nested_thetajoin n=166 oid:2542044b01be12f4 oid:9d43f7bbaf3b5ecf 0000",
    "theta/void-oid/gt/sort_band_thetajoin n=164834 oid:3cf591f9c507ca94 oid:87949ac806eab10b 0000",
    "theta/void-oid/gt/nested_thetajoin n=164834 oid:3cf591f9c507ca94 oid:8ae4582f72e27f07 0000",
    "theta/void-oid/ge/sort_band_thetajoin n=164839 oid:b1818c472f9c356d oid:4f5313b4857bccfa 0000",
    "theta/void-oid/ge/nested_thetajoin n=164839 oid:b1818c472f9c356d oid:99e6103d0aa35202 0000",
    "join/void-oid/sorted/merge_join n=120 oid:e43edb88df5d1cd5 oid:821c2c5ba24cfb1f 0000",
    "join/void-oid/hash_join n=120 oid:e43edb88df5d1cd5 oid:1d16c70fba1a241f 0000",
    "join/void-oid/sorted/hash_join n=120 oid:e43edb88df5d1cd5 oid:1d16c70fba1a241f 0000",
    "semijoin/void-oid/sorted/merge_semijoin n=34 oid:5861637dbcb319de oid:286b29b5f54ec306 1000",
    "semijoin/void-oid/hash_semijoin n=34 oid:5861637dbcb319de oid:286b29b5f54ec306 0000",
    "semijoin/void-oid/sorted/hash_semijoin n=34 oid:5861637dbcb319de oid:286b29b5f54ec306 1000",
    "kdiff/void-oid n=65966 oid:bf58cc3cd93e7e2e oid:00c3a24a3b339636 0000",
    "kunion/void-oid n=66000 oid:46a821a02c06a54b oid:6b9843b0e132aeb3 0000",
    "theta/str-shared/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/str-shared/lt/sort_band_thetajoin n=64164 oid:9a86fffad20ea133 oid:0da81c9d603ba183 0000",
    "theta/str-shared/lt/nested_thetajoin n=64164 oid:9a86fffad20ea133 oid:1d58c2cd3992300b 0000",
    "theta/str-shared/le/sort_band_thetajoin n=65898 oid:15c69366ff3f2b38 oid:09dec2d09510dd37 0000",
    "theta/str-shared/le/nested_thetajoin n=65898 oid:15c69366ff3f2b38 oid:7b83e5480a45a8c7 0000",
    "theta/str-shared/gt/sort_band_thetajoin n=99102 oid:dfcd8592fe35d20c oid:00f89aeb1470bde3 0000",
    "theta/str-shared/gt/nested_thetajoin n=99102 oid:dfcd8592fe35d20c oid:f8346d2a3784ec9b 0000",
    "theta/str-shared/ge/sort_band_thetajoin n=100836 oid:5147003e08be93b7 oid:e4508856cd35f89b 0000",
    "theta/str-shared/ge/nested_thetajoin n=100836 oid:5147003e08be93b7 oid:2359ef509a20b9b3 0000",
    "join/str-shared/sorted/merge_join n=81920 oid:097e80d6ccc8fdcf oid:de73870630f5d134 0000",
    "join/str-shared/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/str-shared/sorted/hash_join n=81920 oid:097e80d6ccc8fdcf oid:d5f3c3f112009e54 0000",
    "semijoin/str-shared/sorted/merge_semijoin n=23271 str:692dd78470adb5ee oid:49f60d91c9a90878 1000",
    "semijoin/str-shared/hash_semijoin n=23271 str:a17815a194dba600 oid:8057c90c6f0eaeb4 0000",
    "semijoin/str-shared/sorted/hash_semijoin n=23271 str:692dd78470adb5ee oid:49f60d91c9a90878 1000",
    "kdiff/str-shared n=42729 str:d686db0e863c880a oid:a1ffcc984956bf0c 0000",
    "kunion/str-shared n=66000 str:99bc6f8de93a0cb5 oid:6b9843b0e132aeb3 0000",
    "theta/str-distinct/ne/nested_thetajoin n=163266 oid:b7b68fb3f931393c oid:5b1f799a906abbd3 0000",
    "theta/str-distinct/lt/sort_band_thetajoin n=64164 oid:9a86fffad20ea133 oid:0da81c9d603ba183 0000",
    "theta/str-distinct/lt/nested_thetajoin n=64164 oid:9a86fffad20ea133 oid:1d58c2cd3992300b 0000",
    "theta/str-distinct/le/sort_band_thetajoin n=65898 oid:15c69366ff3f2b38 oid:09dec2d09510dd37 0000",
    "theta/str-distinct/le/nested_thetajoin n=65898 oid:15c69366ff3f2b38 oid:7b83e5480a45a8c7 0000",
    "theta/str-distinct/gt/sort_band_thetajoin n=99102 oid:dfcd8592fe35d20c oid:00f89aeb1470bde3 0000",
    "theta/str-distinct/gt/nested_thetajoin n=99102 oid:dfcd8592fe35d20c oid:f8346d2a3784ec9b 0000",
    "theta/str-distinct/ge/sort_band_thetajoin n=100836 oid:5147003e08be93b7 oid:e4508856cd35f89b 0000",
    "theta/str-distinct/ge/nested_thetajoin n=100836 oid:5147003e08be93b7 oid:2359ef509a20b9b3 0000",
    "join/str-distinct/sorted/merge_join n=81920 oid:097e80d6ccc8fdcf oid:de73870630f5d134 0000",
    "join/str-distinct/hash_join n=81920 oid:d1399f8483f5f9af oid:bef38cde95c0f704 0000",
    "join/str-distinct/sorted/hash_join n=81920 oid:097e80d6ccc8fdcf oid:d5f3c3f112009e54 0000",
    "semijoin/str-distinct/sorted/merge_semijoin n=23271 str:692dd78470adb5ee oid:49f60d91c9a90878 1000",
    "semijoin/str-distinct/hash_semijoin n=23271 str:a17815a194dba600 oid:8057c90c6f0eaeb4 0000",
    "semijoin/str-distinct/sorted/hash_semijoin n=23271 str:692dd78470adb5ee oid:49f60d91c9a90878 1000",
    "kdiff/str-distinct n=42729 str:d686db0e863c880a oid:a1ffcc984956bf0c 0000",
    "kunion/str-distinct n=66000 str:99bc6f8de93a0cb5 oid:6b9843b0e132aeb3 0000",
};

TEST(KernelGoldenTest, EveryValueLoopIsPinned) {
  SetParallelBlockCap(4);
  const std::vector<std::string> d1 = GoldenTable(1);
  const std::vector<std::string> d4 = GoldenTable(4);
  SetParallelBlockCap(0);
  const size_t pinned = std::size(kGolden);
  EXPECT_EQ(d1.size(), pinned);
  std::string table;
  bool same = d1.size() == pinned && d4.size() == pinned;
  for (size_t i = 0; i < d1.size(); ++i) {
    table += "    \"" + d1[i] + "\",\n";
    if (i < pinned) {
      EXPECT_EQ(d1[i], kGolden[i]) << "degree 1";
      same = same && d1[i] == kGolden[i];
    }
    if (i < d4.size()) {
      EXPECT_EQ(d4[i], d1[i]) << "degree 4";
    }
  }
  if (!same) ADD_FAILURE() << "current table:\n" << table;
}

// ------------------------------------------------ value semantics of kernels
//
// Equal numbers match and distinct numbers do not, in every kernel and
// variant: two integral values compare exactly (no double round trip, so
// 2^53 and 2^53+1 stay apart), 0.0 and -0.0 are one value, and a str value
// never equals a non-str one. Each check runs at degrees 1 and 4 (block
// cap 4) over kGoldenRows-row operands, so the parallel paths run too.

template <typename Body>
void AtBothDegrees(Body&& body) {
  SetParallelBlockCap(4);
  for (const int degree : {1, 4}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    ExecContext ctx;
    ctx.WithParallelDegree(degree);
    body(ctx);
  }
  SetParallelBlockCap(0);
}

constexpr int64_t k2p53 = int64_t{1} << 53;

/// 2^53 + 0, 1, 2, ...: distinct lng values, pairwise equal as doubles.
ColumnPtr BigLngs(size_t n, int64_t step = 1, int64_t from = 0) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = k2p53 + from + step * static_cast<int64_t>(i);
  }
  return Column::MakeLng(std::move(v));
}

size_t RunSize(const std::optional<Result<Bat>>& r) {
  EXPECT_TRUE(r.has_value() && r->ok());
  return r.has_value() && r->ok() ? (*r)->size() : 0;
}

TEST(ValueViewKernelTest, LngBeyond2p53StaysDistinct) {
  AtBothDegrees([](const ExecContext& ctx) {
    const size_t n = kGoldenRows;
    // Joins: even offsets against odd ones never match.
    const Bat ab(IotaOids(n), BigLngs(n, 2, 0), Properties{true, true, true,
                                                            true});
    const Bat cd(BigLngs(n, 2, 1), IotaOids(n), Properties{true, true, true,
                                                            true});
    for (const char* impl : {"merge_join", "hash_join"}) {
      EXPECT_EQ(RunSize(RunVariant<BinaryImplSig>(
                    ctx, "join", impl, MakeInput(ctx, ab, cd), ab, cd)),
                0u)
          << impl;
    }
    // Semijoin and kdiff over heads.
    const Bat heads = ab.Mirror();
    for (const char* impl : {"merge_semijoin", "hash_semijoin"}) {
      EXPECT_EQ(RunSize(RunVariant<BinaryImplSig>(
                    ctx, "semijoin", impl, MakeInput(ctx, heads, cd), heads,
                    cd)),
                0u)
          << impl;
    }
    EXPECT_EQ(Diff(ctx, heads, cd).ValueOrDie().size(), n);
    // Point selects on both variants.
    const Bat all(IotaOids(n), BigLngs(n), Properties{true, true, true, true});
    const Bound b{true, true, Value::Lng(k2p53 + 1)};
    for (const char* impl : {"binsearch_select", "scan_select"}) {
      const auto r = RunVariant<SelectImplSig>(ctx, "select", impl,
                                               MakeInput(ctx, all), all, b, b);
      ASSERT_EQ(RunSize(r), 1u) << impl;
      EXPECT_EQ((*r)->head().OidAt(0), 1u) << impl;
    }
    EXPECT_EQ(SelectCmp(ctx, all, CmpOp::kNe, Value::Lng(k2p53))
                  .ValueOrDie()
                  .size(),
              n - 1);
    // Group, unique and hunique see n distinct values.
    const Bat grouped = Group(ctx, all).ValueOrDie();
    EXPECT_EQ(grouped.tail().OidAt(n - 1), n - 1);
    EXPECT_EQ(Unique(ctx, Bat(BigLngs(n), BigLngs(n))).ValueOrDie().size(), n);
    EXPECT_EQ(HeadUnique(ctx, all.Mirror()).ValueOrDie().size(), n);
    // Sort orders exactly; a point select on the sorted result finds one.
    const Bat rev(IotaOids(n), BigLngs(n, -1, static_cast<int64_t>(n) - 1));
    const Bat sorted = SortTail(ctx, rev).ValueOrDie();
    EXPECT_TRUE(sorted.props().tsorted);
    EXPECT_EQ(sorted.tail().Data<int64_t>(), all.tail().Data<int64_t>());
    EXPECT_EQ(Select(ctx, sorted, Value::Lng(k2p53 + 1)).ValueOrDie().size(),
              1u);
    EXPECT_EQ(TopN(ctx, rev, 1, true).ValueOrDie().tail().GetValue(0),
              Value::Lng(k2p53 + static_cast<int64_t>(n) - 1));
    // Theta: 2^53+1 > 2^53, on both variants.
    const Bat one(IotaOids(1), BigLngs(1, 1, 1));
    const Bat other(BigLngs(1), IotaOids(1));
    DispatchInput in = MakeInput(ctx, one, other);
    in.param = OpParam{static_cast<int64_t>(CmpOp::kGt)};
    for (const char* impl : {"sort_band_thetajoin", "nested_thetajoin"}) {
      EXPECT_EQ(RunSize(RunVariant<ThetaImplSig>(ctx, "thetajoin", impl, in,
                                                 one, other, CmpOp::kGt)),
                1u)
          << impl;
    }
    // Min/max were exact already and stay so.
    EXPECT_EQ(ScalarAggregate(ctx, AggKind::kMax, all).ValueOrDie(),
              Value::Lng(k2p53 + static_cast<int64_t>(n) - 1));
  });
}

TEST(ValueViewKernelTest, OidBeyond2p53AndSignedAgainstOid) {
  AtBothDegrees([](const ExecContext& ctx) {
    // oid 2^53+1 is not oid 2^53, on either join variant.
    const Oid big = Oid{1} << 53;
    const Bat ab(IotaOids(2), Column::MakeOid({big, big + 3}),
                 Properties{true, true, true, true});
    const Bat cd(Column::MakeOid({big + 1, big + 2}), IotaOids(2),
                 Properties{true, true, true, true});
    for (const char* impl : {"merge_join", "hash_join"}) {
      EXPECT_EQ(RunSize(RunVariant<BinaryImplSig>(
                    ctx, "join", impl, MakeInput(ctx, ab, cd), ab, cd)),
                0u)
          << impl;
    }
    // A negative lng never equals an oid, whatever its bit pattern.
    const Bat neg(IotaOids(1), Column::MakeLng({-1}));
    const Bat top(Column::MakeOid({~Oid{0}}), IotaOids(1));
    EXPECT_EQ(Join(ctx, neg, top).ValueOrDie().size(), 0u);
    DispatchInput in = MakeInput(ctx, neg, top);
    in.param = OpParam{static_cast<int64_t>(CmpOp::kLt)};
    for (const char* impl : {"sort_band_thetajoin", "nested_thetajoin"}) {
      EXPECT_EQ(RunSize(RunVariant<ThetaImplSig>(ctx, "thetajoin", impl, in,
                                                 neg, top, CmpOp::kLt)),
                1u)
          << impl;
    }
  });
}

TEST(ValueViewKernelTest, NegativeZeroIsZero) {
  AtBothDegrees([](const ExecContext& ctx) {
    const size_t n = kGoldenRows;
    std::vector<double> zeros(n);
    for (size_t i = 0; i < n; ++i) zeros[i] = i % 2 == 0 ? 0.0 : -0.0;
    const Bat ab(IotaOids(n), Column::MakeDbl(zeros));
    EXPECT_EQ(Group(ctx, ab).ValueOrDie().tail().OidAt(n - 1), 0u);
    const ColumnPtr z = Column::MakeDbl(zeros);
    EXPECT_EQ(Unique(ctx, Bat(z, z)).ValueOrDie().size(), 1u);
    EXPECT_EQ(HeadUnique(ctx, ab.Mirror()).ValueOrDie().size(), 1u);
    const Bat left(IotaOids(1), Column::MakeDbl({-0.0}),
                   Properties{true, true, true, true});
    const Bat right(Column::MakeDbl({0.0}), IotaOids(1),
                    Properties{true, true, true, true});
    for (const char* impl : {"merge_join", "hash_join"}) {
      EXPECT_EQ(RunSize(RunVariant<BinaryImplSig>(
                    ctx, "join", impl, MakeInput(ctx, left, right), left,
                    right)),
                1u)
          << impl;
    }
    const Bat lh = left.Mirror();
    for (const char* impl : {"merge_semijoin", "hash_semijoin"}) {
      EXPECT_EQ(RunSize(RunVariant<BinaryImplSig>(
                    ctx, "semijoin", impl, MakeInput(ctx, lh, right), lh,
                    right)),
                1u)
          << impl;
    }
    EXPECT_EQ(Diff(ctx, lh, right).ValueOrDie().size(), 0u);
  });
}

TEST(ValueViewKernelTest, StrNeverMatchesNonStrOnAnyJoinVariant) {
  AtBothDegrees([](const ExecContext& ctx) {
    // Both sides sorted: dispatch picks the merge join.
    const Bat strs(IotaOids(2), Column::MakeStr({"a", "b"}),
                   Properties{true, true, true, true});
    const Bat ints(Column::MakeInt({0, 1}), IotaOids(2),
                   Properties{true, true, true, true});
    EXPECT_EQ(KernelRegistry::Global().Explain("join", strs, ints).chosen,
              "merge_join");
    EXPECT_EQ(Join(ctx, strs, ints).ValueOrDie().size(), 0u);
    // Unsorted: the hash join.
    const Bat strs_u(IotaOids(2), strs.tail_col());
    const Bat ints_u(ints.head_col(), IotaOids(2));
    EXPECT_EQ(KernelRegistry::Global().Explain("join", strs_u, ints_u).chosen,
              "hash_join");
    EXPECT_EQ(Join(ctx, strs_u, ints_u).ValueOrDie().size(), 0u);
  });
}

// ------------------------------------------------- multiplex golden table
//
// Every scalar function of AllScalarFns() through the multiplex dispatch,
// over the operand types its argument classes admit, in four shapes:
// synced BAT x BAT, head-join BAT x BAT (the right operand's heads shuffled
// and overlapping the driver's only in part), BAT x constant and
// constant x BAT. Each row is pinned like the kernel golden table above
// (size, head and tail digests, properties, or the error) at degrees 1 and
// 4, block cap 4. Keys name the function, shape and operand types, never
// the variant dispatch picks. Operands carry lng values at and above 2^53,
// dbl NaN, -0.0 and 0.0, bit and chr zeros and str on one heap ("str") and
// on two ("str2"); a void constant is nil. "/" divisors are drawn nonzero,
// and each shape has one more "/" row whose divisor is zero in the last
// block only.

struct MxType {
  const char* name;
  MonetType type;
  bool own_heap;  // str interned into a heap of its own
};

constexpr MxType kMxTypes[] = {
    {"void", MonetType::kVoid, false}, {"oid", MonetType::kOidT, false},
    {"int", MonetType::kInt, false},   {"lng", MonetType::kLng, false},
    {"flt", MonetType::kFlt, false},   {"dbl", MonetType::kDbl, false},
    {"date", MonetType::kDate, false}, {"bit", MonetType::kBit, false},
    {"chr", MonetType::kChr, false},   {"str", MonetType::kStr, false},
    {"str2", MonetType::kStr, true},
};
constexpr size_t kMxTypeCount = std::size(kMxTypes);

/// Seeded multiplex operands: a draw v in [0, 97) maps to one value per
/// type, so equal draws give equal values within a type.
struct MxGen {
  std::shared_ptr<storage::StringHeap> heap =
      std::make_shared<storage::StringHeap>();

  static Value At(MonetType t, int64_t v) {
    switch (t) {
      case MonetType::kOidT: return Value::MakeOid(static_cast<Oid>(v));
      case MonetType::kInt: return Value::Int(static_cast<int32_t>(v - 48));
      case MonetType::kLng:
        return Value::Lng(v % 2 != 0 ? k2p53 + v : v - 48);
      case MonetType::kFlt:
        return Value::Flt(0.25f * static_cast<float>(v - 48));
      case MonetType::kDbl:
        return Value::Dbl(0.5 * static_cast<double>(v - 48));
      case MonetType::kDate:
        return Value::MakeDate(Date(9000 + 37 * static_cast<int32_t>(v)));
      case MonetType::kBit: return Value::Bit(v % 2 != 0);
      case MonetType::kChr: return Value::Chr(static_cast<char>(v % 20));
      case MonetType::kStr: return Value::Str("k" + std::to_string(v));
      default: return Value();  // void: nil
    }
  }

  static bool IsZero(const Value& v) {
    const Result<double> d = v.ToDouble();
    return d.ok() && *d == 0.0;
  }

  /// `nonzero` skips draws whose numeric view is zero; `zero_at` then
  /// places one zero at that row.
  ColumnPtr Make(const MxType& t, size_t n, uint64_t seed,
                 bool nonzero = false, size_t zero_at = SIZE_MAX) const {
    if (t.type == MonetType::kVoid) return Column::MakeVoid(7, n);
    Rng rng(seed);
    bat::ColumnBuilder b(t.type, t.own_heap
                                     ? std::make_shared<storage::StringHeap>()
                                     : heap);
    b.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      int64_t v = rng.Uniform(0, 96);
      Value x = At(t.type, v);
      if (t.type == MonetType::kDbl && rng.Chance(1.0 / 16)) {
        x = Value::Dbl(rng.Chance(0.5)
                           ? -0.0
                           : std::numeric_limits<double>::quiet_NaN());
      }
      while (nonzero && IsZero(x)) x = At(t.type, ++v);
      if (i == zero_at) x = Value::Int(0).CastTo(t.type).ValueOrDie();
      EXPECT_TRUE(b.AppendValue(x).ok());
    }
    return b.Finish();
  }
};

std::vector<std::string> MxGoldenTable(int degree) {
  ExecContext ctx;
  ctx.WithParallelDegree(degree);
  const MxGen gen;
  const size_t n = kGoldenRows;
  std::vector<std::string> rows;
  // A row key starts with the function, as in "[+] synced int-dbl".
  auto add = [&](const std::string& name, const std::vector<MxArg>& args) {
    const std::string fn = name.substr(1, name.find(']') - 1);
    rows.push_back(GoldenRow(name, Multiplex(ctx, *FindScalarFn(fn), args)));
  };

  // The synced operands share one void head; the head-join right operand's
  // heads are [n/8, n + n/8) shuffled, so the driver's first eighth drops.
  const ColumnPtr head = Column::MakeVoid(0, n);
  const Properties keyed{true, false, true, false};
  std::vector<Oid> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), Oid{n / 8});
  Rng rng(41);
  for (size_t i = n - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.Uniform(0, static_cast<int64_t>(i))]);
  }
  const ColumnPtr other_head = Column::MakeOid(shuffled);
  ColumnPtr left[kMxTypeCount], right[kMxTypeCount], divisor[kMxTypeCount];
  for (size_t t = 0; t < kMxTypeCount; ++t) {
    left[t] = gen.Make(kMxTypes[t], n, 100 + t);
    right[t] = gen.Make(kMxTypes[t], n, 200 + t);
    divisor[t] = gen.Make(kMxTypes[t], n, 300 + t, true);
  }
  auto synced = [&](const ColumnPtr& tail) { return Bat(head, tail, keyed); };
  auto joined = [&](const ColumnPtr& tail) { return Bat(other_head, tail); };
  // Constants: draws 13 and 61 are nonzero in every type.
  auto lconst = [](size_t t) { return MxGen::At(kMxTypes[t].type, 13); };
  auto rconst = [](size_t t) { return MxGen::At(kMxTypes[t].type, 61); };

  // Binary functions over type pairs (a, b) in every shape.
  auto binary = [&](const std::string& fn, size_t a, size_t b) {
    const std::string types =
        std::string(kMxTypes[a].name) + "-" + kMxTypes[b].name;
    const ColumnPtr& r = fn == "/" ? divisor[b] : right[b];
    add("[" + fn + "] synced " + types, {synced(left[a]), synced(r)});
    add("[" + fn + "] headjoin " + types, {synced(left[a]), joined(r)});
    add("[" + fn + "] bat-const " + types, {synced(left[a]), rconst(b)});
    add("[" + fn + "] const-bat " + types, {lconst(a), synced(r)});
  };
  // The type indexes a class admits: kNum everything but str, kCmp all.
  std::vector<size_t> num, all;
  for (size_t t = 0; t < kMxTypeCount; ++t) {
    all.push_back(t);
    if (kMxTypes[t].type != MonetType::kStr) num.push_back(t);
  }
  auto pairs = [&](const std::string& fn, const std::vector<size_t>& types,
                   bool rotate) {
    for (size_t i = 0; i < types.size(); ++i) {
      binary(fn, types[i], types[i]);
      if (rotate) binary(fn, types[i], types[(i + 1) % types.size()]);
    }
  };
  constexpr size_t kDbl = 5, kInt = 2, kBit = 7, kDate = 6, kStr = 9,
                   kStr2 = 10;
  for (const ScalarFn& f : AllScalarFns()) {
    const std::string fn(f.name);
    switch (f.args[0]) {
      case ScalarClass::kNum:
        pairs(fn, num, fn == "+" || fn == "/");
        binary(fn, kStr, kInt);  // misfit
        break;
      case ScalarClass::kCmp:
        pairs(fn, all, fn == "<" || fn == "=");
        break;
      case ScalarClass::kBit:
        if (f.arity == 1) {
          add("[" + fn + "] bat bit", {synced(left[kBit])});
          add("[" + fn + "] bat int", {synced(left[kInt])});  // misfit
        } else if (f.arity == 2) {
          binary(fn, kBit, kBit);
          binary(fn, kInt, kBit);  // misfit
        } else {
          // ifthen: a bit condition, both branches of one type.
          for (size_t t = 0; t < kMxTypeCount; ++t) {
            const std::string tn = std::string("bit-") + kMxTypes[t].name +
                                   "-" + kMxTypes[t].name;
            add("[" + fn + "] synced " + tn,
                {synced(left[kBit]), synced(left[t]), synced(right[t])});
            add("[" + fn + "] headjoin " + tn,
                {synced(left[kBit]), joined(left[t]), joined(right[t])});
            add("[" + fn + "] bat-const " + tn,
                {synced(left[kBit]), lconst(t), rconst(t)});
            add("[" + fn + "] const-bat " + tn,
                {Value::Bit(true), synced(left[t]), synced(right[t])});
          }
          add("[" + fn + "] synced bit-int-dbl",  // branches differ
              {synced(left[kBit]), synced(left[kInt]), synced(right[kDbl])});
          add("[" + fn + "] synced int-int-int",  // misfit condition
              {synced(left[kInt]), synced(left[kInt]), synced(right[kInt])});
        }
        break;
      case ScalarClass::kDate:
        add("[" + fn + "] bat date", {synced(left[kDate])});
        add("[" + fn + "] bat int", {synced(left[kInt])});  // misfit
        break;
      case ScalarClass::kStr:
        if (f.arity == 1) {
          add("[" + fn + "] bat str", {synced(left[kStr])});
          add("[" + fn + "] bat str2", {synced(left[kStr2])});
          add("[" + fn + "] bat int", {synced(left[kInt])});  // misfit
        } else {
          binary(fn, kStr, kStr);
          binary(fn, kStr, kStr2);
          binary(fn, kInt, kStr);  // misfit
        }
        break;
      case ScalarClass::kSame:
        break;
    }
  }

  // "/" with one zero divisor in the last block, per shape (the head-join
  // divisor's zero sits where the driver's row n - 5 aligns).
  const size_t joined_zero = static_cast<size_t>(
      std::find(shuffled.begin(), shuffled.end(), Oid{n - 5}) -
      shuffled.begin());
  const ColumnPtr zero_late = gen.Make(kMxTypes[kInt], n, 400, true, n - 5);
  const ColumnPtr zero_joined =
      gen.Make(kMxTypes[kInt], n, 400, true, joined_zero);
  add("[/] synced dbl-int zero", {synced(left[kDbl]), synced(zero_late)});
  add("[/] headjoin dbl-int zero", {synced(left[kDbl]), joined(zero_joined)});
  add("[/] bat-const dbl-int zero", {synced(left[kDbl]), Value::Int(0)});
  add("[/] const-bat dbl-int zero", {rconst(kDbl), synced(zero_late)});
  // No BAT operand, and empty operands.
  add("[+] const-const int-int", {lconst(kInt), rconst(kInt)});
  add("[year] const date", {lconst(kDate)});
  const ColumnPtr empty_head = Column::MakeVoid(0, 0);
  add("[*] synced dbl-dbl empty",
      {Bat(empty_head, Column::MakeDbl({})),
       Bat(empty_head, Column::MakeDbl({}))});
  return rows;
}

constexpr const char* kMxGolden[] = {
    "[+] synced void-void n=66000 void:6b9843b0e132aeb3 dbl:dfb3142ecf277203 1100",
    "[+] headjoin void-void n=57750 oid:38f1911f634cd0d2 dbl:2e9b91794099b5d5 1100",
    "[+] bat-const void-void error Type error: '+' argument 2 is nil",
    "[+] const-bat void-void error Type error: '+' argument 1 is nil",
    "[+] synced void-oid n=66000 void:6b9843b0e132aeb3 dbl:80cddeb90026fe18 1100",
    "[+] headjoin void-oid n=57750 oid:38f1911f634cd0d2 dbl:d90d6a33c0e7bf5c 1100",
    "[+] bat-const void-oid n=66000 void:6b9843b0e132aeb3 dbl:213bc97fe0440303 1100",
    "[+] const-bat void-oid error Type error: '+' argument 1 is nil",
    "[+] synced oid-oid n=66000 void:6b9843b0e132aeb3 dbl:823188608bf52c69 1100",
    "[+] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 dbl:09b2c8feecf83180 1100",
    "[+] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 dbl:ed7b45627ae1a5b0 1100",
    "[+] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 dbl:d47ddec4fd79b39d 1100",
    "[+] synced oid-int n=66000 void:6b9843b0e132aeb3 dbl:42feeebf16a13e67 1100",
    "[+] headjoin oid-int n=57750 oid:38f1911f634cd0d2 dbl:1bf897ca046ee408 1100",
    "[+] bat-const oid-int n=66000 void:6b9843b0e132aeb3 dbl:c5ec997767a1455e 1100",
    "[+] const-bat oid-int n=66000 void:6b9843b0e132aeb3 dbl:0c73a9c5e7373923 1100",
    "[+] synced int-int n=66000 void:6b9843b0e132aeb3 dbl:19401630b01a95df 1100",
    "[+] headjoin int-int n=57750 oid:38f1911f634cd0d2 dbl:fcd88019ce09f3c0 1100",
    "[+] bat-const int-int n=66000 void:6b9843b0e132aeb3 dbl:cecf0854f0167b17 1100",
    "[+] const-bat int-int n=66000 void:6b9843b0e132aeb3 dbl:b8bc87e4959f74db 1100",
    "[+] synced int-lng n=66000 void:6b9843b0e132aeb3 dbl:f3da73e3a8fcef6f 1100",
    "[+] headjoin int-lng n=57750 oid:38f1911f634cd0d2 dbl:6b0ec034d2134f82 1100",
    "[+] bat-const int-lng n=66000 void:6b9843b0e132aeb3 dbl:858388214c56ae0a 1100",
    "[+] const-bat int-lng n=66000 void:6b9843b0e132aeb3 dbl:3b07decb2b14d1c9 1100",
    "[+] synced lng-lng n=66000 void:6b9843b0e132aeb3 dbl:6faeef946b1efc96 1100",
    "[+] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 dbl:48a180fa24efaba2 1100",
    "[+] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 dbl:2bf16ca29fc0cc89 1100",
    "[+] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 dbl:e44d5a6971cb3344 1100",
    "[+] synced lng-flt n=66000 void:6b9843b0e132aeb3 dbl:b955656999c7281e 1100",
    "[+] headjoin lng-flt n=57750 oid:38f1911f634cd0d2 dbl:7c85b895f075982e 1100",
    "[+] bat-const lng-flt n=66000 void:6b9843b0e132aeb3 dbl:fa0b1b79cd000b22 1100",
    "[+] const-bat lng-flt n=66000 void:6b9843b0e132aeb3 dbl:3083cf4aaa59e14e 1100",
    "[+] synced flt-flt n=66000 void:6b9843b0e132aeb3 dbl:94ff3819f1bcfabd 1100",
    "[+] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 dbl:2be35c2a97ba1144 1100",
    "[+] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 dbl:86221b36d1e0ed2c 1100",
    "[+] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 dbl:fdd5011d6defec52 1100",
    "[+] synced flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:8d4019b633acded4 1100",
    "[+] headjoin flt-dbl n=57750 oid:38f1911f634cd0d2 dbl:7bcd1b7de9ea4b63 1100",
    "[+] bat-const flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:81d45a35ca10a8c9 1100",
    "[+] const-bat flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:dc298a9c21ffe060 1100",
    "[+] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:0f2682b3f5f91789 1100",
    "[+] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 dbl:26bf050cb9281ce3 1100",
    "[+] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:b7151d19b0703e6f 1100",
    "[+] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:f912a3bb7290fea5 1100",
    "[+] synced dbl-date n=66000 void:6b9843b0e132aeb3 dbl:259f4752670bd548 1100",
    "[+] headjoin dbl-date n=57750 oid:38f1911f634cd0d2 dbl:344a5acf3a272cd2 1100",
    "[+] bat-const dbl-date n=66000 void:6b9843b0e132aeb3 dbl:0c15b7d7c8e6364b 1100",
    "[+] const-bat dbl-date n=66000 void:6b9843b0e132aeb3 dbl:10e21e7074e76144 1100",
    "[+] synced date-date n=66000 void:6b9843b0e132aeb3 dbl:a2b3400809dd7cf3 1100",
    "[+] headjoin date-date n=57750 oid:38f1911f634cd0d2 dbl:f4d85732e2aa4879 1100",
    "[+] bat-const date-date n=66000 void:6b9843b0e132aeb3 dbl:5bde6037d7c34107 1100",
    "[+] const-bat date-date n=66000 void:6b9843b0e132aeb3 dbl:6a8b0fefd905662b 1100",
    "[+] synced date-bit n=66000 void:6b9843b0e132aeb3 dbl:e3422722e7d0d342 1100",
    "[+] headjoin date-bit n=57750 oid:38f1911f634cd0d2 dbl:8749c9eca85a26de 1100",
    "[+] bat-const date-bit n=66000 void:6b9843b0e132aeb3 dbl:40f034d80106cd2e 1100",
    "[+] const-bat date-bit n=66000 void:6b9843b0e132aeb3 dbl:69c0970caa62ab13 1100",
    "[+] synced bit-bit n=66000 void:6b9843b0e132aeb3 dbl:9942601216eab583 1100",
    "[+] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 dbl:07a99ca1d1cb369a 1100",
    "[+] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 dbl:0cdfff6b07810d43 1100",
    "[+] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 dbl:d2e7d21890aa5dc3 1100",
    "[+] synced bit-chr n=66000 void:6b9843b0e132aeb3 dbl:692c98c00e298725 1100",
    "[+] headjoin bit-chr n=57750 oid:38f1911f634cd0d2 dbl:c4b87a0ae223c145 1100",
    "[+] bat-const bit-chr n=66000 void:6b9843b0e132aeb3 dbl:0cdfff6b07810d43 1100",
    "[+] const-bat bit-chr n=66000 void:6b9843b0e132aeb3 dbl:92d9d45ab0bfb7bd 1100",
    "[+] synced chr-chr n=66000 void:6b9843b0e132aeb3 dbl:1d25c444bef594c5 1100",
    "[+] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 dbl:46f254d3dbbaecbc 1100",
    "[+] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 dbl:b617530cce8f4d49 1100",
    "[+] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 dbl:5a77c48f57faf524 1100",
    "[+] synced chr-void n=66000 void:6b9843b0e132aeb3 dbl:aa0a9fdff4b50db5 1100",
    "[+] headjoin chr-void n=57750 oid:38f1911f634cd0d2 dbl:701f3ed92f4d44ca 1100",
    "[+] bat-const chr-void error Type error: '+' argument 2 is nil",
    "[+] const-bat chr-void n=66000 void:6b9843b0e132aeb3 dbl:ca47650196971543 1100",
    "[+] synced str-int error Type error: '+' needs numeric operands, argument 1 is str",
    "[+] headjoin str-int error Type error: '+' needs numeric operands, argument 1 is str",
    "[+] bat-const str-int error Type error: '+' needs numeric operands, argument 1 is str",
    "[+] const-bat str-int error Type error: '+' needs numeric operands, argument 1 is str",
    "[-] synced void-void n=66000 void:6b9843b0e132aeb3 dbl:1db931703cd23183 1100",
    "[-] headjoin void-void n=57750 oid:38f1911f634cd0d2 dbl:9aa2b8ebf2d95427 1100",
    "[-] bat-const void-void error Type error: '-' argument 2 is nil",
    "[-] const-bat void-void error Type error: '-' argument 1 is nil",
    "[-] synced oid-oid n=66000 void:6b9843b0e132aeb3 dbl:76bdee21479bc3a3 1100",
    "[-] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 dbl:21c63b066eab84dd 1100",
    "[-] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 dbl:2e769c57ded3613b 1100",
    "[-] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 dbl:2663198e7c7da490 1100",
    "[-] synced int-int n=66000 void:6b9843b0e132aeb3 dbl:a260942b6bcee7e9 1100",
    "[-] headjoin int-int n=57750 oid:38f1911f634cd0d2 dbl:50cce49179333ffd 1100",
    "[-] bat-const int-int n=66000 void:6b9843b0e132aeb3 dbl:5711fc63b5dfa7c7 1100",
    "[-] const-bat int-int n=66000 void:6b9843b0e132aeb3 dbl:ab2b91878ee76762 1100",
    "[-] synced lng-lng n=66000 void:6b9843b0e132aeb3 dbl:1257db680b4fdaf5 1100",
    "[-] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 dbl:f74bfcf8c970e4e6 1100",
    "[-] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 dbl:e965e735abad7a0d 1100",
    "[-] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 dbl:f3560f20178ab9d2 1100",
    "[-] synced flt-flt n=66000 void:6b9843b0e132aeb3 dbl:474c21874cf35e57 1100",
    "[-] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 dbl:c3bfbbfc86cd97d1 1100",
    "[-] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 dbl:070a53f56a322d67 1100",
    "[-] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 dbl:5f1b3f451ecca9db 1100",
    "[-] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:79d889b5a126cc26 1100",
    "[-] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 dbl:361cdd9eea8dec22 1100",
    "[-] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:add93518b4228bd6 1100",
    "[-] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:86ae55e21166348b 1100",
    "[-] synced date-date n=66000 void:6b9843b0e132aeb3 dbl:7b197916488b3c5d 1100",
    "[-] headjoin date-date n=57750 oid:38f1911f634cd0d2 dbl:c98c440d7ce688b1 1100",
    "[-] bat-const date-date n=66000 void:6b9843b0e132aeb3 dbl:5eda34f28bfdf505 1100",
    "[-] const-bat date-date n=66000 void:6b9843b0e132aeb3 dbl:7dbbb5407ffbdaaf 1100",
    "[-] synced bit-bit n=66000 void:6b9843b0e132aeb3 dbl:f3479e6f7e3cd6c3 1100",
    "[-] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 dbl:d5ea73fe074ec7da 1100",
    "[-] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 dbl:c97745faed13d043 1100",
    "[-] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 dbl:580199d3ec64dbc3 1100",
    "[-] synced chr-chr n=66000 void:6b9843b0e132aeb3 dbl:4e719d9ec32365ac 1100",
    "[-] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 dbl:af8b54a9e542aa30 1100",
    "[-] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 dbl:f57d8210575edf8c 1100",
    "[-] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 dbl:1863f01a4b5a9711 1100",
    "[-] synced str-int error Type error: '-' needs numeric operands, argument 1 is str",
    "[-] headjoin str-int error Type error: '-' needs numeric operands, argument 1 is str",
    "[-] bat-const str-int error Type error: '-' needs numeric operands, argument 1 is str",
    "[-] const-bat str-int error Type error: '-' needs numeric operands, argument 1 is str",
    "[*] synced void-void n=66000 void:6b9843b0e132aeb3 dbl:0365ee20e954c245 1100",
    "[*] headjoin void-void n=57750 oid:38f1911f634cd0d2 dbl:e791e1379c64b886 1100",
    "[*] bat-const void-void error Type error: '*' argument 2 is nil",
    "[*] const-bat void-void error Type error: '*' argument 1 is nil",
    "[*] synced oid-oid n=66000 void:6b9843b0e132aeb3 dbl:6e7fe5a068b7acce 1100",
    "[*] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 dbl:0deda75a2213924b 1100",
    "[*] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 dbl:7cb5c2e487ecaf01 1100",
    "[*] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 dbl:b67a1c765b5586ad 1100",
    "[*] synced int-int n=66000 void:6b9843b0e132aeb3 dbl:61f09af81a8cc81c 1100",
    "[*] headjoin int-int n=57750 oid:38f1911f634cd0d2 dbl:bd11aba40400ddbe 1100",
    "[*] bat-const int-int n=66000 void:6b9843b0e132aeb3 dbl:cb8f145734d139f6 1100",
    "[*] const-bat int-int n=66000 void:6b9843b0e132aeb3 dbl:72b11e2caa566994 1100",
    "[*] synced lng-lng n=66000 void:6b9843b0e132aeb3 dbl:e672ca3dacb27f21 1100",
    "[*] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 dbl:f29f1d8a7c9835cd 1100",
    "[*] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 dbl:3b1d5284b7d23155 1100",
    "[*] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 dbl:9a925b1f897d8374 1100",
    "[*] synced flt-flt n=66000 void:6b9843b0e132aeb3 dbl:e7b14d64e08d4790 1100",
    "[*] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 dbl:945671da61c1e982 1100",
    "[*] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 dbl:82204fff6ca44c6e 1100",
    "[*] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 dbl:aa68e83bc89a6426 1100",
    "[*] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:b8fabc6aec98deef 1100",
    "[*] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 dbl:90bb086737a5b831 1100",
    "[*] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:5fc8c9e9ecc09292 1100",
    "[*] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:01ea167f70185f29 1100",
    "[*] synced date-date n=66000 void:6b9843b0e132aeb3 dbl:1cf9f3014349a73c 1100",
    "[*] headjoin date-date n=57750 oid:38f1911f634cd0d2 dbl:f2c37d3259817840 1100",
    "[*] bat-const date-date n=66000 void:6b9843b0e132aeb3 dbl:6fee4ccbcf0694ca 1100",
    "[*] const-bat date-date n=66000 void:6b9843b0e132aeb3 dbl:5521b036a4acdc69 1100",
    "[*] synced bit-bit n=66000 void:6b9843b0e132aeb3 dbl:035b613eab9387fa 1100",
    "[*] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 dbl:bfe27580486e063a 1100",
    "[*] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 dbl:467800097fae9c03 1100",
    "[*] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 dbl:81e4544106a53203 1100",
    "[*] synced chr-chr n=66000 void:6b9843b0e132aeb3 dbl:0c80255a955993f1 1100",
    "[*] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 dbl:334f62c752109db7 1100",
    "[*] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 dbl:7520a02a6177cd1d 1100",
    "[*] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 dbl:1e274902175aa068 1100",
    "[*] synced str-int error Type error: '*' needs numeric operands, argument 1 is str",
    "[*] headjoin str-int error Type error: '*' needs numeric operands, argument 1 is str",
    "[*] bat-const str-int error Type error: '*' needs numeric operands, argument 1 is str",
    "[*] const-bat str-int error Type error: '*' needs numeric operands, argument 1 is str",
    "[/] synced void-void n=66000 void:6b9843b0e132aeb3 dbl:0f1bc05da11e0883 1100",
    "[/] headjoin void-void n=57750 oid:38f1911f634cd0d2 dbl:efa77595e580676f 1100",
    "[/] bat-const void-void error Type error: '/' argument 2 is nil",
    "[/] const-bat void-void error Type error: '/' argument 1 is nil",
    "[/] synced void-oid n=66000 void:6b9843b0e132aeb3 dbl:cc84b5f9cc07022c 1100",
    "[/] headjoin void-oid n=57750 oid:38f1911f634cd0d2 dbl:791c7f1473ad0131 1100",
    "[/] bat-const void-oid n=66000 void:6b9843b0e132aeb3 dbl:81c937694d6c18d6 1100",
    "[/] const-bat void-oid error Type error: '/' argument 1 is nil",
    "[/] synced oid-oid n=66000 void:6b9843b0e132aeb3 dbl:262fb65cc5eb0339 1100",
    "[/] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 dbl:2c45c837c7b7e259 1100",
    "[/] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 dbl:5d921cb67ae8e75e 1100",
    "[/] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 dbl:3f5e5c5c500d4dbf 1100",
    "[/] synced oid-int n=66000 void:6b9843b0e132aeb3 dbl:f6f3bd9440c167e4 1100",
    "[/] headjoin oid-int n=57750 oid:38f1911f634cd0d2 dbl:f3f40d3dcd26dc1d 1100",
    "[/] bat-const oid-int n=66000 void:6b9843b0e132aeb3 dbl:ea52ef887bc251e4 1100",
    "[/] const-bat oid-int n=66000 void:6b9843b0e132aeb3 dbl:a44dc3114b9ca176 1100",
    "[/] synced int-int n=66000 void:6b9843b0e132aeb3 dbl:01e116e1afbbe3c5 1100",
    "[/] headjoin int-int n=57750 oid:38f1911f634cd0d2 dbl:ca63d862f143d268 1100",
    "[/] bat-const int-int n=66000 void:6b9843b0e132aeb3 dbl:7302442b39f4e416 1100",
    "[/] const-bat int-int n=66000 void:6b9843b0e132aeb3 dbl:d4a2796dbaca48c0 1100",
    "[/] synced int-lng n=66000 void:6b9843b0e132aeb3 dbl:a84164be3e0f02cc 1100",
    "[/] headjoin int-lng n=57750 oid:38f1911f634cd0d2 dbl:911d9690a9dad8f9 1100",
    "[/] bat-const int-lng n=66000 void:6b9843b0e132aeb3 dbl:60a9226ca9096b40 1100",
    "[/] const-bat int-lng n=66000 void:6b9843b0e132aeb3 dbl:ea4710381d77af8a 1100",
    "[/] synced lng-lng n=66000 void:6b9843b0e132aeb3 dbl:e3a9816537e4bd2e 1100",
    "[/] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 dbl:8be6cab8e70bb9be 1100",
    "[/] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 dbl:1ec7691f5e732f42 1100",
    "[/] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 dbl:175f7c726feec4e1 1100",
    "[/] synced lng-flt n=66000 void:6b9843b0e132aeb3 dbl:e90146e4c50e6ae3 1100",
    "[/] headjoin lng-flt n=57750 oid:38f1911f634cd0d2 dbl:f56167016b27cb9c 1100",
    "[/] bat-const lng-flt n=66000 void:6b9843b0e132aeb3 dbl:9be7b41a44d7cd2e 1100",
    "[/] const-bat lng-flt n=66000 void:6b9843b0e132aeb3 dbl:55cde37f6a8f0f5e 1100",
    "[/] synced flt-flt n=66000 void:6b9843b0e132aeb3 dbl:27a2fd794181b330 1100",
    "[/] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 dbl:abea6a775a22182d 1100",
    "[/] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 dbl:4944d300ae18cf91 1100",
    "[/] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 dbl:d28ae5aca8e0c48c 1100",
    "[/] synced flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:4dea3a7fadda415b 1100",
    "[/] headjoin flt-dbl n=57750 oid:38f1911f634cd0d2 dbl:746457ca0baaac1e 1100",
    "[/] bat-const flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:2be6dbac624bf70c 1100",
    "[/] const-bat flt-dbl n=66000 void:6b9843b0e132aeb3 dbl:c20ce8bd59efc5af 1100",
    "[/] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:5b61d46194d2fde6 1100",
    "[/] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 dbl:714d3e2dfd6c2cb3 1100",
    "[/] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:23ffc321165d377a 1100",
    "[/] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:e5224bfec1d4c923 1100",
    "[/] synced dbl-date n=66000 void:6b9843b0e132aeb3 dbl:d76622f6c364b830 1100",
    "[/] headjoin dbl-date n=57750 oid:38f1911f634cd0d2 dbl:7972df4085357b71 1100",
    "[/] bat-const dbl-date n=66000 void:6b9843b0e132aeb3 dbl:9c4a7f1a8d262fe3 1100",
    "[/] const-bat dbl-date n=66000 void:6b9843b0e132aeb3 dbl:311bb80d1a94e5f6 1100",
    "[/] synced date-date n=66000 void:6b9843b0e132aeb3 dbl:41b7ce869610a27f 1100",
    "[/] headjoin date-date n=57750 oid:38f1911f634cd0d2 dbl:66fa5bfb6d15f15f 1100",
    "[/] bat-const date-date n=66000 void:6b9843b0e132aeb3 dbl:a58b71ecb702d89a 1100",
    "[/] const-bat date-date n=66000 void:6b9843b0e132aeb3 dbl:dfc31bea8c5dfac6 1100",
    "[/] synced date-bit n=66000 void:6b9843b0e132aeb3 dbl:c010d0952b9d9f96 1100",
    "[/] headjoin date-bit n=57750 oid:38f1911f634cd0d2 dbl:7aa19299817575da 1100",
    "[/] bat-const date-bit n=66000 void:6b9843b0e132aeb3 dbl:c010d0952b9d9f96 1100",
    "[/] const-bat date-bit n=66000 void:6b9843b0e132aeb3 dbl:17031e2c9cc91b83 1100",
    "[/] synced bit-bit n=66000 void:6b9843b0e132aeb3 dbl:467800097fae9c03 1100",
    "[/] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 dbl:8640456e79f6ff9a 1100",
    "[/] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 dbl:467800097fae9c03 1100",
    "[/] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 dbl:0f1bc05da11e0883 1100",
    "[/] synced bit-chr n=66000 void:6b9843b0e132aeb3 dbl:dfcca4d7eddb84cd 1100",
    "[/] headjoin bit-chr n=57750 oid:38f1911f634cd0d2 dbl:61b88f2577874acf 1100",
    "[/] bat-const bit-chr n=66000 void:6b9843b0e132aeb3 dbl:467800097fae9c03 1100",
    "[/] const-bat bit-chr n=66000 void:6b9843b0e132aeb3 dbl:0e14336b8a835eec 1100",
    "[/] synced chr-chr n=66000 void:6b9843b0e132aeb3 dbl:dae6a956df129198 1100",
    "[/] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 dbl:7bb8252a940cafe6 1100",
    "[/] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 dbl:7520a02a6177cd1d 1100",
    "[/] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 dbl:03cc3b955e06c7ae 1100",
    "[/] synced chr-void n=66000 void:6b9843b0e132aeb3 dbl:d308c66bbf8f4c77 1100",
    "[/] headjoin chr-void n=57750 oid:38f1911f634cd0d2 dbl:693a2cdc25b88121 1100",
    "[/] bat-const chr-void error Type error: '/' argument 2 is nil",
    "[/] const-bat chr-void n=66000 void:6b9843b0e132aeb3 dbl:65846d35bd14b199 1100",
    "[/] synced str-int error Type error: '/' needs numeric operands, argument 1 is str",
    "[/] headjoin str-int error Type error: '/' needs numeric operands, argument 1 is str",
    "[/] bat-const str-int error Type error: '/' needs numeric operands, argument 1 is str",
    "[/] const-bat str-int error Type error: '/' needs numeric operands, argument 1 is str",
    "[=] synced void-void n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[=] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:9e07b0d2e091f999 1100",
    "[=] bat-const void-void error Type error: '=' argument 2 is nil",
    "[=] const-bat void-void error Type error: '=' argument 1 is nil",
    "[=] synced void-oid n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] headjoin void-oid n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[=] bat-const void-oid n=66000 void:6b9843b0e132aeb3 bit:12982c9427fa7eba 1100",
    "[=] const-bat void-oid error Type error: '=' argument 1 is nil",
    "[=] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:057a144450968783 1100",
    "[=] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:6de5e98e380bbb76 1100",
    "[=] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:4fdb231047a69f9c 1100",
    "[=] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:8180772fdcbc4161 1100",
    "[=] synced oid-int n=66000 void:6b9843b0e132aeb3 bit:7b933290ed771f84 1100",
    "[=] headjoin oid-int n=57750 oid:38f1911f634cd0d2 bit:10c38240c6785d11 1100",
    "[=] bat-const oid-int n=66000 void:6b9843b0e132aeb3 bit:6ff4e5aae9c8feaa 1100",
    "[=] const-bat oid-int n=66000 void:6b9843b0e132aeb3 bit:70ef511a62f7f08e 1100",
    "[=] synced int-int n=66000 void:6b9843b0e132aeb3 bit:139d95535adde6f3 1100",
    "[=] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:cece191da2c63186 1100",
    "[=] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:84fe542041c3f641 1100",
    "[=] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:8e0b564e48a3772d 1100",
    "[=] synced int-lng n=66000 void:6b9843b0e132aeb3 bit:91062692b445c90c 1100",
    "[=] headjoin int-lng n=57750 oid:38f1911f634cd0d2 bit:7da6d9a63faaf662 1100",
    "[=] bat-const int-lng n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] const-bat int-lng n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:0b2250f784a7bc39 1100",
    "[=] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:e73c9bdec5840583 1100",
    "[=] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:3f93e7197674e2d8 1100",
    "[=] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:49e56f5bb748b355 1100",
    "[=] synced lng-flt n=66000 void:6b9843b0e132aeb3 bit:fb35a0644352e6a8 1100",
    "[=] headjoin lng-flt n=57750 oid:38f1911f634cd0d2 bit:dd7e30c117a67fdf 1100",
    "[=] bat-const lng-flt n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] const-bat lng-flt n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:57fcf157634c34df 1100",
    "[=] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:f7766a89d2e75bcb 1100",
    "[=] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:7f152f6c12464692 1100",
    "[=] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:2fc82a597aec5bdf 1100",
    "[=] synced flt-dbl n=66000 void:6b9843b0e132aeb3 bit:88a847a020dd676a 1100",
    "[=] headjoin flt-dbl n=57750 oid:38f1911f634cd0d2 bit:9e704a20444df8a1 1100",
    "[=] bat-const flt-dbl n=66000 void:6b9843b0e132aeb3 bit:02da0cc14e19534d 1100",
    "[=] const-bat flt-dbl n=66000 void:6b9843b0e132aeb3 bit:37f8dbbbc5392151 1100",
    "[=] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:2e7d37f6f1d21c97 1100",
    "[=] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:c0dcd281d1729d09 1100",
    "[=] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:7eb17800e6a52d42 1100",
    "[=] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:c9be0a7aad873807 1100",
    "[=] synced dbl-date n=66000 void:6b9843b0e132aeb3 bit:03701b07ad64a0b8 1100",
    "[=] headjoin dbl-date n=57750 oid:38f1911f634cd0d2 bit:788c3bf8a47076fb 1100",
    "[=] bat-const dbl-date n=66000 void:6b9843b0e132aeb3 bit:03701b07ad64a0b8 1100",
    "[=] const-bat dbl-date n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] synced date-date n=66000 void:6b9843b0e132aeb3 bit:6485d5049b136f09 1100",
    "[=] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:d2af449b7b508ecd 1100",
    "[=] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:4c11913674f0814a 1100",
    "[=] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:7411bd48fcad081b 1100",
    "[=] synced date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] headjoin date-bit n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[=] bat-const date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] const-bat date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:767a55c2178565a7 1100",
    "[=] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:7e84ab45881a9eee 1100",
    "[=] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:b132a315cd7377a7 1100",
    "[=] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:40ebb75b13de9d6f 1100",
    "[=] synced bit-chr n=66000 void:6b9843b0e132aeb3 bit:d50a62af6e9111dc 1100",
    "[=] headjoin bit-chr n=57750 oid:38f1911f634cd0d2 bit:067ade4627e68be4 1100",
    "[=] bat-const bit-chr n=66000 void:6b9843b0e132aeb3 bit:b132a315cd7377a7 1100",
    "[=] const-bat bit-chr n=66000 void:6b9843b0e132aeb3 bit:36270faa466282af 1100",
    "[=] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:68bac06aa8ac9ff1 1100",
    "[=] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:61e1eccf7dc13581 1100",
    "[=] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:69dd97a0c1561c55 1100",
    "[=] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:5982fe0c3db7c219 1100",
    "[=] synced chr-str n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] headjoin chr-str n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[=] bat-const chr-str n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] const-bat chr-str n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] synced str-str n=66000 void:6b9843b0e132aeb3 bit:8d338e129301de6d 1100",
    "[=] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:4a2eb461b20c5aa9 1100",
    "[=] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:daaabb2cd46c2779 1100",
    "[=] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:77fdf12d21494451 1100",
    "[=] synced str-str2 n=66000 void:6b9843b0e132aeb3 bit:6152540918259dc2 1100",
    "[=] headjoin str-str2 n=57750 oid:38f1911f634cd0d2 bit:05a3f595ea163c50 1100",
    "[=] bat-const str-str2 n=66000 void:6b9843b0e132aeb3 bit:daaabb2cd46c2779 1100",
    "[=] const-bat str-str2 n=66000 void:6b9843b0e132aeb3 bit:f68f33fd578f2fc6 1100",
    "[=] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:96067fdc61ba8cb9 1100",
    "[=] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:d100785d0aa7cebd 1100",
    "[=] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:76b8373018431772 1100",
    "[=] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:f68f33fd578f2fc6 1100",
    "[=] synced str2-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[=] headjoin str2-void n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[=] bat-const str2-void error Type error: '=' argument 2 is nil",
    "[=] const-bat str2-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[!=] synced void-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[!=] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:6fded94a4b5aee5f 1100",
    "[!=] bat-const void-void error Type error: '!=' argument 2 is nil",
    "[!=] const-bat void-void error Type error: '!=' argument 1 is nil",
    "[!=] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:cd540991e33842c3 1100",
    "[!=] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:bc299c6e50998ff4 1100",
    "[!=] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:dd96aff4c745c454 1100",
    "[!=] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:7f5b534ffe644aad 1100",
    "[!=] synced int-int n=66000 void:6b9843b0e132aeb3 bit:19174ae4866b347f 1100",
    "[!=] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:7e0046260a1822d8 1100",
    "[!=] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:ebe0fcb6d6d0ad21 1100",
    "[!=] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:69dd93158f2c7be9 1100",
    "[!=] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:5322b0c9942dc32d 1100",
    "[!=] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:16aeb8eb9669c315 1100",
    "[!=] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:8b7bab7e2fc69a6c 1100",
    "[!=] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:8d525d7eccd09e5d 1100",
    "[!=] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:786c674b5eb06bdf 1100",
    "[!=] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:7216f876678ad0fd 1100",
    "[!=] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:fdc3047cc9881c2e 1100",
    "[!=] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:4dce075f1a4287fb 1100",
    "[!=] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:bdb8d1f23f97eb23 1100",
    "[!=] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:53829e60a1ba464f 1100",
    "[!=] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:8872712f687c5452 1100",
    "[!=] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:6c9d30ad4c8afdd3 1100",
    "[!=] synced date-date n=66000 void:6b9843b0e132aeb3 bit:51fb10b72144b0e9 1100",
    "[!=] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:825373a7377d9bd3 1100",
    "[!=] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:73ffb3a7c2e06dae 1100",
    "[!=] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:fcd370ecc16f6c6f 1100",
    "[!=] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:c1bb6669d3bc961f 1100",
    "[!=] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:35bb597ef25ba104 1100",
    "[!=] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:6cc38605f5332aa3 1100",
    "[!=] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:48e90521ae4f45f3 1100",
    "[!=] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:0773a3dec5255c81 1100",
    "[!=] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:f3e0b7b7cbd8ed37 1100",
    "[!=] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:5bb53622f02059ed 1100",
    "[!=] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:81b78be916ac1661 1100",
    "[!=] synced str-str n=66000 void:6b9843b0e132aeb3 bit:f7c35bba54215d39 1100",
    "[!=] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:f8444a438db0c437 1100",
    "[!=] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:2b6decc9a9cff935 1100",
    "[!=] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:d8f2dfce0f400a69 1100",
    "[!=] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:27093c34e713c74d 1100",
    "[!=] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:7c48c66456352d73 1100",
    "[!=] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:9e4c3027815ce796 1100",
    "[!=] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:71e8fe8004b59206 1100",
    "[<] synced void-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:730f6f9f757628c2 1100",
    "[<] bat-const void-void error Type error: '<' argument 2 is nil",
    "[<] const-bat void-void error Type error: '<' argument 1 is nil",
    "[<] synced void-oid n=66000 void:6b9843b0e132aeb3 bit:03910255b820ea2c 1100",
    "[<] headjoin void-oid n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[<] bat-const void-oid n=66000 void:6b9843b0e132aeb3 bit:957c3aa97b8e87b1 1100",
    "[<] const-bat void-oid error Type error: '<' argument 1 is nil",
    "[<] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:30959ab425f08053 1100",
    "[<] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:6e10685394aa4d87 1100",
    "[<] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:585d6298606671f0 1100",
    "[<] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:1d235b69b66d161b 1100",
    "[<] synced oid-int n=66000 void:6b9843b0e132aeb3 bit:0268d8e6c214ff82 1100",
    "[<] headjoin oid-int n=57750 oid:38f1911f634cd0d2 bit:4bb75699c186df2c 1100",
    "[<] bat-const oid-int n=66000 void:6b9843b0e132aeb3 bit:ecf41abbe1a68151 1100",
    "[<] const-bat oid-int n=66000 void:6b9843b0e132aeb3 bit:b9fb85caf77f83bc 1100",
    "[<] synced int-int n=66000 void:6b9843b0e132aeb3 bit:7c9b06941eb501e0 1100",
    "[<] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:442e0bc0517f20eb 1100",
    "[<] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:e86f75cbfe4114fd 1100",
    "[<] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:aaca6aa49c7bbe60 1100",
    "[<] synced int-lng n=66000 void:6b9843b0e132aeb3 bit:d96b4d5e07210460 1100",
    "[<] headjoin int-lng n=57750 oid:38f1911f634cd0d2 bit:e9e9a16a85cf4ed7 1100",
    "[<] bat-const int-lng n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<] const-bat int-lng n=66000 void:6b9843b0e132aeb3 bit:9f1ba60253959c9f 1100",
    "[<] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:7867df8e7937e35b 1100",
    "[<] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:b2fa0e0ff40c3421 1100",
    "[<] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:f4d61e115b29764e 1100",
    "[<] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:0ca1eb9e8d384abc 1100",
    "[<] synced lng-flt n=66000 void:6b9843b0e132aeb3 bit:a9828b528078c857 1100",
    "[<] headjoin lng-flt n=57750 oid:38f1911f634cd0d2 bit:a4a4e738b78ffdfa 1100",
    "[<] bat-const lng-flt n=66000 void:6b9843b0e132aeb3 bit:6765538a7afc56fe 1100",
    "[<] const-bat lng-flt n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:7af001e92f6ad3a0 1100",
    "[<] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:41717330761e4ce1 1100",
    "[<] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:47ac8ad911c3722a 1100",
    "[<] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:610b2c99a235cf04 1100",
    "[<] synced flt-dbl n=66000 void:6b9843b0e132aeb3 bit:29f214a5b112cd6f 1100",
    "[<] headjoin flt-dbl n=57750 oid:38f1911f634cd0d2 bit:8ea90b898307cb47 1100",
    "[<] bat-const flt-dbl n=66000 void:6b9843b0e132aeb3 bit:6a300bdcf823caaa 1100",
    "[<] const-bat flt-dbl n=66000 void:6b9843b0e132aeb3 bit:21ebaff30e2aa62f 1100",
    "[<] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:d5686435f5336aad 1100",
    "[<] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:c1485e387969b2e4 1100",
    "[<] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:e813d7b329d12fa8 1100",
    "[<] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:eb5a959d02f3c152 1100",
    "[<] synced dbl-date n=66000 void:6b9843b0e132aeb3 bit:bfa0c362eafa0c4c 1100",
    "[<] headjoin dbl-date n=57750 oid:38f1911f634cd0d2 bit:70f1f82ec4480135 1100",
    "[<] bat-const dbl-date n=66000 void:6b9843b0e132aeb3 bit:bfa0c362eafa0c4c 1100",
    "[<] const-bat dbl-date n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<] synced date-date n=66000 void:6b9843b0e132aeb3 bit:246d830cc8711b80 1100",
    "[<] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:cccf209db5fc64b6 1100",
    "[<] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:4e7ba338b610be49 1100",
    "[<] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:67c28f97afe07b6e 1100",
    "[<] synced date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] headjoin date-bit n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[<] bat-const date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] const-bat date-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:acabb103aca07f0a 1100",
    "[<] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:bba1af699e7133d2 1100",
    "[<] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:6cc38605f5332aa3 1100",
    "[<] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] synced bit-chr n=66000 void:6b9843b0e132aeb3 bit:4e67ca3a22088742 1100",
    "[<] headjoin bit-chr n=57750 oid:38f1911f634cd0d2 bit:676ad080c41deecc 1100",
    "[<] bat-const bit-chr n=66000 void:6b9843b0e132aeb3 bit:6cc38605f5332aa3 1100",
    "[<] const-bat bit-chr n=66000 void:6b9843b0e132aeb3 bit:9d49d2e66bbe5413 1100",
    "[<] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:d9164b7f99003030 1100",
    "[<] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:a07e4e5f66dca6c1 1100",
    "[<] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:fbc08b1963f21b68 1100",
    "[<] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:651c0ba25cbdc495 1100",
    "[<] synced chr-str n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<] headjoin chr-str n=57750 oid:38f1911f634cd0d2 bit:0bd51e261753d8c9 1100",
    "[<] bat-const chr-str n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<] const-bat chr-str n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<] synced str-str n=66000 void:6b9843b0e132aeb3 bit:60c4490f86ae50f8 1100",
    "[<] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:8f23ce0667c7f975 1100",
    "[<] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:23ad4e8b98fafef9 1100",
    "[<] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:cfe8b6d609a7a4b4 1100",
    "[<] synced str-str2 n=66000 void:6b9843b0e132aeb3 bit:3ff9be1d33413b34 1100",
    "[<] headjoin str-str2 n=57750 oid:38f1911f634cd0d2 bit:41ff1e681078ae92 1100",
    "[<] bat-const str-str2 n=66000 void:6b9843b0e132aeb3 bit:23ad4e8b98fafef9 1100",
    "[<] const-bat str-str2 n=66000 void:6b9843b0e132aeb3 bit:158042378d5f9632 1100",
    "[<] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:3c21f4ac8ddf614f 1100",
    "[<] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:b013d9fb45eb2e0b 1100",
    "[<] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:3dcd127ee6add065 1100",
    "[<] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:158042378d5f9632 1100",
    "[<] synced str2-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<] headjoin str2-void n=57750 oid:38f1911f634cd0d2 bit:47b3299398a42eeb 1100",
    "[<] bat-const str2-void error Type error: '<' argument 2 is nil",
    "[<] const-bat str2-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[<=] synced void-void n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<=] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:00f71461b309224c 1100",
    "[<=] bat-const void-void error Type error: '<=' argument 2 is nil",
    "[<=] const-bat void-void error Type error: '<=' argument 1 is nil",
    "[<=] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:4818bf916542974f 1100",
    "[<=] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:c79fb0781b2cbade 1100",
    "[<=] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:3846a06ded6f99a7 1100",
    "[<=] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:1130a36c22ce4711 1100",
    "[<=] synced int-int n=66000 void:6b9843b0e132aeb3 bit:81cb71d618f9cd0c 1100",
    "[<=] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:c05b58cf65ecdb3e 1100",
    "[<=] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:094d170960564d5b 1100",
    "[<=] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:f80dc1d66abd32f6 1100",
    "[<=] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:4fa5f3ba30f49d85 1100",
    "[<=] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:9b507bfe8f2c8b59 1100",
    "[<=] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:d421b66c8eb1ebad 1100",
    "[<=] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:96f55d95e560661a 1100",
    "[<=] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:2dbb04cf95252e78 1100",
    "[<=] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:6c99cf7491ba9d55 1100",
    "[<=] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:bc7370018c2517bb 1100",
    "[<=] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:1a1e05de3cd03e28 1100",
    "[<=] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:e97985163cbde035 1100",
    "[<=] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:0664a90878a69566 1100",
    "[<=] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:ae66eec4985541a5 1100",
    "[<=] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:8eb3148b86cad532 1100",
    "[<=] synced date-date n=66000 void:6b9843b0e132aeb3 bit:71fe9ff3e3c97a3a 1100",
    "[<=] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:d5d4cee2459d0268 1100",
    "[<=] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:8d0b457ea0897804 1100",
    "[<=] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:b57344b41bb71702 1100",
    "[<=] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:8e27f98f291f81b6 1100",
    "[<=] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:a0f87cc0d713d99b 1100",
    "[<=] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[<=] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:40ebb75b13de9d6f 1100",
    "[<=] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:048e0393388780ba 1100",
    "[<=] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:e09ffbcce9f2ba7f 1100",
    "[<=] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:f1b75baf9138a326 1100",
    "[<=] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:396bb2d1f9df0e7b 1100",
    "[<=] synced str-str n=66000 void:6b9843b0e132aeb3 bit:7ed4d136fcc97102 1100",
    "[<=] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:87ca912ee4f61fbf 1100",
    "[<=] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:04b57293f8eaebf7 1100",
    "[<=] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:d6f16f071818b36e 1100",
    "[<=] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:4dbd75dced9c8a2d 1100",
    "[<=] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:fcf44182982019f9 1100",
    "[<=] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:29d76527909133d0 1100",
    "[<=] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:07ac1df28b31fd1b 1100",
    "[>] synced void-void n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[>] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:5c8079d284db7b86 1100",
    "[>] bat-const void-void error Type error: '>' argument 2 is nil",
    "[>] const-bat void-void error Type error: '>' argument 1 is nil",
    "[>] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:7873e45b4c1b4993 1100",
    "[>] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:31963ff9f25db76c 1100",
    "[>] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:3997533051116277 1100",
    "[>] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:fe6a1d969da659d5 1100",
    "[>] synced int-int n=66000 void:6b9843b0e132aeb3 bit:6a3f21fbcc51b090 1100",
    "[>] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:ef5cb36accc77ff0 1100",
    "[>] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:0c25c4a7fca50737 1100",
    "[>] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:6befffd3ea6643ee 1100",
    "[>] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:6b5a706a7fef52c1 1100",
    "[>] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:0b44d7fdc8dc7783 1100",
    "[>] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:78c104d579ff3491 1100",
    "[>] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:4806690343fc8172 1100",
    "[>] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:f56a63323edf6d34 1100",
    "[>] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:21d25927f13614bb 1100",
    "[>] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:e9e4828316e47763 1100",
    "[>] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:6910c7090a580b8c 1100",
    "[>] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:d778c46a00f927b5 1100",
    "[>] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:b7355c8d88efa710 1100",
    "[>] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:fefc4abb77679761 1100",
    "[>] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:ade91a73085b238e 1100",
    "[>] synced date-date n=66000 void:6b9843b0e132aeb3 bit:d64c1437ce9364fa 1100",
    "[>] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:463f83471c67febe 1100",
    "[>] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:3f1ef525b4363334 1100",
    "[>] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:f14abba7b70708aa 1100",
    "[>] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:cd14f753c1cb4956 1100",
    "[>] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:38a46c55cabc3515 1100",
    "[>] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:c236a1370c2dc143 1100",
    "[>] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:48e90521ae4f45f3 1100",
    "[>] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:7fcfa970b10320de 1100",
    "[>] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:66b20606b6e753e9 1100",
    "[>] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:9320b23a4500a562 1100",
    "[>] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:d2d7e671c9215673 1100",
    "[>] synced str-str n=66000 void:6b9843b0e132aeb3 bit:a66def31f3680636 1100",
    "[>] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:2850aba0233574d5 1100",
    "[>] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:fa28429a6a3bf40f 1100",
    "[>] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:bffe6254d7af1d5e 1100",
    "[>] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:7a2f935151df8b99 1100",
    "[>] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:c3bec776b5a32753 1100",
    "[>] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:d97bb2f7bd979234 1100",
    "[>] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:11dd977c3df42d43 1100",
    "[>=] synced void-void n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[>=] headjoin void-void n=57750 oid:38f1911f634cd0d2 bit:23df7a565ed550bc 1100",
    "[>=] bat-const void-void error Type error: '>=' argument 2 is nil",
    "[>=] const-bat void-void error Type error: '>=' argument 1 is nil",
    "[>=] synced oid-oid n=66000 void:6b9843b0e132aeb3 bit:d8499c2f768c137f 1100",
    "[>=] headjoin oid-oid n=57750 oid:38f1911f634cd0d2 bit:1418deb9479bad9d 1100",
    "[>=] bat-const oid-oid n=66000 void:6b9843b0e132aeb3 bit:f5016d1d2c8014d0 1100",
    "[>=] const-bat oid-oid n=66000 void:6b9843b0e132aeb3 bit:1eccb4992fe83893 1100",
    "[>=] synced int-int n=66000 void:6b9843b0e132aeb3 bit:082ee77e750ac0f8 1100",
    "[>=] headjoin int-int n=57750 oid:38f1911f634cd0d2 bit:1e718ce74596cac9 1100",
    "[>=] bat-const int-int n=66000 void:6b9843b0e132aeb3 bit:a76e55d689d44ce1 1100",
    "[>=] const-bat int-int n=66000 void:6b9843b0e132aeb3 bit:c282c12d56e7fd34 1100",
    "[>=] synced lng-lng n=66000 void:6b9843b0e132aeb3 bit:257146076747f623 1100",
    "[>=] headjoin lng-lng n=57750 oid:38f1911f634cd0d2 bit:5b0c3c7bf631c427 1100",
    "[>=] bat-const lng-lng n=66000 void:6b9843b0e132aeb3 bit:0180a34833f11fae 1100",
    "[>=] const-bat lng-lng n=66000 void:6b9843b0e132aeb3 bit:3d0de9423ac1c1d4 1100",
    "[>=] synced flt-flt n=66000 void:6b9843b0e132aeb3 bit:5fff1241f5e0087c 1100",
    "[>=] headjoin flt-flt n=57750 oid:38f1911f634cd0d2 bit:335b1224cc93a7ab 1100",
    "[>=] bat-const flt-flt n=66000 void:6b9843b0e132aeb3 bit:eefd58ab8e18d4f6 1100",
    "[>=] const-bat flt-flt n=66000 void:6b9843b0e132aeb3 bit:b191dc5bc12d4d4c 1100",
    "[>=] synced dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:cf039674aa531d39 1100",
    "[>=] headjoin dbl-dbl n=57750 oid:38f1911f634cd0d2 bit:769b5beafd1abe76 1100",
    "[>=] bat-const dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:bb75186b3b3e491c 1100",
    "[>=] const-bat dbl-dbl n=66000 void:6b9843b0e132aeb3 bit:9586f451f270a86a 1100",
    "[>=] synced date-date n=66000 void:6b9843b0e132aeb3 bit:a3726e6d93ec8468 1100",
    "[>=] headjoin date-date n=57750 oid:38f1911f634cd0d2 bit:23a1591996d5841c 1100",
    "[>=] bat-const date-date n=66000 void:6b9843b0e132aeb3 bit:5abb52e0ca4ddeb5 1100",
    "[>=] const-bat date-date n=66000 void:6b9843b0e132aeb3 bit:adb46f79be0e02aa 1100",
    "[>=] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:d3aab85d5cd527c2 1100",
    "[>=] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:c49d2575b1b44574 1100",
    "[>=] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:b132a315cd7377a7 1100",
    "[>=] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[>=] synced chr-chr n=66000 void:6b9843b0e132aeb3 bit:8e62c33d979a9c54 1100",
    "[>=] headjoin chr-chr n=57750 oid:38f1911f634cd0d2 bit:f2b4b9918a8e553b 1100",
    "[>=] bat-const chr-chr n=66000 void:6b9843b0e132aeb3 bit:f5d3c59fab07c22c 1100",
    "[>=] const-bat chr-chr n=66000 void:6b9843b0e132aeb3 bit:e5189ffeebe56d15 1100",
    "[>=] synced str-str n=66000 void:6b9843b0e132aeb3 bit:e320979a2dd85cc0 1100",
    "[>=] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:79e942dba49f564b 1100",
    "[>=] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:658ade8916412445 1100",
    "[>=] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:a21fd41d89b1623c 1100",
    "[>=] synced str2-str2 n=66000 void:6b9843b0e132aeb3 bit:82ecfbf956d4a56f 1100",
    "[>=] headjoin str2-str2 n=57750 oid:38f1911f634cd0d2 bit:4c311f23ce24e365 1100",
    "[>=] bat-const str2-str2 n=66000 void:6b9843b0e132aeb3 bit:59339b3be21c68fd 1100",
    "[>=] const-bat str2-str2 n=66000 void:6b9843b0e132aeb3 bit:72ccc03a6b53cef2 1100",
    "[and] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:13b0b2e473691b12 1100",
    "[and] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:55587562fc936b7a 1100",
    "[and] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:b132a315cd7377a7 1100",
    "[and] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:40ebb75b13de9d6f 1100",
    "[and] synced int-bit error Type error: 'and' needs bit operands, argument 1 is int",
    "[and] headjoin int-bit error Type error: 'and' needs bit operands, argument 1 is int",
    "[and] bat-const int-bit error Type error: 'and' needs bit operands, argument 1 is int",
    "[and] const-bat int-bit error Type error: 'and' needs bit operands, argument 1 is int",
    "[or] synced bit-bit n=66000 void:6b9843b0e132aeb3 bit:d875ea459fd1d852 1100",
    "[or] headjoin bit-bit n=57750 oid:38f1911f634cd0d2 bit:c701ed3abe3fb855 1100",
    "[or] bat-const bit-bit n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[or] const-bat bit-bit n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[or] synced int-bit error Type error: 'or' needs bit operands, argument 1 is int",
    "[or] headjoin int-bit error Type error: 'or' needs bit operands, argument 1 is int",
    "[or] bat-const int-bit error Type error: 'or' needs bit operands, argument 1 is int",
    "[or] const-bat int-bit error Type error: 'or' needs bit operands, argument 1 is int",
    "[not] bat bit n=66000 void:6b9843b0e132aeb3 bit:6cc38605f5332aa3 1100",
    "[not] bat int error Type error: 'not' needs bit operands, argument 1 is int",
    "[year] bat date n=66000 void:6b9843b0e132aeb3 int:7dffe7a06b4f2341 1100",
    "[year] bat int error Type error: 'year' needs date operands, argument 1 is int",
    "[month] bat date n=66000 void:6b9843b0e132aeb3 int:3eadf442b1eb5255 1100",
    "[month] bat int error Type error: 'month' needs date operands, argument 1 is int",
    "[day] bat date n=66000 void:6b9843b0e132aeb3 int:a9b8680eda13251b 1100",
    "[day] bat int error Type error: 'day' needs date operands, argument 1 is int",
    "[like] synced str-str n=66000 void:6b9843b0e132aeb3 bit:8d338e129301de6d 1100",
    "[like] headjoin str-str n=57750 oid:38f1911f634cd0d2 bit:4a2eb461b20c5aa9 1100",
    "[like] bat-const str-str n=66000 void:6b9843b0e132aeb3 bit:daaabb2cd46c2779 1100",
    "[like] const-bat str-str n=66000 void:6b9843b0e132aeb3 bit:77fdf12d21494451 1100",
    "[like] synced str-str2 n=66000 void:6b9843b0e132aeb3 bit:6152540918259dc2 1100",
    "[like] headjoin str-str2 n=57750 oid:38f1911f634cd0d2 bit:05a3f595ea163c50 1100",
    "[like] bat-const str-str2 n=66000 void:6b9843b0e132aeb3 bit:daaabb2cd46c2779 1100",
    "[like] const-bat str-str2 n=66000 void:6b9843b0e132aeb3 bit:f68f33fd578f2fc6 1100",
    "[like] synced int-str error Type error: 'like' needs str operands, argument 1 is int",
    "[like] headjoin int-str error Type error: 'like' needs str operands, argument 1 is int",
    "[like] bat-const int-str error Type error: 'like' needs str operands, argument 1 is int",
    "[like] const-bat int-str error Type error: 'like' needs str operands, argument 1 is int",
    "[length] bat str n=66000 void:6b9843b0e132aeb3 int:dbc77f6c24041532 1100",
    "[length] bat str2 n=66000 void:6b9843b0e132aeb3 int:8660bb1d2319fd92 1100",
    "[length] bat int error Type error: 'length' needs str operands, argument 1 is int",
    "[concat] synced str-str n=66000 void:6b9843b0e132aeb3 str:62e52822eef61ce0 1100",
    "[concat] headjoin str-str n=57750 oid:38f1911f634cd0d2 str:5fbffe719ae9a9df 1100",
    "[concat] bat-const str-str n=66000 void:6b9843b0e132aeb3 str:620814954377dc7c 1100",
    "[concat] const-bat str-str n=66000 void:6b9843b0e132aeb3 str:90912b9baf67947f 1100",
    "[concat] synced str-str2 n=66000 void:6b9843b0e132aeb3 str:019a5739d36cd3be 1100",
    "[concat] headjoin str-str2 n=57750 oid:38f1911f634cd0d2 str:7ef43a59f7a36849 1100",
    "[concat] bat-const str-str2 n=66000 void:6b9843b0e132aeb3 str:620814954377dc7c 1100",
    "[concat] const-bat str-str2 n=66000 void:6b9843b0e132aeb3 str:cee5ee6c1c80ab67 1100",
    "[concat] synced int-str error Type error: 'concat' needs str operands, argument 1 is int",
    "[concat] headjoin int-str error Type error: 'concat' needs str operands, argument 1 is int",
    "[concat] bat-const int-str error Type error: 'concat' needs str operands, argument 1 is int",
    "[concat] const-bat int-str error Type error: 'concat' needs str operands, argument 1 is int",
    "[ifthen] synced bit-void-void n=66000 void:6b9843b0e132aeb3 oid:e31365f6b70ce7ad 1100",
    "[ifthen] headjoin bit-void-void n=57750 oid:38f1911f634cd0d2 oid:10540b61ec180e32 1100",
    "[ifthen] bat-const bit-void-void error Type error: 'ifthen' argument 2 is nil",
    "[ifthen] const-bat bit-void-void n=66000 void:6b9843b0e132aeb3 oid:e31365f6b70ce7ad 1100",
    "[ifthen] synced bit-oid-oid n=66000 void:6b9843b0e132aeb3 oid:2861707d174f3b62 1100",
    "[ifthen] headjoin bit-oid-oid n=57750 oid:38f1911f634cd0d2 oid:23d613b10be88705 1100",
    "[ifthen] bat-const bit-oid-oid n=66000 void:6b9843b0e132aeb3 oid:0457b2fc181a61c3 1100",
    "[ifthen] const-bat bit-oid-oid n=66000 void:6b9843b0e132aeb3 oid:50ca3fb267e764e4 1100",
    "[ifthen] synced bit-int-int n=66000 void:6b9843b0e132aeb3 int:23952d675f44c08d 1100",
    "[ifthen] headjoin bit-int-int n=57750 oid:38f1911f634cd0d2 int:18be4e5849d7ed5c 1100",
    "[ifthen] bat-const bit-int-int n=66000 void:6b9843b0e132aeb3 int:e32a58cccadf7b33 1100",
    "[ifthen] const-bat bit-int-int n=66000 void:6b9843b0e132aeb3 int:314ded7d67695c22 1100",
    "[ifthen] synced bit-lng-lng n=66000 void:6b9843b0e132aeb3 lng:8568cdc15428728b 1100",
    "[ifthen] headjoin bit-lng-lng n=57750 oid:38f1911f634cd0d2 lng:5763e98e1fcfaf58 1100",
    "[ifthen] bat-const bit-lng-lng n=66000 void:6b9843b0e132aeb3 lng:7c818515910de483 1100",
    "[ifthen] const-bat bit-lng-lng n=66000 void:6b9843b0e132aeb3 lng:1d38e83868949752 1100",
    "[ifthen] synced bit-flt-flt n=66000 void:6b9843b0e132aeb3 flt:3f789acea4223c7d 1100",
    "[ifthen] headjoin bit-flt-flt n=57750 oid:38f1911f634cd0d2 flt:28ef9aff121d2c24 1100",
    "[ifthen] bat-const bit-flt-flt n=66000 void:6b9843b0e132aeb3 flt:2671dcc1956bffc3 1100",
    "[ifthen] const-bat bit-flt-flt n=66000 void:6b9843b0e132aeb3 flt:02d9ac77990026cf 1100",
    "[ifthen] synced bit-dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:1bccac572748c952 1100",
    "[ifthen] headjoin bit-dbl-dbl n=57750 oid:38f1911f634cd0d2 dbl:feeedab09fae68df 1100",
    "[ifthen] bat-const bit-dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:1da11e3a92099f83 1100",
    "[ifthen] const-bat bit-dbl-dbl n=66000 void:6b9843b0e132aeb3 dbl:171e74ef5dd545e9 1100",
    "[ifthen] synced bit-date-date n=66000 void:6b9843b0e132aeb3 date:c12724a454b865fc 1100",
    "[ifthen] headjoin bit-date-date n=57750 oid:38f1911f634cd0d2 date:fc9ae0e6cb2d9904 1100",
    "[ifthen] bat-const bit-date-date n=66000 void:6b9843b0e132aeb3 date:86c413820fc196a3 1100",
    "[ifthen] const-bat bit-date-date n=66000 void:6b9843b0e132aeb3 date:ccfda2dc115dd67b 1100",
    "[ifthen] synced bit-bit-bit n=66000 void:6b9843b0e132aeb3 bit:d875ea459fd1d852 1100",
    "[ifthen] headjoin bit-bit-bit n=57750 oid:38f1911f634cd0d2 bit:c12436771b30ad23 1100",
    "[ifthen] bat-const bit-bit-bit n=66000 void:6b9843b0e132aeb3 bit:7cbcaa2905174713 1100",
    "[ifthen] const-bat bit-bit-bit n=66000 void:6b9843b0e132aeb3 bit:b132a315cd7377a7 1100",
    "[ifthen] synced bit-chr-chr n=66000 void:6b9843b0e132aeb3 chr:be51b569a2e7e2f8 1100",
    "[ifthen] headjoin bit-chr-chr n=57750 oid:38f1911f634cd0d2 chr:b915330763994c7c 1100",
    "[ifthen] bat-const bit-chr-chr n=66000 void:6b9843b0e132aeb3 chr:6eaf6e8e147ce3d3 1100",
    "[ifthen] const-bat bit-chr-chr n=66000 void:6b9843b0e132aeb3 chr:f8bad43b64d4dca7 1100",
    "[ifthen] synced bit-str-str n=66000 void:6b9843b0e132aeb3 str:8d2cb5e3ec29ce6c 1100",
    "[ifthen] headjoin bit-str-str n=57750 oid:38f1911f634cd0d2 str:7e2bbb02125b06fa 1100",
    "[ifthen] bat-const bit-str-str n=66000 void:6b9843b0e132aeb3 str:4bd00b6bf0fffd73 1100",
    "[ifthen] const-bat bit-str-str n=66000 void:6b9843b0e132aeb3 str:45894a2c20e3b272 1100",
    "[ifthen] synced bit-str2-str2 n=66000 void:6b9843b0e132aeb3 str:821aa811fd97e07e 1100",
    "[ifthen] headjoin bit-str2-str2 n=57750 oid:38f1911f634cd0d2 str:f93a9301d7e60acf 1100",
    "[ifthen] bat-const bit-str2-str2 n=66000 void:6b9843b0e132aeb3 str:4bd00b6bf0fffd73 1100",
    "[ifthen] const-bat bit-str2-str2 n=66000 void:6b9843b0e132aeb3 str:50f40a9aabadc56b 1100",
    "[ifthen] synced bit-int-dbl n=66000 void:6b9843b0e132aeb3 int:728ef31682ad991b 1100",
    "[ifthen] synced int-int-int error Type error: 'ifthen' needs bit operands, argument 1 is int",
    "[/] synced dbl-int zero error Execution error: division by zero",
    "[/] headjoin dbl-int zero error Execution error: division by zero",
    "[/] bat-const dbl-int zero error Execution error: division by zero",
    "[/] const-bat dbl-int zero error Execution error: division by zero",
    "[+] const-const int-int error Invalid argument: multiplex [+] needs at least one BAT argument",
    "[year] const date error Invalid argument: multiplex [year] needs at least one BAT argument",
    "[*] synced dbl-dbl empty n=0 void:14650fb0739d0383 dbl:14650fb0739d0383 0000",
};

TEST(KernelGoldenTest, EveryMultiplexFunctionIsPinned) {
  SetParallelBlockCap(4);
  const std::vector<std::string> d1 = MxGoldenTable(1);
  const std::vector<std::string> d4 = MxGoldenTable(4);
  SetParallelBlockCap(0);
  const size_t pinned = std::size(kMxGolden);
  EXPECT_EQ(d1.size(), pinned);
  std::string table;
  bool same = d1.size() == pinned && d4.size() == pinned;
  for (size_t i = 0; i < d1.size(); ++i) {
    table += "    \"" + d1[i] + "\",\n";
    if (i < pinned) {
      EXPECT_EQ(d1[i], kMxGolden[i]) << "degree 1";
      same = same && d1[i] == kMxGolden[i];
    }
    if (i < d4.size()) {
      EXPECT_EQ(d4[i], d1[i]) << "degree 4";
    }
  }
  if (!same) ADD_FAILURE() << "current table:\n" << table;
}

}  // namespace
}  // namespace moaflat::kernel
