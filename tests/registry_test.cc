// Unit tests for the KernelRegistry: the Section 5.1 dynamic-optimization
// decision table is data now, so every documented operand-property ->
// implementation mapping can be asserted without executing anything, and
// Explain must agree with what actually runs.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "bat/bat.h"
#include "bat/datavector.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"

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

std::string ChosenFor(const std::string& op, const Bat& a) {
  return KernelRegistry::Global().Explain(op, a).chosen;
}
std::string ChosenFor(const std::string& op, const Bat& a, const Bat& b) {
  return KernelRegistry::Global().Explain(op, a, b).chosen;
}

TEST(RegistryTest, RegisteredFamiliesArePresent) {
  auto ops = KernelRegistry::Global().Ops();
  for (const char* op :
       {"select", "join", "semijoin", "group", "group_refine",
        "set_aggregate", "thetajoin", "multiplex"}) {
    EXPECT_NE(std::find(ops.begin(), ops.end(), op), ops.end()) << op;
  }
}

TEST(RegistryTest, TsortedSelectPicksBinsearch) {
  Bat sorted = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40},
                       Properties{true, false, true, true});
  EXPECT_EQ(ChosenFor("select", sorted), "binsearch_select");

  Bat unsorted = AttrBat({1, 2, 3, 4}, {40, 10, 30, 20},
                         Properties{true, false, true, false});
  EXPECT_EQ(ChosenFor("select", unsorted), "scan_select");
}

TEST(RegistryTest, VoidTailSelectFallsBackToScan) {
  // A [oid, void] BAT is tail-sorted by construction but has no tail heap
  // to binary-search.
  Bat voidtail(Column::MakeOid({1, 2, 3}), Column::MakeVoid(0, 3),
               Properties{true, true, true, true});
  EXPECT_EQ(ChosenFor("select", voidtail), "scan_select");
}

TEST(RegistryTest, SyncedSemijoinPicksSync) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  // Share the head column: sync keys equal -> synced.
  Bat cd(ab.head_col(), Column::MakeInt({7, 8, 9}));
  ASSERT_TRUE(ab.SyncedWith(cd));
  EXPECT_EQ(ChosenFor("semijoin", ab, cd), "sync_semijoin");
}

TEST(RegistryTest, DatavectorSemijoinPicksDatavector) {
  std::vector<Oid> oids(8);
  std::iota(oids.begin(), oids.end(), Oid{1});
  ColumnPtr extent = Column::MakeOid(oids);
  ColumnPtr values = Column::MakeInt({5, 3, 8, 1, 9, 2, 7, 4});
  Bat attr(extent, values, Properties{true, false, true, false});
  attr.SetDatavector(std::make_shared<bat::Datavector>(extent, values));

  Bat sel(Column::MakeOid({2, 5}), Column::MakeVoid(0, 2),
          Properties{true, false, true, true});
  EXPECT_EQ(ChosenFor("semijoin", attr, sel), "datavector_semijoin");

  // A non-oid right head disqualifies the datavector path.
  Bat non_oid(Column::MakeInt({2, 5}), Column::MakeVoid(0, 2));
  EXPECT_EQ(ChosenFor("semijoin", attr, non_oid), "hash_semijoin");
}

TEST(RegistryTest, SortedHeadsSemijoinPicksMerge) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30}, Properties{true, false, true, false});
  Bat cd = AttrBat({2, 3}, {0, 0}, Properties{true, false, true, false});
  EXPECT_EQ(ChosenFor("semijoin", ab, cd), "merge_semijoin");

  Bat unsorted = AttrBat({3, 2}, {0, 0});
  EXPECT_EQ(ChosenFor("semijoin", ab, unsorted), "hash_semijoin");
}

TEST(RegistryTest, JoinDecisionTable) {
  // Aligned join columns (shared void tail/head base) -> fetch_join.
  Bat left(Column::MakeOid({9, 8, 7}), Column::MakeVoid(0, 3));
  Bat right(Column::MakeVoid(0, 3), Column::MakeInt({1, 2, 3}));
  EXPECT_EQ(ChosenFor("join", left, right), "fetch_join");

  // tsorted x hsorted -> merge_join.
  Bat lsorted = AttrBat({1, 2, 3}, {10, 20, 30},
                        Properties{true, false, false, true});
  Bat rsorted(Column::MakeInt({10, 20, 30}), Column::MakeOid({5, 6, 7}),
              Properties{true, false, true, false});
  EXPECT_EQ(ChosenFor("join", lsorted, rsorted), "merge_join");

  // Hashed (or hashable) unsorted head -> hash_join.
  Bat lplain = AttrBat({1, 2, 3}, {30, 10, 20});
  Bat rplain(Column::MakeInt({10, 20, 30}), Column::MakeOid({5, 6, 7}));
  rplain.EnsureHeadHash();
  EXPECT_EQ(ChosenFor("join", lplain, rplain), "hash_join");
}

TEST(RegistryTest, GroupRefineSyncVsHash) {
  Bat grouped = AttrBat({1, 2, 3}, {0, 0, 1});
  Bat synced(grouped.head_col(), Column::MakeInt({5, 5, 6}));
  ASSERT_TRUE(grouped.SyncedWith(synced));
  EXPECT_EQ(ChosenFor("group_refine", grouped, synced), "sync_group_refine");

  Bat other = AttrBat({3, 2, 1}, {6, 5, 5});
  EXPECT_EQ(ChosenFor("group_refine", grouped, other), "hash_group_refine");
}

TEST(RegistryTest, SetAggregateRunVsHash) {
  Bat sorted_groups = AttrBat({0, 0, 1, 1}, {1, 2, 3, 4},
                              Properties{false, false, true, false});
  EXPECT_EQ(ChosenFor("set_aggregate", sorted_groups), "run_set_aggregate");

  Bat scattered = AttrBat({1, 0, 1, 0}, {1, 2, 3, 4});
  EXPECT_EQ(ChosenFor("set_aggregate", scattered), "hash_set_aggregate");

  // Both produce identical results (groups ascending by oid).
  ExecContext ctx;
  Bat a = SetAggregate(ctx, AggKind::kSum, sorted_groups).ValueOrDie();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.head().OidAt(0), 0u);
  EXPECT_EQ(a.tail().NumAt(0), 3.0);
  EXPECT_EQ(a.head().OidAt(1), 1u);
  EXPECT_EQ(a.tail().NumAt(1), 7.0);
}

TEST(RegistryTest, ExplainAgreesWithTracedExecution) {
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithTracer(&tracer);

  Bat sorted = AttrBat({1, 2, 3, 4}, {10, 20, 30, 40},
                       Properties{true, false, true, true});
  const std::string predicted = ChosenFor("select", sorted);
  ASSERT_TRUE(Select(ctx, sorted, Value::Int(30)).ok());
  ASSERT_FALSE(tracer.records.empty());
  EXPECT_EQ(tracer.records.back().impl, predicted);
}

TEST(RegistryTest, ExplainRendersAllCandidatesWithCosts) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30},
                   Properties{true, false, true, true});
  auto ex = KernelRegistry::Global().Explain("select", ab);
  ASSERT_EQ(ex.candidates.size(), 2u);
  EXPECT_EQ(ex.chosen, "binsearch_select");
  EXPECT_TRUE(ex.candidates[0].chosen);
  EXPECT_TRUE(ex.candidates[0].applicable);
  EXPECT_TRUE(ex.candidates[1].applicable);  // scan always applies
  EXPECT_LT(ex.candidates[0].cost, ex.candidates[1].cost);
  const std::string s = ex.ToString();
  EXPECT_NE(s.find("binsearch_select"), std::string::npos) << s;
  EXPECT_NE(s.find("scan_select"), std::string::npos) << s;
  EXPECT_NE(s.find("->"), std::string::npos) << s;
}

TEST(RegistryTest, InapplicableVariantsNeverReadAsCheapest) {
  // Regression: Explain used to report cost = 0 for vetoed variants, so
  // any consumer sorting the decision table by cost saw the inapplicable
  // rows as the cheapest. They must carry an infinite cost and render `-`.
  Bat unsorted = AttrBat({1, 2, 3}, {40, 10, 30},
                         Properties{true, false, true, false});
  auto ex = KernelRegistry::Global().Explain("select", unsorted);
  ASSERT_EQ(ex.candidates.size(), 2u);
  EXPECT_EQ(ex.chosen, "scan_select");
  bool saw_inapplicable = false;
  double chosen_cost = 0;
  for (const auto& c : ex.candidates) {
    if (c.chosen) chosen_cost = c.cost;
  }
  for (const auto& c : ex.candidates) {
    if (c.applicable) {
      EXPECT_TRUE(std::isfinite(c.cost)) << c.name;
      EXPECT_LE(chosen_cost, c.cost) << c.name;
    } else {
      saw_inapplicable = true;
      EXPECT_TRUE(std::isinf(c.cost)) << c.name;
      EXPECT_FALSE(c.chosen) << c.name;
    }
  }
  ASSERT_TRUE(saw_inapplicable);  // binsearch is vetoed on unsorted tails
  const std::string s = ex.ToString();
  EXPECT_NE(s.find("cost=-"), std::string::npos) << s;
  EXPECT_NE(s.find("(inapplicable)"), std::string::npos) << s;
}

TEST(RegistryTest, ThetaJoinDispatchesThroughRegisteredVariants) {
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat cd(Column::MakeInt({15, 25}), Column::MakeOid({7, 8}));
  auto& reg = KernelRegistry::Global();

  DispatchInput in = MakeInput(ab, cd);
  in.param = OpParam{static_cast<int64_t>(CmpOp::kLt)};
  EXPECT_EQ(reg.Explain("thetajoin", in).chosen, "sort_band_thetajoin");

  in.param->code = static_cast<int64_t>(CmpOp::kNe);
  EXPECT_EQ(reg.Explain("thetajoin", in).chosen, "nested_thetajoin");

  // Without the operator parameter no variant may claim the input.
  in.param.reset();
  EXPECT_TRUE(reg.Explain("thetajoin", in).chosen.empty());

  // Explain agrees with what actually runs.
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithTracer(&tracer);
  ASSERT_TRUE(ThetaJoin(ctx, ab, cd, CmpOp::kLt).ok());
  ASSERT_FALSE(tracer.records.empty());
  EXPECT_EQ(tracer.records.back().impl, "sort_band_thetajoin");
  ASSERT_TRUE(ThetaJoin(ctx, ab, cd, CmpOp::kNe).ok());
  EXPECT_EQ(tracer.records.back().impl, "nested_thetajoin");
}

TEST(RegistryTest, MultiplexDispatchesThroughRegisteredVariants) {
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithTracer(&tracer);

  // Synced numeric binary arithmetic takes the synced typed loop.
  Bat a = AttrBat({1, 2, 3}, {10, 20, 30});
  Bat b(a.head_col(), Column::MakeInt({2, 4, 6}));
  ASSERT_TRUE(a.SyncedWith(b));
  ASSERT_TRUE(Multiplex(ctx, *FindScalarFn("*"), {a, b}).ok());
  EXPECT_EQ(tracer.records.back().impl, "multiplex_synced");

  // So does a unary function over one BAT.
  ASSERT_TRUE(Multiplex(ctx, *FindScalarFn("year"),
                        {Bat(Column::MakeOid({1}),
                             Column::MakeDate({Date::FromYmd(1995, 6, 1)}))})
                  .ok());
  EXPECT_EQ(tracer.records.back().impl, "multiplex_synced");

  // Unsynced operands align over the head hash accelerators.
  Bat c(Column::MakeOid({3, 2, 1}), Column::MakeInt({5, 5, 5}));
  ASSERT_TRUE(Multiplex(ctx, *FindScalarFn("+"), {a, c}).ok());
  EXPECT_EQ(tracer.records.back().impl, "multiplex_headjoin");
}

TEST(RegistryTest, BinaryFamiliesRejectUnaryInput) {
  // Explaining a binary operator with a single operand must not touch
  // in.right: no variant applies, nothing is chosen, nothing crashes.
  Bat ab = AttrBat({1, 2, 3}, {10, 20, 30});
  for (const char* op : {"join", "semijoin", "group_refine"}) {
    auto ex = KernelRegistry::Global().Explain(op, ab);
    EXPECT_TRUE(ex.chosen.empty()) << op;
    for (const auto& c : ex.candidates) EXPECT_FALSE(c.applicable) << op;
  }
}

TEST(RegistryTest, PrebuiltHashDiscountsHashJoinCost) {
  Bat l = AttrBat({1, 2, 3}, {30, 10, 20});
  Bat r(Column::MakeInt({10, 20, 30}), Column::MakeOid({5, 6, 7}));
  auto& reg = KernelRegistry::Global();
  auto cost_of = [&](const KernelRegistry::Explanation& ex) {
    for (const auto& c : ex.candidates) {
      if (c.name == "hash_join") return c.cost;
    }
    return -1.0;
  };
  const double cold = cost_of(reg.Explain("join", l, r));
  r.EnsureHeadHash();
  const double warm = cost_of(reg.Explain("join", l, r));
  EXPECT_LT(warm, cold);
  EXPECT_EQ(reg.Explain("join", l, r).chosen, "hash_join");
}

TEST(RegistryTest, UnknownOpHasNoChoice) {
  Bat ab = AttrBat({1}, {1});
  auto ex = KernelRegistry::Global().Explain("frobnicate", ab);
  EXPECT_TRUE(ex.chosen.empty());
  EXPECT_TRUE(ex.candidates.empty());
  EXPECT_EQ(KernelRegistry::Global().VariantsOf("frobnicate"), nullptr);
}

TEST(RegistryTest, CustomRegistryDispatch) {
  // The registry is usable standalone: register a variant in a private
  // registry and dispatch through it.
  KernelRegistry reg;
  reg.Register<UnaryImplSig>(
      "echo", "echo_impl", [](const DispatchInput&) { return true; },
      [](const DispatchInput&) { return 1.0; },
      std::function<UnaryImplSig>(
          [](const ExecContext&, const Bat& ab, OpRecorder& rec) -> Result<Bat> {
            rec.Finish("echo_impl", ab.size());
            return ab;
          }),
      "identity");
  Bat ab = AttrBat({1, 2}, {3, 4});
  ExecContext ctx;
  OpRecorder rec(ctx, "echo");
  auto out = reg.Dispatch<UnaryImplSig>("echo", MakeInput(ab), ctx, ab, rec);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);

  // Dispatching with a mismatched signature is a clean error, not UB.
  OpRecorder rec2(ctx, "echo");
  auto bad = reg.Dispatch<BinaryImplSig>("echo", MakeInput(ab, ab), ctx, ab,
                                         ab, rec2);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace moaflat::kernel
