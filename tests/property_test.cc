// Property-based suites: every kernel operator is checked against a
// brute-force oracle on randomized BATs, across a parameter sweep of
// sizes, value ranges and property configurations (sorted/unsorted,
// keyed/duplicated). Each run also re-validates the *declared* result
// properties against the data — the Section 5.1 property management must
// never claim an ordering or keyness that does not hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bat/bat.h"
#include "common/rng.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;

struct Config {
  uint64_t seed;
  size_t size;
  int64_t value_range;  // small range -> many duplicates
  bool tail_sorted;

  std::string Name() const {
    return "s" + std::to_string(seed) + "_n" + std::to_string(size) +
           "_r" + std::to_string(value_range) +
           (tail_sorted ? "_sorted" : "_unsorted");
  }
};

/// Builds a randomized attribute BAT [oid, int] with unique sorted heads.
Bat MakeRandomAttr(const Config& cfg, uint64_t salt) {
  Rng rng(cfg.seed * 7919 + salt);
  std::vector<Oid> heads(cfg.size);
  std::vector<int32_t> tails(cfg.size);
  Oid next = 1;
  for (size_t i = 0; i < cfg.size; ++i) {
    next += 1 + (rng.Next() % 3);
    heads[i] = next;
    tails[i] = static_cast<int32_t>(rng.Uniform(0, cfg.value_range));
  }
  if (cfg.tail_sorted) std::sort(tails.begin(), tails.end());
  Bat b(Column::MakeOid(heads), Column::MakeInt(tails),
        bat::Properties{true, false, true, cfg.tail_sorted});
  return b;
}

std::multiset<std::pair<Oid, int32_t>> AsPairs(const Bat& b) {
  std::multiset<std::pair<Oid, int32_t>> out;
  for (size_t i = 0; i < b.size(); ++i) {
    out.insert({b.head().OidAt(i), static_cast<int32_t>(b.tail().NumAt(i))});
  }
  return out;
}

class KernelProperty : public ::testing::TestWithParam<Config> {};

TEST_P(KernelProperty, SelectMatchesBruteForce) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 1);
  const int32_t lo = static_cast<int32_t>(cfg.value_range / 4);
  const int32_t hi = static_cast<int32_t>(3 * cfg.value_range / 4);

  Bat out = SelectRange(ctx, ab, Value::Int(lo), Value::Int(hi)).ValueOrDie();
  std::multiset<std::pair<Oid, int32_t>> expected;
  for (size_t i = 0; i < ab.size(); ++i) {
    const int32_t v = static_cast<int32_t>(ab.tail().NumAt(i));
    if (v >= lo && v <= hi) expected.insert({ab.head().OidAt(i), v});
  }
  EXPECT_EQ(AsPairs(out), expected);
  EXPECT_TRUE(out.Validate().ok()) << out.props().ToString();
}

TEST_P(KernelProperty, SelectCmpPartitionsTheBat) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 2);
  const Value pivot = Value::Int(static_cast<int32_t>(cfg.value_range / 2));
  const size_t lt = SelectCmp(ctx, ab, CmpOp::kLt, pivot).ValueOrDie().size();
  const size_t eq = Select(ctx, ab, pivot).ValueOrDie().size();
  const size_t gt = SelectCmp(ctx, ab, CmpOp::kGt, pivot).ValueOrDie().size();
  const size_t ne = SelectCmp(ctx, ab, CmpOp::kNe, pivot).ValueOrDie().size();
  EXPECT_EQ(lt + eq + gt, ab.size());
  EXPECT_EQ(ne + eq, ab.size());
}

TEST_P(KernelProperty, JoinMatchesNestedLoop) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 3);
  // CD: [int-key, payload] derived from a second random BAT, mirrored so
  // its head carries the join values.
  Bat cd_src = MakeRandomAttr(cfg, 4);
  Bat cd = cd_src.Mirror();

  Bat out = Join(ctx, ab, cd).ValueOrDie();
  std::multiset<std::pair<Oid, int32_t>> expected;
  for (size_t i = 0; i < ab.size(); ++i) {
    for (size_t j = 0; j < cd.size(); ++j) {
      if (ab.tail().NumAt(i) == cd.head().NumAt(j)) {
        expected.insert({ab.head().OidAt(i),
                         static_cast<int32_t>(cd.tail().NumAt(j))});
      }
    }
  }
  std::multiset<std::pair<Oid, int32_t>> actual;
  for (size_t i = 0; i < out.size(); ++i) {
    actual.insert({out.head().OidAt(i),
                   static_cast<int32_t>(out.tail().NumAt(i))});
  }
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(out.Validate().ok()) << out.props().ToString();
}

TEST_P(KernelProperty, SemijoinMatchesBruteForce) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 5);
  // Right operand: every third head of ab plus some misses.
  std::vector<Oid> keys;
  for (size_t i = 0; i < ab.size(); i += 3) keys.push_back(ab.head().OidAt(i));
  keys.push_back(999999999);
  Bat cd(Column::MakeOid(keys), Column::MakeVoid(0, keys.size()));

  Bat out = Semijoin(ctx, ab, cd).ValueOrDie();
  std::set<Oid> right;
  for (Oid k : keys) right.insert(k);
  std::multiset<std::pair<Oid, int32_t>> expected;
  for (size_t i = 0; i < ab.size(); ++i) {
    if (right.count(ab.head().OidAt(i))) {
      expected.insert({ab.head().OidAt(i),
                       static_cast<int32_t>(ab.tail().NumAt(i))});
    }
  }
  EXPECT_EQ(AsPairs(out), expected);
  EXPECT_TRUE(out.Validate().ok());

  // Diff is the exact complement.
  Bat anti = Diff(ctx, ab, cd).ValueOrDie();
  EXPECT_EQ(out.size() + anti.size(), ab.size());
}

TEST_P(KernelProperty, DatavectorSemijoinAgreesWithHashSemijoin) {
  ExecContext ctx;
  const Config cfg = GetParam();
  // Build an attribute family: oid-ordered values + tail-sorted BAT with
  // a datavector, exactly as the loader does.
  Rng rng(cfg.seed);
  std::vector<Oid> oids(cfg.size);
  std::vector<int32_t> vals(cfg.size);
  for (size_t i = 0; i < cfg.size; ++i) {
    oids[i] = 1000 + i;
    vals[i] = static_cast<int32_t>(rng.Uniform(0, cfg.value_range));
  }
  auto extent = Column::MakeOid(oids);
  auto values = Column::MakeInt(vals);
  Bat oid_ordered(extent, values, bat::Properties{true, false, true, false});
  Bat sorted = SortTail(ctx, oid_ordered).ValueOrDie();
  Bat with_dv = sorted;
  with_dv.SetDatavector(std::make_shared<bat::Datavector>(extent, values));

  std::vector<Oid> sel;
  for (size_t i = 0; i < cfg.size; i += 2) sel.push_back(oids[i]);
  Bat right(Column::MakeOid(sel), Column::MakeVoid(0, sel.size()),
            bat::Properties{true, false, true, false});

  Bat via_dv = Semijoin(ctx, with_dv, right).ValueOrDie();
  Bat via_hash = Semijoin(ctx, sorted, right).ValueOrDie();
  EXPECT_EQ(AsPairs(via_dv), AsPairs(via_hash));
  EXPECT_TRUE(via_dv.Validate().ok());
}

TEST_P(KernelProperty, SortIsPermutationAndSorted) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 6);
  Bat out = SortTail(ctx, ab).ValueOrDie();
  EXPECT_EQ(out.size(), ab.size());
  EXPECT_EQ(AsPairs(out), AsPairs(ab));
  EXPECT_TRUE(out.tail().ComputeSorted());
  EXPECT_TRUE(out.Validate().ok());
}

TEST_P(KernelProperty, TopNAgreesWithSortSlice) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 7);
  const size_t n = std::min<size_t>(5, ab.size());
  Bat top = TopN(ctx, ab, n, /*descending=*/false).ValueOrDie();
  Bat sorted = SortTail(ctx, ab).ValueOrDie();
  Bat sliced = Slice(ctx, sorted, 0, n).ValueOrDie();
  // Tail values must agree (head ties may be ordered differently).
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(top.tail().NumAt(i), sliced.tail().NumAt(i)) << i;
  }
}

TEST_P(KernelProperty, GroupIsEquivalenceRelation) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 8);
  Bat g = Group(ctx, ab).ValueOrDie();
  ASSERT_EQ(g.size(), ab.size());
  for (size_t i = 0; i < ab.size(); ++i) {
    for (size_t j = 0; j < std::min(ab.size(), i + 20); ++j) {
      const bool same_value = ab.tail().NumAt(i) == ab.tail().NumAt(j);
      const bool same_gid = g.tail().OidAt(i) == g.tail().OidAt(j);
      EXPECT_EQ(same_value, same_gid) << i << "," << j;
    }
  }
}

TEST_P(KernelProperty, SetAggregateSumMatchesBruteForce) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 9);
  Bat g = Group(ctx, ab).ValueOrDie();
  Bat grouped = Bat(g.tail_col(), ab.tail_col());  // [gid, value]
  Bat sums = SetAggregate(ctx, AggKind::kSum, grouped).ValueOrDie();

  std::map<Oid, double> expected;
  for (size_t i = 0; i < grouped.size(); ++i) {
    expected[grouped.head().OidAt(i)] += grouped.tail().NumAt(i);
  }
  ASSERT_EQ(sums.size(), expected.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_DOUBLE_EQ(sums.tail().NumAt(i),
                     expected[sums.head().OidAt(i)]);
  }
  // Scalar sum equals the sum over groups.
  double total_groups = 0;
  for (size_t i = 0; i < sums.size(); ++i) {
    total_groups += sums.tail().NumAt(i);
  }
  const double total =
      ScalarAggregate(ctx, AggKind::kSum, ab).ValueOrDie().AsDbl();
  EXPECT_NEAR(total, total_groups, 1e-6 * std::max(1.0, std::fabs(total)));
}

TEST_P(KernelProperty, UniqueIsIdempotentSetSemantics) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 10);
  // Duplicate the BUNs to force dedup work.
  Bat doubled = Append(ctx, ab, ab).ValueOrDie();
  Bat u1 = Unique(ctx, doubled).ValueOrDie();
  Bat u2 = Unique(ctx, u1).ValueOrDie();
  EXPECT_EQ(u1.size(), u2.size());
  std::set<std::pair<Oid, int32_t>> distinct;
  for (size_t i = 0; i < ab.size(); ++i) {
    distinct.insert({ab.head().OidAt(i),
                     static_cast<int32_t>(ab.tail().NumAt(i))});
  }
  EXPECT_EQ(u1.size(), distinct.size());
}

TEST_P(KernelProperty, MirrorIsAnInvolution) {
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 11);
  Bat mm = ab.Mirror().Mirror();
  EXPECT_EQ(mm.head_col().get(), ab.head_col().get());
  EXPECT_EQ(mm.tail_col().get(), ab.tail_col().get());
  EXPECT_EQ(mm.props().hkey, ab.props().hkey);
  EXPECT_EQ(mm.props().tsorted, ab.props().tsorted);
}

TEST_P(KernelProperty, MultiplexArithMatchesRowAtATime) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat a = MakeRandomAttr(cfg, 12);
  Bat b = Bat(a.head_col(),
              MakeRandomAttr(cfg, 13).tail_col());  // synced with a
  Bat out = Multiplex(ctx, *FindScalarFn("+"), {a, b}).ValueOrDie();
  ASSERT_EQ(out.size(), a.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.tail().NumAt(i),
                     a.tail().NumAt(i) + b.tail().NumAt(i));
  }
  EXPECT_TRUE(out.SyncedWith(a));
}

TEST_P(KernelProperty, UnionDiffIntersectAlgebra) {
  ExecContext ctx;
  const Config cfg = GetParam();
  Bat ab = MakeRandomAttr(cfg, 14);
  const size_t half = ab.size() / 2;
  Bat left = Slice(ctx, ab, 0, half + half / 2).ValueOrDie();  // overlaps right
  Bat right = Slice(ctx, ab, half, ab.size()).ValueOrDie();
  Bat uni = Union(ctx, left, right).ValueOrDie();
  Bat inter = Intersect(ctx, left, right).ValueOrDie();
  Bat diff = Diff(ctx, left, right).ValueOrDie();
  // |A u B| = |A| + |B| - |A n B| for keyed heads.
  EXPECT_EQ(uni.size(), left.size() + right.size() - inter.size());
  EXPECT_EQ(diff.size() + inter.size(), left.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelProperty,
    ::testing::Values(Config{1, 0, 100, false}, Config{2, 1, 10, true},
                      Config{3, 64, 8, false}, Config{4, 64, 8, true},
                      Config{5, 257, 1000000, false},
                      Config{6, 257, 1000000, true},
                      Config{7, 1024, 37, false}, Config{8, 1024, 37, true},
                      Config{9, 4096, 500, false},
                      Config{10, 4096, 500, true}),
    [](const ::testing::TestParamInfo<Config>& pinfo) {
      return pinfo.param.Name();
    });

}  // namespace
}  // namespace moaflat::kernel
