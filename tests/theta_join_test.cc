#include <gtest/gtest.h>

#include <set>

#include "bat/bat.h"
#include "common/rng.h"
#include "kernel/operators.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;

Bat LeftBat() {
  return Bat(Column::MakeOid({1, 2, 3}), Column::MakeInt({10, 20, 30}));
}
Bat RightBat() {
  return Bat(Column::MakeInt({15, 25}), Column::MakeStr({"a", "b"}));
}

std::multiset<std::pair<Oid, std::string>> Pairs(const Bat& b) {
  std::multiset<std::pair<Oid, std::string>> out;
  for (size_t i = 0; i < b.size(); ++i) {
    out.insert({b.head().OidAt(i), std::string(b.tail().Str(i))});
  }
  return out;
}

TEST(ThetaJoinTest, LessThan) {
  ExecContext ctx;
  Bat out = ThetaJoin(ctx, LeftBat(), RightBat(), CmpOp::kLt).ValueOrDie();
  // b < c: 10<15, 10<25, 20<25.
  EXPECT_EQ(Pairs(out), (std::multiset<std::pair<Oid, std::string>>{
                            {1, "a"}, {1, "b"}, {2, "b"}}));
}

TEST(ThetaJoinTest, GreaterEqualWithTies) {
  ExecContext ctx;
  Bat left(Column::MakeOid({1, 2}), Column::MakeInt({15, 30}));
  Bat out = ThetaJoin(ctx, left, RightBat(), CmpOp::kGe).ValueOrDie();
  // 15>=15; 30>=15, 30>=25.
  EXPECT_EQ(Pairs(out), (std::multiset<std::pair<Oid, std::string>>{
                            {1, "a"}, {2, "a"}, {2, "b"}}));
}

TEST(ThetaJoinTest, NotEqual) {
  ExecContext ctx;
  Bat left(Column::MakeOid({1}), Column::MakeInt({15}));
  Bat out = ThetaJoin(ctx, left, RightBat(), CmpOp::kNe).ValueOrDie();
  EXPECT_EQ(Pairs(out),
            (std::multiset<std::pair<Oid, std::string>>{{1, "b"}}));
}

TEST(ThetaJoinTest, EqDelegatesToEquiJoin) {
  ExecContext ctx;
  Bat left(Column::MakeOid({1}), Column::MakeInt({25}));
  Bat out = ThetaJoin(ctx, left, RightBat(), CmpOp::kEq).ValueOrDie();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.tail().Str(0), "b");
}

TEST(ThetaJoinTest, RandomizedAgainstBruteForce) {
  ExecContext ctx;
  Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    std::vector<Oid> lh;
    std::vector<int32_t> lt, rh;
    std::vector<Oid> rt;
    for (int i = 0; i < 30; ++i) {
      lh.push_back(i);
      lt.push_back(static_cast<int32_t>(rng.Uniform(0, 20)));
    }
    for (int j = 0; j < 25; ++j) {
      rh.push_back(static_cast<int32_t>(rng.Uniform(0, 20)));
      rt.push_back(1000 + j);
    }
    Bat left(Column::MakeOid(lh), Column::MakeInt(lt));
    Bat right(Column::MakeInt(rh), Column::MakeOid(rt));
    for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
      Bat out = ThetaJoin(ctx, left, right, op).ValueOrDie();
      size_t expected = 0;
      for (int32_t b : lt) {
        for (int32_t c : rh) {
          const bool keep = op == CmpOp::kLt   ? b < c
                            : op == CmpOp::kLe ? b <= c
                            : op == CmpOp::kGt ? b > c
                                               : b >= c;
          expected += keep;
        }
      }
      EXPECT_EQ(out.size(), expected)
          << "round " << round << " op " << static_cast<int>(op);
    }
  }
}

TEST(ThetaJoinTest, TailReorderCannotForgeASyncProof) {
  ExecContext ctx;
  // Regression: FinishThetaJoin used to derive the result-head sync key
  // from the operand *heads* alone (the PR 3 SortTail bug class). Two
  // theta-joins over operands sharing one head column but carrying
  // different (e.g. differently reordered) tails then compared sync-equal
  // even though their BUN sequences are unrelated, and downstream
  // dispatch could pick a positional variant on unaligned data.
  Rng rng(53);
  auto heads = Column::MakeOid([] {
    std::vector<Oid> h(64);
    for (size_t i = 0; i < h.size(); ++i) h[i] = i;
    return h;
  }());
  std::vector<int32_t> t1(64), t2(64);
  for (size_t i = 0; i < 64; ++i) {
    t1[i] = static_cast<int32_t>(rng.Uniform(0, 100));
    t2[63 - i] = t1[i];  // the same value set, reordered
  }
  Bat attr1(heads, Column::MakeInt(t1));
  Bat attr2(heads, Column::MakeInt(t2));
  Bat right(Column::MakeInt({25, 50, 75}), Column::MakeOid({1, 2, 3}));

  Bat j1 = ThetaJoin(ctx, attr1, right, CmpOp::kLt).ValueOrDie();
  Bat j2 = ThetaJoin(ctx, attr2, right, CmpOp::kLt).ValueOrDie();
  EXPECT_FALSE(j1.SyncedWith(j2));

  // The same dataflow still proves a positional correspondence...
  Bat again = ThetaJoin(ctx, attr1, right, CmpOp::kLt).ValueOrDie();
  EXPECT_TRUE(j1.SyncedWith(again));

  // ...and a different comparison over identical operands must not.
  Bat j4 = ThetaJoin(ctx, attr1, right, CmpOp::kLe).ValueOrDie();
  EXPECT_FALSE(j1.SyncedWith(j4));
}

TEST(FetchTest, PositionalAccess) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({9, 8, 7}), Column::MakeStr({"x", "y", "z"}));
  Bat pos(Column::MakeVoid(0, 2), Column::MakeOid({2, 0}));
  Bat out = Fetch(ctx, ab, pos).ValueOrDie();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tail().Str(0), "z");
  EXPECT_EQ(out.tail().Str(1), "x");
  Bat bad(Column::MakeVoid(0, 1), Column::MakeOid({5}));
  EXPECT_FALSE(Fetch(ctx, ab, bad).ok());
}

TEST(CountDistinctTest, CountsUniqueTailValues) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3, 4}), Column::MakeInt({7, 7, 9, 7}));
  EXPECT_EQ(CountDistinctTail(ctx, ab).ValueOrDie().AsLng(), 2);
  Bat empty(Column::MakeVoid(0, 0), Column::MakeVoid(0, 0));
  EXPECT_EQ(CountDistinctTail(ctx, empty).ValueOrDie().AsLng(), 0);
}

TEST(HistogramTest, CountsPerDistinctValue) {
  ExecContext ctx;
  Bat ab(Column::MakeOid({1, 2, 3, 4, 5}),
         Column::MakeChr({'R', 'N', 'R', 'R', 'N'}));
  Bat h = Histogram(ctx, ab).ValueOrDie();
  ASSERT_EQ(h.size(), 2u);
  // First-appearance gids: 'R' -> 0 (count 3), 'N' -> 1 (count 2).
  EXPECT_EQ(h.tail().GetValue(0).AsLng(), 3);
  EXPECT_EQ(h.tail().GetValue(1).AsLng(), 2);
}

}  // namespace
}  // namespace moaflat::kernel
