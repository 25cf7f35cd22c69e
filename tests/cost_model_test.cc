// Unit and property tests for the Section 5.2.2 page-fault cost model
// (kernel/cost_model.h), including the regression for the wide-row
// capacity truncation: for (n+1)*w > B the old CRel() was 0 and ERel()
// divided by zero, poisoning every dispatch decision with inf/NaN.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "kernel/cost_model.h"

namespace moaflat::kernel {
namespace {

TEST(CostModelBugfixTest, WideRowsClampCapacitiesToOneRowPerPage) {
  // A 2048-ary table of 4-byte values: one row spans two 4096-byte pages.
  CostModel m(CostModelParams{6000000, 2048, 4, 4096});
  EXPECT_EQ(m.CRel(), 1);  // was 4096/((2048+1)*4) == 0
  for (double s : {0.0, 1e-6, 0.001, 0.01, 0.5, 1.0}) {
    EXPECT_TRUE(std::isfinite(m.ERel(s))) << "s=" << s;
    EXPECT_GE(m.ERel(s), 0.0) << "s=" << s;
  }
}

TEST(CostModelBugfixTest, HugeValueWidthClampsEveryCapacity) {
  // w > B: a single value spans pages; every capacity must stay >= 1 and
  // every estimate finite.
  CostModel m(CostModelParams{1000, 4, 8192, 4096});
  EXPECT_EQ(m.CInv(), 1);
  EXPECT_EQ(m.CRel(), 1);
  EXPECT_EQ(m.CBat(), 1);
  EXPECT_EQ(m.CDv(), 1);
  EXPECT_TRUE(std::isfinite(m.EDv(0.3, 12)));
  EXPECT_TRUE(std::isfinite(m.Crossover(3)));
}

TEST(CostModelPropertyTest, ERelAndEDvMonotoneNonDecreasingInS) {
  Rng rng(20260728);
  for (int round = 0; round < 50; ++round) {
    CostModelParams p;
    p.X = static_cast<int64_t>(rng.Uniform(1, 10000000));
    p.n = static_cast<int>(rng.Uniform(1, 64));
    p.w = static_cast<int>(rng.Uniform(1, 64));
    p.B = static_cast<int>(rng.Uniform(64, 16384));
    CostModel m(p);
    const int proj = static_cast<int>(rng.Uniform(0, 16));
    double prev_rel = -1, prev_dv = -1;
    for (double s = 0.0; s <= 1.0; s += 0.02) {
      const double e_rel = m.ERel(s);
      const double e_dv = m.EDv(s, proj);
      EXPECT_GE(e_rel, prev_rel) << "round " << round << " s=" << s;
      EXPECT_GE(e_dv, prev_dv) << "round " << round << " s=" << s;
      prev_rel = e_rel;
      prev_dv = e_dv;
    }
  }
}

TEST(CostModelPropertyTest, NoNanOrInfOverRandomizedParameterGrid) {
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    CostModelParams p;
    p.X = static_cast<int64_t>(rng.Uniform(0, 10000000));
    p.n = static_cast<int>(rng.Uniform(0, 4096));
    p.w = static_cast<int>(rng.Uniform(1, 16384));
    p.B = static_cast<int>(rng.Uniform(1, 16384));
    CostModel m(p);
    const double s = rng.Uniform(0, 1000) / 1000.0;
    const int proj = static_cast<int>(rng.Uniform(0, 32));
    for (double v : {m.ERel(s), m.EDv(s, proj)}) {
      ASSERT_TRUE(std::isfinite(v))
          << "X=" << p.X << " n=" << p.n << " w=" << p.w << " B=" << p.B
          << " s=" << s << " p=" << proj;
      ASSERT_GE(v, 0.0);
    }
  }
}

TEST(CostModelPropertyTest, CrossoverAgreesWithBruteForceSignScan) {
  // Deterministic parameter sets spanning the paper's regime, a small
  // instance, and the wide-row clamp regime.
  const CostModelParams grid[] = {
      {6000000, 16, 4, 4096},  // the paper's Item table
      {6000000, 8, 4, 4096},   {400000, 16, 4, 4096},
      {1000000, 32, 8, 8192},  {6000000, 2048, 4, 4096},
  };
  constexpr double kLo = 1e-7, kHi = 0.25;
  constexpr int kSteps = 4000;
  constexpr double kStep = (kHi - kLo) / kSteps;
  for (const CostModelParams& p : grid) {
    CostModel m(p);
    for (int proj : {1, 3, 6, 12}) {
      auto diff = [&](double s) { return m.EDv(s, proj) - m.ERel(s); };
      const double r = m.Crossover(proj, kHi);
      if (r < 0) {
        // Bisection reports "no crossing" iff the endpoints agree in sign.
        EXPECT_GT(diff(kLo) * diff(kHi), 0.0) << "p=" << proj;
        continue;
      }
      EXPECT_GE(r, kLo);
      EXPECT_LE(r, kHi);
      // A brute-force scan must see the sign change in the bracket the
      // bisection converged into.
      const double lo = std::max(kLo, r - kStep);
      const double hi = std::min(kHi, r + kStep);
      EXPECT_LE(diff(lo) * diff(hi), 0.0)
          << "n=" << p.n << " p=" << proj << " r=" << r;
    }
  }
}

TEST(PageGeometryTest, HeapPagesBasics) {
  EXPECT_EQ(HeapPages(0, 4), 0.0);      // empty heap
  EXPECT_EQ(HeapPages(100, 0), 0.0);    // void column: no storage
  EXPECT_EQ(HeapPages(1, 4), 1.0);
  EXPECT_EQ(HeapPages(1024, 4), 1.0);   // exactly one 4096-byte page
  EXPECT_EQ(HeapPages(1025, 4), 2.0);
  EXPECT_EQ(HeapPages(1, 8192), 2.0);   // one value wider than a page
}

TEST(PageGeometryTest, RandomFetchPagesBoundedAndMonotone) {
  const uint64_t rows = 1 << 20;
  double prev = 0;
  for (double k : {0.0, 1.0, 100.0, 10000.0, 1e6, 2e6}) {
    const double pages = RandomFetchPages(rows, 4, k);
    EXPECT_GE(pages, prev);
    EXPECT_LE(pages, HeapPages(rows, 4));
    prev = pages;
  }
  // Fetching every row touches every page.
  EXPECT_DOUBLE_EQ(RandomFetchPages(rows, 4, static_cast<double>(rows)),
                   HeapPages(rows, 4));
}

TEST(PageGeometryTest, BinarySearchPagesIsLogarithmic) {
  EXPECT_EQ(BinarySearchPages(0, 4), 0.0);
  EXPECT_EQ(BinarySearchPages(10, 4), 1.0);
  const double big = BinarySearchPages(1 << 22, 4);  // 4096 pages
  EXPECT_GE(big, 12.0);
  EXPECT_LE(big, 13.0);
  EXPECT_LT(big, HeapPages(1 << 22, 4));
}

}  // namespace
}  // namespace moaflat::kernel
