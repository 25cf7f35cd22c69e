// Property sweep for the Date calendar type: round trips, ordering and
// arithmetic across a wide span of the proleptic Gregorian calendar,
// including the TPC-D era the queries depend on.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "kernel/cost_model.h"

namespace moaflat {
namespace {

class DateSweep : public ::testing::TestWithParam<int> {};

TEST_P(DateSweep, RoundTripThroughYmd) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const int32_t days = static_cast<int32_t>(rng.Uniform(-200000, 200000));
    const Date d(days);
    const Date back = Date::FromYmd(d.Year(), d.Month(), d.Day());
    ASSERT_EQ(back.days(), days) << d.ToString();
  }
}

TEST_P(DateSweep, RoundTripThroughText) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 200; ++i) {
    const int32_t days = static_cast<int32_t>(rng.Uniform(0, 20000));
    const Date d(days);
    Date parsed;
    ASSERT_TRUE(Date::Parse(d.ToString(), &parsed)) << d.ToString();
    ASSERT_EQ(parsed, d);
  }
}

TEST_P(DateSweep, OrderingIsConsistentWithDayNumbers) {
  Rng rng(GetParam() + 200);
  for (int i = 0; i < 200; ++i) {
    const Date a(static_cast<int32_t>(rng.Uniform(0, 20000)));
    const Date b(static_cast<int32_t>(rng.Uniform(0, 20000)));
    ASSERT_EQ(a < b, a.days() < b.days());
    ASSERT_EQ(a == b, a.days() == b.days());
  }
}

TEST_P(DateSweep, AddDaysIsConsistent) {
  Rng rng(GetParam() + 300);
  for (int i = 0; i < 200; ++i) {
    const Date a(static_cast<int32_t>(rng.Uniform(0, 20000)));
    const int n = static_cast<int>(rng.Uniform(-400, 400));
    ASSERT_EQ(a.AddDays(n).days(), a.days() + n);
    ASSERT_EQ(a.AddDays(n).AddDays(-n), a);
  }
}

TEST_P(DateSweep, CalendarFieldsInRange) {
  Rng rng(GetParam() + 400);
  for (int i = 0; i < 500; ++i) {
    const Date d(static_cast<int32_t>(rng.Uniform(-100000, 100000)));
    ASSERT_GE(d.Month(), 1);
    ASSERT_LE(d.Month(), 12);
    ASSERT_GE(d.Day(), 1);
    ASSERT_LE(d.Day(), 31);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DateSweep, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

TEST(DateKnownValuesTest, TpcdEraAnchors) {
  EXPECT_EQ(Date::FromYmd(1992, 1, 1).ToString(), "1992-01-01");
  EXPECT_EQ(Date::FromYmd(1998, 8, 2).ToString(), "1998-08-02");
  EXPECT_EQ(Date::FromYmd(1995, 6, 17).ToString(), "1995-06-17");
  // The TPC-D order-date window is 2405 days wide.
  EXPECT_EQ(Date::FromYmd(1998, 8, 2).days() -
                Date::FromYmd(1992, 1, 1).days(),
            2405);
}

class CostModelSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CostModelSweep, ModelIsMonotoneInSelectivity) {
  const auto [n, p] = GetParam();
  kernel::CostModelParams params;
  params.n = n;
  kernel::CostModel m(params);
  double prev_rel = -1, prev_dv = -1;
  for (double s = 0.0005; s <= 0.05; s *= 1.5) {
    const double rel = m.ERel(s);
    const double dv = m.EDv(s, p);
    ASSERT_GE(rel, prev_rel);
    ASSERT_GE(dv, prev_dv);
    prev_rel = rel;
    prev_dv = dv;
  }
}

TEST_P(CostModelSweep, DecomposedWinsAtHighSelectivityWhenPSmall) {
  const auto [n, p] = GetParam();
  kernel::CostModelParams params;
  params.n = n;
  kernel::CostModel m(params);
  // When projecting fewer attributes than the table holds, the thin
  // tables must win for large enough selectivity.
  if (p + 1 < n) {
    EXPECT_LT(m.EDv(0.2, p), m.ERel(0.2)) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CostModelSweep,
    ::testing::Combine(::testing::Values(8, 16, 32),
                       ::testing::Values(1, 3, 6, 12)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& pinfo) {
      return "n" + std::to_string(std::get<0>(pinfo.param)) + "_p" +
             std::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace moaflat
