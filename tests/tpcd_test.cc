#include <gtest/gtest.h>

#include <cmath>

#include "kernel/cost_model.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"

namespace moaflat::tpcd {
namespace {

using kernel::CostModel;
using kernel::CostModelParams;

// ------------------------------------------------------------- generator

TEST(GeneratorTest, DeterministicInSeed) {
  TpcdData a = Generate(0.001, 7);
  TpcdData b = Generate(0.001, 7);
  ASSERT_EQ(a.items.size(), b.items.size());
  EXPECT_EQ(a.orders[0].clerk, b.orders[0].clerk);
  EXPECT_EQ(a.items[0].extendedprice, b.items[0].extendedprice);
}

TEST(GeneratorTest, CardinalityRatios) {
  TpcdData d = Generate(0.01);
  EXPECT_EQ(d.regions.size(), 5u);
  EXPECT_EQ(d.nations.size(), 25u);
  EXPECT_EQ(d.suppliers.size(), 100u);
  EXPECT_EQ(d.parts.size(), 2000u);
  EXPECT_EQ(d.partsupps.size(), 4 * d.parts.size());
  EXPECT_EQ(d.customers.size(), 1500u);
  EXPECT_EQ(d.orders.size(), 15000u);
  // 1..7 lineitems per order, so roughly 4x orders.
  EXPECT_GT(d.items.size(), 2 * d.orders.size());
  EXPECT_LT(d.items.size(), 8 * d.orders.size());
}

TEST(GeneratorTest, ForeignKeysInRange) {
  TpcdData d = Generate(0.002);
  for (const auto& it : d.items) {
    ASSERT_LT(static_cast<size_t>(it.order), d.orders.size());
    ASSERT_LT(static_cast<size_t>(it.part), d.parts.size());
    ASSERT_LT(static_cast<size_t>(it.supplier), d.suppliers.size());
  }
  for (const auto& o : d.orders) {
    ASSERT_LT(static_cast<size_t>(o.cust), d.customers.size());
  }
}

TEST(GeneratorTest, DateRulesFollowSpec) {
  TpcdData d = Generate(0.002);
  const Date cutoff = Date::FromYmd(1995, 6, 17);
  for (const auto& it : d.items) {
    const auto& o = d.orders[it.order];
    EXPECT_GT(it.shipdate, o.orderdate);
    EXPECT_GT(it.receiptdate, it.shipdate);
    if (it.receiptdate <= cutoff) {
      EXPECT_TRUE(it.returnflag == 'R' || it.returnflag == 'A');
    } else {
      EXPECT_EQ(it.returnflag, 'N');
    }
    EXPECT_EQ(it.linestatus, it.shipdate > cutoff ? 'O' : 'F');
  }
}

TEST(GeneratorTest, ItemSupplierStocksItsPart) {
  TpcdData d = Generate(0.002);
  // Every (part, supplier) of a lineitem must exist in partsupp.
  std::set<std::pair<int, int>> ps;
  for (const auto& e : d.partsupps) ps.insert({e.part, e.supplier});
  for (const auto& it : d.items) {
    ASSERT_TRUE(ps.count({it.part, it.supplier}) > 0)
        << "item references a supplier that does not stock its part";
  }
}

TEST(GeneratorTest, ProbeClerkExists) {
  TpcdData d = Generate(0.002);
  bool found = false;
  for (const auto& o : d.orders) {
    if (o.clerk == d.probe_clerk()) found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- loader

class TpcdSuiteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    instance_ = MakeInstance(0.004).ValueOrDie();
    suite_ = new QuerySuite(instance_);
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
    instance_.reset();
  }

  static std::shared_ptr<TpcdInstance> instance_;
  static QuerySuite* suite_;
};

std::shared_ptr<TpcdInstance> TpcdSuiteTest::instance_ = nullptr;
QuerySuite* TpcdSuiteTest::suite_ = nullptr;

TEST_F(TpcdSuiteTest, ExtentsAndAttributesLoaded) {
  const moa::Database& db = instance_->db;
  for (const char* name :
       {"Item", "Order", "Customer", "Supplier", "Part", "Nation", "Region",
        "Item_order", "Item_returnflag", "Order_clerk", "Customer_orders",
        "Supplier_supplies", "Supplier_supplies_cost"}) {
    EXPECT_TRUE(db.env().Has(name)) << name;
  }
}

TEST_F(TpcdSuiteTest, AttributeBatsAreTailSortedWithDatavectors) {
  bat::Bat b = instance_->db.Get("Item_extendedprice").ValueOrDie();
  EXPECT_TRUE(b.props().tsorted);
  EXPECT_TRUE(b.props().hkey);
  ASSERT_NE(b.datavector(), nullptr);
  EXPECT_EQ(b.datavector()->extent()->size(), b.size());
  EXPECT_TRUE(b.Validate().ok());
}

TEST_F(TpcdSuiteTest, DatavectorExtentSharedAcrossAttributes) {
  bat::Bat a = instance_->db.Get("Item_extendedprice").ValueOrDie();
  bat::Bat b = instance_->db.Get("Item_discount").ValueOrDie();
  EXPECT_EQ(a.datavector()->extent().get(), b.datavector()->extent().get());
}

TEST_F(TpcdSuiteTest, RowStoreMatchesBatStoreCardinality) {
  bat::Bat item_extent = instance_->db.Get("Item").ValueOrDie();
  EXPECT_EQ(item_extent.size(),
            instance_->rows.Find("lineitem")->num_rows());
  bat::Bat order_extent = instance_->db.Get("Order").ValueOrDie();
  EXPECT_EQ(order_extent.size(), instance_->rows.Find("orders")->num_rows());
}

// ------------------------------------- Monet vs baseline cross-validation

class QueryCrossCheck : public TpcdSuiteTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(QueryCrossCheck, MonetMatchesBaseline) {
  kernel::ExecContext ctx;
  const int q = GetParam();
  auto monet = suite_->RunMonet(q, ctx);
  ASSERT_TRUE(monet.ok()) << "monet Q" << q << ": "
                          << monet.status().ToString();
  auto base = suite_->RunBaseline(q, ctx);
  ASSERT_TRUE(base.ok()) << "baseline Q" << q << ": "
                         << base.status().ToString();
  EXPECT_EQ(monet->rows, base->rows) << "Q" << q << " row count";
  const double tol =
      1e-6 * std::max({1.0, std::fabs(monet->check), std::fabs(base->check)});
  EXPECT_NEAR(monet->check, base->check, tol) << "Q" << q << " checksum";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, QueryCrossCheck,
                         ::testing::Range(1, 16),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "Q" + std::to_string(pinfo.param);
                         });

// -------------------------------------------------------------- cost model

TEST(CostModelTest, ConstantsMatchThePaper) {
  CostModel m(CostModelParams{});  // X=6e6, n=16, w=4, B=4096
  EXPECT_EQ(m.CInv(), 512);
  EXPECT_EQ(m.CRel(), 60);   // 4096 / (17*4)
  EXPECT_EQ(m.CBat(), 512);
  EXPECT_EQ(m.CDv(), 1024);
}

TEST(CostModelTest, ZeroSelectivityCostsOnlyTableProbability) {
  CostModel m(CostModelParams{});
  EXPECT_NEAR(m.ERel(0.0), 0.0, 1.0);
  EXPECT_NEAR(m.EDv(0.0, 3), 0.0, 1.0);
}

TEST(CostModelTest, MonetWinsAtModerateSelectivity) {
  CostModel m(CostModelParams{});
  // At s = 0.01 with p = 3, the decomposed representation must win
  // (Fig. 8 shows E_dv well below E_rel there).
  EXPECT_LT(m.EDv(0.01, 3), m.ERel(0.01));
  EXPECT_LT(m.EDv(0.03, 12), m.ERel(0.03));
}

TEST(CostModelTest, RelationalWinsAtVeryLowSelectivity) {
  CostModel m(CostModelParams{});
  EXPECT_GT(m.EDv(0.0005, 3), m.ERel(0.0005));
}

TEST(CostModelTest, CrossoverNearPaperValue) {
  CostModel m(CostModelParams{});
  // "the crossover point for n = 16, p = 3 is at s ~ 0.004".
  const double s = m.Crossover(3);
  EXPECT_GT(s, 0.001);
  EXPECT_LT(s, 0.01);
}

TEST(CostModelTest, CostIncreasesWithProjectionWidth) {
  CostModel m(CostModelParams{});
  for (double s : {0.005, 0.01, 0.02}) {
    EXPECT_LT(m.EDv(s, 1), m.EDv(s, 3));
    EXPECT_LT(m.EDv(s, 3), m.EDv(s, 6));
    EXPECT_LT(m.EDv(s, 6), m.EDv(s, 12));
  }
}

}  // namespace
}  // namespace moaflat::tpcd
