#include <gtest/gtest.h>

#include <map>

#include "moa/parser.h"
#include "moa/query.h"
#include "moa/result_view.h"
#include "moa/rewriter.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"

namespace moaflat::moa {
namespace {

// ---------------------------------------------------------------- parser

TEST(ParserTest, ParsesLiteralsAndPaths) {
  auto e = ParseMoa("=(order.clerk, \"Clerk#000000088\")").ValueOrDie();
  EXPECT_EQ(e->kind, Expr::Kind::kCall);
  EXPECT_EQ(e->name, "=");
  ASSERT_EQ(e->args.size(), 2u);
  EXPECT_EQ(e->args[0]->kind, Expr::Kind::kAttrPath);
  EXPECT_EQ(e->args[0]->path,
            (std::vector<std::string>{"order", "clerk"}));
  EXPECT_EQ(e->args[1]->lit.AsStr(), "Clerk#000000088");
}

TEST(ParserTest, ParsesCharAndNumberLiterals) {
  auto e = ParseMoa("select[=(returnflag, 'R'), <(discount, 0.05), "
                    "=(quantity, 24)](Item)")
               .ValueOrDie();
  EXPECT_EQ(e->kind, Expr::Kind::kSelect);
  EXPECT_EQ(e->params.size(), 3u);
  EXPECT_EQ(e->params[0]->args[1]->lit.AsChr(), 'R');
  EXPECT_DOUBLE_EQ(e->params[1]->args[1]->lit.AsDbl(), 0.05);
  EXPECT_EQ(e->params[2]->args[1]->lit.AsInt(), 24);
  EXPECT_EQ(e->args[0]->kind, Expr::Kind::kExtent);
  EXPECT_EQ(e->args[0]->name, "Item");
}

TEST(ParserTest, ParsesDateLiterals) {
  auto e = ParseMoa("select[>=(shipdate, \"1994-01-01\")](Item)")
               .ValueOrDie();
  const Value& lit = e->params[0]->args[1]->lit;
  EXPECT_EQ(lit.type(), MonetType::kDate);
  EXPECT_EQ(lit.AsDate().Year(), 1994);
}

TEST(ParserTest, ParsesProjectTupleItems) {
  auto e = ParseMoa(
               "project[<year(order.orderdate) : date, "
               "*(extendedprice, -(1.0, discount)) : revenue>](Item)")
               .ValueOrDie();
  EXPECT_EQ(e->kind, Expr::Kind::kProject);
  ASSERT_EQ(e->params.size(), 2u);
  EXPECT_EQ(e->param_names[0], "date");
  EXPECT_EQ(e->param_names[1], "revenue");
  EXPECT_EQ(e->params[1]->name, "*");
  EXPECT_EQ(e->params[1]->args[1]->name, "-");
}

TEST(ParserTest, ParsesTupleIndexAndNestedAggregates) {
  auto e = ParseMoa("sum(project[revenue](%2))").ValueOrDie();
  EXPECT_EQ(e->name, "sum");
  EXPECT_EQ(e->args[0]->kind, Expr::Kind::kProject);
  EXPECT_EQ(e->args[0]->args[0]->kind, Expr::Kind::kTupleIdx);
  EXPECT_EQ(e->args[0]->args[0]->index, 2);
}

TEST(ParserTest, ParsesThePaperQ13Verbatim) {
  // The exact MOA text printed in Section 4.1 of the paper.
  const char* q13 =
      "project[<date : year, sum(project[revenue](%2)) : loss>]("
      "  nest[date]("
      "    project[<year(order.orderdate) : date,"
      "             *(extendedprice, -(1.0, discount)) : revenue>]("
      "      select[=(order.clerk, \"Clerk#000000088\"),"
      "             =(returnflag, 'R')](Item))))";
  auto e = ParseMoa(q13).ValueOrDie();
  EXPECT_EQ(e->kind, Expr::Kind::kProject);
  EXPECT_EQ(e->args[0]->kind, Expr::Kind::kNest);
  EXPECT_EQ(e->args[0]->args[0]->kind, Expr::Kind::kProject);
  EXPECT_EQ(e->args[0]->args[0]->args[0]->kind, Expr::Kind::kSelect);
}

TEST(ParserTest, ParsesSetValuedAttributeQuery) {
  // Section 4.3.2's out-of-stock query.
  auto e = ParseMoa(
               "project[<%name : name, "
               "select[=(%available, 0)](%supplies) : oos>](Supplier)")
               .ValueOrDie();
  EXPECT_EQ(e->kind, Expr::Kind::kProject);
  EXPECT_EQ(e->params[1]->kind, Expr::Kind::kSelect);
  EXPECT_EQ(e->params[1]->args[0]->path[0], "supplies");
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseMoa("select[=(a,]").ok());
  EXPECT_FALSE(ParseMoa("\"unterminated").ok());
  EXPECT_FALSE(ParseMoa("select[=(a,1)](Item) trailing").ok());
}

TEST(ParserTest, RoundTripToString) {
  const char* q = "select[=(returnflag, 'R')](Item)";
  auto e = ParseMoa(q).ValueOrDie();
  auto e2 = ParseMoa(e->ToString()).ValueOrDie();
  EXPECT_EQ(e->ToString(), e2->ToString());
}

// ----------------------------------------------------- rewriter + engine

class MoaEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new tpcd::TpcdData(tpcd::Generate(0.002));
    instance_ = tpcd::Load(*data_, 0.002).ValueOrDie();
  }
  static void TearDownTestSuite() {
    instance_.reset();
    delete data_;
    data_ = nullptr;
  }

  static tpcd::TpcdData* data_;
  static std::shared_ptr<tpcd::TpcdInstance> instance_;
};

tpcd::TpcdData* MoaEndToEndTest::data_ = nullptr;
std::shared_ptr<tpcd::TpcdInstance> MoaEndToEndTest::instance_ = nullptr;

TEST_F(MoaEndToEndTest, SelectOnExtentUsesPushdown) {
  Rewriter rw(&instance_->db);
  Translation t =
      rw.TranslateText("select[=(returnflag, 'R')](Item)").ValueOrDie();
  // The first statement must be a direct (binary-search) selection on the
  // attribute BAT, not a scan of the extent.
  ASSERT_FALSE(t.program.stmts.empty());
  EXPECT_EQ(t.program.stmts[0].op, "select");
  EXPECT_EQ(t.program.stmts[0].args[0].var, "Item_returnflag");
}

TEST_F(MoaEndToEndTest, PathSelectJoinsBackwards) {
  Rewriter rw(&instance_->db);
  Translation t = rw.TranslateText(
                        "select[=(order.clerk, \"" +
                        instance_->probe_clerk + "\")](Item)")
                      .ValueOrDie();
  // Fig. 10 lines 1-2: select on Order_clerk, then join via Item_order.
  ASSERT_GE(t.program.stmts.size(), 2u);
  EXPECT_EQ(t.program.stmts[0].op, "select");
  EXPECT_EQ(t.program.stmts[0].args[0].var, "Order_clerk");
  EXPECT_EQ(t.program.stmts[1].op, "join");
  EXPECT_EQ(t.program.stmts[1].args[0].var, "Item_order");
}

TEST_F(MoaEndToEndTest, SelectCountMatchesGenerator) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db, "select[=(returnflag, 'R')](Item)")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();

  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R') ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(MoaEndToEndTest, ConjunctivePredicatesIntersect) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "select[=(returnflag, 'R'), <(discount, 0.05)](Item)")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R' && it.discount < 0.05) ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
}

TEST_F(MoaEndToEndTest, ProjectComputesArithmetic) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "project[<*(extendedprice, -(1.0, discount)) : revenue>]("
                   "select[=(returnflag, 'R')](Item))")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  ASSERT_FALSE(ids.empty());
  // Check one element's revenue against the generator.
  const Oid id = ids[0];
  const auto& item = data_->items[id - tpcd::kItemBase];
  auto revenue_field =
      view.Field(*qr.translation.result->elem, "revenue").ValueOrDie();
  const Value v = view.AtomValue(*revenue_field, id).ValueOrDie();
  EXPECT_NEAR(v.AsDbl(), item.extendedprice * (1.0 - item.discount), 1e-6);
}

TEST_F(MoaEndToEndTest, ThePaperQ13EndToEnd) {
  kernel::ExecContext ctx;
  const std::string q13 =
      "project[<date : year, sum(project[revenue](%2)) : loss>]("
      "  nest[date]("
      "    project[<year(order.orderdate) : date,"
      "             *(extendedprice, -(1.0, discount)) : revenue>]("
      "      select[=(order.clerk, \"" +
      instance_->probe_clerk +
      "\"),"
      "             =(returnflag, 'R')](Item))))";
  auto qr = RunMoa(ctx, instance_->db, q13).ValueOrDie();

  // Expected loss per year, computed straight off the generated rows.
  std::map<int, double> expected;
  for (const auto& it : data_->items) {
    const auto& o = data_->orders[it.order];
    if (o.clerk == instance_->probe_clerk && it.returnflag == 'R') {
      expected[o.orderdate.Year()] +=
          it.extendedprice * (1.0 - it.discount);
    }
  }
  ASSERT_FALSE(expected.empty()) << "probe clerk has no returned items";

  ResultView view(&qr.env);
  const StructExpr& root = *qr.translation.result;
  auto ids = view.SetIds(root).ValueOrDie();
  EXPECT_EQ(ids.size(), expected.size());

  auto year_field = view.Field(*root.elem, "year").ValueOrDie();
  auto loss_field = view.Field(*root.elem, "loss").ValueOrDie();
  std::map<int, double> actual;
  for (Oid g : ids) {
    const Value y = view.AtomValue(*year_field, g).ValueOrDie();
    const Value l = view.AtomValue(*loss_field, g).ValueOrDie();
    actual[y.AsInt()] = l.AsDbl();
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [year, loss] : expected) {
    ASSERT_TRUE(actual.count(year)) << "missing year " << year;
    EXPECT_NEAR(actual[year], loss, 1e-4) << "year " << year;
  }
}

TEST_F(MoaEndToEndTest, Q13UsesDatavectorSemijoins) {
  kernel::ExecContext ctx;
  const std::string q13 =
      "project[<date : year, sum(project[revenue](%2)) : loss>]("
      "nest[date](project[<year(order.orderdate) : date,"
      "*(extendedprice, -(1.0, discount)) : revenue>]("
      "select[=(order.clerk, \"" +
      instance_->probe_clerk + "\"), =(returnflag, 'R')](Item))))";
  auto qr = RunMoa(ctx, instance_->db, q13).ValueOrDie();
  // The returnflag / extendedprice / discount accesses must have gone
  // through the datavector semijoin (Fig. 10 commentary).
  std::string all_impls;
  for (const auto& t : qr.traces) all_impls += t.impl + ";";
  EXPECT_NE(all_impls.find("datavector_semijoin"), std::string::npos)
      << all_impls;
}

TEST_F(MoaEndToEndTest, NestedSetSelectionOfSection432) {
  kernel::ExecContext ctx;
  // "for each supplier, the set of parts that are out of stock"
  auto qr = RunMoa(ctx, instance_->db,
                   "project[<%name : name, "
                   "select[=(%available, 0)](%supplies) : oos>](Supplier)")
                .ValueOrDie();
  ResultView view(&qr.env);
  const StructExpr& root = *qr.translation.result;
  auto oos_field = view.Field(*root.elem, "oos").ValueOrDie();
  ASSERT_EQ(oos_field->kind, StructExpr::Kind::kSet);

  // Expected: per supplier, the supplies elements with available == 0.
  std::map<Oid, size_t> expected;
  for (size_t i = 0; i < data_->partsupps.size(); ++i) {
    if (data_->partsupps[i].available == 0) {
      expected[tpcd::kSupplierBase + data_->partsupps[i].supplier]++;
    }
  }
  size_t total_expected = 0;
  for (auto& [s, n] : expected) total_expected += n;

  bat::Bat index = qr.env.GetBat(oos_field->var).ValueOrDie();
  EXPECT_EQ(index.size(), total_expected);
  // Spot-check one supplier.
  if (!expected.empty()) {
    const Oid s = expected.begin()->first;
    auto members = view.SetMembersOf(*oos_field, s).ValueOrDie();
    EXPECT_EQ(members.size(), expected.begin()->second);
  }
}

TEST_F(MoaEndToEndTest, StructureExpressionShape) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "project[<year(order.orderdate) : date>]("
                   "select[=(returnflag, 'R')](Item))")
                .ValueOrDie();
  const std::string s = qr.translation.result->ToString();
  EXPECT_EQ(s.rfind("SET(", 0), 0u) << s;
  EXPECT_NE(s.find("TUPLE("), std::string::npos) << s;
}

TEST_F(MoaEndToEndTest, RenderProducesReadableOutput) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "project[<year(order.orderdate) : date>]("
                   "select[=(returnflag, 'R')](Item))")
                .ValueOrDie();
  const std::string rendered = qr.Render(3).ValueOrDie();
  EXPECT_NE(rendered.find("date:"), std::string::npos) << rendered;
}

TEST_F(MoaEndToEndTest, UnknownAttributeFailsCleanly) {
  kernel::ExecContext ctx;
  auto r = RunMoa(ctx, instance_->db, "select[=(bogus, 1)](Item)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST_F(MoaEndToEndTest, UnknownClassFailsCleanly) {
  kernel::ExecContext ctx;
  auto r = RunMoa(ctx, instance_->db, "select[=(a, 1)](Nonexistent)");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace moaflat::moa
