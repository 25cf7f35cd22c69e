// Additional rewriter coverage: set operations, unnest, top-level
// aggregates and the MoaText round trips of the TPC-D suite.

#include <gtest/gtest.h>

#include "mil/parser.h"
#include "moa/parser.h"
#include "moa/query.h"
#include "moa/result_view.h"
#include "tpcd/generator.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"

namespace moaflat::moa {
namespace {

class RewriterExtraTest : public ::testing::Test {
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

tpcd::TpcdData* RewriterExtraTest::data_ = nullptr;
std::shared_ptr<tpcd::TpcdInstance> RewriterExtraTest::instance_ = nullptr;

TEST_F(RewriterExtraTest, UnionOfSelections) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "union(select[=(returnflag, 'R')](Item),"
                   "      select[=(returnflag, 'A')](Item))")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R' || it.returnflag == 'A') ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
}

TEST_F(RewriterExtraTest, DifferenceOfSelections) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "difference(select[=(returnflag, 'R')](Item),"
                   "           select[<(discount, 0.05)](Item))")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R' && !(it.discount < 0.05)) ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
}

TEST_F(RewriterExtraTest, IntersectionOfSelections) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "intersection(select[=(returnflag, 'R')](Item),"
                   "             select[<(discount, 0.05)](Item))")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R' && it.discount < 0.05) ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
}

TEST_F(RewriterExtraTest, UnnestFlattensSetTuples) {
  kernel::ExecContext ctx;
  // unnest[supplies](Supplier): one element per supplies entry.
  auto qr =
      RunMoa(ctx, instance_->db, "unnest[supplies](Supplier)").ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  EXPECT_EQ(ids.size(), data_->partsupps.size());
  // The flattened tuple exposes the member fields.
  ASSERT_EQ(qr.translation.result->elem->kind, StructExpr::Kind::kTuple);
  auto cost_field = view.Field(*qr.translation.result->elem, "cost");
  EXPECT_TRUE(cost_field.ok());
}

TEST_F(RewriterExtraTest, UnnestAfterProjectKeepsOwnerFields) {
  kernel::ExecContext ctx;
  auto qr = RunMoa(ctx, instance_->db,
                   "unnest[oos](project[<%name : sname, "
                   "select[=(%available, 0)](%supplies) : oos>](Supplier))")
                .ValueOrDie();
  ResultView view(&qr.env);
  auto ids = view.SetIds(*qr.translation.result).ValueOrDie();
  size_t expected = 0;
  for (const auto& ps : data_->partsupps) {
    if (ps.available == 0) ++expected;
  }
  EXPECT_EQ(ids.size(), expected);
  auto sname = view.Field(*qr.translation.result->elem, "sname");
  ASSERT_TRUE(sname.ok());
  if (!ids.empty()) {
    Value v = view.AtomValue(**sname, ids[0]).ValueOrDie();
    EXPECT_EQ(v.type(), MonetType::kStr);
  }
}

TEST_F(RewriterExtraTest, TopLevelAggregates) {
  kernel::ExecContext ctx;
  auto qr =
      RunMoa(ctx, instance_->db,
             "count(project[quantity](select[=(returnflag, 'R')](Item)))")
          .ValueOrDie();
  ASSERT_EQ(qr.translation.result->kind, StructExpr::Kind::kAtom);
  Value v = qr.env.GetValue(qr.translation.result->var).ValueOrDie();
  size_t expected = 0;
  for (const auto& it : data_->items) {
    if (it.returnflag == 'R') ++expected;
  }
  EXPECT_EQ(static_cast<size_t>(v.AsLng()), expected);
}

TEST_F(RewriterExtraTest, AvgAndMinMaxTopLevel) {
  kernel::ExecContext ctx;
  auto avg = RunMoa(ctx, instance_->db, "avg(project[quantity](Item))")
                 .ValueOrDie();
  const double a =
      avg.env.GetValue(avg.translation.result->var).ValueOrDie().AsDbl();
  double sum = 0;
  for (const auto& it : data_->items) sum += it.quantity;
  EXPECT_NEAR(a, sum / data_->items.size(), 1e-9);

  auto mx =
      RunMoa(ctx, instance_->db, "max(project[discount](Item))").ValueOrDie();
  const double m =
      mx.env.GetValue(mx.translation.result->var).ValueOrDie().AsDbl();
  double expected = 0;
  for (const auto& it : data_->items) expected = std::max(expected,
                                                          it.discount);
  EXPECT_DOUBLE_EQ(m, expected);
}

TEST_F(RewriterExtraTest, AllSuiteMoaTextsParse) {
  auto inst = instance_;
  tpcd::QuerySuite suite(inst);
  for (int q = 1; q <= tpcd::QuerySuite::kNumQueries; ++q) {
    const std::string text = suite.MoaText(q);
    if (text.empty()) continue;
    auto parsed = ParseMoa(text);
    EXPECT_TRUE(parsed.ok()) << "Q" << q << ": "
                             << parsed.status().ToString();
  }
}

TEST_F(RewriterExtraTest, TranslatedSuiteProgramsRoundTripThroughMilText) {
  tpcd::QuerySuite suite(instance_);
  Rewriter rw(&instance_->db);
  bool saw_date = false, saw_dbl = false;
  for (int q : {1, 3, 6, 10, 13}) {
    const mil::MilProgram p =
        rw.TranslateText(suite.MoaText(q)).ValueOrDie().program;
    auto back = mil::ParseMil(p.ToString());
    ASSERT_TRUE(back.ok()) << "Q" << q << ": " << back.status().ToString()
                           << "\n" << p.ToString();
    ASSERT_EQ(p.stmts.size(), back->stmts.size()) << "Q" << q;
    for (size_t i = 0; i < p.stmts.size(); ++i) {
      const mil::MilStmt& want = p.stmts[i];
      const mil::MilStmt& got = back->stmts[i];
      const std::string where = "Q" + std::to_string(q) + ": " +
                                want.ToString();
      EXPECT_EQ(want.var, got.var) << where;
      EXPECT_EQ(want.op, got.op) << where;
      ASSERT_EQ(want.args.size(), got.args.size()) << where;
      for (size_t a = 0; a < want.args.size(); ++a) {
        const mil::MilArg& wa = want.args[a];
        const mil::MilArg& ga = got.args[a];
        ASSERT_EQ(wa.kind, ga.kind) << where;
        if (wa.kind == mil::MilArg::Kind::kVar) {
          EXPECT_EQ(wa.var, ga.var) << where;
          continue;
        }
        saw_date |= wa.lit.type() == MonetType::kDate;
        saw_dbl |= wa.lit.type() == MonetType::kDbl;
        EXPECT_EQ(wa.lit.type(), ga.lit.type()) << where;
        EXPECT_EQ(Value::Compare(wa.lit, ga.lit), 0) << where;
      }
    }
  }
  // The literal kinds the bare rendering used to garble are covered.
  EXPECT_TRUE(saw_date);
  EXPECT_TRUE(saw_dbl);
}

TEST_F(RewriterExtraTest, TranslationIsDeterministic) {
  Rewriter rw(&instance_->db);
  const char* q = "select[=(returnflag, 'R'), <(discount, 0.05)](Item)";
  auto t1 = rw.TranslateText(q).ValueOrDie();
  auto t2 = rw.TranslateText(q).ValueOrDie();
  EXPECT_EQ(t1.program.ToString(), t2.program.ToString());
  EXPECT_EQ(t1.result->ToString(), t2.result->ToString());
}

TEST_F(RewriterExtraTest, TranslationToStringMentionsStructure) {
  Rewriter rw(&instance_->db);
  auto t = rw.TranslateText("select[=(returnflag, 'R')](Item)")
               .ValueOrDie();
  EXPECT_NE(t.ToString().find("# structure: SET("), std::string::npos);
}

}  // namespace
}  // namespace moaflat::moa
