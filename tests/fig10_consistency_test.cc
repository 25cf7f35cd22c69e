// Cross-validates the two translation routes the paper describes for Q13:
// the MIL listing of Fig. 10 (hand-written, here fed through the textual
// MIL parser) against the rewriter's machine-generated flattening of the
// Section 4.1 MOA text. Both must produce identical loss-per-year values
// on the same TPC-D instance — the "both gray paths in Fig. 6 yield the
// same result" correctness criterion.

#include <gtest/gtest.h>

#include <map>

#include "mil/interpreter.h"
#include "mil/parser.h"
#include "moa/query.h"
#include "moa/result_view.h"
#include "tpcd/loader.h"

namespace moaflat {
namespace {

TEST(Fig10ConsistencyTest, HandWrittenMilMatchesRewriterOutput) {
  kernel::ExecContext ctx;
  auto inst = tpcd::MakeInstance(0.004).ValueOrDie();
  const std::string clerk = inst->probe_clerk;

  // Route 1: the Fig. 10 MIL listing (buffer-management statements
  // omitted, as in the paper's own footnote), via the MIL parser.
  const std::string fig10 =
      "orders := select(Order_clerk, \"" + clerk + "\")\n"
      "items := join(Item_order, orders)\n"
      "returns := semijoin(Item_returnflag, items)\n"
      "ritems := select(returns, 'R')\n"
      "critems := semijoin(Item_order, ritems)\n"
      "years := [year](join(critems, Order_orderdate))\n"
      "class := group(years)\n"
      "INDEX := join(ritems.mirror, class).unique\n"
      "YEAR := join(class.mirror, years).unique\n"
      "prices := semijoin(Item_extendedprice, critems)\n"
      "discount := semijoin(Item_discount, critems)\n"
      "factor := [-](1.0, discount)\n"
      "rlprices := [*](prices, factor)\n"
      "losses := join(class.mirror, rlprices)\n"
      "LOSS := {sum}(losses)\n";
  mil::MilEnv env = inst->db.env();
  auto program = mil::ParseMil(fig10).ValueOrDie();
  mil::MilInterpreter interp(&env, &ctx);
  ASSERT_TRUE(interp.Run(program).ok()) << interp.TraceString();

  std::map<int, double> by_mil;
  {
    bat::Bat year = env.GetBat("YEAR").ValueOrDie();
    bat::Bat loss = env.GetBat("LOSS").ValueOrDie();
    ASSERT_EQ(year.size(), loss.size());
    std::map<Oid, int> year_of;
    for (size_t i = 0; i < year.size(); ++i) {
      year_of[year.head().OidAt(i)] =
          static_cast<int>(year.tail().NumAt(i));
    }
    for (size_t i = 0; i < loss.size(); ++i) {
      by_mil[year_of[loss.head().OidAt(i)]] = loss.tail().NumAt(i);
    }
  }

  // Route 2: the Section 4.1 MOA text through the rewriter.
  const std::string moa_text =
      "project[<date : year, sum(project[revenue](%2)) : loss>]("
      "nest[date](project[<year(order.orderdate) : date,"
      "*(extendedprice, -(1.0, discount)) : revenue>]("
      "select[=(order.clerk, \"" + clerk + "\"), =(returnflag, 'R')]"
      "(Item))))";
  auto qr = moa::RunMoa(ctx, inst->db, moa_text).ValueOrDie();
  moa::ResultView view(&qr.env);
  const moa::StructExpr& root = *qr.translation.result;
  auto year_f = view.Field(*root.elem, "year").ValueOrDie();
  auto loss_f = view.Field(*root.elem, "loss").ValueOrDie();

  std::map<int, double> by_moa;
  for (Oid g : view.SetIds(root).ValueOrDie()) {
    const int y = view.AtomValue(*year_f, g).ValueOrDie().AsInt();
    by_moa[y] = view.AtomValue(*loss_f, g).ValueOrDie().AsDbl();
  }

  ASSERT_FALSE(by_mil.empty());
  ASSERT_EQ(by_mil.size(), by_moa.size());
  for (const auto& [y, loss] : by_mil) {
    ASSERT_TRUE(by_moa.count(y)) << "year " << y;
    EXPECT_NEAR(by_moa[y], loss, 1e-6 * std::max(1.0, loss)) << "year "
                                                             << y;
  }
}

}  // namespace
}  // namespace moaflat
