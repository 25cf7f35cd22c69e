#include <gtest/gtest.h>

#include "bat/bat.h"
#include "mil/interpreter.h"
#include "mil/parser.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using bat::Column;

TEST(MilParserTest, SimpleAssignment) {
  auto p = ParseMil("orders := select(Order_clerk, \"Clerk#000000088\")")
               .ValueOrDie();
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0].var, "orders");
  EXPECT_EQ(p.stmts[0].op, "select");
  EXPECT_EQ(p.stmts[0].args[0].var, "Order_clerk");
  EXPECT_EQ(p.stmts[0].args[1].lit.AsStr(), "Clerk#000000088");
}

TEST(MilParserTest, LiteralKinds) {
  auto p = ParseMil("x := select(v, 42)\n"
                    "y := select(v, 0.05)\n"
                    "z := select(v, 'R')\n"
                    "d := select(v, \"1994-01-01\")\n"
                    "b := select(v, true)")
               .ValueOrDie();
  EXPECT_EQ(p.stmts[0].args[1].lit.type(), MonetType::kInt);
  EXPECT_EQ(p.stmts[1].args[1].lit.type(), MonetType::kDbl);
  EXPECT_EQ(p.stmts[2].args[1].lit.type(), MonetType::kChr);
  EXPECT_EQ(p.stmts[3].args[1].lit.type(), MonetType::kDate);
  EXPECT_EQ(p.stmts[4].args[1].lit.type(), MonetType::kBit);
}

TEST(MilParserTest, NestedCallsFlattenToTemps) {
  auto p = ParseMil("years := [year](join(critems, Order_orderdate))")
               .ValueOrDie();
  ASSERT_EQ(p.stmts.size(), 2u);
  EXPECT_EQ(p.stmts[0].op, "join");
  EXPECT_EQ(p.stmts[1].op, "[year]");
  EXPECT_EQ(p.stmts[1].var, "years");
  EXPECT_EQ(p.stmts[1].args[0].var, p.stmts[0].var);
}

TEST(MilParserTest, PostfixMirrorAndUnique) {
  // Fig. 10 line 8: INDEX := join( ritems.mirror, class).unique
  auto p = ParseMil("INDEX := join(ritems.mirror, class).unique")
               .ValueOrDie();
  ASSERT_EQ(p.stmts.size(), 3u);
  EXPECT_EQ(p.stmts[0].op, "mirror");
  EXPECT_EQ(p.stmts[0].args[0].var, "ritems");
  EXPECT_EQ(p.stmts[1].op, "join");
  EXPECT_EQ(p.stmts[2].op, "unique");
  EXPECT_EQ(p.stmts[2].var, "INDEX");
}

TEST(MilParserTest, PostfixWithArguments) {
  auto p = ParseMil("r := Item_returnflag.semijoin(items)").ValueOrDie();
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0].op, "semijoin");
  EXPECT_EQ(p.stmts[0].args[0].var, "Item_returnflag");
  EXPECT_EQ(p.stmts[0].args[1].var, "items");
}

TEST(MilParserTest, CommentsAndBlankLines) {
  auto p = ParseMil("# the selection phase\n"
                    "\n"
                    "a := select(x, 1)  # inline comment\n"
                    "b := mirror(a)\n")
               .ValueOrDie();
  EXPECT_EQ(p.stmts.size(), 2u);
}

TEST(MilParserTest, DottedOperatorNamesStayWhole) {
  auto p = ParseMil("big := select.>(sums, 100)").ValueOrDie();
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0].op, "select.>");
}

TEST(MilParserTest, SetAggregateHeads) {
  auto p = ParseMil("LOSS := {sum}(losses)").ValueOrDie();
  EXPECT_EQ(p.stmts[0].op, "{sum}");
}

TEST(MilParserTest, Errors) {
  EXPECT_FALSE(ParseMil("x := select(").ok());
  EXPECT_FALSE(ParseMil("x := \"unterminated").ok());
  EXPECT_FALSE(ParseMil("x := 'RR'").ok());
  EXPECT_FALSE(ParseMil("x := [year(oops)").ok());
}

/// The statements of `mil`, rendered one per line.
std::string Rendered(const std::string& mil) {
  auto p = ParseMil(mil);
  EXPECT_TRUE(p.ok()) << mil << ": " << p.status().ToString();
  return p.ok() ? p->ToString() : "";
}

TEST(MilParserTest, EveryPostfixFormParsesLikeItsPrefixForm) {
  const std::pair<const char*, const char*> forms[] = {
      {"r := x.fetch(p)", "r := fetch(x, p)"},
      {"r := x.slice(0, 9)", "r := slice(x, 0, 9)"},
      {"r := x.topn_max(3)", "r := topn_max(x, 3)"},
      {"r := x.project(1)", "r := project(x, 1)"},
      {"r := x.append(y)", "r := append(x, y)"},
      {"r := x.insert(1, 2)", "r := insert(x, 1, 2)"},
      {"r := x.thetajoin.<(y)", "r := thetajoin.<(x, y)"},
      {"r := x.select.<=(5)", "r := select.<=(x, 5)"},
      {"r := x.histogram", "r := histogram(x)"},
      {"r := x.count", "r := count(x)"},
      {"r := x.mirror.unique", "_t1 := mirror(x)\nr := unique(_t1)"},
  };
  for (const auto& [postfix, prefix] : forms) {
    EXPECT_EQ(Rendered(postfix), Rendered(prefix)) << postfix;
  }
}

TEST(MilParserTest, ScalarCalcRoundTripsThroughToString) {
  // The Q11 and Q14 scalar statements, as MilStmt::ToString prints them.
  const MilStmt stmts[] = {
      {"t1", "calc.*", {V("total"), L(Value::Dbl(0.001))}},
      {"t2", "calc./", {V("psum"), V("total")}},
      {"t3", "calc.*", {V("frac"), L(Value::Dbl(100.0))}},
      {"t4", "calc.+", {V("a"), L(Value::Int(1))}},
      {"t5", "calc.-", {V("a"), V("b")}},
      {"t6", "calc.<=", {V("a"), V("b")}},
  };
  for (const MilStmt& s : stmts) {
    auto p = ParseMil(s.ToString());
    ASSERT_TRUE(p.ok()) << s.ToString() << ": " << p.status().ToString();
    ASSERT_EQ(p->stmts.size(), 1u) << s.ToString();
    EXPECT_EQ(p->stmts[0].op, s.op);
    EXPECT_EQ(p->stmts[0].ToString(), s.ToString());
  }
}

TEST(MilParserTest, StatementWithoutACallIsAnError) {
  // `r := x` used to parse to no statement at all, leaving r unbound.
  EXPECT_FALSE(ParseMil("r := x").ok());
  EXPECT_FALSE(ParseMil("x").ok());
  EXPECT_FALSE(ParseMil("r := 5").ok());
  EXPECT_TRUE(ParseMil("r := mirror(x)").ok());
}

TEST(MilParserTest, ParsedProgramExecutes) {
  kernel::ExecContext ctx;
  MilEnv env;
  env.BindBat("Order_clerk",
              Bat(Column::MakeOid({1, 2, 3}),
                  Column::MakeStr({"A", "B", "A"})));
  env.BindBat("Order_total", Bat(Column::MakeOid({1, 2, 3}),
                                 Column::MakeDbl({10, 20, 30})));
  auto p = ParseMil("orders := select(Order_clerk, \"A\")\n"
                    "totals := semijoin(Order_total, orders)\n"
                    "s := sum(totals)\n")
               .ValueOrDie();
  MilInterpreter interp(&env, &ctx);
  ASSERT_TRUE(interp.Run(p).ok());
  EXPECT_DOUBLE_EQ(env.GetValue("s").ValueOrDie().AsDbl(), 40.0);
}

TEST(MilParserTest, ThePaperFig10ScriptShapeExecutes) {
  kernel::ExecContext ctx;
  // The Fig. 10 listing with this repo's BAT names, nested calls and
  // postfix ops included.
  MilEnv env;
  env.BindBat("Order_clerk", Bat(Column::MakeOid({1, 2}),
                                 Column::MakeStr({"C1", "C2"})));
  env.BindBat("Order_orderdate",
              Bat(Column::MakeOid({1, 2}),
                  Column::MakeDate({Date::FromYmd(1994, 2, 1),
                                    Date::FromYmd(1995, 3, 1)})));
  env.BindBat("Item_order", Bat(Column::MakeOid({10, 11, 12}),
                                Column::MakeOid({1, 1, 2})));
  env.BindBat("Item_returnflag", Bat(Column::MakeOid({10, 11, 12}),
                                     Column::MakeChr({'R', 'N', 'R'})));
  env.BindBat("Item_extendedprice",
              Bat(Column::MakeOid({10, 11, 12}),
                  Column::MakeDbl({100, 200, 300})));
  env.BindBat("Item_discount", Bat(Column::MakeOid({10, 11, 12}),
                                   Column::MakeDbl({0.1, 0.2, 0.0})));

  const char* script =
      "orders := select(Order_clerk, \"C1\")\n"
      "items := join(Item_order, orders)\n"
      "returns := semijoin(Item_returnflag, items)\n"
      "ritems := select(returns, 'R')\n"
      "critems := semijoin(Item_order, ritems)\n"
      "years := [year](join(critems, Order_orderdate))\n"
      "class := group(years)\n"
      "INDEX := join(ritems.mirror, class).unique\n"
      "prices := semijoin(Item_extendedprice, critems)\n"
      "discount := semijoin(Item_discount, critems)\n"
      "factor := [-](1.0, discount)\n"
      "rlprices := [*](prices, factor)\n"
      "losses := join(class.mirror, rlprices)\n"
      "LOSS := {sum}(losses)\n";
  auto p = ParseMil(script).ValueOrDie();
  MilInterpreter interp(&env, &ctx);
  ASSERT_TRUE(interp.Run(p).ok()) << interp.TraceString();
  Bat loss = env.GetBat("LOSS").ValueOrDie();
  ASSERT_EQ(loss.size(), 1u);  // C1's returned item is in one year
  EXPECT_DOUBLE_EQ(loss.tail().NumAt(0), 100 * 0.9);
}

}  // namespace
}  // namespace moaflat::mil
