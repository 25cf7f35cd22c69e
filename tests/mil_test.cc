#include <gtest/gtest.h>

#include "bat/bat.h"
#include "mil/interpreter.h"
#include "mil/parser.h"
#include "mil/program.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using bat::Column;

class MilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.BindBat("names",
                 Bat(Column::MakeOid({1, 2, 3, 4}),
                     Column::MakeStr({"a", "b", "a", "c"})));
    env_.BindBat("vals", Bat(Column::MakeOid({1, 2, 3, 4}),
                             Column::MakeInt({10, 20, 30, 40})));
  }

  Result<Bat> Run1(const std::string& var, const std::string& op,
                   std::vector<MilArg> args) {
    MilInterpreter interp(&env_, &ctx_);
    MF_RETURN_NOT_OK(interp.Exec(MilStmt{var, op, std::move(args)}));
    return env_.GetBat(var);
  }

  MilEnv env_;
  kernel::ExecContext ctx_;
};

TEST_F(MilTest, SelectPointAndRange) {
  Bat out = Run1("r", "select", {V("names"), L(Value::Str("a"))})
                .ValueOrDie();
  EXPECT_EQ(out.size(), 2u);
  Bat rng = Run1("r2", "select",
                 {V("vals"), L(Value::Int(15)), L(Value::Int(35))})
                .ValueOrDie();
  EXPECT_EQ(rng.size(), 2u);
}

TEST_F(MilTest, SelectComparatorFamily) {
  EXPECT_EQ(Run1("a", "select.<", {V("vals"), L(Value::Int(25))})
                .ValueOrDie()
                .size(),
            2u);
  EXPECT_EQ(Run1("b", "select.>=", {V("vals"), L(Value::Int(20))})
                .ValueOrDie()
                .size(),
            3u);
  EXPECT_EQ(Run1("c", "select.!=", {V("vals"), L(Value::Int(20))})
                .ValueOrDie()
                .size(),
            3u);
  EXPECT_EQ(Run1("d", "select.like", {V("names"), L(Value::Str("a%"))})
                .ValueOrDie()
                .size(),
            2u);
}

TEST_F(MilTest, JoinSemijoinMirror) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"sel", "select",
                                {V("names"), L(Value::Str("a"))}})
                  .ok());
  ASSERT_TRUE(
      interp.Exec(MilStmt{"sj", "semijoin", {V("vals"), V("sel")}}).ok());
  Bat sj = env_.GetBat("sj").ValueOrDie();
  EXPECT_EQ(sj.size(), 2u);
  ASSERT_TRUE(interp.Exec(MilStmt{"m", "mirror", {V("sj")}}).ok());
  Bat m = env_.GetBat("m").ValueOrDie();
  EXPECT_EQ(m.head().type(), MonetType::kInt);
}

TEST_F(MilTest, GroupAndSetAggregate) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp.Exec(MilStmt{"g", "group", {V("names")}}).ok());
  ASSERT_TRUE(interp.Exec(MilStmt{"gm", "mirror", {V("g")}}).ok());
  ASSERT_TRUE(
      interp.Exec(MilStmt{"per", "join", {V("gm"), V("vals")}}).ok());
  ASSERT_TRUE(interp.Exec(MilStmt{"sums", "{sum}", {V("per")}}).ok());
  Bat sums = env_.GetBat("sums").ValueOrDie();
  EXPECT_EQ(sums.size(), 3u);  // groups: a, b, c
  // Group "a" (gid 0) holds values 10 + 30.
  EXPECT_DOUBLE_EQ(sums.tail().NumAt(0), 40.0);
}

TEST_F(MilTest, ScalarAggregatesBindValues) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp.Exec(MilStmt{"total", "sum", {V("vals")}}).ok());
  EXPECT_DOUBLE_EQ(env_.GetValue("total").ValueOrDie().AsDbl(), 100.0);
  ASSERT_TRUE(interp.Exec(MilStmt{"n", "count", {V("vals")}}).ok());
  EXPECT_EQ(env_.GetValue("n").ValueOrDie().AsLng(), 4);
  // A scalar cannot be fetched as a BAT.
  EXPECT_FALSE(env_.GetBat("total").ok());
}

TEST_F(MilTest, ScalarCalcOps) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp.Exec(MilStmt{"total", "sum", {V("vals")}}).ok());
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"half", "calc.*",
                                {V("total"), L(Value::Dbl(0.5))}})
                  .ok());
  EXPECT_DOUBLE_EQ(env_.GetValue("half").ValueOrDie().AsDbl(), 50.0);
  // Scalar results feed back into selections.
  ASSERT_TRUE(
      interp.Exec(MilStmt{"big", "select.>", {V("vals"), V("half")}}).ok());
  EXPECT_EQ(env_.GetBat("big").ValueOrDie().size(), 0u);  // none > 50
}

TEST_F(MilTest, MultiplexWithScalarVariable) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp.Exec(MilStmt{"avg_v", "avg", {V("vals")}}).ok());
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"dev", "[-]", {V("vals"), V("avg_v")}})
                  .ok());
  Bat dev = env_.GetBat("dev").ValueOrDie();
  EXPECT_DOUBLE_EQ(dev.tail().NumAt(0), -15.0);
}

TEST_F(MilTest, ReshapeOps) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(
      interp.Exec(MilStmt{"mk", "mark", {V("vals"), L(Value::Int(100))}})
          .ok());
  EXPECT_TRUE(env_.GetBat("mk").ValueOrDie().tail().is_void());
  ASSERT_TRUE(interp.Exec(MilStmt{"ex", "extent", {V("vals")}}).ok());
  EXPECT_TRUE(env_.GetBat("ex").ValueOrDie().tail().is_void());
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"sl", "slice",
                                {V("vals"), L(Value::Int(1)),
                                 L(Value::Int(3))}})
                  .ok());
  EXPECT_EQ(env_.GetBat("sl").ValueOrDie().size(), 2u);
  ASSERT_TRUE(interp.Exec(MilStmt{"st", "sort", {V("names")}}).ok());
  EXPECT_TRUE(env_.GetBat("st").ValueOrDie().props().tsorted);
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"tp", "topn_max",
                                {V("vals"), L(Value::Int(2))}})
                  .ok());
  EXPECT_EQ(env_.GetBat("tp").ValueOrDie().tail().GetValue(0).AsInt(), 40);
  ASSERT_TRUE(
      interp.Exec(MilStmt{"pc", "project", {V("vals"), L(Value::Int(7))}})
          .ok());
  EXPECT_EQ(env_.GetBat("pc").ValueOrDie().tail().GetValue(2).AsInt(), 7);
}

TEST_F(MilTest, ErrorsAreCleanNotFatal) {
  MilInterpreter interp(&env_, &ctx_);
  EXPECT_EQ(interp.Exec(MilStmt{"x", "select", {V("nosuch")}}).code(),
            StatusCode::kKeyError);
  EXPECT_EQ(interp.Exec(MilStmt{"x", "frobnicate", {V("vals")}}).code(),
            StatusCode::kNotImplemented);
  EXPECT_FALSE(interp.Exec(MilStmt{"x", "join", {V("vals")}}).ok());
}

TEST_F(MilTest, DivisionByZeroFailsOnEveryMultiplexVariant) {
  // A synced divisor, a head-joined one and a constant zero all fail the
  // statement with the error calc./ reports on scalars.
  env_.BindBat("zeros", Bat(Column::MakeOid({1, 2, 3, 4}),
                            Column::MakeInt({1, 0, 1, 1})));
  for (const char* text : {"d := [-](vals, vals)\nq := [/](vals, d)",
                           "q := [/](vals, zeros)", "q := [/](vals, 0.0)",
                           "q := calc./(1.0, 0.0)"}) {
    MilProgram p = ParseMil(text).ValueOrDie();
    MilInterpreter interp(&env_, &ctx_);
    const Status s = interp.Run(p);
    EXPECT_EQ(s.code(), StatusCode::kExecutionError) << text;
    EXPECT_EQ(s.message(), "division by zero") << text;
  }
}

TEST_F(MilTest, NegativeCountsAreInvalidNotWrapped) {
  // Cast to size_t, -1 used to return every row from topn and none from
  // slice.
  MilInterpreter interp(&env_, &ctx_);
  EXPECT_EQ(
      interp.Exec(MilStmt{"t", "topn_max", {V("vals"), L(Value::Int(-1))}})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(interp
                .Exec(MilStmt{"s", "slice",
                              {V("vals"), L(Value::Int(-1)), L(Value::Int(2))}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(env_.Has("t"));
  EXPECT_FALSE(env_.Has("s"));
  EXPECT_EQ(Run1("z", "topn_min", {V("vals"), L(Value::Int(0))})
                .ValueOrDie()
                .size(),
            0u);
}

TEST_F(MilTest, TracesRecordEveryStatement) {
  MilInterpreter interp(&env_, &ctx_);
  ASSERT_TRUE(interp
                  .Exec(MilStmt{"s", "select",
                                {V("names"), L(Value::Str("a"))}})
                  .ok());
  ASSERT_TRUE(
      interp.Exec(MilStmt{"j", "semijoin", {V("vals"), V("s")}}).ok());
  ASSERT_EQ(interp.traces().size(), 2u);
  EXPECT_EQ(interp.traces()[0].out_size, 2u);
  EXPECT_NE(interp.traces()[0].text.find("select"), std::string::npos);
  EXPECT_FALSE(interp.TraceString().empty());
}

TEST(MilProgramTest, PrintingMatchesPaperStyle) {
  MilStmt s{"orders", "select",
            {V("Order_clerk"), L(Value::Str("Clerk#000000088"))}};
  EXPECT_EQ(s.ToString(),
            "orders := select(Order_clerk, \"Clerk#000000088\")");
  MilStmt mx{"years", "[year]", {V("dates")}};
  EXPECT_EQ(mx.ToString(), "years := [year](dates)");
  MilStmt agg{"LOSS", "{sum}", {V("losses")}};
  EXPECT_EQ(agg.ToString(), "LOSS := {sum}(losses)");
}

TEST(MilProgramTest, BuilderGeneratesFreshTemps) {
  MilBuilder b;
  const std::string t1 = b.Temp("select", {V("x"), L(Value::Int(1))});
  const std::string t2 = b.Temp("mirror", {V(t1)});
  EXPECT_NE(t1, t2);
  MilProgram p = b.Finish({t2});
  EXPECT_EQ(p.stmts.size(), 2u);
  EXPECT_EQ(p.results, std::vector<std::string>{t2});
  EXPECT_NE(p.ToString().find("# results:"), std::string::npos);
}

TEST(MilProgramTest, RunExecutesWholeProgram) {
  kernel::ExecContext ctx;
  MilEnv env;
  env.BindBat("base", bat::Bat(Column::MakeOid({1, 2, 3}),
                               Column::MakeInt({5, 6, 7})));
  MilBuilder b;
  b.Let("sel", "select.>", {V("base"), L(Value::Int(5))});
  b.Let("n", "count", {V("sel")});
  MilProgram p = b.Finish({"n"});
  MilInterpreter interp(&env, &ctx);
  ASSERT_TRUE(interp.Run(p).ok());
  EXPECT_EQ(env.GetValue("n").ValueOrDie().AsLng(), 2);
}

}  // namespace
}  // namespace moaflat::mil
