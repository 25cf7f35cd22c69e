#include <gtest/gtest.h>

#include "bat/bat.h"
#include "kernel/exec_context.h"
#include "kernel/exec_tracer.h"
#include "kernel/operators.h"
#include "moa/result_view.h"
#include "moa/struct_expr.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using moa::ResultView;
using moa::StructExpr;

class ResultViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ids: two groups; YEAR / LOSS keyed per group; INDEX maps groups to
    // member ids — the Q13 result shape.
    env_.BindBat("groups", Bat(Column::MakeOid({0, 1}),
                               Column::MakeVoid(0, 2)));
    env_.BindBat("YEAR", Bat(Column::MakeOid({0, 1}),
                             Column::MakeInt({1994, 1995})));
    env_.BindBat("LOSS", Bat(Column::MakeOid({0, 1}),
                             Column::MakeDbl({10.5, 20.25})));
    env_.BindBat("INDEX", Bat(Column::MakeOid({0, 0, 1}),
                              Column::MakeOid({100, 101, 102})));
    env_.BindBat("MEMBER_VAL", Bat(Column::MakeOid({100, 101, 102}),
                                   Column::MakeStr({"a", "b", "c"})));
  }
  mil::MilEnv env_;
};

TEST_F(ResultViewTest, SetIdsDeduplicates) {
  ResultView view(&env_);
  auto set = StructExpr::Set("INDEX", StructExpr::Atom("MEMBER_VAL"));
  auto ids = view.SetIds(*set).ValueOrDie();
  EXPECT_EQ(ids, (std::vector<Oid>{0, 1}));
}

TEST_F(ResultViewTest, SetMembersOfFiltersByOwner) {
  ResultView view(&env_);
  auto set = StructExpr::Set("INDEX", StructExpr::Atom("MEMBER_VAL"));
  EXPECT_EQ(view.SetMembersOf(*set, 0).ValueOrDie(),
            (std::vector<Oid>{100, 101}));
  EXPECT_EQ(view.SetMembersOf(*set, 1).ValueOrDie(),
            (std::vector<Oid>{102}));
  EXPECT_TRUE(view.SetMembersOf(*set, 99).ValueOrDie().empty());
}

TEST_F(ResultViewTest, AtomValueAndMissingId) {
  ResultView view(&env_);
  auto atom = StructExpr::Atom("YEAR");
  EXPECT_EQ(view.AtomValue(*atom, 1).ValueOrDie().AsInt(), 1995);
  EXPECT_TRUE(view.AtomValue(*atom, 77).ValueOrDie().is_nil());
}

TEST_F(ResultViewTest, FieldLookup) {
  ResultView view(&env_);
  auto tuple = StructExpr::Tuple({{"year", StructExpr::Atom("YEAR")},
                                  {"loss", StructExpr::Atom("LOSS")}});
  EXPECT_TRUE(view.Field(*tuple, "loss").ok());
  EXPECT_FALSE(view.Field(*tuple, "nope").ok());
}

TEST_F(ResultViewTest, RenderNestedStructure) {
  ResultView view(&env_);
  auto result = StructExpr::Set(
      "groups",
      StructExpr::Tuple(
          {{"year", StructExpr::Atom("YEAR")},
           {"members",
            StructExpr::Set("INDEX", StructExpr::Atom("MEMBER_VAL"))}}));
  const std::string s = view.Render(*result).ValueOrDie();
  EXPECT_NE(s.find("year: 1994"), std::string::npos) << s;
  EXPECT_NE(s.find("\"a\""), std::string::npos) << s;
  EXPECT_NE(s.find("{"), std::string::npos);
}

TEST_F(ResultViewTest, RenderTruncatesLongSets) {
  ResultView view(&env_);
  auto set = StructExpr::Set("INDEX", StructExpr::Atom("MEMBER_VAL"));
  const std::string s = view.Render(*set, 1).ValueOrDie();
  EXPECT_NE(s.find("more"), std::string::npos) << s;
}

TEST_F(ResultViewTest, ErrorsOnWrongKinds) {
  ResultView view(&env_);
  auto atom = StructExpr::Atom("YEAR");
  EXPECT_FALSE(view.SetIds(*atom).ok());
  auto set = StructExpr::Set("INDEX", StructExpr::Atom("MEMBER_VAL"));
  EXPECT_FALSE(view.AtomValue(*set, 0).ok());
  EXPECT_FALSE(view.Field(*atom, "x").ok());
}

TEST(StructExprTest, ToStringMatchesPaperNotation) {
  auto s = StructExpr::Set(
      "INDEX", StructExpr::Tuple({{"", StructExpr::Atom("YEAR")},
                                  {"", StructExpr::Atom("LOSS")}}));
  EXPECT_EQ(s->ToString(), "SET(INDEX, TUPLE(YEAR, LOSS))");
  auto obj = StructExpr::ObjectRef("Item");
  EXPECT_EQ(obj->ToString(), "OBJECT<Item>");
}

TEST(ExecTracerTest, RecordsChosenImplementations) {
  kernel::ExecTracer tracer;
  kernel::ExecContext ctx;
  ctx.WithTracer(&tracer);
  Bat ab(Column::MakeOid({1, 2}), Column::MakeInt({5, 6}));
  (void)kernel::Select(ctx, ab, Value::Int(5));
  (void)kernel::SortTail(ctx, ab);
  ASSERT_EQ(tracer.records.size(), 2u);
  EXPECT_EQ(tracer.records[0].op, "select");
  EXPECT_EQ(tracer.records[0].impl, "scan_select");
  EXPECT_EQ(tracer.records[0].out_size, 1u);
  EXPECT_EQ(tracer.LastImplOf("sort"), "stable_sort");
  EXPECT_EQ(tracer.LastImplOf("join"), "");
}

TEST(ExecTracerTest, FaultAccountingDeltasPerOp) {
  storage::IoStats io;
  kernel::ExecTracer tracer;
  kernel::ExecContext ctx;
  ctx.WithIo(&io).WithTracer(&tracer);
  Bat ab(Column::MakeOid(std::vector<Oid>(4096, 1)),
         Column::MakeInt(std::vector<int32_t>(4096, 7)));
  (void)kernel::Select(ctx, ab, Value::Int(7));
  ASSERT_FALSE(tracer.records.empty());
  EXPECT_GT(tracer.records[0].faults, 0u);
  EXPECT_EQ(tracer.TotalFaults(), io.faults());
}

}  // namespace
}  // namespace moaflat
