// Section 5.1 property guarding on updates: properties survive inserts
// that preserve them and are switched off by inserts that violate them.

#include <gtest/gtest.h>

#include "bat/bat.h"
#include "kernel/operators.h"

namespace moaflat::kernel {
namespace {

using bat::Bat;
using bat::Column;
using bat::Properties;

Bat SortedKeyedBat() {
  return Bat(Column::MakeOid({1, 2, 3}), Column::MakeInt({10, 20, 30}),
             Properties{true, true, true, true});
}

TEST(InsertTest, AppendsValues) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(), {Value::MakeOid(4)},
                       {Value::Int(40)})
                .ValueOrDie();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.head().OidAt(3), 4u);
  EXPECT_EQ(out.tail().GetValue(3).AsInt(), 40);
}

TEST(InsertTest, OrderPreservingInsertKeepsSortedness) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(), {Value::MakeOid(4)},
                       {Value::Int(35)})
                .ValueOrDie();
  EXPECT_TRUE(out.props().hsorted);
  EXPECT_TRUE(out.props().tsorted);
  EXPECT_TRUE(out.Validate().ok());
}

TEST(InsertTest, OutOfOrderInsertSwitchesSortednessOff) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(), {Value::MakeOid(9)},
                       {Value::Int(5)})
                .ValueOrDie();
  EXPECT_TRUE(out.props().hsorted);   // 9 continues the head order
  EXPECT_FALSE(out.props().tsorted);  // 5 breaks the tail order
  EXPECT_TRUE(out.Validate().ok());
}

TEST(InsertTest, DuplicateHeadSwitchesKeyOff) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(), {Value::MakeOid(2)},
                       {Value::Int(99)})
                .ValueOrDie();
  EXPECT_FALSE(out.props().hkey);
  EXPECT_TRUE(out.props().tkey);  // 99 is fresh
  EXPECT_TRUE(out.Validate().ok());
}

TEST(InsertTest, DuplicateWithinInsertedRunDetected) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(),
                       {Value::MakeOid(7), Value::MakeOid(7)},
                       {Value::Int(70), Value::Int(80)})
                .ValueOrDie();
  EXPECT_FALSE(out.props().hkey);
  EXPECT_TRUE(out.Validate().ok());
}

TEST(InsertTest, OriginalBatUntouched) {
  ExecContext ctx;
  Bat original = SortedKeyedBat();
  Bat out = InsertBuns(ctx, original, {Value::MakeOid(4)}, {Value::Int(1)})
                .ValueOrDie();
  EXPECT_EQ(original.size(), 3u);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_TRUE(original.props().tsorted);  // value semantics: no mutation
}

TEST(InsertTest, MismatchedCountsRejected) {
  ExecContext ctx;
  EXPECT_FALSE(
      InsertBuns(ctx, SortedKeyedBat(), {Value::MakeOid(4)}, {}).ok());
}

TEST(InsertTest, WorksOnStringTails) {
  ExecContext ctx;
  Bat names(Column::MakeOid({1, 2}), Column::MakeStr({"ann", "bob"}),
            Properties{true, true, true, true});
  Bat out = InsertBuns(ctx, names, {Value::MakeOid(3)}, {Value::Str("ann")})
                .ValueOrDie();
  EXPECT_FALSE(out.props().tkey);    // duplicate string detected
  EXPECT_FALSE(out.props().tsorted); // "ann" < "bob"
  EXPECT_EQ(out.tail().Str(2), "ann");
}

TEST(InsertTest, EmptyInsertIsIdentityOnProperties) {
  ExecContext ctx;
  Bat out = InsertBuns(ctx, SortedKeyedBat(), {}, {}).ValueOrDie();
  EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(out.props().hkey);
  EXPECT_TRUE(out.props().tsorted);
}

}  // namespace
}  // namespace moaflat::kernel
