#include <gtest/gtest.h>

#include "relational/executor.h"
#include "relational/row_store.h"
#include "storage/page_accountant.h"

namespace moaflat::rel {
namespace {

std::unique_ptr<Table> MakePeople() {
  auto t = std::make_unique<Table>(
      "people", std::vector<ColumnDef>{{"id", MonetType::kOidT},
                                       {"name", MonetType::kStr},
                                       {"age", MonetType::kInt},
                                       {"balance", MonetType::kDbl}});
  const char* names[] = {"ann", "bob", "cat", "dan", "eve"};
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(t->AppendRow({Value::MakeOid(100 + i), Value::Str(names[i]),
                              Value::Int(20 + 10 * i),
                              Value::Dbl(1.5 * i)})
                    .ok());
  }
  t->Finalize();
  return t;
}

TEST(RowStoreTest, SchemaAndAccessors) {
  auto t = MakePeople();
  EXPECT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->num_cols(), 4u);
  EXPECT_EQ(t->ColIndex("age"), 2);
  EXPECT_EQ(t->ColIndex("nope"), -1);
  EXPECT_EQ(t->StrAt(1, 1), "bob");
  EXPECT_EQ(t->OidAt(4, 0), 104u);
  EXPECT_DOUBLE_EQ(t->NumAt(2, 3), 3.0);
  EXPECT_EQ(t->At(0, 2).AsInt(), 20);
}

TEST(RowStoreTest, RowWidthIncludesAllColumnsPlusHeader) {
  auto t = MakePeople();
  // 8 (header) + 8 (oid) + 4 (str slot) + 4 (int) + 8 (dbl).
  EXPECT_EQ(t->row_width(), 32u);
  EXPECT_EQ(t->byte_size(), 5u * 32u);
}

TEST(RowStoreTest, AppendValidation) {
  Table t("x", {{"a", MonetType::kInt}});
  EXPECT_FALSE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int(1)}).ok());
  t.Finalize();
  EXPECT_FALSE(t.AppendRow({Value::Int(2)}).ok());
}

TEST(RowStoreTest, InvertedIndexRangeSelect) {
  auto t = MakePeople();
  const InvertedIndex* idx = t->EnsureIndex(t->ColIndex("age"));
  EXPECT_EQ(idx->size(), 5u);
  auto rows = idx->RangeSelect(nullptr, Value::Int(30), Value::Int(50));
  EXPECT_EQ(rows.size(), 3u);
  // In value order: ages 30, 40, 50 -> rows 1, 2, 3.
  EXPECT_EQ(rows[0], 1u);
  EXPECT_EQ(rows[2], 3u);
  auto open = idx->RangeSelect(nullptr, Value(), Value::Int(25));
  EXPECT_EQ(open.size(), 1u);
}

TEST(ExecutorTest, FullScanAndFilter) {
  auto t = MakePeople();
  RowSet all = FullScan(nullptr, *t);
  EXPECT_EQ(all.size(), 5u);
  RowSet adults =
      FullScan(nullptr, *t, [&](RowId r) { return t->NumAt(r, 2) >= 40; });
  EXPECT_EQ(adults.size(), 3u);
}

TEST(ExecutorTest, IndexRangePlusFetchFilter) {
  auto t = MakePeople();
  RowSet sel = IndexRange(nullptr, *t, "age", Value::Int(30), Value());
  RowSet rich =
      FetchFilter(nullptr, sel, [&](RowId r) { return t->NumAt(r, 3) > 3.0; });
  EXPECT_EQ(rich.size(), 2u);  // dan (4.5), eve (6.0)
}

TEST(ExecutorTest, HashJoinAndSemijoin) {
  auto people = MakePeople();
  Table orders("orders", {{"oid", MonetType::kOidT},
                          {"owner", MonetType::kOidT}});
  ASSERT_TRUE(orders.AppendRow({Value::MakeOid(1), Value::MakeOid(100)}).ok());
  ASSERT_TRUE(orders.AppendRow({Value::MakeOid(2), Value::MakeOid(100)}).ok());
  ASSERT_TRUE(orders.AppendRow({Value::MakeOid(3), Value::MakeOid(103)}).ok());
  orders.Finalize();

  auto pairs = HashJoin(nullptr, FullScan(nullptr, orders), "owner",
                        FullScan(nullptr, *people), "id");
  EXPECT_EQ(pairs.size(), 3u);

  RowSet owners = HashSemijoin(nullptr, FullScan(nullptr, *people), "id",
                               FullScan(nullptr, orders), "owner");
  EXPECT_EQ(owners.size(), 2u);  // ann, dan
}

TEST(ExecutorTest, HashJoinOnStrings) {
  auto people = MakePeople();
  Table tags("tags", {{"who", MonetType::kStr}});
  ASSERT_TRUE(tags.AppendRow({Value::Str("cat")}).ok());
  ASSERT_TRUE(tags.AppendRow({Value::Str("zed")}).ok());
  tags.Finalize();
  auto pairs = HashJoin(nullptr, FullScan(nullptr, tags), "who",
                        FullScan(nullptr, *people), "name");
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(ExecutorTest, GroupByAccumulates) {
  auto t = MakePeople();
  struct Acc {
    double total = 0;
    int n = 0;
  };
  auto groups = GroupBy<Acc>(
      nullptr, FullScan(nullptr, *t),
      [&](RowId r) { return t->NumAt(r, 2) >= 40 ? "old" : "young"; },
      [&](Acc* a, RowId r) {
        a->total += t->NumAt(r, 3);
        a->n++;
      });
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups["young"].n, 2);
  EXPECT_DOUBLE_EQ(groups["old"].total, 3.0 + 4.5 + 6.0);
}

TEST(ExecutorTest, TopNByRank) {
  auto t = MakePeople();
  RowSet top =
      TopNBy(FullScan(nullptr, *t), 2, [&](RowId r) { return t->NumAt(r, 3); });
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top.rows[0], 4u);  // eve, highest balance
  EXPECT_EQ(top.rows[1], 3u);
  RowSet bottom = TopNBy(FullScan(nullptr, *t), 2,
                         [&](RowId r) { return t->NumAt(r, 3); }, false);
  EXPECT_EQ(bottom.rows[0], 0u);
}

TEST(ExecutorTest, RowStorePaysFullTupleIo) {
  // The motivating asymmetry: reading one column of a wide row-store
  // table costs full-tuple pages, while the equivalent BAT costs only the
  // narrow column. 8192 rows x 32B = 64 pages vs int column 8192x4B = 8.
  auto wide = std::make_unique<Table>(
      "wide", std::vector<ColumnDef>{{"a", MonetType::kInt},
                                     {"b", MonetType::kDbl},
                                     {"c", MonetType::kDbl},
                                     {"d", MonetType::kStr}});
  for (int i = 0; i < 8192; ++i) {
    ASSERT_TRUE(wide->AppendRow({Value::Int(i), Value::Dbl(0), Value::Dbl(0),
                                 Value::Str("xx")})
                    .ok());
  }
  wide->Finalize();
  storage::IoStats row_io;
  FullScan(&row_io, *wide);
  bat::ColumnPtr col = bat::Column::MakeInt(std::vector<int32_t>(8192, 1));
  storage::IoStats col_io;
  col->TouchAll(&col_io);
  EXPECT_GT(row_io.faults(), 4 * col_io.faults());
}

TEST(RowDatabaseTest, FindAndTotalBytes) {
  RowDatabase db;
  Table* t = db.AddTable("t", {{"a", MonetType::kInt}});
  ASSERT_TRUE(t->AppendRow({Value::Int(1)}).ok());
  t->Finalize();
  EXPECT_EQ(db.Find("t"), t);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_GT(db.total_bytes(), 0u);
}

}  // namespace
}  // namespace moaflat::rel
