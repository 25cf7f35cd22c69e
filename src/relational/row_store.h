#ifndef MOAFLAT_RELATIONAL_ROW_STORE_H_
#define MOAFLAT_RELATIONAL_ROW_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bat/column.h"
#include "common/result.h"
#include "common/value.h"
#include "storage/page_accountant.h"
#include "storage/wal.h"

namespace moaflat::rel {

/// Column description of an N-ary relational table.
struct ColumnDef {
  std::string name;
  MonetType type;
};

class Table;

/// Inverted-list index over one column: the access structure the paper's
/// relational cost model assumes ("an array of [value, tuple-pointer]
/// records", Section 5.2.2). Stored as a value-sorted permutation of row
/// ids; each index entry costs 2w bytes (C_inv = B / 2w).
class InvertedIndex {
 public:
  InvertedIndex(const Table* table, int col);

  /// Row ids whose value lies in [lo, hi] (nil = unbounded), in index
  /// (value) order. Binary-search probes and the scanned index range are
  /// charged to `io` (null: not accounted).
  std::vector<uint32_t> RangeSelect(storage::IoStats* io, const Value& lo,
                                    const Value& hi) const;

  size_t size() const { return order_.size(); }

 private:
  size_t LowerBound(storage::IoStats* io, const Value& v,
                    bool after_equal) const;
  void TouchEntry(storage::IoStats* io, size_t i) const;

  const Table* table_;
  int col_;
  std::vector<uint32_t> order_;
  uint64_t heap_id_;
  int entry_width_;
};

/// An N-ary slotted-row table: the non-decomposed storage layout of the
/// paper's relational comparison point. Values are kept in typed arrays
/// for convenience, but IO is accounted *row-wise*: touching any column of
/// row r faults the page holding the full (n+1)*w-byte tuple — which is
/// exactly why wide tuples hurt (Section 2, "a decreasing percentage of IO
/// is really useful").
class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> cols);

  const std::string& name() const { return name_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return cols_.size(); }
  const std::vector<ColumnDef>& cols() const { return cols_; }

  /// Index of a column by name; -1 if absent.
  int ColIndex(const std::string& name) const;

  /// Appends one row (values coerced to the declared types). When a WAL is
  /// attached, the row is logged *before* it is applied (write-ahead): a
  /// failed log append rejects the row unapplied. Durability still needs a
  /// Sync on the WAL — bulk loaders batch many appends per fsync.
  Status AppendRow(const std::vector<Value>& row);

  /// Attaches (or detaches, with null) the write-ahead log rows of this
  /// table are logged to. Replay uses ReplayRowAppends, which detaches the
  /// log around re-application so recovery never re-logs.
  void AttachWal(storage::Wal* wal) { wal_ = wal; }
  storage::Wal* wal() const { return wal_; }

  /// Seals the table; must be called before reads or index creation.
  void Finalize();

  Value At(size_t row, int col) const;
  double NumAt(size_t row, int col) const;
  std::string_view StrAt(size_t row, int col) const;
  Oid OidAt(size_t row, int col) const;

  /// Bytes of one stored tuple (the (n+1)*w of the cost model: n columns
  /// plus a row header slot).
  size_t row_width() const { return row_width_; }

  /// Total table bytes, for the load report.
  size_t byte_size() const { return num_rows_ * row_width_; }

  /// Charges the page holding row `r` to `io` (null: not accounted).
  void TouchRow(storage::IoStats* io, size_t r) const {
    if (io != nullptr) {
      io->TouchBytes(heap_id_, r * row_width_, row_width_,
                     storage::Access::kRandom);
    }
  }

  /// Charges a sequential scan of rows [lo, hi) to `io`.
  void TouchRowRange(storage::IoStats* io, size_t lo, size_t hi) const {
    if (io != nullptr && hi > lo) {
      io->TouchBytes(heap_id_, lo * row_width_, (hi - lo) * row_width_,
                     storage::Access::kSequential);
    }
  }

  /// Builds (or returns the cached) inverted-list index on `col`.
  const InvertedIndex* EnsureIndex(int col);
  const InvertedIndex* Index(int col) const;

 private:
  friend class InvertedIndex;

  std::string name_;
  std::vector<ColumnDef> cols_;
  std::vector<bat::ColumnBuilder> builders_;
  std::vector<bat::ColumnPtr> data_;
  size_t num_rows_ = 0;
  size_t row_width_ = 0;
  uint64_t heap_id_;
  storage::Wal* wal_ = nullptr;
  bool finalized_ = false;
  std::map<int, std::unique_ptr<InvertedIndex>> indexes_;
};

/// A named collection of tables (the baseline database).
class RowDatabase {
 public:
  Table* AddTable(std::string name, std::vector<ColumnDef> cols);
  Table* Find(const std::string& name);
  const Table* Find(const std::string& name) const;

  size_t total_bytes() const;

  /// Attaches `wal` to every current and future table of this database.
  void AttachWal(storage::Wal* wal);

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  storage::Wal* wal_ = nullptr;
};

/// Re-applies recovered kWalRowAppend records onto `db` (tables must exist
/// with matching arity; rows land in declaration order). The tables' WAL
/// attachment is suspended during replay so recovered rows are not logged
/// a second time.
Status ReplayRowAppends(RowDatabase* db,
                        const std::vector<storage::WalRecord>& records);

}  // namespace moaflat::rel

#endif  // MOAFLAT_RELATIONAL_ROW_STORE_H_
