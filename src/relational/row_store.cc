#include "relational/row_store.h"

#include <algorithm>

#include "storage/serde.h"

namespace moaflat::rel {

// ------------------------------------------------------------------ Table

Table::Table(std::string name, std::vector<ColumnDef> cols)
    : name_(std::move(name)),
      cols_(std::move(cols)),
      heap_id_(storage::NewHeapId()) {
  row_width_ = static_cast<size_t>(TypeWidth(MonetType::kOidT));  // header
  for (const ColumnDef& c : cols_) {
    builders_.emplace_back(c.type);
    // Strings in the row store are stored inline at a nominal slot width;
    // like the cost model, we take a uniform byte width per value.
    row_width_ += static_cast<size_t>(std::max(TypeWidth(c.type), 1));
  }
}

int Table::ColIndex(const std::string& name) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (finalized_) return Status::Invalid("table already finalized");
  if (row.size() != cols_.size()) {
    return Status::Invalid("row arity mismatch in " + name_);
  }
  if (wal_ != nullptr) {
    // Write-ahead: the row reaches the log before the table, so a crash
    // after the append either replays the row or never saw it — it can
    // never exist in the table without a log record behind it.
    std::string body;
    storage::serde::PutBytes(&body, name_);
    storage::serde::PutU32(&body, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) storage::serde::PutValue(&body, v);
    MF_RETURN_NOT_OK(wal_->Append(storage::kWalRowAppend, body).status());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    MF_RETURN_NOT_OK(builders_[i].AppendValue(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

void Table::Finalize() {
  if (finalized_) return;
  for (auto& b : builders_) data_.push_back(b.Finish());
  builders_.clear();
  finalized_ = true;
}

Value Table::At(size_t row, int col) const {
  return data_[col]->GetValue(row);
}

double Table::NumAt(size_t row, int col) const {
  return data_[col]->NumAt(row);
}

std::string_view Table::StrAt(size_t row, int col) const {
  return data_[col]->Str(row);
}

Oid Table::OidAt(size_t row, int col) const {
  return data_[col]->OidAt(row);
}

const InvertedIndex* Table::EnsureIndex(int col) {
  auto it = indexes_.find(col);
  if (it == indexes_.end()) {
    it = indexes_.emplace(col, std::make_unique<InvertedIndex>(this, col))
             .first;
  }
  return it->second.get();
}

const InvertedIndex* Table::Index(int col) const {
  auto it = indexes_.find(col);
  return it == indexes_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------- InvertedIndex

InvertedIndex::InvertedIndex(const Table* table, int col)
    : table_(table),
      col_(col),
      heap_id_(storage::NewHeapId()),
      entry_width_(2 * std::max(TypeWidth(table->cols()[col].type), 4)) {
  order_.resize(table->num_rows());
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<uint32_t>(i);
  }
  // Sort key: the column's value view, whose Compare is CompareAt's.
  table->data_[col_]->VisitValues([&](const auto& v) {
    std::stable_sort(order_.begin(), order_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return bat::Compare(v, a, v, b) < 0;
                     });
  });
}

void InvertedIndex::TouchEntry(storage::IoStats* io, size_t i) const {
  if (io != nullptr) {
    io->TouchBytes(heap_id_, i * entry_width_, entry_width_,
                   storage::Access::kRandom);
  }
}

size_t InvertedIndex::LowerBound(storage::IoStats* io, const Value& v,
                                 bool after_equal) const {
  const bat::Column& c = *table_->data_[col_];
  size_t lo = 0, hi = order_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    TouchEntry(io, mid);
    const int cmp = c.CompareValue(order_[mid], v);
    if (after_equal ? (cmp <= 0) : (cmp < 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<uint32_t> InvertedIndex::RangeSelect(storage::IoStats* io,
                                                 const Value& lo,
                                                 const Value& hi) const {
  size_t begin = lo.is_nil() ? 0 : LowerBound(io, lo, false);
  size_t end = hi.is_nil() ? order_.size() : LowerBound(io, hi, true);
  if (begin > end) begin = end;
  if (io != nullptr && end > begin) {
    io->TouchBytes(heap_id_, begin * entry_width_,
                   (end - begin) * entry_width_, storage::Access::kSequential);
  }
  return std::vector<uint32_t>(order_.begin() + begin, order_.begin() + end);
}

// ------------------------------------------------------------ RowDatabase

Table* RowDatabase::AddTable(std::string name, std::vector<ColumnDef> cols) {
  auto table = std::make_unique<Table>(name, std::move(cols));
  Table* ptr = table.get();
  ptr->AttachWal(wal_);
  tables_[name] = std::move(table);
  return ptr;
}

void RowDatabase::AttachWal(storage::Wal* wal) {
  wal_ = wal;
  for (auto& [name, t] : tables_) t->AttachWal(wal);
}

Table* RowDatabase::Find(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* RowDatabase::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

size_t RowDatabase::total_bytes() const {
  size_t total = 0;
  for (const auto& [name, t] : tables_) total += t->byte_size();
  return total;
}

Status ReplayRowAppends(RowDatabase* db,
                        const std::vector<storage::WalRecord>& records) {
  for (const storage::WalRecord& rec : records) {
    if (rec.kind != storage::kWalRowAppend) {
      return Status::Invalid("ReplayRowAppends: not a row-append record");
    }
    storage::serde::Cursor cur(rec.body);
    MF_ASSIGN_OR_RETURN(const std::string_view name, cur.GetBytes());
    Table* table = db->Find(std::string(name));
    if (table == nullptr) {
      return Status::IoError("wal replay: unknown table '" +
                             std::string(name) + "'");
    }
    MF_ASSIGN_OR_RETURN(const uint32_t arity, cur.GetU32());
    std::vector<Value> row;
    row.reserve(arity);
    for (uint32_t i = 0; i < arity; ++i) {
      MF_ASSIGN_OR_RETURN(Value v, cur.GetValue());
      row.push_back(std::move(v));
    }
    // Suspend logging while re-applying: the record already exists.
    storage::Wal* attached = table->wal();
    table->AttachWal(nullptr);
    const Status st = table->AppendRow(row);
    table->AttachWal(attached);
    MF_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace moaflat::rel
