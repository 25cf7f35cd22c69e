#ifndef MOAFLAT_RELATIONAL_EXECUTOR_H_
#define MOAFLAT_RELATIONAL_EXECUTOR_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/row_store.h"

namespace moaflat::rel {

using RowId = uint32_t;

/// A set of qualifying rows of one table — the unit the tuple-at-a-time
/// baseline executor passes between operators.
struct RowSet {
  const Table* table = nullptr;
  std::vector<RowId> rows;

  size_t size() const { return rows.size(); }
};

// Every operator below charges the pages it touches to its first
// argument, the query's accountant (null: not accounted).

/// Sequential scan with an optional predicate; touches every tuple page
/// (the row store reads full tuples even when one column is needed).
RowSet FullScan(storage::IoStats* io, const Table& t,
                const std::function<bool(RowId)>& pred = {});

/// Index-driven range selection (nil bound = open). Touches index pages
/// only; combine with FetchFilter for the unclustered tuple retrieval of
/// the E_rel model.
RowSet IndexRange(storage::IoStats* io, Table& t, const std::string& col,
                  const Value& lo, const Value& hi);

/// Fetches each row (random tuple-page touches) and keeps those passing
/// `pred` (empty = keep all).
RowSet FetchFilter(storage::IoStats* io, const RowSet& in,
                   const std::function<bool(RowId)>& pred);

/// Hash equi-join on `left.lcol == right.rcol`; returns matching row-id
/// pairs. The build side is the right set; both sides' tuples are touched.
std::vector<std::pair<RowId, RowId>> HashJoin(storage::IoStats* io,
                                              const RowSet& left,
                                              const std::string& lcol,
                                              const RowSet& right,
                                              const std::string& rcol);

/// Hash semijoin: rows of `left` whose lcol value appears in right.rcol.
RowSet HashSemijoin(storage::IoStats* io, const RowSet& left,
                    const std::string& lcol, const RowSet& right,
                    const std::string& rcol);

/// Group-by helper: accumulates per string key. The key function renders
/// the grouping attributes; the accumulate function folds one row.
template <typename Acc>
std::map<std::string, Acc> GroupBy(
    storage::IoStats* io, const RowSet& in,
    const std::function<std::string(RowId)>& key,
    const std::function<void(Acc*, RowId)>& accumulate) {
  std::map<std::string, Acc> groups;
  for (RowId r : in.rows) {
    in.table->TouchRow(io, r);
    accumulate(&groups[key(r)], r);
  }
  return groups;
}

/// Sorts row ids by a numeric rank (descending by default) and keeps the
/// first `n`.
RowSet TopNBy(const RowSet& in, size_t n,
              const std::function<double(RowId)>& rank,
              bool descending = true);

}  // namespace moaflat::rel

#endif  // MOAFLAT_RELATIONAL_EXECUTOR_H_
