#include "relational/executor.h"

namespace moaflat::rel {

RowSet FullScan(storage::IoStats* io, const Table& t,
                const std::function<bool(RowId)>& pred) {
  t.TouchRowRange(io, 0, t.num_rows());
  RowSet out;
  out.table = &t;
  out.rows.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (!pred || pred(static_cast<RowId>(r))) {
      out.rows.push_back(static_cast<RowId>(r));
    }
  }
  return out;
}

RowSet IndexRange(storage::IoStats* io, Table& t, const std::string& col,
                  const Value& lo, const Value& hi) {
  const int c = t.ColIndex(col);
  const InvertedIndex* idx = t.EnsureIndex(c);
  RowSet out;
  out.table = &t;
  out.rows = idx->RangeSelect(io, lo, hi);
  return out;
}

RowSet FetchFilter(storage::IoStats* io, const RowSet& in,
                   const std::function<bool(RowId)>& pred) {
  RowSet out;
  out.table = in.table;
  out.rows.reserve(in.rows.size());
  for (RowId r : in.rows) {
    in.table->TouchRow(io, r);
    if (!pred || pred(r)) out.rows.push_back(r);
  }
  return out;
}

namespace {

/// Join key: numeric columns hash their widened value, strings their text.
struct Key {
  bool is_str;
  double num;
  std::string str;

  bool operator==(const Key& o) const {
    return is_str == o.is_str && num == o.num && str == o.str;
  }
};

struct KeyHash {
  size_t operator()(const Key& k) const {
    if (k.is_str) return std::hash<std::string>()(k.str);
    return std::hash<double>()(k.num);
  }
};

Key KeyOf(const Table& t, RowId r, int col) {
  if (t.cols()[col].type == MonetType::kStr) {
    return Key{true, 0, std::string(t.StrAt(r, col))};
  }
  return Key{false, t.NumAt(r, col), ""};
}

}  // namespace

std::vector<std::pair<RowId, RowId>> HashJoin(storage::IoStats* io,
                                              const RowSet& left,
                                              const std::string& lcol,
                                              const RowSet& right,
                                              const std::string& rcol) {
  const int lc = left.table->ColIndex(lcol);
  const int rc = right.table->ColIndex(rcol);
  std::unordered_multimap<Key, RowId, KeyHash> build;
  build.reserve(right.rows.size() * 2);
  for (RowId r : right.rows) {
    right.table->TouchRow(io, r);
    build.emplace(KeyOf(*right.table, r, rc), r);
  }
  std::vector<std::pair<RowId, RowId>> out;
  for (RowId l : left.rows) {
    left.table->TouchRow(io, l);
    auto [lo, hi] = build.equal_range(KeyOf(*left.table, l, lc));
    for (auto it = lo; it != hi; ++it) out.emplace_back(l, it->second);
  }
  return out;
}

RowSet HashSemijoin(storage::IoStats* io, const RowSet& left,
                    const std::string& lcol, const RowSet& right,
                    const std::string& rcol) {
  const int lc = left.table->ColIndex(lcol);
  const int rc = right.table->ColIndex(rcol);
  std::unordered_map<Key, bool, KeyHash> build;
  build.reserve(right.rows.size() * 2);
  for (RowId r : right.rows) {
    right.table->TouchRow(io, r);
    build.emplace(KeyOf(*right.table, r, rc), true);
  }
  RowSet out;
  out.table = left.table;
  for (RowId l : left.rows) {
    left.table->TouchRow(io, l);
    if (build.count(KeyOf(*left.table, l, lc)) > 0) out.rows.push_back(l);
  }
  return out;
}

RowSet TopNBy(const RowSet& in, size_t n,
              const std::function<double(RowId)>& rank, bool descending) {
  RowSet out = in;
  auto cmp = [&](RowId a, RowId b) {
    const double ra = rank(a), rb = rank(b);
    if (ra != rb) return descending ? ra > rb : ra < rb;
    return a < b;
  };
  const size_t k = std::min(n, out.rows.size());
  std::partial_sort(out.rows.begin(), out.rows.begin() + k, out.rows.end(),
                    cmp);
  out.rows.resize(k);
  return out;
}

}  // namespace moaflat::rel
