#ifndef MOAFLAT_BAT_HASH_INDEX_H_
#define MOAFLAT_BAT_HASH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bat/column.h"

namespace moaflat::bat {

/// Chained bucket hash table over one column, the classic Monet search
/// accelerator stored "in a separate heap" (Fig. 2). Built once per column,
/// then shared; probing never allocates and is safe from any number of
/// threads concurrently (the structure is immutable after construction).
class HashIndex {
 public:
  /// Builds the index over all positions of `col`. degree > 1 builds on
  /// the TaskPool: a parallel hashing pass, then bucket-range-partitioned
  /// chain linking. The resulting structure is bit-identical to the
  /// serial build at any degree (each bucket's chain depends only on the
  /// insertion order of its own positions, which stays ascending), so
  /// probe results — including match *order* — never depend on the degree
  /// the accelerator happened to be built at.
  explicit HashIndex(ColumnPtr col, int degree = 1);

  // The bulk probes. Matches are the positions whose value Equals
  // probe[j] (bat/column.h's value view), visited in chain order. Each
  // pass lowers a KeyBatch of probe rows, then hashes them and walks their
  // chains in one loop per (indexed shape, probe key kind).

  /// Invokes `fn(j, pos)` for every match of probe[j], j ascending over
  /// [begin, end), matches in chain order.
  template <typename Fn>
  void ForEachMatchRange(const Column& probe, size_t begin, size_t end,
                         Fn&& fn) const {
    ProbeRows(probe, begin, end, [&](size_t j, auto&& chain) {
      chain([&](uint32_t pos) {
        fn(j, pos);
        return true;
      });
    });
  }

  /// Invokes `fn(j, pos)` for every probe[j], j ascending over [begin,
  /// end), that has a match, where pos is the *smallest* matching
  /// position.
  template <typename Fn>
  void ForEachFirstMatch(const Column& probe, size_t begin, size_t end,
                         Fn&& fn) const {
    ProbeRows(probe, begin, end, [&](size_t j, auto&& chain) {
      int64_t found = -1;
      chain([&](uint32_t pos) {
        if (found < 0 || pos < static_cast<uint64_t>(found)) found = pos;
        return true;
      });
      if (found >= 0) fn(j, static_cast<uint32_t>(found));
    });
  }

  /// Invokes `fn(j)` for every probe[j], j ascending over [begin, end),
  /// that has *no* match (kdiff/kunion anti-probes).
  template <typename Fn>
  void ForEachMissing(const Column& probe, size_t begin, size_t end,
                      Fn&& fn) const {
    ProbeRows(probe, begin, end, [&](size_t j, auto&& chain) {
      if (!AnyMatch(chain)) fn(j);
    });
  }

  /// Invokes `fn(j)` for every probe[j], j ascending over [begin, end),
  /// that has at least one match.
  template <typename Fn>
  void ForEachContained(const Column& probe, size_t begin, size_t end,
                        Fn&& fn) const {
    ProbeRows(probe, begin, end, [&](size_t j, auto&& chain) {
      if (AnyMatch(chain)) fn(j);
    });
  }

  size_t byte_size() const {
    return (buckets_.size() + next_.size()) * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEnd = 0;

  /// The probe loop behind every bulk form: for each j in [begin, end),
  /// calls `row(j, chain)`, where `chain(visit)` walks probe[j]'s bucket
  /// and calls `visit(pos)` for each match until it returns false.
  template <typename Row>
  void ProbeRows(const Column& probe, size_t begin, size_t end,
                 Row&& row) const {
    KeyBatch batch;
    uint32_t heads[KeyBatch::kRows];
    for (size_t lo = begin; lo < end; lo += KeyBatch::kRows) {
      const size_t n = std::min(end - lo, KeyBatch::kRows);
      batch.Fill(probe, lo, lo + n);
      batch.Visit([&](const auto& probes) {
        for (size_t k = 0; k < n; ++k) {
          heads[k] = buckets_[Hash(probes, k) & mask_];
        }
        col_->VisitValues([&](const auto& keys) {
          for (size_t k = 0; k < n; ++k) {
            row(lo + k, [&](auto&& visit) {
              for (uint32_t cur = heads[k]; cur != kEnd;
                   cur = next_[cur - 1]) {
                const uint32_t pos = cur - 1;
                if (Equal(keys, pos, probes, k) && !visit(pos)) return;
              }
            });
          }
        });
      });
    }
  }

  template <typename Chain>
  static bool AnyMatch(Chain&& chain) {
    bool hit = false;
    chain([&](uint32_t) {
      hit = true;
      return false;
    });
    return hit;
  }

  ColumnPtr col_;
  std::vector<uint32_t> buckets_;  // 1-based heads, 0 = empty
  std::vector<uint32_t> next_;     // chain links, 0 = end
  uint64_t mask_;
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_HASH_INDEX_H_
