#ifndef MOAFLAT_BAT_HASH_INDEX_H_
#define MOAFLAT_BAT_HASH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "bat/column.h"

namespace moaflat::bat {

/// The search accelerator of one column, stored "in a separate heap"
/// (Fig. 2), in one of three forms picked from the data at build time:
///   - chained: the classic Monet bucket hash table (bucket heads plus
///     chain links over the value hashes), for any column;
///   - dense: a unique oid column whose keys span at most 2n values is
///     addressed directly, pos_of[oid - min] (at most 2n slots, against the
///     chained form's 2.5n or more);
///   - void: a void column needs no table, pos = oid - base.
/// Every form answers every probe identically. Built once per column, then
/// shared; probing never allocates and is safe from any number of threads
/// concurrently (the structure is immutable after construction).
class HashIndex {
 public:
  enum class Form { kChained, kDense, kVoid };

  /// Builds the index over all positions of `col`. degree > 1 builds on
  /// the TaskPool: a parallel hashing pass, then bucket-range-partitioned
  /// chain linking (chained); a parallel range pass, then parallel slot
  /// stores and a parallel duplicate check (dense). The resulting structure
  /// is bit-identical to the serial build at any degree (each bucket's
  /// chain depends only on the insertion order of its own positions, which
  /// stays ascending; a duplicate oid falls back to the chained form
  /// whichever store wins its slot), so probe results — including match
  /// *order* — never depend on the degree the accelerator was built at.
  explicit HashIndex(ColumnPtr col, int degree = 1);

  // The bulk probes. Matches are the positions whose value Equals
  // probe[j] (bat/column.h's value view) and shares its key class
  // (integral, float or str: the classes hash apart, so a hash probe never
  // pairs an integral with a float key), visited in chain order. Each pass
  // lowers a KeyBatch of probe rows, then looks them up in one loop per
  // (indexed shape, probe key kind).

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

  /// The form the build picked.
  Form form() const { return form_; }

  size_t byte_size() const {
    return (buckets_.size() + next_.size() + pos_of_.size()) *
           sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEnd = 0;

  void BuildChained(int degree);

  /// Fills pos_of_ over range_; false (and no table) on a duplicate oid.
  bool BuildDense(int degree);

  /// The probe loop behind every bulk form: for each j in [begin, end),
  /// calls `row(j, chain)`, where `chain(visit)` walks probe[j]'s matches
  /// and calls `visit(pos)` for each until it returns false.
  template <typename Row>
  void ProbeRows(const Column& probe, size_t begin, size_t end,
                 Row&& row) const {
    KeyBatch batch;
    for (size_t lo = begin; lo < end; lo += KeyBatch::kRows) {
      const size_t n = std::min(end - lo, KeyBatch::kRows);
      batch.Fill(probe, lo, lo + n);
      batch.Visit([&](const auto& probes) {
        if (form_ == Form::kChained) {
          ProbeChained(probes, lo, n, row);
        } else {
          ProbeDense(probes, lo, n, row);
        }
      });
    }
  }

  template <typename P, typename Row>
  void ProbeChained(const P& probes, size_t lo, size_t n, Row& row) const {
    col_->VisitValues([&](const auto& keys) {
      if constexpr (!kSameKeyClass<decltype(keys), P>) {
        for (size_t k = 0; k < n; ++k) row(lo + k, NoMatch);
      } else {
        uint32_t heads[KeyBatch::kRows];
        for (size_t k = 0; k < n; ++k) {
          heads[k] = buckets_[Hash(probes, k) & mask_];
        }
        for (size_t k = 0; k < n; ++k) {
          row(lo + k, [&](auto&& visit) {
            for (uint32_t cur = heads[k]; cur != kEnd; cur = next_[cur - 1]) {
              const uint32_t pos = cur - 1;
              if (Equal(keys, pos, probes, k) && !visit(pos)) return;
            }
          });
        }
      }
    });
  }

  /// One slot read per probe: no hash, no chain walk, no key compare.
  template <typename P, typename Row>
  void ProbeDense(const P& probes, size_t lo, size_t n, Row& row) const {
    using K = decltype(ValueKey(probes[0]));
    if constexpr (!std::is_integral_v<K>) {
      for (size_t k = 0; k < n; ++k) row(lo + k, NoMatch);
    } else {
      for (size_t k = 0; k < n; ++k) {
        const uint32_t slot = DenseSlot(probes[k]);
        row(lo + k, [slot](auto&& visit) {
          if (slot != kEnd) visit(slot - 1);
        });
      }
    }
  }

  /// 1 + the position holding integral key `key`, kEnd when none does.
  template <typename K>
  uint32_t DenseSlot(K key) const {
    if constexpr (std::is_signed_v<K>) {
      if (key < 0) return kEnd;  // no oid is negative
    }
    const uint64_t off = range_.Offset(static_cast<Oid>(key));
    if (off >= range_.span) return kEnd;
    return form_ == Form::kVoid ? static_cast<uint32_t>(off) + 1
                                : pos_of_[off];
  }

  static constexpr auto NoMatch = [](auto&&) {};

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
  Form form_ = Form::kChained;
  std::vector<uint32_t> buckets_;  // chained: 1-based heads, 0 = empty
  std::vector<uint32_t> next_;     // chained: chain links, 0 = end
  uint64_t mask_ = 0;
  KeyRange range_;                 // dense and void: the oids' span
  std::vector<uint32_t> pos_of_;   // dense: 1-based position per offset
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_HASH_INDEX_H_
