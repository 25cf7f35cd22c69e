#ifndef MOAFLAT_KERNEL_GROUP_TABLE_H_
#define MOAFLAT_KERNEL_GROUP_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "bat/column.h"
#include "kernel/internal.h"

namespace moaflat::kernel::internal {

/// Open-addressing hash -> dense id machinery shared by the grouping
/// tables: a linear-probed slot array over a flat per-id hash vector (no
/// per-bucket chain allocations, no node-based map). Ids are dense and
/// assigned in insertion order — the first-appearance numbering the
/// parallel merges rely on. Callers keep their own id-indexed payload
/// (the representative positions) and resolve collisions via `eq`.
class HashSlots {
 public:
  HashSlots() {
    slots_.assign(kInitialSlots, 0);
    mask_ = kInitialSlots - 1;
  }

  /// Returns the id whose stored hash is `h` and for which eq(id) holds,
  /// or -1 if no such id exists yet.
  template <typename EqFn>
  int64_t Find(uint64_t h, const EqFn& eq) const {
    size_t s = h & mask_;
    while (slots_[s] != 0) {
      const uint32_t id = slots_[s] - 1;
      if (hashes_[id] == h && eq(id)) return id;
      s = (s + 1) & mask_;
    }
    return -1;
  }

  /// Appends the next dense id for `h`.
  uint32_t Insert(uint64_t h) {
    const uint32_t id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    size_t s = h & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = id + 1;
    if (hashes_.size() * 4 > slots_.size() * 3) Grow();
    return id;
  }

  size_t size() const { return hashes_.size(); }

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two; grows 2x

  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (size_t k = 0; k < hashes_.size(); ++k) {
      size_t s = hashes_[k] & mask_;
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<uint32_t>(k + 1);
    }
  }

  std::vector<uint32_t> slots_;   // 1-based ids, 0 = empty
  std::vector<uint64_t> hashes_;  // id -> stored hash, insertion order
  uint64_t mask_;
};

/// The most slots a direct-addressed table that conses `rows` rows may
/// take: one per row, and never fewer than 256 (so a chr or bit column
/// always qualifies). Such a table is O(rows).
inline uint64_t DenseBound(size_t rows) {
  return std::max<uint64_t>(rows, 256);
}

/// Hash-consing of one column's values into dense group oids (gid ==
/// insertion index). Two forms, picked from the column's key range: a
/// column whose integral keys span at most DenseBound values conses
/// through gid_of[key - min] (no hash, no compare); any other through
/// HashSlots, with collision verification against a representative
/// position through the column's value view. Both number groups in
/// first-appearance order. Every call must pass the same column.
class GroupTable {
 public:
  /// A table for up to `rows` rows of a column whose keys span `range`
  /// (bat::IntegralKeyRange; nullopt for the hashed form).
  explicit GroupTable(const std::optional<bat::KeyRange>& range = std::nullopt,
                      size_t rows = 0);

  /// Conses rows [begin, end) of `col`: gids[i - begin] = the group oid of
  /// col[i] (`gids` may be null).
  void Add(const bat::Column& col, size_t begin, size_t end, Oid* gids);

  /// Conses the rows `positions` of `col` (another table's
  /// representatives, or any position list), appending their group oids to
  /// `gids`.
  void AddAt(const bat::Column& col, const std::vector<uint32_t>& positions,
             std::vector<Oid>& gids);

  /// Representative positions in gid (first-appearance) order.
  const std::vector<uint32_t>& reps() const { return reps_; }

  bool dense() const { return dense_; }

 private:
  template <typename V>
  Oid GidOf(const V& v, size_t i);

  bool dense_ = false;
  bat::KeyRange range_;
  std::vector<uint32_t> gid_of_;  // dense: 1 + gid per key offset, 0 = none
  HashSlots slots_;               // hashed
  std::vector<uint32_t> reps_;
};

/// Pair (previous gid, refining value) -> new dense gid (gid == insertion
/// index). Direct-addressed over (previous gid offset) x (value offset)
/// when both sides' key ranges are known and their product is at
/// most DenseBound; otherwise keyed by MixSync(prev_gid, value hash) over
/// HashSlots. Keeps its representatives in gid order for the parallel
/// merge. Every call must pass the same refining column.
class RefineTable {
 public:
  struct Rep {
    Oid prev_gid;
    uint32_t dpos;  // position in the refining column of the representative
  };

  /// A table for up to `rows` pairs whose previous gids span `prev` and
  /// whose refining values span `values` (nullopt: hashed).
  RefineTable(const std::optional<bat::KeyRange>& prev = std::nullopt,
              const std::optional<bat::KeyRange>& values = std::nullopt,
              size_t rows = 0);

  /// gids[k] = the gid of the pair (prev[k], d[dpos[k]]) for k < n
  /// (`gids` may be null).
  void Add(const bat::Column& d, const Oid* prev, const uint32_t* dpos,
           size_t n, Oid* gids);

  /// Refines the pairs `reps` (another table's representatives), appending
  /// their gids to `gids`.
  void AddReps(const bat::Column& d, const std::vector<Rep>& reps,
               std::vector<Oid>& gids);

  const std::vector<Rep>& reps() const { return reps_; }

  bool dense() const { return dense_; }

 private:
  template <typename V>
  Oid Refine(Oid prev_gid, const V& d, size_t dpos);

  bool dense_ = false;
  bat::KeyRange prev_range_;
  bat::KeyRange value_range_;
  std::vector<uint32_t> gid_of_;  // dense: 1 + gid per pair offset, 0 = none
  HashSlots slots_;               // hashed
  std::vector<Rep> reps_;
};

}  // namespace moaflat::kernel::internal

#endif  // MOAFLAT_KERNEL_GROUP_TABLE_H_
