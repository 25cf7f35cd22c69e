#ifndef MOAFLAT_BAT_DATAVECTOR_H_
#define MOAFLAT_BAT_DATAVECTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bat/column.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace moaflat::bat {

/// Probe geometry of a dense extent (extent[i] == base + i for every i):
/// an oid's position is `oid - base`, and every comparison of the binary
/// search FindPosition runs is decided by the index alone — the search for
/// `oid` follows the lower-bound path of target `t = clamp(oid - base, 0,
/// n)`. `path_len[t]` (n + 1 entries, one byte each) is that path's step
/// count, i.e. the number of extent touches the search reports; void
/// extents touch no storage and carry no table.
struct DenseExtent {
  Oid base = 0;
  std::vector<uint8_t> path_len;

  /// The geometry of `extent`, or null if it is not dense.
  static std::shared_ptr<const DenseExtent> Of(const Column& extent);
};

/// Per-extent state shared by all datavectors of one class (they index into
/// the same extent, so positions computed for a right operand by one
/// attribute's semijoin are valid for every attribute): the LOOKUP position
/// memo and the extent's dense probe geometry.
///
/// Memo lifetime: an entry is keyed by the heap id of the right operand's
/// head column and holds a weak reference to that column. Columns are
/// immutable and heap ids never recur, so once the column dies the entry
/// can never hit again; every Store drops such dead entries, which bounds
/// the memo by the right operands still alive.
///
/// Thread-safe: concurrent queries of separate ExecContexts share the base
/// BATs and therefore this cache; a mutex guards the (rare) misses and the
/// cheap lookups alike.
class DvLookupCache {
 public:
  std::shared_ptr<const std::vector<uint32_t>> Find(const Column& probe) const
      MOAFLAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = cache_.find(probe.heap_id());
    return it == cache_.end() ? nullptr : it->second.positions;
  }

  void Store(const ColumnPtr& probe,
             std::shared_ptr<const std::vector<uint32_t>> positions)
      MOAFLAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::erase_if(cache_,
                  [](const auto& kv) { return kv.second.probe.expired(); });
    cache_[probe->heap_id()] = Entry{probe, std::move(positions)};
  }

  /// Memoized right operands (live ones, plus dead ones not yet dropped).
  size_t size() const MOAFLAT_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_.size();
  }

  /// The dense probe geometry of the class extent (null if not dense),
  /// computed once on first use for all datavectors of the class.
  std::shared_ptr<const DenseExtent> Dense(const Column& extent)
      MOAFLAT_EXCLUDES(mu_);

 private:
  struct Entry {
    std::weak_ptr<const Column> probe;
    std::shared_ptr<const std::vector<uint32_t>> positions;
  };

  mutable Mutex mu_{LockRank::kLookupCache, "dv.lookup_cache"};
  std::unordered_map<uint64_t, Entry> cache_ MOAFLAT_GUARDED_BY(mu_);
  bool dense_checked_ MOAFLAT_GUARDED_BY(mu_) = false;
  std::shared_ptr<const DenseExtent> dense_ MOAFLAT_GUARDED_BY(mu_);
};

/// The datavector search accelerator of Section 5.2.
///
/// An attribute BAT [oid,value] is kept sorted on *tail* (value) so that
/// selections can binary-search; the opposite direction — fetching values
/// for a set of selected oids — is served by this accelerator: the class
/// extent (all oids, sorted) plus the attribute values re-ordered
/// positionally by oid ("one vector of oids and n vectors with attribute
/// values, all stored in oid order", Fig. 7). The extent column is shared
/// by all attributes of a class, which is what makes results of several
/// datavector semijoins mutually synced.
///
/// The LOOKUP position cache of the Section 5.2.1 pseudo-code lives here:
/// the first semijoin against a given selection binary-searches the extent
/// and memoizes the hit positions; subsequent semijoins with the same right
/// operand reuse them ("has already blazed the trail into the extent",
/// Fig. 10 commentary).
class Datavector {
 public:
  /// `extent`: sorted, duplicate-free oids of the class; `values`: the
  /// attribute value for extent[i] at position i; `cache`: the per-class
  /// shared LOOKUP cache (a private one is created if omitted). Every
  /// datavector sharing a cache must share its extent.
  Datavector(ColumnPtr extent, ColumnPtr values,
             std::shared_ptr<DvLookupCache> cache = nullptr)
      : extent_(std::move(extent)),
        values_(std::move(values)),
        cache_(cache ? std::move(cache)
                     : std::make_shared<DvLookupCache>()) {}

  const ColumnPtr& extent() const { return extent_; }
  const ColumnPtr& values() const { return values_; }

  /// Binary-searches `oid` in the extent; returns its position or -1.
  /// Reports the probed pages to `io` (null: not accounted). The reference
  /// that FindPositions reproduces.
  int64_t FindPosition(Oid oid, storage::IoStats* io) const;

  /// Batched LOOKUP: for each probe[i], i in [begin, end), appends the
  /// extent position of the oid to `out` if the extent holds it, and
  /// reports to `io` exactly the touches FindPosition(probe[i]) reports.
  /// On a dense extent the position is `oid - base` in O(1), and the
  /// search's touches are replayed over indices through a ColdPageFilter;
  /// once the filter has forwarded every extent page, a probe's touches
  /// are its path length, read from the DenseExtent table. Other extents
  /// call FindPosition itself. `probe` must be an oid or void column.
  void FindPositions(const Column& probe, size_t begin, size_t end,
                     std::vector<uint32_t>* out, storage::IoStats* io) const;

  /// Cached LOOKUP array for the right operand whose head column is
  /// `probe`. Null if this right operand was never looked up by any
  /// datavector of the class.
  std::shared_ptr<const std::vector<uint32_t>> CachedLookup(
      const Column& probe) const {
    return cache_->Find(probe);
  }

  void StoreLookup(const ColumnPtr& probe,
                   std::shared_ptr<const std::vector<uint32_t>> positions) {
    cache_->Store(probe, std::move(positions));
  }

  const std::shared_ptr<DvLookupCache>& lookup_cache() const {
    return cache_;
  }

 private:
  ColumnPtr extent_;
  ColumnPtr values_;
  std::shared_ptr<DvLookupCache> cache_;
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_DATAVECTOR_H_
