#include "bat/datavector.h"

#include <algorithm>

namespace moaflat::bat {
namespace {

/// Fills len[t] for every target t in [lo, hi] of the lower-bound search
/// over [lo, hi), entered at step `depth`. Targets t <= mid continue into
/// [lo, mid), the others into [mid + 1, hi); a target is reached when its
/// interval is empty. Recurses on the left half only, so the stack depth
/// stays logarithmic and the whole table costs O(n).
void FillPathLengths(size_t lo, size_t hi, uint8_t depth, uint8_t* len) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    FillPathLengths(lo, mid, static_cast<uint8_t>(depth + 1), len);
    lo = mid + 1;
    ++depth;
  }
  len[lo] = depth;
}

}  // namespace

std::shared_ptr<const DenseExtent> DenseExtent::Of(const Column& extent) {
  auto dense = std::make_shared<DenseExtent>();
  const size_t n = extent.size();
  if (extent.is_void()) {
    dense->base = extent.void_base();
  } else {
    const std::span<const Oid> oids = extent.Span<Oid>();
    dense->base = n == 0 ? 0 : oids[0];
    for (size_t i = 0; i < n; ++i) {
      if (oids[i] != dense->base + i) return nullptr;
    }
    dense->path_len.resize(n + 1);
    FillPathLengths(0, n, 0, dense->path_len.data());
  }
  return dense;
}

std::shared_ptr<const DenseExtent> DvLookupCache::Dense(const Column& extent) {
  MutexLock lock(mu_);
  if (!dense_checked_) {
    dense_ = DenseExtent::Of(extent);
    dense_checked_ = true;
  }
  return dense_;
}

int64_t Datavector::FindPosition(Oid oid, storage::IoStats* io) const {
  size_t lo = 0;
  size_t hi = extent_->size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    // lint:allow(unfiltered-touch) binary search: one touch per probe step
    extent_->TouchAt(io, mid);
    const Oid at = extent_->OidAt(mid);
    if (at < oid) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < extent_->size() && extent_->OidAt(lo) == oid) {
    return static_cast<int64_t>(lo);
  }
  return -1;
}

void Datavector::FindPositions(const Column& probe, size_t begin, size_t end,
                               std::vector<uint32_t>* out,
                               storage::IoStats* io) const {
  const std::shared_ptr<const DenseExtent> dense = cache_->Dense(*extent_);
  if (dense == nullptr) {
    for (size_t i = begin; i < end; ++i) {
      const int64_t pos = FindPosition(probe.OidAt(i), io);
      if (pos >= 0) out->push_back(static_cast<uint32_t>(pos));
    }
    return;
  }

  const size_t n = extent_->size();
  const Oid base = dense->base;
  storage::ColdPageFilter filter(io, extent_->heap_id(), extent_->width(), n);
  auto probes = [&](auto oid_at) {
    for (size_t i = begin; i < end; ++i) {
      const Oid oid = oid_at(i);
      // FindPosition converges on the lower bound of `oid`; on a dense
      // extent that is an index computed from the oid alone.
      const size_t t =
          oid < base ? 0 : static_cast<size_t>(std::min<Oid>(oid - base, n));
      if (filter.saturated()) {
        filter.AddRepeats(dense->path_len[t]);
      } else if (filter.active()) {
        // Replay the search: extent[mid] < oid  <=>  mid < t.
        size_t lo = 0, hi = n;
        while (lo < hi) {
          const size_t mid = lo + (hi - lo) / 2;
          filter.Touch(mid);
          if (mid < t) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
      }
      if (oid >= base && oid - base < n) {
        out->push_back(static_cast<uint32_t>(oid - base));
      }
    }
  };
  if (probe.is_void()) {
    probes([b = probe.void_base()](size_t i) { return b + i; });
  } else {
    probes([p = probe.Span<Oid>().data()](size_t i) { return p[i]; });
  }
}

}  // namespace moaflat::bat
