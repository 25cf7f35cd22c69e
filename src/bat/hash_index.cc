#include "bat/hash_index.h"

#include <algorithm>
#include <atomic>

#include "common/parallel.h"

namespace moaflat::bat {
namespace {

uint64_t NextPow2(uint64_t n) {
  uint64_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

HashIndex::HashIndex(ColumnPtr col, int degree) : col_(std::move(col)) {
  const MonetType type = col_->type();
  if (type == MonetType::kVoid || type == MonetType::kOidT) {
    const std::optional<KeyRange> range = IntegralKeyRange(*col_, degree);
    if (range && range->span <= 2 * static_cast<uint64_t>(col_->size())) {
      range_ = *range;
      if (col_->is_void()) {
        form_ = Form::kVoid;
        return;
      }
      if (BuildDense(degree)) {
        form_ = Form::kDense;
        return;
      }
    }
  }
  BuildChained(degree);
}

bool HashIndex::BuildDense(int degree) {
  const size_t n = col_->size();
  const Oid* oids = col_->Data<Oid>().data();
  pos_of_.assign(range_.span, kEnd);
  const BlockPlan plan = PlanBlocks(n, std::min(degree, kMaxScatterDegree));
  if (plan.blocks <= 1) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t& slot = pos_of_[range_.Offset(oids[i])];
      if (slot != kEnd) {
        std::vector<uint32_t>().swap(pos_of_);
        return false;
      }
      slot = static_cast<uint32_t>(i) + 1;
    }
    return true;
  }
  // Blocks store their positions into the shared table. Two rows with one
  // oid race on its slot and exactly one store survives, so the second
  // pass — every row checks that its slot holds it — finds a duplicate
  // whichever store won: the outcome never depends on the interleaving.
  RunBlocks(plan, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      std::atomic_ref<uint32_t>(pos_of_[range_.Offset(oids[i])])
          .store(static_cast<uint32_t>(i) + 1, std::memory_order_relaxed);
    }
  });
  std::vector<uint8_t> duplicate(plan.blocks, 0);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (pos_of_[range_.Offset(oids[i])] != i + 1) {
        duplicate[block] = 1;
        return;
      }
    }
  });
  if (std::find(duplicate.begin(), duplicate.end(), 1) == duplicate.end()) {
    return true;
  }
  std::vector<uint32_t>().swap(pos_of_);
  return false;
}

void HashIndex::BuildChained(int degree) {
  const size_t n = col_->size();
  const uint64_t nbuckets = NextPow2(n + n / 2 + 1);
  mask_ = nbuckets - 1;
  buckets_.assign(nbuckets, kEnd);
  next_.assign(n, kEnd);
  const BlockPlan plan =
      PlanBlocks(n, std::min(degree, kMaxScatterDegree));
  if (plan.blocks <= 1) {
    col_->VisitValues([&](const auto& v) {
      for (size_t i = 0; i < n; ++i) {
        const uint64_t b = Hash(v, i) & mask_;
        next_[i] = buckets_[b];
        buckets_[b] = static_cast<uint32_t>(i) + 1;
      }
    });
    return;
  }
  // Partitioned parallel build. Phase 1: hash every position (disjoint
  // slices). Positions are uint32, so n < 2^32 and every bucket index
  // (nbuckets <= NextPow2(1.5 n)) fits in uint32 as well.
  std::vector<uint32_t> bucket_of(n);
  RunBlocks(plan, [&](int, size_t begin, size_t end) {
    col_->VisitValues([&](const auto& v) {
      for (size_t i = begin; i < end; ++i) {
        bucket_of[i] = static_cast<uint32_t>(Hash(v, i) & mask_);
      }
    });
  });
  // Phase 2: block-local scatter of positions by contiguous bucket
  // range, so the linking phase visits each position exactly once
  // (O(n) total, not blocks * n). A counting pass pre-reserves every
  // partition list, so the fill pass never reallocates mid-scatter.
  const size_t ranges = plan.blocks;
  const uint64_t range_chunk = (nbuckets + ranges - 1) / ranges;
  std::vector<std::vector<std::vector<uint32_t>>> scatter(
      plan.blocks, std::vector<std::vector<uint32_t>>(ranges));
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    auto& mine = scatter[block];
    std::vector<uint32_t> counts(ranges, 0);
    for (size_t i = begin; i < end; ++i) {
      ++counts[bucket_of[i] / range_chunk];
    }
    for (size_t r = 0; r < ranges; ++r) mine[r].reserve(counts[r]);
    for (size_t i = begin; i < end; ++i) {
      mine[bucket_of[i] / range_chunk].push_back(static_cast<uint32_t>(i));
    }
  });
  // Phase 3: each range owner links its buckets' positions — blocks in
  // order, ascending inside each block, i.e. ascending overall: the same
  // per-bucket insertion order as the serial loop, with disjoint writes
  // (buckets_[b] by the range owner, next_[i] by the owner of
  // bucket_of[i]).
  RunBlocks(plan, [&](int range, size_t, size_t) {
    for (size_t block = 0; block < plan.blocks; ++block) {
      for (uint32_t i : scatter[block][range]) {
        const uint32_t b = bucket_of[i];
        next_[i] = buckets_[b];
        buckets_[b] = i + 1;
      }
    }
  });
}

}  // namespace moaflat::bat
