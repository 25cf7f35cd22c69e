#include "storage/page_accountant.h"

#include <atomic>

namespace moaflat::storage {
namespace {

std::atomic<uint64_t> g_next_heap_id{1};

}  // namespace

uint64_t NewHeapId() {
  return g_next_heap_id.fetch_add(1, std::memory_order_relaxed);
}

void IoStats::TouchBytes(uint64_t heap, uint64_t offset, uint64_t len,
                         Access acc) {
  if (len == 0) return;
  ++touches_;
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + len - 1) / kPageSize;
  if (capacity_ > 0) {
    for (uint64_t p = first; p <= last; ++p) AdmitLru(PageKey(heap, p), acc);
    return;
  }
  for (uint64_t p = first; p <= last; ++p) TouchPageCold(heap, p, acc);
}

void IoStats::TouchPageColdSlow(uint64_t heap, uint64_t page, Access acc) {
  PageBitmap& bm = touched_[heap];
  cache_heap_[cache_next_] = heap;
  cache_bitmap_[cache_next_] = &bm;
  cache_next_ = (cache_next_ + 1) % kHeapCacheSlots;
  if (bm.TestAndSet(page & kPageMask)) {
    memo_key_ = PageKey(heap, page);
    return;
  }
  RecordFault(PageKey(heap, page), acc);
}

void IoStats::AdmitLru(uint64_t key, Access acc) {
  auto it = resident_.find(key);
  if (it != resident_.end()) {
    // Hit: refresh recency.
    if (it->second != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, it->second);
    }
    return;
  }
  ++faults_;
  if (acc == Access::kSequential) {
    ++seq_faults_;
  } else {
    ++rand_faults_;
  }
  if (log_faults_) fault_log_.emplace_back(key, acc);
  lru_.push_front(key);
  resident_[key] = lru_.begin();
  if (resident_.size() > capacity_) {
    resident_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

void IoStats::MergeFrom(const IoStats& shard) {
  touches_ += shard.touches_;
  if (capacity_ > 0) {
    for (const auto& [key, acc] : shard.fault_log_) AdmitLru(key, acc);
    return;
  }
  for (const auto& [key, acc] : shard.fault_log_) {
    TouchPageCold(key >> 22, key & kPageMask, acc);
  }
}

void IoStats::Reset() {
  touched_.clear();
  InvalidateMemos();
  resident_.clear();
  lru_.clear();
  fault_log_.clear();
  faults_ = seq_faults_ = rand_faults_ = touches_ = evictions_ = 0;
  has_error_.store(false, std::memory_order_relaxed);
  error_ = Status::OK();
}

void IoStats::CopyFrom(const IoStats& other) {
  capacity_ = other.capacity_;
  log_faults_ = other.log_faults_;
  fault_log_ = other.fault_log_;
  touched_ = other.touched_;
  lru_ = other.lru_;
  // Rebuild the iterator map against the copied list.
  resident_.clear();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) resident_[*it] = it;
  faults_ = other.faults_;
  seq_faults_ = other.seq_faults_;
  rand_faults_ = other.rand_faults_;
  touches_ = other.touches_;
  evictions_ = other.evictions_;
  has_error_.store(other.has_error_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  error_ = other.error_;
  InvalidateMemos();
}

void IoStats::MoveFrom(IoStats&& other) {
  capacity_ = other.capacity_;
  log_faults_ = other.log_faults_;
  fault_log_ = std::move(other.fault_log_);
  touched_ = std::move(other.touched_);
  lru_ = std::move(other.lru_);
  resident_ = std::move(other.resident_);
  faults_ = other.faults_;
  seq_faults_ = other.seq_faults_;
  rand_faults_ = other.rand_faults_;
  touches_ = other.touches_;
  evictions_ = other.evictions_;
  has_error_.store(other.has_error_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  error_ = std::move(other.error_);
  InvalidateMemos();
  other.Reset();
}

ColdPageFilter::ColdPageFilter(IoStats* io, uint64_t heap, int width,
                               size_t elements)
    : io_(io), heap_(heap), width_(width) {
  if (io == nullptr || width <= 0) return;
  // Elements straddling a page boundary (widths not dividing the page) or
  // an LRU pager: every touch goes through as is.
  if (io->capacity_ > 0 || kPageSize % static_cast<uint64_t>(width) != 0) {
    mode_ = Mode::kForward;
    return;
  }
  mode_ = Mode::kFilter;
  pages_ = (elements * static_cast<uint64_t>(width) + kPageSize - 1) /
           kPageSize;
  seen_.assign(static_cast<size_t>((pages_ + 63) / 64), 0);
}

ColdPageFilter::~ColdPageFilter() {
  if (repeats_ > 0) io_->touches_ += repeats_;
}

}  // namespace moaflat::storage
