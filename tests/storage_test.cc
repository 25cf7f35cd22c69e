#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "bat/column.h"
#include "common/rng.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "storage/string_heap.h"

namespace moaflat::storage {
namespace {

TEST(StringHeapTest, InternDedupsIdenticalStrings) {
  StringHeap heap;
  const int32_t a = heap.Intern("clerk");
  const int32_t b = heap.Intern("manager");
  const int32_t c = heap.Intern("clerk");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(heap.View(a), "clerk");
  EXPECT_EQ(heap.View(b), "manager");
}

TEST(StringHeapTest, EmptyStringSupported) {
  StringHeap heap;
  const int32_t off = heap.Intern("");
  EXPECT_EQ(heap.View(off), "");
}

TEST(StringHeapTest, ByteSizeGrowsWithDistinctContent) {
  StringHeap heap;
  heap.Intern("aaa");
  const size_t after_one = heap.byte_size();
  heap.Intern("aaa");
  EXPECT_EQ(heap.byte_size(), after_one);  // deduped
  heap.Intern("bbbb");
  EXPECT_EQ(heap.byte_size(), after_one + 5);  // 4 chars + NUL
}

TEST(PageAccountantTest, FaultPerDistinctPage) {
  IoStats io;
  const uint64_t h = NewHeapId();
  io.TouchBytes(h, 0, 100, Access::kSequential);
  EXPECT_EQ(io.faults(), 1u);
  io.TouchBytes(h, kPageSize - 1, 2, Access::kSequential);  // page straddle
  EXPECT_EQ(io.faults(), 2u);
  io.TouchBytes(h, 3 * kPageSize, 1, Access::kRandom);
  EXPECT_EQ(io.faults(), 3u);
  EXPECT_EQ(io.sequential_faults(), 2u);
  EXPECT_EQ(io.random_faults(), 1u);
}

TEST(PageAccountantTest, DistinctHeapsDoNotShadowEachOther) {
  IoStats io;
  const uint64_t h1 = NewHeapId();
  const uint64_t h2 = NewHeapId();
  io.TouchBytes(h1, 0, 8, Access::kRandom);
  io.TouchBytes(h2, 0, 8, Access::kRandom);
  EXPECT_EQ(io.faults(), 2u);
}

TEST(PageAccountantTest, ZeroLengthTouchIsFree) {
  IoStats io;
  io.TouchBytes(NewHeapId(), 0, 0, Access::kRandom);
  EXPECT_EQ(io.faults(), 0u);
  EXPECT_EQ(io.logical_touches(), 0u);
}

TEST(PageAccountantTest, ResetForgetResidency) {
  IoStats io;
  const uint64_t h = NewHeapId();
  io.TouchBytes(h, 0, 8, Access::kRandom);
  io.Reset();
  EXPECT_EQ(io.faults(), 0u);
  io.TouchBytes(h, 0, 8, Access::kRandom);
  EXPECT_EQ(io.faults(), 1u);
}

TEST(LruPagerTest, UnlimitedCapacityNeverEvicts) {
  IoStats io;
  const uint64_t h = NewHeapId();
  for (int i = 0; i < 100; ++i) {
    io.TouchBytes(h, i * kPageSize, 1, Access::kSequential);
  }
  EXPECT_EQ(io.evictions(), 0u);
  EXPECT_EQ(io.resident_pages(), 100u);
}

TEST(LruPagerTest, CapacityBoundsResidency) {
  IoStats io(10);
  const uint64_t h = NewHeapId();
  for (int i = 0; i < 100; ++i) {
    io.TouchBytes(h, i * kPageSize, 1, Access::kSequential);
  }
  EXPECT_EQ(io.resident_pages(), 10u);
  EXPECT_EQ(io.evictions(), 90u);
  EXPECT_EQ(io.faults(), 100u);
}

TEST(LruPagerTest, EvictedPagesRefault) {
  IoStats io(2);
  const uint64_t h = NewHeapId();
  io.TouchBytes(h, 0 * kPageSize, 1, Access::kRandom);  // A
  io.TouchBytes(h, 1 * kPageSize, 1, Access::kRandom);  // B
  io.TouchBytes(h, 2 * kPageSize, 1, Access::kRandom);  // C evicts A
  EXPECT_EQ(io.faults(), 3u);
  io.TouchBytes(h, 0 * kPageSize, 1, Access::kRandom);  // A again: refault
  EXPECT_EQ(io.faults(), 4u);
}

TEST(LruPagerTest, RecencyOrderGovernsEviction) {
  IoStats io(2);
  const uint64_t h = NewHeapId();
  io.TouchBytes(h, 0 * kPageSize, 1, Access::kRandom);  // A
  io.TouchBytes(h, 1 * kPageSize, 1, Access::kRandom);  // B
  io.TouchBytes(h, 0 * kPageSize, 1, Access::kRandom);  // A refreshed
  io.TouchBytes(h, 2 * kPageSize, 1, Access::kRandom);  // C evicts B
  io.TouchBytes(h, 0 * kPageSize, 1, Access::kRandom);  // A still resident
  EXPECT_EQ(io.faults(), 3u);
  io.TouchBytes(h, 1 * kPageSize, 1, Access::kRandom);  // B refaults
  EXPECT_EQ(io.faults(), 4u);
}

/// Reference pager: the straightforward map + LRU-list implementation
/// (the shape IoStats had before the cold-path bitmap rewrite). The
/// production accountant's bitmap fast path, memos, batch APIs and shard
/// replay must stay observationally identical to this model.
class ReferencePager {
 public:
  explicit ReferencePager(size_t capacity) : capacity_(capacity) {}

  void TouchBytes(uint64_t heap, uint64_t offset, uint64_t len, Access acc) {
    if (len == 0) return;
    ++touches_;
    const uint64_t first = offset / kPageSize;
    const uint64_t last = (offset + len - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) {
      Admit((heap << 22) | (p & ((1ULL << 22) - 1)), acc);
    }
  }

  void TouchElement(uint64_t heap, uint64_t index, int width, Access acc) {
    if (width <= 0) return;
    TouchBytes(heap, index * static_cast<uint64_t>(width),
               static_cast<uint64_t>(width), acc);
  }

  void TouchRange(uint64_t heap, uint64_t lo, uint64_t hi, int width) {
    if (width <= 0 || hi <= lo) return;
    TouchBytes(heap, lo * static_cast<uint64_t>(width),
               (hi - lo) * static_cast<uint64_t>(width), Access::kSequential);
  }

  void TouchGather(uint64_t heap, const uint32_t* idx, size_t n, int width) {
    for (size_t k = 0; k < n; ++k) {
      TouchElement(heap, idx[k], width, Access::kRandom);
    }
  }

  uint64_t faults = 0, seq = 0, rnd = 0, touches_ = 0, evictions = 0;
  size_t resident() const { return resident_.size(); }

 private:
  void Admit(uint64_t key, Access acc) {
    auto it = resident_.find(key);
    if (it != resident_.end()) {
      if (capacity_ > 0 && it->second != lru_.begin()) {
        lru_.splice(lru_.begin(), lru_, it->second);
      }
      return;
    }
    ++faults;
    if (acc == Access::kSequential) {
      ++seq;
    } else {
      ++rnd;
    }
    lru_.push_front(key);
    resident_[key] = lru_.begin();
    if (capacity_ > 0 && resident_.size() > capacity_) {
      resident_.erase(lru_.back());
      lru_.pop_back();
      ++evictions;
    }
  }

  size_t capacity_;
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> resident_;
};

/// Drives a random touch sequence (mixed APIs, several heaps, repeated
/// pages to exercise the memos, page straddles, zero-width no-ops)
/// through IoStats and the reference model in lock-step.
void DriveRandomSequence(size_t capacity, uint64_t seed) {
  IoStats io = capacity > 0 ? IoStats(capacity) : IoStats();
  ReferencePager ref(capacity);
  Rng rng(seed);
  std::vector<uint64_t> heaps;
  for (int h = 0; h < 5; ++h) heaps.push_back(NewHeapId());
  const int widths[] = {0, 1, 2, 4, 8};
  for (int step = 0; step < 4000; ++step) {
    const uint64_t heap = heaps[rng.Uniform(0, heaps.size() - 1)];
    const int width = widths[rng.Uniform(0, 4)];
    switch (rng.Uniform(0, 3)) {
      case 0: {  // byte-range touch, may straddle pages
        const uint64_t off = rng.Uniform(0, 64 * kPageSize);
        const uint64_t len = rng.Uniform(0, 3 * kPageSize);
        const Access acc =
            rng.Chance(0.5) ? Access::kSequential : Access::kRandom;
        io.TouchBytes(heap, off, len, acc);
        ref.TouchBytes(heap, off, len, acc);
        break;
      }
      case 1: {  // single element, random access
        const uint64_t i = rng.Uniform(0, 100000);
        io.TouchElement(heap, i, width, Access::kRandom);
        ref.TouchElement(heap, i, width, Access::kRandom);
        break;
      }
      case 2: {  // sequential element range
        const uint64_t lo = rng.Uniform(0, 100000);
        const uint64_t hi = lo + rng.Uniform(0, 20000);
        io.TouchRange(heap, lo, hi, width);
        ref.TouchRange(heap, lo, hi, width);
        break;
      }
      case 3: {  // batch gather, through a page filter
        std::vector<uint32_t> idx(rng.Uniform(0, 200));
        for (auto& v : idx) v = static_cast<uint32_t>(rng.Uniform(0, 100000));
        {
          ColdPageFilter pages(&io, heap, width, 100001);
          for (uint32_t i : idx) pages.Touch(i);
        }
        ref.TouchGather(heap, idx.data(), idx.size(), width);
        break;
      }
    }
    if (step % 256 == 0 || step + 1 == 4000) {
      ASSERT_EQ(io.faults(), ref.faults) << "cap=" << capacity << " @" << step;
      ASSERT_EQ(io.sequential_faults(), ref.seq);
      ASSERT_EQ(io.random_faults(), ref.rnd);
      ASSERT_EQ(io.logical_touches(), ref.touches_);
      ASSERT_EQ(io.evictions(), ref.evictions);
      ASSERT_EQ(io.resident_pages(), ref.resident());
    }
  }
}

TEST(PageAccountantPropertyTest, ColdRunBitmapMatchesReferenceModel) {
  DriveRandomSequence(/*capacity=*/0, /*seed=*/42);
  DriveRandomSequence(/*capacity=*/0, /*seed=*/1337);
}

TEST(PageAccountantPropertyTest, LruCapacityMatchesReferenceModel) {
  DriveRandomSequence(/*capacity=*/64, /*seed=*/7);
  DriveRandomSequence(/*capacity=*/500, /*seed=*/99);
  DriveRandomSequence(/*capacity=*/1, /*seed=*/3);
}

TEST(PageAccountantPropertyTest, ShardMergeReproducesSerialExactly) {
  // Split one serial touch sequence into contiguous shard segments, run
  // each under a ForShard() accountant, merge in order: faults, the
  // seq/rand split and logical touches must equal the serial run.
  Rng rng(21);
  struct Touch {
    uint64_t heap, index;
    int width;
    Access acc;
  };
  std::vector<uint64_t> heaps{NewHeapId(), NewHeapId(), NewHeapId()};
  std::vector<Touch> seq;
  for (int i = 0; i < 3000; ++i) {
    seq.push_back(
        Touch{heaps[rng.Uniform(0, 2)],
              static_cast<uint64_t>(rng.Uniform(0, 5000)), 8,
              rng.Chance(0.5) ? Access::kSequential : Access::kRandom});
  }
  IoStats serial;
  for (const Touch& t : seq) {
    serial.TouchElement(t.heap, t.index, t.width, t.acc);
  }
  IoStats merged;
  const size_t kShards = 7;
  for (size_t s = 0; s < kShards; ++s) {
    IoStats shard = IoStats::ForShard();
    const size_t lo = s * seq.size() / kShards;
    const size_t hi = (s + 1) * seq.size() / kShards;
    for (size_t i = lo; i < hi; ++i) {
      shard.TouchElement(seq[i].heap, seq[i].index, seq[i].width,
                         seq[i].acc);
    }
    merged.MergeFrom(shard);
  }
  EXPECT_EQ(merged.faults(), serial.faults());
  EXPECT_EQ(merged.sequential_faults(), serial.sequential_faults());
  EXPECT_EQ(merged.random_faults(), serial.random_faults());
  EXPECT_EQ(merged.logical_touches(), serial.logical_touches());
}

TEST(PageAccountantTest, TouchGatherEqualsElementLoop) {
  const bat::ColumnPtr col =
      bat::Column::MakeInt(std::vector<int32_t>(100000));
  const uint64_t h = col->heap_id();
  std::vector<uint32_t> idx{5, 5, 1000, 5, 99999, 1000, 0};
  IoStats batch, loop;
  col->TouchGather(&batch, idx.data(), idx.size());
  for (uint32_t i : idx) loop.TouchElement(h, i, 4, Access::kRandom);
  EXPECT_EQ(batch.faults(), loop.faults());
  EXPECT_EQ(batch.random_faults(), loop.random_faults());
  EXPECT_EQ(batch.logical_touches(), loop.logical_touches());
  // Zero-width gathers are free, like zero-width element touches.
  IoStats zero;
  const bat::ColumnPtr void_col = bat::Column::MakeVoid(0, 100000);
  void_col->TouchGather(&zero, idx.data(), idx.size());
  EXPECT_EQ(zero.faults(), 0u);
  EXPECT_EQ(zero.logical_touches(), 0u);
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker t;
  t.Add(1000);
  t.Add(500);
  EXPECT_EQ(t.current(), 1500u);
  EXPECT_EQ(t.peak(), 1500u);
  t.Sub(800);
  EXPECT_EQ(t.current(), 700u);
  EXPECT_EQ(t.peak(), 1500u);
  t.Add(100);
  EXPECT_EQ(t.peak(), 1500u);  // still below the old peak
}

TEST(MemoryTrackerTest, EpochRebasesPeakAndAllocationCounter) {
  MemoryTracker t;
  t.Add(1000);
  t.MarkEpoch();
  EXPECT_EQ(t.allocated_total(), 0u);
  EXPECT_EQ(t.peak(), 1000u);
  t.Add(200);
  EXPECT_EQ(t.allocated_total(), 200u);
  EXPECT_EQ(t.peak(), 1200u);
}

TEST(MemoryTrackerTest, GlobalInstanceTracksColumns) {
  auto& g = MemoryTracker::Global();
  const uint64_t before = g.current();
  {
    auto col = moaflat::bat::Column::MakeInt(std::vector<int32_t>(1000, 1));
    EXPECT_EQ(g.current(), before + 4000);
  }
  EXPECT_EQ(g.current(), before);  // released on destruction
}

}  // namespace
}  // namespace moaflat::storage
