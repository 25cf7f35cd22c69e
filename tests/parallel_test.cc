#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>

#include "bat/bat.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;

class DegreeGuard {
 public:
  explicit DegreeGuard(int d) { SetParallelDegree(d); }
  ~DegreeGuard() { SetParallelDegree(0); }
};

TEST(ParallelTest, BlocksCoverExactlyTheRange) {
  DegreeGuard guard(4);
  std::vector<int> seen(100000, 0);
  std::mutex mu;
  RunBlocks(PlanBlocks(seen.size()), [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i]++;
  });
  for (int s : seen) ASSERT_EQ(s, 1);
}

TEST(ParallelTest, SmallInputsRunInline) {
  DegreeGuard guard(8);
  int blocks_seen = 0;
  RunBlocks(PlanBlocks(100), [&](int block, size_t, size_t) {
    EXPECT_EQ(block, 0);
    ++blocks_seen;
  });
  EXPECT_EQ(blocks_seen, 1);
}

TEST(ParallelTest, DegreeDefaultsToOne) {
  SetParallelDegree(0);
  EXPECT_GE(ParallelDegree(), 1);
}

/// Restores a clean degree/environment state on scope exit.
class EnvGuard {
 public:
  ~EnvGuard() {
    unsetenv("MOAFLAT_THREADS");
    SetParallelDegree(0);
  }
};

TEST(ParallelTest, EnvIsSampledOnceUntilReset) {
  EnvGuard guard;
  setenv("MOAFLAT_THREADS", "7", 1);
  SetParallelDegree(0);  // re-read the environment on the next call
  EXPECT_EQ(ParallelDegree(), 7);

  // A later change of the variable is ignored until the next reset —
  // the documented sample-once semantics, not a silent race.
  setenv("MOAFLAT_THREADS", "3", 1);
  EXPECT_EQ(ParallelDegree(), 7);
  SetParallelDegree(0);
  EXPECT_EQ(ParallelDegree(), 3);

  // An explicit override beats the environment.
  SetParallelDegree(2);
  EXPECT_EQ(ParallelDegree(), 2);
}

TEST(ParallelTest, GarbageEnvValuesAreRejected) {
  EnvGuard guard;
  for (const char* bad : {"", "abc", "3abc", "-2", "+4", " 4", "0",
                          "4.5", "99999999"}) {
    setenv("MOAFLAT_THREADS", bad, 1);
    SetParallelDegree(0);
    EXPECT_EQ(ParallelDegree(), 1) << "value: '" << bad << "'";
  }
}

TEST(ParallelTest, SetParallelDegreeClampsInsaneValues) {
  EnvGuard guard;
  SetParallelDegree(-5);  // negative clears the override like 0 does
  EXPECT_GE(ParallelDegree(), 1);
  SetParallelDegree(1 << 20);
  EXPECT_EQ(ParallelDegree(), kMaxParallelDegree);
}

Bat BigRandomAttr(size_t n) {
  Rng rng(99);
  std::vector<Oid> heads(n);
  std::vector<int32_t> tails(n);
  std::iota(heads.begin(), heads.end(), Oid{1});
  for (size_t i = 0; i < n; ++i) {
    tails[i] = static_cast<int32_t>(rng.Uniform(0, 1000));
  }
  return Bat(Column::MakeOid(heads), Column::MakeInt(tails),
             bat::Properties{true, false, true, false});
}

TEST(ParallelTest, ParallelScanSelectMatchesSerial) {
  kernel::ExecContext ctx;
  Bat ab = BigRandomAttr(200000);
  SetParallelDegree(1);
  Bat serial =
      kernel::SelectRange(ctx, ab, Value::Int(100), Value::Int(300))
          .ValueOrDie();
  SetParallelDegree(6);
  Bat parallel =
      kernel::SelectRange(ctx, ab, Value::Int(100), Value::Int(300))
          .ValueOrDie();
  SetParallelDegree(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.head().OidAt(i), parallel.head().OidAt(i));
    EXPECT_EQ(serial.tail().NumAt(i), parallel.tail().NumAt(i));
  }
}

TEST(ParallelTest, ParallelMultiplexMatchesSerial) {
  kernel::ExecContext ctx;
  Bat a = BigRandomAttr(150000);
  Bat b = Bat(a.head_col(), BigRandomAttr(150000).tail_col());
  SetParallelDegree(1);
  Bat serial =
      kernel::Multiplex(ctx, *kernel::FindScalarFn("*"), {a, b}).ValueOrDie();
  SetParallelDegree(6);
  Bat parallel =
      kernel::Multiplex(ctx, *kernel::FindScalarFn("*"), {a, b}).ValueOrDie();
  SetParallelDegree(0);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); i += 97) {
    EXPECT_DOUBLE_EQ(serial.tail().NumAt(i), parallel.tail().NumAt(i));
  }
}

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> seen(64);
  TaskPool::Global().Run(seen.size(), [&](size_t t) { seen[t]++; });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(TaskPoolTest, WorkersArePersistentAcrossJobs) {
  TaskPool& pool = TaskPool::Global();
  TaskPool::Global().Run(4, [](size_t) {});
  const size_t after_first = pool.thread_count();
  EXPECT_GE(after_first, 1u);
  for (int j = 0; j < 50; ++j) {
    pool.Run(4, [](size_t) {});
  }
  // Reuse, not respawn: the worker count never grows past the first
  // job's requirement for same-width jobs.
  EXPECT_EQ(pool.thread_count(), after_first);
}

TEST(TaskPoolTest, NestedRunDoesNotDeadlock) {
  std::atomic<int> total{0};
  TaskPool::Global().Run(4, [&](size_t) {
    TaskPool::Global().Run(4, [&](size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelTest, PlanBlocksHonorsExplicitDegreeAndCoversRange) {
  SetParallelBlockCap(kMaxParallelDegree);  // exact counts need no HW cap
  const BlockPlan plan = PlanBlocks(1000000, 5);
  EXPECT_EQ(plan.blocks, 5u);
  size_t covered = 0;
  for (size_t b = 0; b < plan.blocks; ++b) {
    EXPECT_EQ(plan.Begin(b), covered);
    covered = plan.End(b);
  }
  EXPECT_EQ(covered, 1000000u);
  // Small inputs plan a single inline block regardless of degree.
  EXPECT_EQ(PlanBlocks(100, 8).blocks, 1u);
  // The block count never exceeds what the morsel floor supports.
  EXPECT_LE(PlanBlocks(40000, 64).blocks, 40000u / kMinItemsPerBlock);
  SetParallelBlockCap(0);
}

TEST(ParallelTest, BlockCapBoundsThePlanToTheHardware) {
  // A degree past the machine's core count buys no wall clock and still
  // pays shard merges, so the planner clamps the block count to the cap.
  SetParallelBlockCap(3);
  EXPECT_EQ(PlanBlocks(1000000, 8).blocks, 3u);
  EXPECT_EQ(PlanBlocks(1000000, 2).blocks, 2u);  // degree below cap wins
  SetParallelBlockCap(0);
  EXPECT_GE(ParallelBlockCap(), 1);  // auto: hardware concurrency, >= 1
  EXPECT_LE(PlanBlocks(1u << 24, kMaxParallelDegree).blocks,
            static_cast<size_t>(ParallelBlockCap()));
}

TEST(ParallelTest, RunBlocksUsesThePlanNotTheLiveDegree) {
  // The old degree-sampling race: a caller sized its shard buffers with
  // one ParallelDegree() call while the runner re-read the degree
  // internally, so a concurrent SetParallelDegree could index out of
  // range. Now the plan is the single source of truth: re-setting the
  // process degree between planning and running must change nothing.
  SetParallelBlockCap(kMaxParallelDegree);
  SetParallelDegree(6);
  const BlockPlan plan = PlanBlocks(200000);
  ASSERT_EQ(plan.blocks, 6u);
  SetParallelDegree(2);  // the "concurrent" change
  std::vector<int> hits(plan.blocks, 0);
  const size_t ran = RunBlocks(plan, [&](int block, size_t, size_t) {
    ASSERT_LT(static_cast<size_t>(block), plan.blocks);
    hits[block]++;
  });
  SetParallelDegree(0);
  SetParallelBlockCap(0);
  EXPECT_EQ(ran, plan.blocks);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelTest, ShardMergeReproducesSerialFaults) {
  // Serial: one accountant touches two ranges that share a boundary page.
  storage::IoStats serial;
  serial.TouchRange(42, 0, 1500, 4);     // pages 0..1 of heap 42
  serial.TouchRange(42, 1500, 3000, 4);  // pages 1..2 (page 1 re-hit)

  // Parallel: each range in its own cold shard, merged in block order.
  storage::IoStats merged;
  storage::IoStats s0 = storage::IoStats::ForShard();
  storage::IoStats s1 = storage::IoStats::ForShard();
  s0.TouchRange(42, 0, 1500, 4);
  s1.TouchRange(42, 1500, 3000, 4);  // faults page 1 again in its shard
  merged.MergeFrom(s0);
  merged.MergeFrom(s1);

  EXPECT_EQ(merged.faults(), serial.faults());
  EXPECT_EQ(merged.sequential_faults(), serial.sequential_faults());
  EXPECT_EQ(merged.random_faults(), serial.random_faults());
  EXPECT_EQ(merged.logical_touches(), serial.logical_touches());
}

TEST(ParallelTest, IoAccountingUnaffectedByDegree) {
  kernel::ExecContext ctx;
  Bat ab = BigRandomAttr(100000);
  storage::IoStats io1, io6;
  SetParallelDegree(1);
  ctx.WithIo(&io1);
  (void)kernel::SelectRange(ctx, ab, Value::Int(0), Value::Int(50));
  SetParallelDegree(6);
  ctx.WithIo(&io6);
  (void)kernel::SelectRange(ctx, ab, Value::Int(0), Value::Int(50));
  SetParallelDegree(0);
  EXPECT_EQ(io1.faults(), io6.faults());
}

// ---------------------------------------------------------- cancellation

TEST(ParallelTest, RunBlocksSkipsEveryBlockOfAPreCancelledPlan) {
  SetParallelBlockCap(kMaxParallelDegree);  // multi-block plans need no HW cap
  CancelState cancel;
  cancel.Cancel(StatusCode::kCancelled, "test");
  BlockPlan plan = PlanBlocks(1 << 20, 16);
  ASSERT_GT(plan.blocks, 1);
  plan.cancel = &cancel;
  std::atomic<int> executed{0};
  RunBlocks(plan, [&](int, size_t, size_t) { executed.fetch_add(1); });
  // RunBlocks still returns normally (the job's completion handshake is
  // untouched), but no block body ran.
  EXPECT_EQ(executed.load(), 0);
  SetParallelBlockCap(0);
}

TEST(ParallelTest, RunBlocksWithLiveTokenRunsEverything) {
  SetParallelBlockCap(kMaxParallelDegree);
  CancelState cancel;  // armed but never cancelled
  BlockPlan plan = PlanBlocks(1 << 20, 16);
  plan.cancel = &cancel;
  std::atomic<int> executed{0};
  std::atomic<size_t> rows{0};
  RunBlocks(plan, [&](int, size_t lo, size_t hi) {
    executed.fetch_add(1);
    rows.fetch_add(hi - lo);
  });
  EXPECT_EQ(executed.load(), plan.blocks);
  EXPECT_EQ(rows.load(), size_t{1} << 20);
  SetParallelBlockCap(0);
}

TEST(ParallelTest, MidFlightCancelDrainsRemainingBlocks) {
  // The first block body to run cancels the plan; blocks claimed after
  // that are drained (counted complete, body skipped), so the loop stops
  // within "blocks already in flight", far short of the full plan.
  SetParallelBlockCap(kMaxParallelDegree);
  CancelState cancel;
  BlockPlan plan = PlanBlocks(size_t{1} << 22, 64);
  ASSERT_EQ(plan.blocks, 64);
  plan.cancel = &cancel;
  std::atomic<int> executed{0};
  RunBlocks(plan, [&](int, size_t, size_t) {
    executed.fetch_add(1);
    cancel.Cancel(StatusCode::kCancelled, "first block pulls the plug");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_GE(executed.load(), 1);
  // Only blocks claimed before the first body published the flag ran: at
  // most the pool's in-flight window, never anywhere near all 64.
  EXPECT_LT(executed.load(), plan.blocks);
  SetParallelBlockCap(0);
}

TEST(TaskPoolTest, AbortedJobDrainsWithoutRunningTasks) {
  std::atomic<uint32_t> abort{1};
  std::atomic<int> ran{0};
  TaskPool::Global().Run(
      256, [&](size_t) { ran.fetch_add(1); },
      SchedTag{/*group=*/0, /*weight=*/1, /*abort=*/&abort});
  // Run() returned: all 256 morsels were claimed and counted complete,
  // none executed its body.
  EXPECT_EQ(ran.load(), 0);
}

}  // namespace
}  // namespace moaflat
