#ifndef MOAFLAT_COMMON_PARALLEL_H_
#define MOAFLAT_COMMON_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/cancel.h"

namespace moaflat {

/// Shared-memory parallelism (Section 2: Monet "supports shared-memory
/// parallelism via parallel iteration and parallel block execution" with
/// deliberately coarse-grained primitives).
///
/// Kernel operators split their evaluation phase into contiguous blocks
/// (morsels) executed on the persistent TaskPool, and scatter their results
/// into pre-sized heaps block by block; the kernels' morsel runner
/// (kernel::internal::MorselRun) replays per-block IO shards into the
/// context's accountant in block order, so page-fault totals stay exact at
/// any degree. Degree resolution: the ExecContext may
/// carry a per-context override; otherwise the process-wide degree below
/// applies (MOAFLAT_THREADS, else 1, keeping measurements deterministic).

/// Largest degree ParallelDegree() will report; values beyond this are
/// rejected as misconfiguration (a block per worker thread would thrash).
inline constexpr int kMaxParallelDegree = 4096;

/// Current process-wide degree of parallelism (>= 1). Resolution order:
///
///  1. the last SetParallelDegree(d) with d >= 1, else
///  2. the MOAFLAT_THREADS environment variable — sampled once, on the
///     first call after process start or after SetParallelDegree(0);
///     changing the variable mid-process has no effect until such a
///     reset. The value must be a whole decimal number in
///     [1, kMaxParallelDegree] with no leading sign, whitespace or
///     trailing garbage; anything else is rejected and treated as unset —
///     else
///  3. 1 (single-threaded, keeping measurements deterministic).
int ParallelDegree();

/// Overrides the degree for this process. d >= 1 sets the degree
/// (clamped to kMaxParallelDegree); d <= 0 clears the override, making
/// the next ParallelDegree() call re-read MOAFLAT_THREADS.
void SetParallelDegree(int degree);

/// Most blocks any plan will produce, regardless of the requested degree:
/// std::thread::hardware_concurrency() by default (at least 1). Fanning an
/// evaluation phase out past the cores that can actually run it buys no
/// wall clock and still pays per-block shard state and the ordered merge —
/// the regime where a parallel kernel measures *slower* than serial. The
/// degree stays the caller's upper bound; the cap is the hardware's.
int ParallelBlockCap();

/// Overrides the block cap for this process (tests force multi-block plans
/// on small machines; benches may probe oversubscription). cap >= 1 sets
/// it (clamped to kMaxParallelDegree); cap <= 0 restores the hardware
/// default.
void SetParallelBlockCap(int cap);

/// Blocks smaller than this run inline: task dispatch would dominate.
inline constexpr size_t kMinItemsPerBlock = 16 * 1024;

/// Fan-out bound for kernel phases that build per-(block, partition)
/// scatter structures (quadratic bookkeeping in the block count): past
/// this, the scatter headers dominate any parallelism won. Phases that
/// only shard linearly (selects, probes) use the full degree.
inline constexpr int kMaxScatterDegree = 64;

/// The partition of one parallel evaluation phase: `n` items split into
/// `blocks` contiguous chunks. Computed once by PlanBlocks and then shared
/// by the caller (shard buffers are sized to `blocks`) and RunBlocks, so a
/// concurrent SetParallelDegree cannot change the block count between
/// sizing and running.
struct BlockPlan {
  size_t n = 0;
  size_t blocks = 1;
  size_t chunk = 0;  // items per block; the last block may be shorter

  /// Fair-share identity forwarded to the TaskPool: which session's group
  /// the blocks are charged to and at what weight. Stamped by
  /// ExecContext::Plan(); plans built directly via PlanBlocks run in the
  /// shared best-effort group 0.
  uint64_t sched_group = 0;
  uint32_t sched_weight = 1;

  /// Cooperative-cancellation state of the owning query (stamped by
  /// ExecContext::Plan(); null = not cancellable). RunBlocks polls it at
  /// every block boundary — a cancelled (or deadline-expired) plan skips
  /// its remaining block bodies, and the TaskPool drains the job's
  /// already-claimed morsels without running them. The kernel that planned
  /// the blocks re-checks via ExecContext::CheckInterrupt() afterwards and
  /// unwinds, so a partially evaluated phase is never materialized.
  CancelState* cancel = nullptr;

  size_t Begin(size_t b) const { return std::min(n, b * chunk); }
  size_t End(size_t b) const { return std::min(n, b * chunk + chunk); }
};

/// Plans the block split of `n` items at `degree`; degree <= 0 means the
/// process-wide ParallelDegree(). Small inputs (n < 2 * kMinItemsPerBlock)
/// or degree 1 plan a single block, which RunBlocks executes inline.
BlockPlan PlanBlocks(size_t n, int degree = 0);

/// Runs `fn(block, begin, end)` for every block of the plan on the
/// persistent TaskPool (the calling thread participates) and returns the
/// block count. Single-block plans run inline on the caller. `fn` must only
/// write block-local state; a kernel whose blocks touch pages runs them
/// through kernel::internal::MorselRun, which gives every block its
/// accountant.
size_t RunBlocks(const BlockPlan& plan,
                 const std::function<void(int, size_t, size_t)>& fn);

}  // namespace moaflat

#endif  // MOAFLAT_COMMON_PARALLEL_H_
