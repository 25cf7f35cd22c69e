#include "common/parallel.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <thread>

#include "common/fault_injector.h"
#include "common/task_pool.h"

namespace moaflat {
namespace {

/// 0 = unresolved (next ParallelDegree() call samples the environment).
/// Relaxed ordering is sufficient: the value is a self-contained int and
/// concurrent first calls resolve to the same environment sample.
std::atomic<int> g_degree{0};

/// Strict parse of MOAFLAT_THREADS: the entire value must be a plain
/// positive decimal number. atoi-style prefixes ("3abc"), signs,
/// whitespace, empty strings and out-of-range values are rejected, so a
/// typo degrades to deterministic single-threaded execution instead of a
/// silent half-parsed degree.
int DegreeFromEnv() {
  const char* env = std::getenv("MOAFLAT_THREADS");
  if (env == nullptr || !std::isdigit(static_cast<unsigned char>(env[0]))) {
    return 1;
  }
  errno = 0;
  char* end = nullptr;
  const long d = std::strtol(env, &end, 10);
  if (errno != 0 || *end != '\0' || d < 1 || d > kMaxParallelDegree) return 1;
  return static_cast<int>(d);
}

}  // namespace

int ParallelDegree() {
  int d = g_degree.load(std::memory_order_relaxed);
  if (d == 0) {
    d = DegreeFromEnv();
    g_degree.store(d, std::memory_order_relaxed);
  }
  return d;
}

void SetParallelDegree(int degree) {
  if (degree < 0) degree = 0;
  if (degree > kMaxParallelDegree) degree = kMaxParallelDegree;
  g_degree.store(degree, std::memory_order_relaxed);
}

namespace {

/// 0 = auto (hardware concurrency, resolved per call — it is one cheap
/// library call and tests flip the override around it).
std::atomic<int> g_block_cap{0};

}  // namespace

int ParallelBlockCap() {
  const int cap = g_block_cap.load(std::memory_order_relaxed);
  if (cap > 0) return cap;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void SetParallelBlockCap(int cap) {
  if (cap < 0) cap = 0;
  if (cap > kMaxParallelDegree) cap = kMaxParallelDegree;
  g_block_cap.store(cap, std::memory_order_relaxed);
}

BlockPlan PlanBlocks(size_t n, int degree) {
  if (degree <= 0) degree = ParallelDegree();
  const int cap = ParallelBlockCap();
  if (degree > cap) degree = cap;
  BlockPlan plan;
  plan.n = n;
  if (degree <= 1 || n < 2 * kMinItemsPerBlock) {
    plan.blocks = 1;
    plan.chunk = n;
    return plan;
  }
  // Cap the block count so every block amortizes its dispatch, then round
  // the chunk up; recomputing the count from the chunk leaves no empty
  // trailing block.
  size_t blocks = std::min<size_t>(degree, n / kMinItemsPerBlock);
  plan.chunk = (n + blocks - 1) / blocks;
  plan.blocks = (n + plan.chunk - 1) / plan.chunk;
  return plan;
}

size_t RunBlocks(const BlockPlan& plan,
                 const std::function<void(int, size_t, size_t)>& fn) {
  if (plan.blocks <= 1) {
    if (plan.cancel != nullptr && plan.cancel->ShouldStop()) return 1;
    fn(0, 0, plan.n);
    return 1;
  }
  FaultInjector* injector = CurrentFaultInjector();
  TaskPool::Global().Run(
      plan.blocks,
      [&](size_t b) {
        // Block-boundary cancellation poll: a cancelled plan skips its
        // remaining block bodies (the morsel is still counted as complete,
        // so the job's completion handshake is untouched). The planning
        // kernel re-checks CheckInterrupt() after the phase and unwinds,
        // so the partially evaluated shards are never materialized.
        if (plan.cancel != nullptr && plan.cancel->ShouldStop()) return;
        if (injector != nullptr) injector->MaybeStall(b, plan.cancel);
        fn(static_cast<int>(b), plan.Begin(b), plan.End(b));
      },
      SchedTag{plan.sched_group, plan.sched_weight,
               plan.cancel != nullptr ? plan.cancel->flag() : nullptr});
  return plan.blocks;
}

}  // namespace moaflat
