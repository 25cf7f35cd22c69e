#ifndef MOAFLAT_COMMON_TASK_POOL_H_
#define MOAFLAT_COMMON_TASK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stride_scheduler.h"
#include "common/thread_annotations.h"

namespace moaflat {

/// Fair-share identity of a job: which session (or other principal) its
/// morsels are charged to, and that principal's scheduling weight. The
/// default tag puts untagged work into one shared best-effort group.
///
/// `abort` (optional) is the raw cancellation flag of the owning query
/// (CancelState::flag()): once it reads non-zero, the pool *drains* the
/// job — remaining morsels are claimed and counted complete without
/// running the task body — so a cancelled fan-out releases its workers
/// within one morsel instead of finishing a 10M-row scan. The pointee must
/// outlive the Run() call, which BlockPlan guarantees (the ExecContext
/// holds the CancelToken for the whole query).
struct SchedTag {
  uint64_t group = 0;
  uint32_t weight = 1;
  const std::atomic<uint32_t>* abort = nullptr;
};

/// Persistent worker pool behind all parallel kernel execution (morsel
/// driven, instead of spawning threads per parallel phase): worker threads are started lazily on the first parallel run and
/// then reused by every kernel of every query, so the per-call cost of
/// parallelism is one queue push instead of `degree` thread creations.
///
/// Scheduling model: one Run() call is a *job* of `count` independent
/// tasks (the morsels). Idle workers pick which job to serve through a
/// weighted StrideScheduler keyed by the job's SchedTag group, claim ONE
/// morsel from that job's atomic cursor, run it, and re-consult the
/// scheduler — so a 10M-row fan-out scan interleaves with a small query's
/// morsels instead of holding every worker until it drains. The calling
/// thread additionally participates in its own job until that job is
/// drained: caller participation guarantees progress at any pool size
/// (including zero workers), makes nested Run() calls deadlock-free, and
/// bounds a small job's completion by the caller's own throughput even
/// when all workers are busy elsewhere.
///
/// Locking: the queue mutex `mu_` carries LockRank::kScheduler and each
/// job's completion mutex carries LockRank::kPool; task bodies run with
/// neither held, so a morsel may itself call Run() (nested fan-out) or
/// take any higher-ranked lock.
///
/// Worker count is capped at max(hardware_concurrency, 8) — the floor
/// keeps real concurrency (and thus ThreadSanitizer coverage) even on
/// single-core CI machines — and never exceeds what a job has asked for.
class TaskPool {
 public:
  /// The process-wide pool all kernels share. Never destroyed (workers
  /// may be blocked in their queue wait at process exit).
  static TaskPool& Global();

  /// Runs task(0) .. task(count-1), distributed over the pool workers and
  /// the calling thread, and returns once all of them completed. Tasks
  /// must be independent; completion gives the caller a happens-before
  /// edge on everything the tasks wrote. count <= 1 runs inline. `tag`
  /// assigns the job's morsels to a fair-share group.
  void Run(size_t count, const std::function<void(size_t)>& task,
           SchedTag tag = {}) MOAFLAT_EXCLUDES(mu_);

  /// Workers started so far (grows lazily, never shrinks).
  size_t thread_count() const MOAFLAT_EXCLUDES(mu_);

  /// Jobs executed through the pool since process start (tests use this
  /// to assert kernels actually went through the pool).
  uint64_t jobs_run() const MOAFLAT_EXCLUDES(mu_);

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

 private:
  struct Job {
    Job(uint64_t job_id, size_t n, const std::function<void(size_t)>* fn,
        const std::atomic<uint32_t>* abort_flag)
        : id(job_id), count(n), task(fn), abort(abort_flag) {}
    const uint64_t id;
    const size_t count;
    const std::function<void(size_t)>* task;  // owned by the Run() caller
    const std::atomic<uint32_t>* abort;       // null = not cancellable
    std::atomic<size_t> next{0};       // morsel claim cursor
    std::atomic<size_t> completed{0};  // finished morsels
    // Completion handshake only: `completed` is atomic, so mu guards no
    // data — locking it pairs the final notify with the waiter's check.
    Mutex mu{LockRank::kPool, "task_pool.job"};
    CondVar done_cv;
  };

  TaskPool() = default;

  void EnsureWorkers(size_t wanted) MOAFLAT_EXCLUDES(mu_);
  void WorkerLoop() MOAFLAT_EXCLUDES(mu_);
  /// Runs one claimed morsel; the last finisher signals done_cv.
  void RunMorsel(const std::shared_ptr<Job>& job, size_t t);
  /// Removes a drained job from active_ and the scheduler (idempotent:
  /// every participant that over-claims calls this).
  void Retire(const Job& job) MOAFLAT_EXCLUDES(mu_);

  mutable Mutex mu_{LockRank::kScheduler, "task_pool"};
  CondVar work_cv_;
  // Invariant under mu_: active_ keys == scheduler entries, so after a
  // successful wait on !active_.empty() a Pick() always yields a job.
  std::map<uint64_t, std::shared_ptr<Job>> active_ MOAFLAT_GUARDED_BY(mu_);
  StrideScheduler sched_ MOAFLAT_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ MOAFLAT_GUARDED_BY(mu_);
  uint64_t next_job_id_ MOAFLAT_GUARDED_BY(mu_) = 1;
  uint64_t jobs_run_ MOAFLAT_GUARDED_BY(mu_) = 0;
};

}  // namespace moaflat

#endif  // MOAFLAT_COMMON_TASK_POOL_H_
