#ifndef MOAFLAT_KERNEL_EXEC_CONTEXT_H_
#define MOAFLAT_KERNEL_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/fault_injector.h"
#include "common/parallel.h"
#include "common/status.h"
#include "kernel/exec_tracer.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {

/// All execution state of one query (or one session), passed explicitly
/// through every kernel operator:
///
///   - the ExecTracer that records the dynamic optimizer's implementation
///     choices (Fig. 10),
///   - the IoStats page-fault accountant (Section 5.2.2 cost model),
///   - a memory budget capping the total bytes the operators under this
///     context may materialize (Monet materializes every intermediate, so
///     this is the per-query admission control knob).
///
/// Contexts are cheap values: copies share the memory-charge counter (a
/// statement-scoped copy still charges the query's budget) but may override
/// the tracer or IO sink. Two contexts with distinct tracers/IoStats are
/// fully isolated — the basis for running concurrent traced queries.
class ExecContext {
 public:
  ExecContext() : charged_(std::make_shared<std::atomic<uint64_t>>(0)) {}

  ExecContext& WithTracer(ExecTracer* tracer) {
    tracer_ = tracer;
    return *this;
  }
  ExecContext& WithIo(storage::IoStats* io) {
    io_ = io;
    return *this;
  }
  /// Caps the cumulative bytes of result BUNs materialized under this
  /// context (0 = unlimited). Shared by all copies of this context.
  ExecContext& WithMemoryBudget(uint64_t bytes) {
    budget_ = bytes;
    return *this;
  }
  /// Per-context degree of parallelism for the parallel-block kernels:
  /// d >= 1 overrides the process-wide ParallelDegree() for every operator
  /// run under this context (so one heavy query can fan out while a
  /// latency-sensitive session stays serial); d <= 0 restores the process
  /// default. Results are identical at any degree — the knob trades wall
  /// clock against CPU, never answers.
  ExecContext& WithParallelDegree(int degree) {
    if (degree < 0) degree = 0;
    if (degree > kMaxParallelDegree) degree = kMaxParallelDegree;
    degree_ = degree;
    return *this;
  }
  /// Fair-share identity on the shared TaskPool: every parallel block
  /// planned through this context (Plan()) is charged to `group` at
  /// `weight`. Group 0 is the shared best-effort group; the query service
  /// assigns one group per session so a fan-out analytic session cannot
  /// starve the others.
  ExecContext& WithSchedule(uint64_t group, uint32_t weight = 1) {
    sched_group_ = group;
    sched_weight_ = weight > 0 ? weight : 1;
    return *this;
  }
  /// Attaches the query's cancellation token: every kernel run under this
  /// context polls it at block boundaries (via Plan()) and between serial
  /// chunks (CheckInterrupt()), so a cancel or deadline expiry stops
  /// execution within one block. Copies of the context share the token.
  ExecContext& WithCancelToken(CancelToken token) {
    cancel_ = std::move(token);
    return *this;
  }
  /// Arms a deadline on the context's cancel token (creating one if none is
  /// attached): once `deadline` passes, the next poll latches
  /// kDeadlineExceeded and the query unwinds like a cancellation.
  ExecContext& WithDeadline(std::chrono::steady_clock::time_point deadline) {
    if (!cancel_.valid()) cancel_ = CancelToken::Make();
    cancel_.SetDeadline(deadline);
    return *this;
  }
  /// Convenience: deadline `ms` milliseconds from now (ms <= 0 is a no-op).
  ExecContext& WithTimeout(int64_t ms) {
    if (ms <= 0) return *this;
    return WithDeadline(std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ms));
  }
  /// Arms deterministic fault injection for every operator run under this
  /// context (null disarms). The injector outlives the context (the query
  /// service owns the process-wide one; tests own theirs on the stack).
  ExecContext& WithFaultInjector(FaultInjector* injector) {
    injector_ = injector;
    return *this;
  }

  ExecTracer* tracer() const { return tracer_; }
  storage::IoStats* io() const { return io_; }
  const CancelToken& cancel_token() const { return cancel_; }
  FaultInjector* fault_injector() const { return injector_; }

  /// The cooperative interruption poll every kernel makes between phases
  /// (and every serial emit loop makes per charge chunk): non-OK once the
  /// query was cancelled, its deadline passed, or the IO layer latched a
  /// (possibly injected) read error. One relaxed atomic load when nothing
  /// is armed.
  Status CheckInterrupt() const {
    if (cancel_.valid() && cancel_.state()->ShouldStop()) {
      return cancel_.state()->status();
    }
    if (io_ != nullptr) {
      MF_RETURN_NOT_OK(io_->TakeError());
    }
    return Status::OK();
  }

  /// Effective degree for kernels run under this context: the per-context
  /// override when set, else the process-wide ParallelDegree().
  int parallel_degree() const {
    return degree_ > 0 ? degree_ : ParallelDegree();
  }

  uint64_t sched_group() const { return sched_group_; }
  uint32_t sched_weight() const { return sched_weight_; }

  /// Plans a parallel evaluation phase of `n` items at this context's
  /// degree and stamps the plan with the context's fair-share identity —
  /// the one entry point kernels use, so every block they submit to the
  /// TaskPool is scheduled under the owning session's group and weight.
  /// `max_degree` further caps the fan-out (scatter phases pass
  /// kMaxScatterDegree); 0 = no extra cap.
  BlockPlan Plan(size_t n, int max_degree = 0) const {
    int degree = parallel_degree();
    if (max_degree > 0 && degree > max_degree) degree = max_degree;
    BlockPlan plan = PlanBlocks(n, degree);
    plan.sched_group = sched_group_;
    plan.sched_weight = sched_weight_;
    plan.cancel = cancel_.state().get();
    return plan;
  }

  uint64_t memory_budget() const { return budget_; }
  uint64_t memory_charged() const { return charged_->load(); }

  /// The memory budget hook: operators call this before materializing
  /// `bytes` of result storage. Charges accumulate across the lifetime of
  /// the context (the paper's "total intermediate MB" model, Fig. 9) and
  /// the call fails once the budget would be exceeded. A rejected charge
  /// is refunded — the materialization it guarded never happens — so one
  /// over-budget operator does not poison later, smaller ones.
  Status ChargeMemory(uint64_t bytes) const {
    if (injector_ != nullptr) {
      MF_RETURN_NOT_OK(injector_->MaybeFail(FaultInjector::Site::kBudgetCharge,
                                            "budget charge"));
    }
    const uint64_t now = charged_->fetch_add(bytes) + bytes;
    if (budget_ != 0 && now > budget_) {
      charged_->fetch_sub(bytes);
      return Status::ResourceExhausted(
          "memory budget exceeded: " + std::to_string(now) + " of " +
          std::to_string(budget_) + " bytes would be charged");
    }
    return Status::OK();
  }

  /// Returns previously charged bytes of *transient* working state
  /// (probe/match shards, head-join alignment maps): such state is charged
  /// while live, so the budget caps honest peak memory, and released when
  /// the operator frees it — unlike result BUNs, whose charges accumulate
  /// for the context's lifetime (the total-intermediate-MB model).
  void ReleaseMemory(uint64_t bytes) const { charged_->fetch_sub(bytes); }

 private:
  ExecTracer* tracer_ = nullptr;
  storage::IoStats* io_ = nullptr;
  uint64_t budget_ = 0;  // 0 = unlimited
  int degree_ = 0;  // 0 = process-wide ParallelDegree()
  uint64_t sched_group_ = 0;
  uint32_t sched_weight_ = 1;
  CancelToken cancel_;  // empty = not cancellable
  FaultInjector* injector_ = nullptr;
  std::shared_ptr<std::atomic<uint64_t>> charged_;
};

/// Per-operator-call guard used inside every kernel operator. Arms the
/// context's fault injector for the allocation sites below the context
/// layer, snapshots time, the fault counter and the memory charge, and
/// emits a TraceRecord into the context's tracer on Finish(). A call that
/// never reaches Finish() failed: on destruction the guard refunds every
/// byte the call charged, so a failed operator leaves the balance where
/// it found it, however far its blocks got.
class OpRecorder {
 public:
  OpRecorder(const ExecContext& ctx, const char* op);
  ~OpRecorder();

  /// Records the completed call. `impl` names the chosen algorithm.
  void Finish(const char* impl, size_t out_size);
  void Finish(const std::string& impl, size_t out_size);

  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;

 private:
  const ExecContext& ctx_;
  const char* op_;
  FaultScope fault_scope_;  // arms ctx's injector for alloc sites
  std::chrono::steady_clock::time_point start_;
  uint64_t faults_before_;
  uint64_t charged_before_;
  bool finished_ = false;
};

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_EXEC_CONTEXT_H_
