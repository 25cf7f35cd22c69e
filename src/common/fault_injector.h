#ifndef MOAFLAT_COMMON_FAULT_INJECTOR_H_
#define MOAFLAT_COMMON_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/result.h"
#include "common/status.h"

namespace moaflat {

/// Seeded deterministic fault injection: makes every failure path of the
/// engine reachable in tests without touching the success path when
/// disabled (a null injector costs one pointer compare per site).
///
/// Each injection *site* keeps its own event counter; whether event number
/// n at a site fires is a pure function of (seed, site, n), so a given
/// seed and rate produce the same fault decisions run after run — the
/// basis of the CI fault-sweep (`MOAFLAT_FAULT_SEED` × ASan). Under
/// parallel execution the *set* of fired event numbers is still
/// deterministic; which thread draws a fired number is not, which is why
/// the invariants the sweep asserts (clean unwinding, zero charge balance,
/// session reusability) are scheduling-independent.
///
/// Sites:
///   kBudgetCharge — ExecContext::ChargeMemory fails as if the budget were
///       exhausted (the mid-kernel veto path).
///   kIo — the IoStats accountant that owns a query's faults records a
///       simulated read error on a page fault; surfaced by the next
///       ExecContext::CheckInterrupt poll. Shard accountants of parallel
///       blocks draw no kIo events: each fault draws one when the owner
///       replays it at the block-ordered merge, on the owner's thread, so
///       a query draws exactly one event per fault at any degree.
///   kAlloc — ColumnBuilder::Reserve / ColumnScatter construction throws
///       std::bad_alloc (caught and unwound at the statement boundary).
///   kStall — a worker sleeps `stall_ms` before running a block, widening
///       the cancellation window deterministically (tests pin the block
///       index instead of using the rate).
///   kWalAppend — a WAL record write fails (or, in crash mode, the process
///       is killed after a *partial* frame write — the torn-tail case).
///   kWalFsync — the group-commit fsync fails (crash mode: killed before
///       the fsync, so appended-but-unacked records may still recover).
///   kCheckpointRename — the atomic checkpoint publish fails (crash mode:
///       killed between writing the temp file and the rename).
class FaultInjector {
 public:
  enum class Site : int {
    kBudgetCharge = 0,
    kIo,
    kAlloc,
    kStall,
    kWalAppend,
    kWalFsync,
    kCheckpointRename,
  };
  static constexpr int kSiteCount = 7;

  /// `rate` in [0, 1]: expected fraction of events per site that fire.
  FaultInjector(uint64_t seed, double rate);

  /// Draws the next event at `site`; true = inject a failure. Thread-safe.
  bool Fire(Site site);

  /// Status-returning convenience for sites that fail via Status.
  Status MaybeFail(Site site, const char* what) {
    if (!Fire(site)) return Status::OK();
    return Status::ResourceExhausted(std::string("injected fault: ") + what);
  }

  /// IO-flavored injection for the durability sites: a firing event returns
  /// kIoError — or, when crash mode is armed, kills the process on the spot
  /// (the crash-recovery harness's seeded kill points).
  Status MaybeFailIo(Site site, const char* what) {
    if (!Fire(site)) return Status::OK();
    if (crash_enabled()) CrashNow();
    return Status::IoError(std::string("injected fault: ") + what);
  }

  /// Arms crash mode: firing durability-site events SIGKILL the process
  /// instead of returning an error. Which event kills is the same pure
  /// function of (seed, site, n) as error injection, so a given seed crashes
  /// at the same point run after run — the basis of the crash sweep.
  void EnableCrash() { crash_.store(true, std::memory_order_relaxed); }
  bool crash_enabled() const { return crash_.load(std::memory_order_relaxed); }

  /// Dies by SIGKILL (no unwinding, no flushing — a real crash as far as
  /// the filesystem is concerned: only write()n bytes survive).
  [[noreturn]] static void CrashNow();

  /// Forces event number `nth` (0-based) at `site` to fire regardless of
  /// the rate — the deterministic single-shot mode unit tests use.
  void FailNth(Site site, uint64_t nth);

  /// Configures kStall: block index `block` of any job stalls `millis` ms
  /// (checked by RunBlocks before the block body runs). A stalled block
  /// wakes early once its plan is cancelled, so a long pinned stall holds
  /// a query mid-flight until exactly the moment it is cancelled.
  void StallBlock(size_t block, int millis);
  /// Sleeps if a stall is configured for `block` (until `cancel`, if
  /// non-null, says stop); also draws the kStall rate when one is armed via
  /// rate alone.
  void MaybeStall(size_t block, CancelState* cancel);

  uint64_t calls(Site site) const {
    return counter_[static_cast<int>(site)].load();
  }
  uint64_t fired(Site site) const {
    return fired_[static_cast<int>(site)].load();
  }
  uint64_t seed() const { return seed_; }
  double rate() const { return rate_; }

  /// The process-wide injector configured from the environment, or nullptr
  /// when `MOAFLAT_FAULT_SEED` is unset. `MOAFLAT_FAULT_RATE` (a decimal
  /// fraction, default 0.01) sets the per-site firing rate. Resolved once;
  /// a query-service session opts in by passing it as its
  /// SessionOptions::fault_injector. Malformed values are rejected loudly:
  /// the process exits with a diagnostic instead of silently running with a
  /// defaulted seed or rate (the MOAFLAT_THREADS strict-parse discipline —
  /// a sweep that thinks it is injecting faults but is not must not pass).
  static FaultInjector* FromEnv();

  /// The strict parser behind FromEnv, testable without process exit:
  /// `seed_text`/`rate_text` are the raw environment values (null = unset).
  /// Returns a configured injector, a null pointer when the seed is unset,
  /// or kInvalidArgument naming the malformed variable. The entire seed must
  /// be a plain decimal number; the rate a decimal fraction in [0, 1]; a
  /// rate without a seed is a misconfiguration, not a silent no-op.
  static Result<std::unique_ptr<FaultInjector>> ParseEnv(
      const char* seed_text, const char* rate_text);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  const uint64_t seed_;
  const double rate_;
  uint64_t threshold_;  // rate as a 64-bit hash threshold
  std::array<std::atomic<uint64_t>, kSiteCount> counter_{};
  std::array<std::atomic<uint64_t>, kSiteCount> fired_{};
  std::array<std::atomic<uint64_t>, kSiteCount> forced_nth_;
  std::atomic<size_t> stall_block_{~size_t{0}};
  std::atomic<int> stall_ms_{0};
  std::atomic<bool> crash_{false};
};

/// The injector currently armed for this thread, or nullptr. Allocation
/// sites (ColumnBuilder / ColumnScatter) live below the ExecContext layer
/// with no context in reach, so they — and the owning IoStats's kIo draw —
/// consult this thread-local, which OpRecorder installs for the duration
/// of each kernel operator call.
FaultInjector* CurrentFaultInjector();

/// RAII scope installing `injector` as the thread's current one (nullptr
/// disarms). Scopes nest; the innermost wins.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector* injector);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace moaflat

#endif  // MOAFLAT_COMMON_FAULT_INJECTOR_H_
