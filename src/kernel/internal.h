#ifndef MOAFLAT_KERNEL_INTERNAL_H_
#define MOAFLAT_KERNEL_INTERNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "common/parallel.h"
#include "kernel/exec_context.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel::internal {

/// Materialized byte width of one value of `c`: void columns materialize
/// as oids. The single width rule behind every budget charge.
inline int ChargeWidth(const bat::Column& c) {
  return c.is_void() ? TypeWidth(MonetType::kOidT) : c.width();
}

/// Bytes one result BUN of the given column shapes occupies.
inline uint64_t ChargeRowBytes(const bat::Column& head,
                               const bat::Column& tail) {
  return static_cast<uint64_t>(ChargeWidth(head) + ChargeWidth(tail));
}

/// Charges `rows` result BUNs of the given column shapes against the
/// context's memory budget (the hook point of the ExecContext budget).
/// Called by operators once the result cardinality is known, before the
/// result heap is materialized.
inline Status ChargeGather(const ExecContext& ctx, size_t rows,
                           const bat::Column& head, const bat::Column& tail) {
  return ctx.ChargeMemory(static_cast<uint64_t>(rows) *
                          ChargeRowBytes(head, tail));
}

/// Incremental budget gate for operators whose result cardinality is not
/// known upfront (joins, theta-joins, run aggregates): rows are charged in
/// chunks as they are emitted, so a result that blows past the budget is
/// stopped mid-build with at most one chunk of overshoot.
class ChargeGate {
 public:
  /// Rows buffered between budget checks; also the bound on how far an
  /// emit loop that feeds the gate per row can overshoot the budget.
  static constexpr size_t kChunkRows = 1 << 16;

  ChargeGate(const ExecContext& ctx, const bat::Column& head,
             const bat::Column& tail)
      : ctx_(ctx), bytes_per_row_(ChargeRowBytes(head, tail)) {}

  /// Gate over an explicit per-row byte width, for operators whose result
  /// columns are not copies of operand columns (e.g. a multiplex tail of
  /// the scalar function's result type). Zero-width results (a shared
  /// zero-copy column) contribute zero, like the void columns above.
  ChargeGate(const ExecContext& ctx, uint64_t bytes_per_row)
      : ctx_(ctx), bytes_per_row_(bytes_per_row) {}

  /// Accounts `rows` more emitted result rows.
  Status Add(size_t rows) {
    pending_ += rows;
    return pending_ >= kChunkRows ? Flush() : Status::OK();
  }

  /// Charges any not-yet-charged rows; call once after the emit loop.
  /// Doubles as the cancellation poll of long *serial* emit loops: one
  /// interrupt check per kChunkRows rows, so even a single-block kernel
  /// stops within 64K rows of a cancel or deadline expiry.
  Status Flush() {
    MF_RETURN_NOT_OK(ctx_.CheckInterrupt());
    if (pending_ == 0) return Status::OK();
    const uint64_t bytes = pending_ * bytes_per_row_;
    pending_ = 0;
    return ctx_.ChargeMemory(bytes);
  }

 private:
  const ExecContext& ctx_;
  uint64_t bytes_per_row_;
  size_t pending_ = 0;
};

/// RAII budget charge for *transient* working state — probe/match shards,
/// head-join alignment maps, anything sized to the data but freed before
/// the operator returns. Charged like result bytes so the budget caps
/// honest peak memory (the admission controller's capacity math), but
/// released on destruction: transient state does not accumulate in the
/// context's total-intermediate model, and a failed operator releases it
/// automatically on unwind.
class TransientCharge {
 public:
  explicit TransientCharge(const ExecContext& ctx) : ctx_(ctx) {}
  ~TransientCharge() { ctx_.ReleaseMemory(bytes_); }

  Status Add(uint64_t bytes) {
    MF_RETURN_NOT_OK(ctx_.ChargeMemory(bytes));
    bytes_ += bytes;
    return Status::OK();
  }

  uint64_t bytes() const { return bytes_; }

  TransientCharge(const TransientCharge&) = delete;
  TransientCharge& operator=(const TransientCharge&) = delete;

 private:
  const ExecContext& ctx_;
  uint64_t bytes_ = 0;
};

/// One block of a MorselRun: its row range, the accountant its touches
/// report to, and the rows it emits, on its own cache line so concurrent
/// blocks never write to a shared one.
struct alignas(64) Morsel {
  size_t block = 0;
  size_t begin = 0;
  size_t end = 0;
  /// Where the block's touches go (see MorselRun); null when the context
  /// keeps no accountant, so a kernel without one does no accounting work.
  storage::IoStats* io = nullptr;
  /// Emitted rows in emission order: each row's position in the source of
  /// the result head and, when the result tail comes from another operand
  /// (the joins), its position there. Kernels whose result head and tail
  /// come from one BAT leave `tails` empty.
  std::vector<uint32_t> heads;
  std::vector<uint32_t> tails;
  /// The block's first failure; the body stops emitting at it.
  Status status = Status::OK();
  storage::IoStats shard = storage::IoStats::ForShard();
};

/// The morsel runner (Section 2 "parallel block execution") behind every
/// kernel that evaluates in blocks and materializes in two phases. A kernel
/// writes its block body; the runner owns the plumbing around it:
///
///  (a) Run plans the blocks and runs the body over them on the TaskPool.
///      Every block gets its accountant by one rule: the caller's in a
///      one-block plan — a capacity-limited (LRU) pager needs the true
///      touch sequence, and shard replay carries first touches only — and
///      an IoStats::ForShard shard otherwise, replayed into the caller's in
///      block order afterwards, which reproduces the serial run's faults,
///      their split and logical touches exactly under cold-run accounting.
///      Every block also gets its own ChargeGate, flushed after the body.
///      Run returns the first failed block's status, then polls
///      CheckInterrupt: a cancelled plan skips blocks, and a kernel must
///      never consume their missing rows.
///  (b) Stage prefix-sums the blocks' emitted rows and charges their
///      position lists as transient staging, held until the run dies (the
///      operator's peak: positions plus result heaps). Scatter then gathers
///      the result head and tail into pre-sized bat::ColumnScatters, every
///      block into its own slice, concurrently.
class MorselRun {
 public:
  /// Plans `n` items at the context's degree; each block's gate charges
  /// `gate_row_bytes` per row its body adds.
  MorselRun(const ExecContext& ctx, size_t n, uint64_t gate_row_bytes = 0)
      : ctx_(ctx),
        plan_(ctx.Plan(n)),
        gate_row_bytes_(gate_row_bytes),
        morsels_(plan_.blocks),
        staging_(ctx) {}

  MorselRun(const MorselRun&) = delete;
  MorselRun& operator=(const MorselRun&) = delete;

  const BlockPlan& plan() const { return plan_; }
  const std::vector<Morsel>& morsels() const { return morsels_; }

  /// (a) Runs `body(Morsel&, ChargeGate&)` for every block. The body emits
  /// rows into its morsel, touches pages through `morsel.io` (its page
  /// filters must die with the body), and on failure sets
  /// `morsel.status` and returns.
  template <typename Body>
  Status Run(const Body& body) {
    RunBlocks(plan_, [&](int block, size_t begin, size_t end) {
      Morsel& m = morsels_[block];
      m.block = static_cast<size_t>(block);
      m.begin = begin;
      m.end = end;
      m.io = plan_.blocks > 1 && ctx_.io() != nullptr ? &m.shard : ctx_.io();
      ChargeGate gate(ctx_, gate_row_bytes_);
      body(m, gate);
      if (m.status.ok()) m.status = gate.Flush();
    });
    MF_RETURN_NOT_OK(Replay());
    return ctx_.CheckInterrupt();
  }

  /// (b) Prefix-sums the emitted rows and charges their position lists,
  /// plus `extra_row_bytes` per row of the kernel's own per-row staging,
  /// as one transient charge.
  Status Stage(uint64_t extra_row_bytes = 0);

  /// Rows emitted by all blocks; valid after Stage.
  size_t total() const { return offset_.back(); }

  /// Gathers the result head from `head` at the emitted head positions and
  /// the result tail from `tail` at the tail positions (or the head
  /// positions, when the kernel emits one per row).
  Result<std::pair<bat::ColumnPtr, bat::ColumnPtr>> Scatter(
      const bat::Column& head, const bat::Column& tail);

  /// Like Scatter, for a result tail the kernel computes: gathers the head
  /// and calls `tail(morsel, at)` in every block, which fills the block's
  /// slice of the tail from result row `at` on and returns its status.
  template <typename TailFn>
  Result<bat::ColumnPtr> ScatterHead(const bat::Column& head,
                                     const TailFn& tail) {
    bat::ColumnScatter hs(head, total());
    RunBlocks(plan_, [&](int block, size_t, size_t) {
      Morsel& m = morsels_[block];
      hs.Gather(m.heads.data(), m.heads.size(), offset_[block]);
      m.status = tail(m, offset_[block]);
    });
    MF_RETURN_NOT_OK(FirstFailure());
    MF_RETURN_NOT_OK(ctx_.CheckInterrupt());
    return hs.Finish();
  }

 private:
  /// Replays the shards into the caller's accountant in block order, then
  /// returns FirstFailure().
  Status Replay();
  Status FirstFailure() const;

  const ExecContext& ctx_;
  const BlockPlan plan_;
  const uint64_t gate_row_bytes_;
  std::vector<Morsel> morsels_;
  std::vector<size_t> offset_;  // exclusive prefix sum, set by Stage
  TransientCharge staging_;
};

/// Deterministic combination of sync keys: operators derive the sync key of
/// a result head column from the operand keys so that structurally
/// identical dataflows yield identical keys (the basis of synced-property
/// propagation, Section 5.1).
inline uint64_t MixSync(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b + 0x2545f4914f6cdd1dULL;
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

inline uint64_t HashString(std::string_view s) { return bat::HashBytes(s); }

/// Stamps an operator-derived sync key onto a freshly built result column.
/// Result columns are uniquely owned at this point, so the cast is safe.
inline void SetSync(const bat::ColumnPtr& col, uint64_t key) {
  const_cast<bat::Column*>(col.get())->set_sync_key(key);
}

}  // namespace moaflat::kernel::internal

#endif  // MOAFLAT_KERNEL_INTERNAL_H_
