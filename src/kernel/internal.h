#ifndef MOAFLAT_KERNEL_INTERNAL_H_
#define MOAFLAT_KERNEL_INTERNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "bat/bat.h"
#include "kernel/exec_context.h"

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

/// The accountant a parallel block reports its touches to when the merge
/// replays shards: the block's `shard`, or none when the context keeps no
/// accountant (a kernel without one does no accounting work).
inline storage::IoStats* ShardIo(const ExecContext& ctx,
                                 storage::IoStats& shard) {
  return ctx.io() != nullptr ? &shard : nullptr;
}

/// Like ShardIo, but a serial plan touches the caller's accountant
/// directly: a capacity-limited (LRU) pager needs the true touch sequence,
/// and shard replay carries first-touch faults only.
inline storage::IoStats* BlockIo(const ExecContext& ctx, const BlockPlan& plan,
                                 storage::IoStats& shard) {
  return plan.blocks > 1 ? ShardIo(ctx, shard) : ctx.io();
}

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
