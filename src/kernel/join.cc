#include <algorithm>
#include <utility>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::ChargeGate;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

struct JoinOut {
  ColumnBuilder heads;
  ColumnBuilder tails;
  JoinOut(const Column& a, const Column& d)
      : heads(a.type()), tails(d.type(), d.str_heap()) {}
};

/// Common epilogue of the materializing join variants.
Result<Bat> FinishJoin(const Bat& ab, const Bat& cd, ColumnPtr out_head,
                       ColumnPtr out_tail) {
  // The surviving left BUNs depend on ab's *tail* values (they matched
  // cd's head), so the tail key must feed the derivation: two left
  // operands sharing a head column but carrying different tails must not
  // forge equal sync keys.
  SetSync(out_head, MixSync(MixSync(MixSync(ab.head().sync_key(),
                                            ab.tail().sync_key()),
                                    cd.head().sync_key()),
                            HashString("join")));
  bat::Properties props;
  // All implementations emit in left-BUN order; right-side duplicates
  // repeat the same head value consecutively, so sortedness survives.
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey && cd.props().hkey;
  props.tsorted = false;
  props.tkey = false;
  return Bat::Make(std::move(out_head), std::move(out_tail), props);
}

/// Positional join over provably identical join columns: the result is
/// exactly [A, D]; both columns are shared, no data moves.
Result<Bat> FetchJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  // zero-copy: nothing is materialized, nothing to charge
  ab.head().TouchAll(ctx.io());
  cd.tail().TouchAll(ctx.io());
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = cd.props().tsorted;
  props.tkey = cd.props().tkey;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(ab.head_col(), cd.tail_col(), props));
  rec.Finish("fetch_join", res.size());
  return res;
}

Result<Bat> MergeJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  JoinOut out(a, d);
  ChargeGate gate(ctx, a, d);
  b.TouchAll(ctx.io());
  c.TouchAll(ctx.io());
  storage::ColdPageFilter a_pages = a.PageFilter(ctx.io());
  storage::ColdPageFilter d_pages = d.PageFilter(ctx.io());
  const size_t n = ab.size(), m = cd.size();
  // B is read in KeyBatches: the loop is instantiated per (B key kind,
  // C shape).
  bat::KeyBatch batch;
  Status status = Status::OK();
  size_t i = 0, j = 0;
  while (i < n && j < m && status.ok()) {
    const size_t lo = i;
    const size_t hi = std::min(n, lo + bat::KeyBatch::kRows);
    batch.Fill(b, lo, hi);
    batch.Visit([&](const auto& bv) {
      c.VisitValues([&](const auto& cv) {
        while (i < hi && j < m) {
          const int cmp = bat::Compare(bv, i - lo, cv, j);
          if (cmp < 0) {
            ++i;
          } else if (cmp > 0) {
            ++j;
          } else {
            // Emit the full run of equal keys on the right for this left
            // BUN; the run start stays, the next left BUN may match too.
            for (size_t j2 = j; j2 < m && bat::Equal(cv, j2, cv, j); ++j2) {
              a_pages.Touch(i);
              d_pages.Touch(j2);
              out.heads.AppendFrom(a, i);
              out.tails.AppendFrom(d, j2);
              status = gate.Add(1);
              if (!status.ok()) return;
            }
            ++i;
          }
        }
      });
    });
  }
  MF_RETURN_NOT_OK(status);
  MF_RETURN_NOT_OK(gate.Flush());
  MF_ASSIGN_OR_RETURN(
      Bat res, FinishJoin(ab, cd, out.heads.Finish(), out.tails.Finish()));
  rec.Finish("merge_join", res.size());
  return res;
}

/// Hash join, morsel-parallel in both phases. The build side's hash
/// accelerator is built partitioned at the context degree; probe blocks
/// emit matching (left, right) positions, and the run scatters them
/// straight into the pre-sized result heaps — the emitted BUN sequence
/// and the fault counts are those of a serial probe at any degree. Each
/// block reports its c/a/d touches through one page filter per heap.
Result<Bat> HashJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                     OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  b.TouchAll(ctx.io());

  internal::MorselRun run(ctx, ab.size(), internal::ChargeRowBytes(a, d));
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m, ChargeGate& gate) {
    // The charge counter is shared and atomic, so concurrent block gates
    // account exactly and an over-budget join stops all blocks early.
    // The gate is fed per match (so a high-fanout probe cannot overshoot
    // the budget by more than the gate's charge chunk) and probing stops
    // at the next chunk boundary once it trips.
    storage::ColdPageFilter c_pages = c.PageFilter(m.io);
    storage::ColdPageFilter a_pages = a.PageFilter(m.io);
    storage::ColdPageFilter d_pages = d.PageFilter(m.io);
    size_t pending = 0;
    constexpr size_t kProbeChunk = 16 * 1024;
    for (size_t lo = m.begin; lo < m.end && m.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(m.end, lo + kProbeChunk);
      hash->ForEachMatchRange(b, lo, hi, [&](size_t i, uint32_t pos) {
        if (!m.status.ok()) return;
        c_pages.Touch(pos);
        a_pages.Touch(i);
        d_pages.Touch(pos);
        m.heads.push_back(static_cast<uint32_t>(i));
        m.tails.push_back(pos);
        if (++pending >= ChargeGate::kChunkRows) {
          m.status = gate.Add(pending);
          pending = 0;
        }
      });
    }
    if (m.status.ok()) m.status = gate.Add(pending);
  }));
  MF_RETURN_NOT_OK(run.Stage());
  MF_ASSIGN_OR_RETURN(auto cols, run.Scatter(a, d));
  MF_ASSIGN_OR_RETURN(Bat res, FinishJoin(ab, cd, std::move(cols.first),
                                          std::move(cols.second)));
  rec.Finish("hash_join", res.size());
  return res;
}

}  // namespace

Result<Bat> Join(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  // Dynamic optimization (Section 5.1), as a data-driven dispatch: the
  // registered variants' predicates and cost hints decide, inspectable via
  // KernelRegistry::Explain("join", ab, cd).
  OpRecorder rec(ctx, "join");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "join", MakeInput(ctx, ab, cd), ctx, ab, cd, rec);
}

namespace internal {

double EstJoinMatches(const DispatchInput& in) {
  return EstEquiMatches(in.left.size, in.right->size);
}

void RegisterJoinKernels(KernelRegistry& r) {
  // Costs are expected cold page faults over the actual column widths
  // (Section 5.2.2 page geometry), plus a sub-page CPU tie-breaker.
  r.Register<BinaryImplSig>(
      "join", "fetch_join",
      [](const DispatchInput& in) {
        return in.right.has_value() && in.tail_head_aligned;
      },
      [](const DispatchInput& in) {
        // Zero-copy [A, D]: the only IO is reporting both shared columns.
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.right->size, in.right->tail_width);
      },
      std::function<BinaryImplSig>(FetchJoin),
      "join columns provably identical by position: zero-copy [A, D]");
  r.Register<BinaryImplSig>(
      "join", "merge_join",
      [](const DispatchInput& in) {
        return in.left.props.tsorted && in.right.has_value() &&
               in.right->props.hsorted;
      },
      [](const DispatchInput& in) {
        const double est = EstJoinMatches(in);
        return HeapPages(in.left.size, in.left.tail_width) +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.right->size, in.right->tail_width, est) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(MergeJoin),
      "single interleaved pass over tsorted x hsorted operands");
  r.Register<BinaryImplSig>(
      "join", "hash_join",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        // Building the accelerator costs one pass over CD's head, skipped
        // when the hash already exists; probing scans AB's tail; each
        // match fetches c/a/d at value order.
        const double est = EstJoinMatches(in);
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        return build + HeapPages(in.left.size, in.left.tail_width) +
               RandomFetchPages(in.right->size, in.right->head_width, est) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.right->size, in.right->tail_width, est) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<BinaryImplSig>(HashJoin),
      "probe the (cached) hash accelerator on CD's head (parallel probe)");
}

}  // namespace internal

}  // namespace moaflat::kernel
