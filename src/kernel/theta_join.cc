#include <algorithm>
#include <numeric>
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
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

/// The theta predicate over the three-way Compare of b and c: NaN reads
/// as "equal" (so kLe/kGe are the negations of >/<, not <=/>=).
bool Satisfies(int cmp, CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

/// Common epilogue of the theta-join variants. Emission order interleaves
/// runs from both sides; no ordering or key property survives a theta-join
/// in general. The result sync key must derive from *everything* the BUN
/// sequence depends on: both operands' head AND tail keys plus the
/// comparison — deriving it from the heads alone (the PR 3 SortTail bug
/// class) forged a synced proof between theta-joins over identically
/// headed but differently tail-reordered operands, letting downstream
/// dispatch pick a positional variant on unaligned data.
Result<Bat> FinishThetaJoin(const Bat& ab, const Bat& cd, CmpOp op,
                            ColumnPtr out_head, ColumnPtr out_tail) {
  const uint64_t left = MixSync(ab.head().sync_key(), ab.tail().sync_key());
  const uint64_t right = MixSync(cd.head().sync_key(), cd.tail().sync_key());
  SetSync(out_head,
          MixSync(MixSync(MixSync(left, right),
                          static_cast<uint64_t>(op)),
                  HashString("thetajoin")));
  return Bat::Make(std::move(out_head), std::move(out_tail),
                   bat::Properties{});
}

/// Shared tail of both variants: scatters the blocks' (left, right)
/// matches into the pre-sized result heaps.
Result<Bat> MaterializeMatches(const Bat& ab, const Bat& cd, CmpOp op,
                               internal::MorselRun& run) {
  MF_RETURN_NOT_OK(run.Stage());
  MF_ASSIGN_OR_RETURN(auto cols, run.Scatter(ab.head(), cd.tail()));
  return FinishThetaJoin(ab, cd, op, std::move(cols.first),
                         std::move(cols.second));
}

/// Band algorithm for the ordered comparisons: sort CD's heads once, then
/// for each left BUN emit the qualifying prefix/suffix run. Left BUNs are
/// independent, so they run as morsels on the TaskPool; the binary search
/// and the per-run check read B and C through their value views.
Result<Bat> BandThetaJoin(const ExecContext& ctx, const Bat& ab,
                          const Bat& cd, CmpOp op, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();

  std::vector<uint32_t> order(cd.size());
  std::iota(order.begin(), order.end(), 0u);
  if (!cd.props().hsorted) {
    c.VisitValues([&](const auto& cv) {
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t x, uint32_t y) {
                         return bat::Compare(cv, x, cv, y) < 0;
                       });
    });
  }
  b.TouchAll(ctx.io());
  c.TouchAll(ctx.io());

  internal::MorselRun run(ctx, ab.size(), internal::ChargeRowBytes(a, d));
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m,
                               internal::ChargeGate& gate) {
    storage::ColdPageFilter a_pages = a.PageFilter(m.io);
    storage::ColdPageFilter d_pages = d.PageFilter(m.io);
    auto emit = [&](size_t i, size_t j) {
      const uint32_t pos = order[j];
      a_pages.Touch(i);
      d_pages.Touch(pos);
      m.heads.push_back(static_cast<uint32_t>(i));
      m.tails.push_back(pos);
      m.status = gate.Add(1);
    };
    b.VisitValues([&](const auto& bv) {
      c.VisitValues([&](const auto& cv) {
        // cmp(i, j): b[i] against the j-th smallest c.
        const auto cmp = [&](size_t i, size_t j) {
          return bat::Compare(bv, i, cv, order[j]);
        };
        for (size_t i = m.begin; i < m.end && m.status.ok(); ++i) {
          // First position in the sorted right side with c >= b[i].
          size_t lo = 0, hi = order.size();
          while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (cmp(i, mid) > 0) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          // Emit the side of the partition the comparison selects. Ties
          // need local scanning since `lo` is the first >=.
          if (op == CmpOp::kLt || op == CmpOp::kLe) {
            size_t start = lo;
            while (start > 0 && cmp(i, start - 1) == 0) --start;
            for (size_t j = start; j < order.size() && m.status.ok();
                 ++j) {
              if (Satisfies(cmp(i, j), op)) emit(i, j);
            }
          } else {
            size_t run_end = lo;
            while (run_end < order.size() && cmp(i, run_end) == 0) {
              ++run_end;
            }
            for (size_t j = 0; j < run_end && m.status.ok(); ++j) {
              if (Satisfies(cmp(i, j), op)) emit(i, j);
            }
          }
        }
      });
    });
  }));
  MF_ASSIGN_OR_RETURN(Bat res, MaterializeMatches(ab, cd, op, run));
  rec.Finish("sort_band_thetajoin", res.size());
  return res;
}

/// Nested-loop fallback: evaluates the comparison on every BUN pair; the
/// only variant that can serve `!=` (whose result is not a band). The
/// left side runs as morsels over B and C's value views.
Result<Bat> NestedThetaJoin(const ExecContext& ctx, const Bat& ab,
                            const Bat& cd, CmpOp op, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  b.TouchAll(ctx.io());
  c.TouchAll(ctx.io());
  const size_t n_right = cd.size();

  internal::MorselRun run(ctx, ab.size(), internal::ChargeRowBytes(a, d));
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m,
                               internal::ChargeGate& gate) {
    storage::ColdPageFilter a_pages = a.PageFilter(m.io);
    storage::ColdPageFilter d_pages = d.PageFilter(m.io);
    b.VisitValues([&](const auto& bv) {
      c.VisitValues([&](const auto& cv) {
        for (size_t i = m.begin; i < m.end && m.status.ok(); ++i) {
          for (size_t j = 0; j < n_right && m.status.ok(); ++j) {
            if (!Satisfies(bat::Compare(bv, i, cv, j), op)) continue;
            a_pages.Touch(i);
            d_pages.Touch(j);
            m.heads.push_back(static_cast<uint32_t>(i));
            m.tails.push_back(static_cast<uint32_t>(j));
            m.status = gate.Add(1);
          }
        }
      });
    });
  }));
  MF_ASSIGN_OR_RETURN(Bat res, MaterializeMatches(ab, cd, op, run));
  rec.Finish("nested_thetajoin", res.size());
  return res;
}

CmpOp ParamOp(const DispatchInput& in) {
  return static_cast<CmpOp>(in.param->code);
}

/// Expected output of an inequality join is a large fraction of the cross
/// product; both variants gather it from the same columns, so their page
/// costs tie and the CPU tie-breaker decides (band sorts once and probes,
/// nested compares every pair). Both evaluation phases morselize over the
/// left side, so the tie-breakers scale with the planned block count.
double ThetaGatherPages(const DispatchInput& in) {
  const double out = 0.5 * static_cast<double>(in.left.size) *
                     static_cast<double>(in.right->size);
  return HeapPages(in.left.size, in.left.tail_width) +
         HeapPages(in.right->size, in.right->head_width) +
         RandomFetchPages(in.left.size, in.left.head_width, out) +
         RandomFetchPages(in.right->size, in.right->tail_width, out);
}

}  // namespace

Result<Bat> ThetaJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      CmpOp op) {
  // `=` is the equi-join family with its own variants and accelerators.
  if (op == CmpOp::kEq) return Join(ctx, ab, cd);
  OpRecorder rec(ctx, "thetajoin");
  DispatchInput in = MakeInput(ctx, ab, cd);
  in.param = OpParam{static_cast<int64_t>(op)};
  return KernelRegistry::Global().Dispatch<ThetaImplSig>("thetajoin", in, ctx,
                                                         ab, cd, op, rec);
}

Result<Bat> Fetch(const ExecContext& ctx, const Bat& ab,
                  const Bat& positions) {
  OpRecorder rec(ctx, "fetch");
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  MF_RETURN_NOT_OK(internal::ChargeGather(ctx, positions.size(), head, tail));
  positions.tail().TouchAll(ctx.io());
  // Validate and collect first, then one bulk typed gather per column.
  std::vector<uint32_t> pos(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    const Oid p = positions.tail().OidAt(i);
    if (p >= ab.size()) {
      return Status::OutOfRange("fetch position " + std::to_string(p) +
                                " out of range (size " +
                                std::to_string(ab.size()) + ")");
    }
    pos[i] = static_cast<uint32_t>(p);
  }
  head.TouchGather(ctx.io(), pos.data(), pos.size());
  tail.TouchGather(ctx.io(), pos.data(), pos.size());
  ColumnBuilder hb(MonetType::kOidT);
  ColumnBuilder tb(tail.type(), tail.str_heap());
  hb.Reserve(pos.size());
  tb.Reserve(pos.size());
  for (uint32_t p : pos) hb.AppendOid(p);
  tb.GatherFrom(tail, pos.data(), pos.size());
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(hb.Finish(), tb.Finish(), bat::Properties{}));
  rec.Finish("positional_fetch", res.size());
  return res;
}

Result<Value> CountDistinctTail(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "count_distinct");
  MF_ASSIGN_OR_RETURN(Bat grouped, Group(ctx, ab));
  Oid max_gid = 0;
  bool any = false;
  for (size_t i = 0; i < grouped.size(); ++i) {
    max_gid = std::max(max_gid, grouped.tail().OidAt(i));
    any = true;
  }
  rec.Finish("group_count_distinct", 1);
  return Value::Lng(any ? static_cast<int64_t>(max_gid) + 1 : 0);
}

Result<Bat> Histogram(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "histogram");
  MF_ASSIGN_OR_RETURN(Bat grouped, Group(ctx, ab));
  MF_ASSIGN_OR_RETURN(Bat counts,
                      SetAggregate(ctx, AggKind::kCount, grouped.Mirror()));
  rec.Finish("group_histogram", counts.size());
  return counts;
}

namespace internal {

void RegisterThetaJoinKernels(KernelRegistry& r) {
  r.Register<ThetaImplSig>(
      "thetajoin", "sort_band_thetajoin",
      [](const DispatchInput& in) {
        if (!in.right.has_value() || !in.param.has_value()) return false;
        const CmpOp op = ParamOp(in);
        return op == CmpOp::kLt || op == CmpOp::kLe || op == CmpOp::kGt ||
               op == CmpOp::kGe;
      },
      [](const DispatchInput& in) {
        return ThetaGatherPages(in) +
               kCpuSequential / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<ThetaImplSig>(BandThetaJoin),
      "sort CD's heads once, emit the qualifying run per left BUN morsel");
  r.Register<ThetaImplSig>(
      "thetajoin", "nested_thetajoin",
      [](const DispatchInput& in) {
        return in.right.has_value() && in.param.has_value() &&
               ParamOp(in) != CmpOp::kEq;
      },
      [](const DispatchInput& in) {
        return ThetaGatherPages(in) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<ThetaImplSig>(NestedThetaJoin),
      "compare every BUN pair; the only shape serving '!='");
}

}  // namespace internal

}  // namespace moaflat::kernel
