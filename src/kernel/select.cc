#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::ChargeGather;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

/// First position i in the (tail-sorted) column with col[i] >= v
/// (or > v when `after_equal`). Binary search over the value view, the
/// bound lowered once; probes are reported to `io` (null for the
/// selectivity *estimate*, which must not perturb the fault accounting of
/// the execution it prices).
size_t LowerPos(const Column& col, const Value& v, bool after_equal,
                storage::IoStats* io) {
  return col.VisitValues([&](const auto& cv) {
    return bat::VisitBound(cv, v, [&](const auto& bound) {
      size_t lo = 0;
      size_t hi = col.size();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        // lint:allow(unfiltered-touch) binary search: one touch per step
        col.TouchAt(io, mid);
        const int c = bat::Compare(cv, mid, bound, 0);
        const bool go_right = after_equal ? (c <= 0) : (c < 0);
        if (go_right) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    });
  });
}

uint64_t BoundSyncHash(const Bound& lo, const Bound& hi) {
  uint64_t h = HashString("select");
  if (lo.present) {
    h = MixSync(h, HashString(lo.value.ToString()) + (lo.inclusive ? 1 : 0));
  }
  if (hi.present) {
    h = MixSync(h, HashString(hi.value.ToString()) + (hi.inclusive ? 3 : 2));
  }
  return h;
}

/// The two-phase morsel evaluation of every scan-shaped selection: each
/// block runs `scan(begin, end, out)`, which appends the qualifying
/// positions of [begin, end) to `out`, and touches the result head at its
/// matches; then one charge covers the match lists, one the result, and
/// every block gathers head and tail values into its slice of the
/// pre-sized result heaps, concurrently.
template <typename Scan>
Result<std::pair<ColumnPtr, ColumnPtr>> ScanGather(const ExecContext& ctx,
                                                   const Column& head,
                                                   const Column& tail,
                                                   const Scan& scan) {
  tail.TouchAll(ctx.io());
  internal::MorselRun run(ctx, tail.size());
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m, internal::ChargeGate&) {
    scan(m.begin, m.end, m.heads);
    head.TouchGather(m.io, m.heads.data(), m.heads.size());
  }));
  MF_RETURN_NOT_OK(run.Stage());
  MF_RETURN_NOT_OK(ChargeGather(ctx, run.total(), head, tail));
  return run.Scatter(head, tail);
}

/// Common epilogue of the range-select variants: sync key derivation and
/// property propagation onto the materialized result.
Result<Bat> FinishRangeSelect(const Bat& ab, ColumnPtr out_head,
                              ColumnPtr out_tail, const Bound& lo,
                              const Bound& hi, bool head_sorted) {
  // The qualifying set depends on the *tail* values, so the tail key feeds
  // the derivation: equal heads with different tails select different BUNs
  // and must not forge equal sync keys.
  SetSync(out_head, MixSync(MixSync(ab.head().sync_key(),
                                    ab.tail().sync_key()),
                            BoundSyncHash(lo, hi)));

  const bool point = lo.present && hi.present && lo.inclusive &&
                     hi.inclusive && lo.value == hi.value;
  bat::Properties props;
  props.hsorted = head_sorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted || point;
  props.tkey = point ? out_head->size() <= 1 : ab.props().tkey;
  return Bat::Make(std::move(out_head), std::move(out_tail), props);
}

/// Binary-search selection: the access path the paper keeps all attribute
/// BATs sorted on tail for (Section 5.2). The qualifying range is
/// contiguous, so materialization is two bulk range copies.
Result<Bat> BinsearchSelect(const ExecContext& ctx, const Bat& ab,
                            const Bound& lo, const Bound& hi,
                            OpRecorder& rec) {
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  size_t begin = 0;
  size_t end = tail.size();
  if (lo.present) begin = LowerPos(tail, lo.value, !lo.inclusive, ctx.io());
  if (hi.present) end = LowerPos(tail, hi.value, hi.inclusive, ctx.io());
  if (begin > end) begin = end;
  MF_RETURN_NOT_OK(ChargeGather(ctx, end - begin, head, tail));
  head.TouchRange(ctx.io(), begin, end);
  tail.TouchRange(ctx.io(), begin, end);

  // Detect result-head sortedness (dynamic property detection): bulk
  // loads sort stably, so the heads inside one tail run are typically
  // ascending, which later enables merge joins.
  const bool heads_ascending = head.RangeSorted(begin, end);
  ColumnBuilder hb(head.type());
  ColumnBuilder tb(tail.type(), tail.str_heap());
  hb.Reserve(end - begin);
  tb.Reserve(end - begin);
  hb.AppendRange(head, begin, end);
  tb.AppendRange(tail, begin, end);

  MF_ASSIGN_OR_RETURN(Bat out, FinishRangeSelect(ab, hb.Finish(), tb.Finish(),
                                                 lo, hi, heads_ascending));
  rec.Finish("binsearch_select", out.size());
  return out;
}

/// Scan selection, fully morsel-parallel in both phases (Section 2
/// parallel block execution): blocks evaluate the range predicate into
/// per-block match lists — each visits the tail's value view and both
/// bounds (each lowered once) and runs one loop over the view's Compare —
/// then gather their matches straight into the final heaps concurrently.
Result<Bat> ScanSelect(const ExecContext& ctx, const Bat& ab, const Bound& lo,
                       const Bound& hi, OpRecorder& rec) {
  const Column& tail = ab.tail();
  const auto range = [&](size_t begin, size_t end,
                         std::vector<uint32_t>& out) {
    tail.VisitValues([&](const auto& v) {
      bat::VisitBound(v, lo.value, [&](const auto& lov) {
        bat::VisitBound(v, hi.value, [&](const auto& hiv) {
          for (size_t i = begin; i < end; ++i) {
            if (lo.present) {
              const int c = bat::Compare(v, i, lov, 0);
              if (c < 0 || (c == 0 && !lo.inclusive)) continue;
            }
            if (hi.present) {
              const int c = bat::Compare(v, i, hiv, 0);
              if (c > 0 || (c == 0 && !hi.inclusive)) continue;
            }
            out.push_back(static_cast<uint32_t>(i));
          }
        });
      });
    });
  };
  MF_ASSIGN_OR_RETURN(auto cols, ScanGather(ctx, ab.head(), tail, range));
  MF_ASSIGN_OR_RETURN(
      Bat out, FinishRangeSelect(ab, std::move(cols.first),
                                 std::move(cols.second), lo, hi,
                                 ab.props().hsorted));
  rec.Finish("scan_select", out.size());
  return out;
}


/// Shared entry of all range/point selections on the tail: one data-driven
/// dispatch over the registered variants (Section 5.1), with the dispatch
/// input refined by the two-probe selectivity estimate where the tail
/// order admits one.
Result<Bat> RangeSelect(const ExecContext& ctx, const Bat& ab,
                        const Bound& lo, const Bound& hi) {
  OpRecorder rec(ctx, "select");
  DispatchInput in = MakeInput(ctx, ab);
  in.est_selectivity = EstimateSelectivity(ab, lo, hi);
  return KernelRegistry::Global().Dispatch<SelectImplSig>("select", in, ctx,
                                                          ab, lo, hi, rec);
}

/// Scan selection with an arbitrary tail predicate; used by != and LIKE.
/// `scan` is a ScanGather scan (the predicates are pure reads).
template <typename Scan>
Result<Bat> PredicateSelect(const ExecContext& ctx, const Bat& ab,
                            const char* impl, uint64_t pred_hash,
                            Scan&& scan) {
  OpRecorder rec(ctx, "select");
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  MF_ASSIGN_OR_RETURN(auto cols, ScanGather(ctx, head, tail, scan));

  ColumnPtr out_head = std::move(cols.first);
  // Mix the tail key too: the predicate qualified BUNs by tail value.
  SetSync(out_head,
          MixSync(MixSync(head.sync_key(), tail.sync_key()), pred_hash));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;
  props.tkey = ab.props().tkey;
  MF_ASSIGN_OR_RETURN(
      Bat out, Bat::Make(std::move(out_head), std::move(cols.second), props));
  rec.Finish(impl, out.size());
  return out;
}

}  // namespace

double EstimateSelectivity(const Bat& ab, const Bound& lo, const Bound& hi) {
  if (!ab.props().tsorted || ab.tail().is_void() || ab.size() == 0) {
    return -1.0;
  }
  // Two untouched binary-search probes bracket the qualifying range on the
  // sorted tail — O(log n) compares, no page touches, so pricing a select
  // never perturbs the fault accounting of running it.
  const Column& tail = ab.tail();
  size_t begin = 0;
  size_t end = tail.size();
  if (lo.present) begin = LowerPos(tail, lo.value, !lo.inclusive, nullptr);
  if (hi.present) end = LowerPos(tail, hi.value, hi.inclusive, nullptr);
  if (begin > end) begin = end;
  return static_cast<double>(end - begin) / static_cast<double>(tail.size());
}

Result<Bat> Select(const ExecContext& ctx, const Bat& ab, const Value& v) {
  Bound b{true, true, v};
  return RangeSelect(ctx, ab, b, b);
}

Result<Bat> SelectRange(const ExecContext& ctx, const Bat& ab,
                        const Value& lo, const Value& hi) {
  Bound bl{!lo.is_nil(), true, lo};
  Bound bh{!hi.is_nil(), true, hi};
  return RangeSelect(ctx, ab, bl, bh);
}

Result<Bat> SelectCmp(const ExecContext& ctx, const Bat& ab, CmpOp op,
                      const Value& v) {
  switch (op) {
    case CmpOp::kEq:
      return Select(ctx, ab, v);
    case CmpOp::kLt:
      return RangeSelect(ctx, ab, Bound{}, Bound{true, false, v});
    case CmpOp::kLe:
      return RangeSelect(ctx, ab, Bound{}, Bound{true, true, v});
    case CmpOp::kGt:
      return RangeSelect(ctx, ab, Bound{true, false, v}, Bound{});
    case CmpOp::kGe:
      return RangeSelect(ctx, ab, Bound{true, true, v}, Bound{});
    case CmpOp::kNe:
      return PredicateSelect(
          ctx, ab, "scan_select",
          MixSync(HashString("select_ne"), HashString(v.ToString())),
          [&](size_t begin, size_t end, std::vector<uint32_t>& out) {
            ab.tail().VisitValues([&](const auto& tv) {
              bat::VisitBound(tv, v, [&](const auto& value) {
                for (size_t i = begin; i < end; ++i) {
                  if (bat::Compare(tv, i, value, 0) != 0) {
                    out.push_back(static_cast<uint32_t>(i));
                  }
                }
              });
            });
          });
  }
  return Status::Invalid("bad CmpOp");
}

Result<Bat> SelectLike(const ExecContext& ctx, const Bat& ab,
                       const std::string& pattern) {
  if (ab.tail().type() != MonetType::kStr) {
    return Status::TypeError("like-select requires a str tail, got " +
                             std::string(TypeName(ab.tail().type())));
  }
  return PredicateSelect(
      ctx, ab, "scan_like_select",
      MixSync(HashString("select_like"), HashString(pattern)),
      [&](size_t begin, size_t end, std::vector<uint32_t>& out) {
        for (size_t i = begin; i < end; ++i) {
          if (LikeMatch(ab.tail().Str(i), pattern)) {
            out.push_back(static_cast<uint32_t>(i));
          }
        }
      });
}

namespace internal {

/// The select variants' selectivity prior: the two-probe estimate when the
/// entry point could compute one (tail-sorted operand with known bounds),
/// else the fixed kDispatchSelectivity constant.
double DispatchSelectivity(const DispatchInput& in) {
  return in.est_selectivity >= 0 ? in.est_selectivity : kDispatchSelectivity;
}

void RegisterSelectKernels(KernelRegistry& r) {
  // Costs are expected cold page faults (Section 5.2.2). Both variants
  // price their result gather at the same selectivity prior, so the
  // decision hinges on the access path — log2(pages) probes vs a full
  // tail scan — until the estimated match volume makes the binsearch's
  // range copy itself approach the scan.
  r.Register<SelectImplSig>(
      "select", "binsearch_select",
      [](const DispatchInput& in) {
        return in.left.props.tsorted && !in.left.tail_void;
      },
      [](const DispatchInput& in) {
        const double s = DispatchSelectivity(in);
        return BinarySearchPages(in.left.size, in.left.tail_width) +
               s * (HeapPages(in.left.size, in.left.tail_width) +
                    HeapPages(in.left.size, in.left.head_width));
      },
      std::function<SelectImplSig>(BinsearchSelect),
      "binary search on the tail-sorted BUN heap (Section 5.2)");
  r.Register<SelectImplSig>(
      "select", "scan_select",
      [](const DispatchInput&) { return true; },
      [](const DispatchInput& in) {
        const double matches = DispatchSelectivity(in) * in.left.size;
        // The CPU tie-breaker (n compares vs the binsearch's log n)
        // decides the page-count ties of small operands, where both
        // variants round to the same one or two pages.
        return HeapPages(in.left.size, in.left.tail_width) +
               RandomFetchPages(in.left.size, in.left.head_width, matches) +
               kCpuSequential / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<SelectImplSig>(ScanSelect),
      "parallel-block typed scan of the tail, two-phase parallel gather");
}

}  // namespace internal

}  // namespace moaflat::kernel
