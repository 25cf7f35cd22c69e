#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "kernel/cost_model.h"
#include "kernel/group_table.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnPtr;
using internal::GroupTable;
using internal::RefineTable;

/// Parallel hash grouping. Every block conses its contiguous row range
/// into a *local* table (direct-addressed when the column's key range is
/// within the block's DenseBound, hashed otherwise; writing local gids
/// into its slice of `gids`); the serial merge then feeds each block's
/// representatives — in block order, each block's in local
/// first-appearance order — through one global table. Because blocks are
/// contiguous and ascending, that visit order sorts representatives by
/// their value's first global occurrence, so the global numbering is
/// exactly the serial first-appearance numbering; a second parallel pass
/// rewrites local to global gids.
Result<Bat> HashGroup(const ExecContext& ctx, const Bat& ab, OpRecorder& rec) {
  // The result shares the head; only the gid tail is new storage.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(ab.size() * sizeof(Oid)));
  const Column& tail = ab.tail();
  tail.TouchAll(ctx.io());
  std::vector<Oid> gids(ab.size());
  const std::optional<bat::KeyRange> range =
      bat::IntegralKeyRange(tail, ctx.parallel_degree());
  const BlockPlan plan = ctx.Plan(ab.size());
  if (plan.blocks <= 1) {
    GroupTable groups(range, ab.size());
    groups.Add(tail, 0, ab.size(), gids.data());
  } else {
    std::vector<std::unique_ptr<GroupTable>> locals(plan.blocks);
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      auto table = std::make_unique<GroupTable>(range, end - begin);
      table->Add(tail, begin, end, gids.data() + begin);
      locals[block] = std::move(table);
    });
    // An interrupted eval phase leaves null local tables; bail before the
    // merge dereferences them.
    MF_RETURN_NOT_OK(ctx.CheckInterrupt());
    GroupTable global(range, ab.size());
    std::vector<std::vector<Oid>> to_global(plan.blocks);
    for (size_t b = 0; b < plan.blocks; ++b) {
      global.AddAt(tail, locals[b]->reps(), to_global[b]);
    }
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      const auto& map = to_global[block];
      for (size_t i = begin; i < end; ++i) gids[i] = map[gids[i]];
    });
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  ColumnPtr gid_col = Column::MakeOid(std::move(gids));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;  // first-appearance ids follow order
  props.tkey = ab.props().tkey;
  // The result head is the operand head itself: group is a tail rewrite.
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(ab.head_col(), gid_col, props));
  rec.Finish("hash_group", res.size());
  return res;
}

Result<Bat> FinishRefine(const Bat& ab, std::vector<Oid> gids) {
  ColumnPtr gid_col = Column::MakeOid(std::move(gids));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  return Bat::Make(ab.head_col(), gid_col, props);
}

/// Rows aligned per call of a refinement's `align` (bounds its scratch).
constexpr size_t kAlignChunk = 16 * 1024;

/// Shared refinement machinery of the two variants. `align(lo, hi,
/// d_pages, dpos)` writes, for rows [lo, hi), the position in CD whose tail
/// refines row i into dpos[i - lo], reporting its touches of `d` through
/// the block's page filter `d_pages`, and returns how many leading rows
/// found one (a row without one fails the refinement). Runs block-local
/// RefineTables as a MorselRun and merges them into the serial
/// first-appearance numbering exactly as HashGroup does for its
/// GroupTable.
template <typename AlignFn>
Result<std::vector<Oid>> ParallelRefine(const ExecContext& ctx, const Bat& ab,
                                        const Column& d,
                                        const AlignFn& align) {
  const Column& prev = ab.tail();
  std::vector<Oid> gids(ab.size());
  const std::optional<bat::KeyRange> prev_range =
      bat::IntegralKeyRange(prev, ctx.parallel_degree());
  const std::optional<bat::KeyRange> d_range =
      bat::IntegralKeyRange(d, ctx.parallel_degree());
  internal::MorselRun run(ctx, ab.size());
  std::vector<std::unique_ptr<RefineTable>> tables(run.plan().blocks);
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m, internal::ChargeGate&) {
    tables[m.block] =
        std::make_unique<RefineTable>(prev_range, d_range, m.end - m.begin);
    storage::ColdPageFilter d_pages = d.PageFilter(m.io);
    std::vector<uint32_t> dpos;
    std::vector<Oid> prev_gid;
    for (size_t lo = m.begin; lo < m.end; lo += kAlignChunk) {
      const size_t hi = std::min(m.end, lo + kAlignChunk);
      dpos.resize(hi - lo);
      const size_t found = align(lo, hi, d_pages, dpos.data());
      prev_gid.resize(found);
      for (size_t k = 0; k < found; ++k) prev_gid[k] = prev.OidAt(lo + k);
      tables[m.block]->Add(d, prev_gid.data(), dpos.data(), found,
                           gids.data() + lo);
      if (found < hi - lo) {
        m.status = Status::ExecutionError(
            "group refinement: left head value missing on the right");
        return;
      }
    }
  }));
  if (run.plan().blocks <= 1) return gids;

  RefineTable global(prev_range, d_range, ab.size());
  std::vector<std::vector<Oid>> to_global(run.plan().blocks);
  for (size_t b = 0; b < run.plan().blocks; ++b) {
    global.AddReps(d, tables[b]->reps(), to_global[b]);
  }
  RunBlocks(run.plan(), [&](int block, size_t begin, size_t end) {
    const auto& map = to_global[block];
    for (size_t i = begin; i < end; ++i) gids[i] = map[gids[i]];
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  return gids;
}

/// Synced refinement: the refining values line up positionally.
Result<Bat> SyncGroupRefine(const ExecContext& ctx, const Bat& ab,
                            const Bat& cd, OpRecorder& rec) {
  MF_RETURN_NOT_OK(ctx.ChargeMemory(ab.size() * sizeof(Oid)));
  const Column& d = cd.tail();
  ab.tail().TouchAll(ctx.io());
  d.TouchAll(ctx.io());
  const auto align = [](size_t lo, size_t hi, storage::ColdPageFilter&,
                        uint32_t* dpos) {
    std::iota(dpos, dpos + (hi - lo), static_cast<uint32_t>(lo));
    return hi - lo;
  };
  MF_ASSIGN_OR_RETURN(std::vector<Oid> gids,
                      ParallelRefine(ctx, ab, d, align));
  MF_ASSIGN_OR_RETURN(Bat res, FinishRefine(ab, std::move(gids)));
  rec.Finish("sync_group_refine", res.size());
  return res;
}

/// General refinement: aligns the refining values via CD's head hash.
Result<Bat> HashGroupRefine(const ExecContext& ctx, const Bat& ab,
                            const Bat& cd, OpRecorder& rec) {
  MF_RETURN_NOT_OK(ctx.ChargeMemory(ab.size() * sizeof(Oid)));
  const Column& d = cd.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  ab.tail().TouchAll(ctx.io());
  const auto align = [&](size_t lo, size_t hi,
                         storage::ColdPageFilter& d_pages, uint32_t* dpos) {
    size_t next = lo;  // rows [lo, next) all found their refining value
    hash->ForEachFirstMatch(ab.head(), lo, hi, [&](size_t i, uint32_t pos) {
      if (i != next) return;  // an earlier row missed: refinement fails
      dpos[i - lo] = pos;
      d_pages.Touch(pos);
      ++next;
    });
    return next - lo;
  };
  MF_ASSIGN_OR_RETURN(std::vector<Oid> gids,
                      ParallelRefine(ctx, ab, d, align));
  MF_ASSIGN_OR_RETURN(Bat res, FinishRefine(ab, std::move(gids)));
  rec.Finish("hash_group_refine", res.size());
  return res;
}


}  // namespace

Result<Bat> Group(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "group");
  return KernelRegistry::Global().Dispatch<UnaryImplSig>(
      "group", MakeInput(ctx, ab), ctx, ab, rec);
}

Result<Bat> GroupRefine(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  // The refinement extends AB's group oids (ParallelRefine reads OidAt).
  const MonetType prev = ab.tail().type();
  if (prev != MonetType::kOidT && prev != MonetType::kVoid) {
    return Status::TypeError(std::string("group refinement needs an oid or "
                                         "void tail to refine, got ") +
                             TypeName(prev));
  }
  OpRecorder rec(ctx, "group");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "group_refine", MakeInput(ctx, ab, cd), ctx, ab, cd, rec);
}

namespace internal {

void RegisterGroupKernels(KernelRegistry& r) {
  // Costs are expected cold page faults (Section 5.2.2 page geometry);
  // CPU tie-breakers divide by the context degree where the evaluation
  // phase runs on the TaskPool.
  r.Register<UnaryImplSig>(
      "group", "hash_group",
      [](const DispatchInput&) { return true; },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.tail_width) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<UnaryImplSig>(HashGroup),
      "hash-cons tail values into dense first-appearance oids (parallel)");
  r.Register<BinaryImplSig>(
      "group_refine", "sync_group_refine",
      [](const DispatchInput& in) { return in.synced && in.right.has_value(); },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.tail_width) +
               HeapPages(in.right->size, in.right->tail_width) +
               kCpuSequential / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<BinaryImplSig>(SyncGroupRefine),
      "operands synced: positional refinement pass (parallel)");
  r.Register<BinaryImplSig>(
      "group_refine", "hash_group_refine",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        return build + HeapPages(in.left.size, in.left.tail_width) +
               RandomFetchPages(in.right->size, in.right->tail_width,
                                static_cast<double>(in.left.size)) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<BinaryImplSig>(HashGroupRefine),
      "align refining values via CD's head hash accelerator (parallel)");
}

}  // namespace internal

}  // namespace moaflat::kernel
