#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "kernel/cost_model.h"
#include "kernel/group_table.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

/// Running aggregate state for one group.
struct Acc {
  double sum = 0;
  int64_t count = 0;
  size_t best = 0;  // position of the current min/max value
  bool has_best = false;
};

/// Folds value i of the tail's value view `v` into `acc`. Sums fold in
/// row order (bit-identical at any degree); min/max keep the position of
/// the first extreme value under the view's Compare.
template <typename V>
void Accumulate(Acc* acc, const V& v, size_t i, AggKind kind) {
  ++acc->count;
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      acc->sum += bat::Num(v, i);
      break;
    case AggKind::kMin:
      if (!acc->has_best || bat::Compare(v, i, v, acc->best) < 0) {
        acc->best = i;
        acc->has_best = true;
      }
      break;
    case AggKind::kMax:
      if (!acc->has_best || bat::Compare(v, i, v, acc->best) > 0) {
        acc->best = i;
        acc->has_best = true;
      }
      break;
    case AggKind::kCount:
      break;
  }
}

MonetType AggOutputType(AggKind kind, const Column& tail) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      return MonetType::kDbl;
    case AggKind::kCount:
      return MonetType::kLng;
    case AggKind::kMin:
    case AggKind::kMax:
      return StoredType(tail.type());
  }
  return MonetType::kDbl;
}

Status AppendAcc(ColumnBuilder* tb, const Acc& acc, const Column& tail,
                 AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return tb->AppendValue(Value::Dbl(acc.sum));
    case AggKind::kAvg:
      return tb->AppendValue(
          Value::Dbl(acc.count == 0 ? 0.0 : acc.sum / acc.count));
    case AggKind::kCount:
      return tb->AppendValue(Value::Lng(acc.count));
    case AggKind::kMin:
    case AggKind::kMax:
      tb->AppendFrom(tail, acc.best);
      return Status::OK();
  }
  return Status::Invalid("bad AggKind");
}

/// Common epilogue: result properties and the sync key that lets
/// aggregates of different value attributes over synced operands line up.
Result<Bat> FinishSetAggregate(const Bat& ab, ColumnBuilder& hb,
                               ColumnBuilder& tb) {
  ColumnPtr out_head = hb.Finish();
  // The result's head set (the groups) is a function of ab's head column
  // alone; tails determine aggregate *values*, never which BUNs exist.
  // lint:allow(sync-head-only)
  SetSync(out_head,
          MixSync(ab.head().sync_key(), HashString("set_aggregate")));
  bat::Properties props;
  props.hsorted = true;
  props.hkey = true;
  return Bat::Make(out_head, tb.Finish(), props);
}

/// Folds the rows each `lists(visit)` call hands over (as position lists,
/// ascending overall) into one accumulator per group of the head column,
/// found through `table`, and appends (group oid, accumulator) pairs to
/// `out` in first-appearance order.
template <typename Lists>
void FoldGroups(const Column& head, const Column& tail, AggKind kind,
                internal::GroupTable& table, const Lists& lists,
                std::vector<std::pair<Oid, Acc>>& out) {
  std::vector<Acc> accs;
  std::vector<Oid> gids;
  tail.VisitValues([&](const auto& v) {
    lists([&](const std::vector<uint32_t>& rows) {
      gids.clear();
      table.AddAt(head, rows, gids);
      accs.resize(table.reps().size());
      for (size_t k = 0; k < rows.size(); ++k) {
        Accumulate(&accs[gids[k]], v, rows[k], kind);
      }
    });
  });
  for (size_t g = 0; g < accs.size(); ++g) {
    out.emplace_back(head.OidAt(table.reps()[g]), accs[g]);
  }
}

/// Hash aggregation: one accumulator per group oid, groups emitted in
/// ascending oid order. Rows find their group through a GroupTable over
/// the head: over dense group oids (the gids of group/group_refine) that
/// is an array of accumulators indexed by oid - min, otherwise a hashed
/// table.
///
/// The parallel evaluation partitions by *group*, not by accumulator
/// shard: a scatter pass buckets row positions by partition (block-local
/// buckets, so no contention) — an equal slice of the oid range each when
/// the head is dense, a group-oid hash class otherwise — then each
/// partition accumulates its groups from the concatenation of the block
/// buckets, which visits every group's rows in ascending position order,
/// exactly like the serial loop. No floating-point partial sums are ever
/// merged, so sum/avg results are bit-identical to degree 1 (double
/// addition is not associative; merging shard partials would not be).
Result<Bat> HashSetAggregate(const ExecContext& ctx, AggKind kind,
                             const Bat& ab, OpRecorder& rec) {
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  head.TouchAll(ctx.io());
  tail.TouchAll(ctx.io());
  const size_t n = ab.size();
  const std::optional<bat::KeyRange> range =
      bat::IntegralKeyRange(head, ctx.parallel_degree());
  const bool dense = range && range->span <= internal::DenseBound(n);
  std::vector<std::pair<Oid, Acc>> groups;  // sorted by oid before emit
  // Scatter bookkeeping is blocks x partitions; cap the fan-out so it
  // stays linear in practice (kMaxScatterDegree^2 headers at worst).
  const BlockPlan plan = ctx.Plan(n, kMaxScatterDegree);
  constexpr size_t kFoldChunk = 16 * 1024;
  if (plan.blocks <= 1) {
    internal::GroupTable table(range, n);
    std::vector<uint32_t> rows;
    FoldGroups(head, tail, kind, table, [&](const auto& visit) {
      for (size_t lo = 0; lo < n; lo += kFoldChunk) {
        rows.resize(std::min(n, lo + kFoldChunk) - lo);
        std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(lo));
        visit(rows);
      }
    }, groups);
  } else {
    const size_t parts = plan.blocks;
    const uint64_t slice = dense ? (range->span + parts - 1) / parts : 0;
    const auto part_of = [&](Oid g) {
      return static_cast<size_t>(
          dense ? range->Offset(g) / slice
                : internal::MixSync(g, 0x5ca1ab1eULL) % parts);
    };
    // Scatter: block-local per-partition position lists. Each block
    // partitions its rows once into a scratch partition-id array, counts,
    // pre-reserves, then fills — no mid-scatter reallocation, no second
    // partitioning pass.
    std::vector<std::vector<std::vector<uint32_t>>> scatter(
        plan.blocks, std::vector<std::vector<uint32_t>>(parts));
    std::vector<uint8_t> part_of_row(n);  // parts <= 64 fits a byte
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      auto& mine = scatter[block];
      std::vector<uint32_t> counts(parts, 0);
      for (size_t i = begin; i < end; ++i) {
        const auto p = static_cast<uint8_t>(part_of(head.OidAt(i)));
        part_of_row[i] = p;
        ++counts[p];
      }
      for (size_t p = 0; p < parts; ++p) mine[p].reserve(counts[p]);
      for (size_t i = begin; i < end; ++i) {
        mine[part_of_row[i]].push_back(static_cast<uint32_t>(i));
      }
    });
    // Accumulate: one block per partition (parts == plan.blocks, and
    // RunBlocks keeps the no-implicit-IO-scope discipline); groups are
    // disjoint across partitions, and each group's rows arrive in
    // ascending order. A dense partition's table spans its oid slice.
    std::vector<std::vector<std::pair<Oid, Acc>>> pgroups(parts);
    RunBlocks(plan, [&](int p, size_t, size_t) {
      size_t rows = 0;
      for (size_t block = 0; block < plan.blocks; ++block) {
        rows += scatter[block][p].size();
      }
      internal::GroupTable table(
          dense ? std::optional<bat::KeyRange>(
                      bat::KeyRange{range->base + p * slice, slice})
                : std::nullopt,
          rows);
      FoldGroups(head, tail, kind, table, [&](const auto& visit) {
        for (size_t block = 0; block < plan.blocks; ++block) {
          visit(scatter[block][p]);
        }
      }, pgroups[p]);
    });
    for (auto& pg : pgroups) {
      groups.insert(groups.end(), pg.begin(), pg.end());
    }
  }
  // Interrupted scatter/accumulate phases leave partial partitions; bail
  // before emitting a result from them.
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  std::sort(groups.begin(), groups.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  MF_RETURN_NOT_OK(ctx.ChargeMemory(
      groups.size() *
      (sizeof(Oid) + TypeWidth(AggOutputType(kind, tail)))));

  ColumnBuilder hb(MonetType::kOidT);
  ColumnBuilder tb(AggOutputType(kind, tail), tail.str_heap());
  hb.Reserve(groups.size());
  for (const auto& [g, acc] : groups) {
    hb.AppendOid(g);
    MF_RETURN_NOT_OK(AppendAcc(&tb, acc, tail, kind));
  }
  MF_ASSIGN_OR_RETURN(Bat res, FinishSetAggregate(ab, hb, tb));
  rec.Finish("hash_set_aggregate", res.size());
  return res;
}

/// Run aggregation over a head-sorted (or void) grouping column: equal
/// group oids are contiguous and ascending, so one sequential pass with a
/// single accumulator per run suffices — no hash table, no sort.
///
/// The parallel evaluation snaps the block boundaries forward to the next
/// run start, so every group's rows live entirely inside one block and
/// each accumulator folds its rows in the serial order (bit-identical
/// doubles); blocks emit (gid, Acc) runs that are concatenated serially
/// in block order.
Result<Bat> RunSetAggregate(const ExecContext& ctx, AggKind kind,
                            const Bat& ab, OpRecorder& rec) {
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  head.TouchAll(ctx.io());
  tail.TouchAll(ctx.io());
  const size_t n = ab.size();

  struct RunOut {
    std::vector<Oid> gids;
    std::vector<Acc> accs;
  };
  const BlockPlan plan = ctx.Plan(n);
  // Snap each block start to its run boundary. Begins inside one giant
  // run all advance to the same run end, leaving that block empty — never
  // splitting a group.
  std::vector<size_t> start(plan.blocks + 1, n);
  start[0] = 0;
  for (size_t b = 1; b < plan.blocks; ++b) {
    size_t s = plan.Begin(b);
    while (s < n && head.OidAt(s) == head.OidAt(s - 1)) ++s;
    start[b] = s;
  }
  std::vector<RunOut> shards(plan.blocks);
  RunBlocks(plan, [&](int b, size_t, size_t) {
    RunOut& mine = shards[b];
    tail.VisitValues([&](const auto& v) {
      Acc acc;
      bool open = false;
      Oid current = 0;
      for (size_t i = start[b]; i < start[b + 1]; ++i) {
        const Oid g = head.OidAt(i);
        if (open && g != current) {
          mine.gids.push_back(current);
          mine.accs.push_back(acc);
          acc = Acc{};
        }
        current = g;
        open = true;
        Accumulate(&acc, v, i, kind);
      }
      if (open) {
        mine.gids.push_back(current);
        mine.accs.push_back(acc);
      }
    });
  });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  ColumnBuilder hb(MonetType::kOidT);
  ColumnBuilder tb(AggOutputType(kind, tail), tail.str_heap());
  const uint64_t row_bytes =
      sizeof(Oid) + TypeWidth(AggOutputType(kind, tail));
  for (const RunOut& s : shards) {
    for (size_t k = 0; k < s.gids.size(); ++k) {
      hb.AppendOid(s.gids[k]);
      MF_RETURN_NOT_OK(AppendAcc(&tb, s.accs[k], tail, kind));
      MF_RETURN_NOT_OK(ctx.ChargeMemory(row_bytes));
    }
  }
  MF_ASSIGN_OR_RETURN(Bat res, FinishSetAggregate(ab, hb, tb));
  rec.Finish("run_set_aggregate", res.size());
  return res;
}


}  // namespace

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kSum: return "sum";
    case AggKind::kCount: return "count";
    case AggKind::kAvg: return "avg";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
  }
  return "?";
}

Result<Bat> SetAggregate(const ExecContext& ctx, AggKind kind, const Bat& ab) {
  OpRecorder rec(ctx, "set_aggregate");
  const Column& head = ab.head();
  if (head.type() != MonetType::kOidT && !head.is_void()) {
    return Status::TypeError(
        "set-aggregate groups over an oid head, got " +
        std::string(TypeName(head.type())));
  }
  return KernelRegistry::Global().Dispatch<SetAggImplSig>(
      "set_aggregate", MakeInput(ctx, ab), ctx, kind, ab, rec);
}

Result<Value> ScalarAggregate(const ExecContext& ctx, AggKind kind,
                              const Bat& ab) {
  OpRecorder rec(ctx, "aggregate");
  const Column& tail = ab.tail();
  tail.TouchAll(ctx.io());
  Acc acc;
  tail.VisitValues([&](const auto& v) {
    for (size_t i = 0; i < ab.size(); ++i) Accumulate(&acc, v, i, kind);
  });
  rec.Finish(AggKindName(kind), 1);
  switch (kind) {
    case AggKind::kSum:
      return Value::Dbl(acc.sum);
    case AggKind::kAvg:
      return Value::Dbl(acc.count == 0 ? 0.0 : acc.sum / acc.count);
    case AggKind::kCount:
      return Value::Lng(acc.count);
    case AggKind::kMin:
    case AggKind::kMax:
      if (acc.count == 0) return Value();
      return tail.GetValue(acc.best);
  }
  return Status::Invalid("bad AggKind");
}

namespace internal {

void RegisterAggregateKernels(KernelRegistry& r) {
  // Both variants read every head and tail page exactly once; the page-
  // fault model ties, and the CPU tie-breaker prefers the sequential
  // single-accumulator pass whenever the grouping column permits it.
  r.Register<SetAggImplSig>(
      "set_aggregate", "run_set_aggregate",
      [](const DispatchInput& in) {
        return in.left.props.hsorted || in.left.head_void;
      },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.left.size, in.left.tail_width) +
               kCpuSequential / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<SetAggImplSig>(RunSetAggregate),
      "head-sorted groups are contiguous: run-aligned parallel pass");
  r.Register<SetAggImplSig>(
      "set_aggregate", "hash_set_aggregate",
      [](const DispatchInput&) { return true; },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.left.size, in.left.tail_width) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<SetAggImplSig>(HashSetAggregate),
      "one accumulator per group oid, group-partitioned across the pool");
}

}  // namespace internal

}  // namespace moaflat::kernel
