#include <algorithm>
#include <vector>

#include "common/parallel.h"
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
using bat::Datavector;
using internal::ChargeGather;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

/// syncsemijoin (Section 5.1): the operands' BUNs correspond by position,
/// so the result is simply a copy (here: a zero-copy view) of AB.
Result<Bat> SyncSemijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                         OpRecorder& rec) {
  (void)ctx;  // zero-copy view: no page touched  lint:allow(uncharged-kernel)
  (void)cd;
  Bat res = ab;
  rec.Finish("sync_semijoin", res.size());
  return res;
}

/// The datavector semijoin of Section 5.2.1, following the paper's
/// pseudo-code: probe the sorted EXTENT once per right operand, memoize the
/// LOOKUP positions in the accelerator, then fetch head/tail pairs from the
/// positionally stored EXTENT/VECTOR.
Result<Bat> DatavectorSemijoin(const ExecContext& ctx, const Bat& ab,
                               const Bat& cd, OpRecorder& rec) {
  const std::shared_ptr<Datavector> dv = ab.datavector();
  const Column& extent = *dv->extent();
  const Column& vector = *dv->values();

  std::shared_ptr<const std::vector<uint32_t>> lookup =
      dv->CachedLookup(cd.head());
  const bool cached = lookup != nullptr;
  if (!cached) {
    // First semijoin with this right operand: look up every element of
    // CD's head in the extent (lines 7-15 of the pseudo-code). The probes
    // are independent, so they run as morsels on the TaskPool; block
    // shards concatenate in block order, reproducing the serial LOOKUP
    // array (and, via the shard merge, its exact probe faults). Unlike the
    // MorselRun kernels, the probe replays a shard even in a serial plan:
    // the pinned LOOKUP fault sequence is that of replayed probe paths.
    cd.head().TouchAll(ctx.io());
    const BlockPlan plan = ctx.Plan(cd.size());
    struct Shard {
      std::vector<uint32_t> positions;
      storage::IoStats io =
          storage::IoStats::ForShard();  // lint:allow(shard-replay) LOOKUP
    };
    std::vector<Shard> shards(plan.blocks);
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      Shard& mine = shards[block];
      dv->FindPositions(cd.head(), begin, end, &mine.positions,
                        ctx.io() != nullptr ? &mine.io : nullptr);
    });
    // An interrupted probe phase leaves partial shards: bail *before*
    // caching, so the accelerator's LOOKUP memo is never half-built.
    MF_RETURN_NOT_OK(ctx.CheckInterrupt());
    auto positions = std::make_shared<std::vector<uint32_t>>();
    positions->reserve(cd.size());
    for (Shard& s : shards) {
      if (ctx.io() != nullptr) {
        ctx.io()->MergeFrom(s.io);  // lint:allow(shard-replay) LOOKUP probe
      }
      positions->insert(positions->end(), s.positions.begin(),
                        s.positions.end());
    }
    dv->StoreLookup(cd.head_col(), positions);
    lookup = positions;
  }

  // Insertion phase (lines 16-20): fetch matching head and tail values
  // from EXTENT and VECTOR by position — morsels over the LOOKUP array
  // scatter into the pre-sized result heaps concurrently (the positions
  // are data, not results, so there is no match-count phase to run).
  const size_t hits = lookup->size();
  MF_RETURN_NOT_OK(ChargeGather(ctx, hits, extent, vector));
  const BlockPlan iplan = ctx.Plan(hits);
  bat::ColumnScatter hs(extent, hits);
  bat::ColumnScatter ts(vector, hits);
  const uint32_t* pos_data = lookup->data();
  bool ascending = true;
  if (iplan.blocks <= 1) {
    // Serial: interleave the extent/vector touches per element under the
    // caller's accountant, as the fetch loop really accesses them — a
    // capacity-limited (LRU) pager is sensitive to that order, and shard
    // replay would drop the re-faults of pages it evicts mid-phase. The
    // page filters forward each page's first touch in that order (every
    // touch, under an LRU pager) and add the repeats in bulk.
    {
      storage::ColdPageFilter extent_pages = extent.PageFilter(ctx.io());
      storage::ColdPageFilter vector_pages = vector.PageFilter(ctx.io());
      for (size_t k = 0; k < hits; ++k) {
        extent_pages.Touch(pos_data[k]);
        vector_pages.Touch(pos_data[k]);
        if (k > 0 && pos_data[k] < pos_data[k - 1]) ascending = false;
      }
    }
    hs.Gather(pos_data, hits, 0);
    ts.Gather(pos_data, hits, 0);
  } else {
    // Parallel: each block gathers its extent and vector touches in bulk
    // into a shard, replayed in block order — not a MorselRun, whose
    // serial body would have to give up the interleaving above.
    struct alignas(64) InsertShard {
      storage::IoStats io =
          storage::IoStats::ForShard();  // lint:allow(shard-replay) insertion
      bool ascending = true;
      uint32_t first = 0, last = 0;
    };
    std::vector<InsertShard> ishards(iplan.blocks);
    RunBlocks(iplan, [&](int block, size_t begin, size_t end) {
      InsertShard& mine = ishards[block];
      storage::IoStats* io = ctx.io() != nullptr ? &mine.io : nullptr;
      extent.TouchGather(io, pos_data + begin, end - begin);
      vector.TouchGather(io, pos_data + begin, end - begin);
      hs.Gather(pos_data + begin, end - begin, begin);
      ts.Gather(pos_data + begin, end - begin, begin);
      for (size_t k = begin + 1; k < end; ++k) {
        if (pos_data[k] < pos_data[k - 1]) {
          mine.ascending = false;
          break;
        }
      }
      mine.first = pos_data[begin];
      mine.last = pos_data[end - 1];
    });
    for (size_t bl = 0; bl < iplan.blocks; ++bl) {
      const InsertShard& s = ishards[bl];
      if (ctx.io() != nullptr) {
        ctx.io()->MergeFrom(s.io);  // lint:allow(shard-replay) insertion
      }
      if (!s.ascending || (bl > 0 && s.first < ishards[bl - 1].last)) {
        ascending = false;
      }
    }
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());

  ColumnPtr out_head = hs.Finish();
  // All datavector semijoins of one class against the same selection are
  // mutually synced: the key derives from the shared extent column and the
  // right operand's head value set.
  SetSync(out_head, MixSync(MixSync(extent.sync_key(), cd.head().sync_key()),
                            HashString("dv_semijoin")));
  bat::Properties props;
  props.hsorted = ascending;
  props.hkey = cd.props().hkey;  // extent is duplicate-free
  props.tsorted = false;
  props.tkey = false;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(out_head, ts.Finish(), props));
  rec.Finish(cached ? "datavector_semijoin(cached)" : "datavector_semijoin",
             res.size());
  return res;
}

/// Common epilogue of the merge/hash semijoin variants.
Result<Bat> FinishSemijoin(const Bat& ab, const Bat& cd, ColumnPtr out_head,
                           ColumnPtr out_tail) {
  // A semijoin keeps ab BUNs whose *head* occurs among cd's *heads*; both
  // match columns are heads, so no tail value can change the result set.
  // lint:allow(sync-head-only)
  SetSync(out_head, MixSync(MixSync(ab.head().sync_key(),
                                    cd.head().sync_key()),
                            HashString("semijoin")));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;
  props.tkey = ab.props().tkey;
  return Bat::Make(std::move(out_head), std::move(out_tail), props);
}

Result<Bat> MergeSemijoin(const ExecContext& ctx, const Bat& ab,
                          const Bat& cd, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  ColumnBuilder hb(a.type());
  ColumnBuilder tb(b.type(), b.str_heap());
  internal::ChargeGate gate(ctx, a, b);
  a.TouchAll(ctx.io());
  c.TouchAll(ctx.io());
  storage::ColdPageFilter b_pages = b.PageFilter(ctx.io());
  const size_t n = ab.size(), m = cd.size();
  // A is read in KeyBatches: the loop is instantiated per (A key kind,
  // C shape).
  bat::KeyBatch batch;
  Status status = Status::OK();
  size_t i = 0, j = 0;
  while (i < n && j < m && status.ok()) {
    const size_t lo = i;
    const size_t hi = std::min(n, lo + bat::KeyBatch::kRows);
    batch.Fill(a, lo, hi);
    batch.Visit([&](const auto& av) {
      c.VisitValues([&](const auto& cv) {
        while (i < hi && j < m) {
          const int cmp = bat::Compare(av, i - lo, cv, j);
          if (cmp < 0) {
            ++i;
          } else if (cmp > 0) {
            ++j;
          } else {
            b_pages.Touch(i);
            hb.AppendFrom(a, i);
            tb.AppendFrom(b, i);
            status = gate.Add(1);
            if (!status.ok()) return;
            ++i;  // keep j: the next left BUN may carry the same head value
          }
        }
      });
    });
  }
  MF_RETURN_NOT_OK(status);
  MF_RETURN_NOT_OK(gate.Flush());
  MF_ASSIGN_OR_RETURN(Bat res,
                      FinishSemijoin(ab, cd, hb.Finish(), tb.Finish()));
  rec.Finish("merge_semijoin", res.size());
  return res;
}

/// Hash semijoin, morsel-parallel in both phases: probe blocks emit
/// matching left positions, and the run scatters them straight into the
/// pre-sized result heaps — results and fault totals are those of the
/// serial probe at any degree.
Result<Bat> HashSemijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                         OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  a.TouchAll(ctx.io());

  internal::MorselRun run(ctx, ab.size(), internal::ChargeRowBytes(a, b));
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m,
                               internal::ChargeGate& gate) {
    storage::ColdPageFilter b_pages = b.PageFilter(m.io);
    size_t gated = 0;
    constexpr size_t kProbeChunk = 16 * 1024;
    for (size_t lo = m.begin; lo < m.end && m.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(m.end, lo + kProbeChunk);
      hash->ForEachContained(a, lo, hi, [&](size_t i) {
        b_pages.Touch(i);
        m.heads.push_back(static_cast<uint32_t>(i));
      });
      m.status = gate.Add(m.heads.size() - gated);
      gated = m.heads.size();
    }
  }));
  MF_RETURN_NOT_OK(run.Stage());
  MF_ASSIGN_OR_RETURN(auto cols, run.Scatter(a, b));
  MF_ASSIGN_OR_RETURN(Bat res, FinishSemijoin(ab, cd, std::move(cols.first),
                                              std::move(cols.second)));
  rec.Finish("hash_semijoin", res.size());
  return res;
}

}  // namespace

namespace {

/// Morsel-parallel anti-probe: every block emits the positions of its
/// probe rows in [0, probe.size()) with no match in `hash` (typed bulk
/// ForEachMissing), reports `touch` per miss through a page filter and
/// feeds its gate per miss.
Status RunMisses(internal::MorselRun& run, const bat::HashIndex& hash,
                 const Column& probe, const Column& touch) {
  return run.Run([&](internal::Morsel& m, internal::ChargeGate& gate) {
    storage::ColdPageFilter pages = touch.PageFilter(m.io);
    constexpr size_t kProbeChunk = 16 * 1024;
    size_t gated = 0;
    for (size_t lo = m.begin; lo < m.end && m.status.ok();
         lo += kProbeChunk) {
      const size_t hi = std::min(m.end, lo + kProbeChunk);
      hash.ForEachMissing(probe, lo, hi, [&](size_t i) {
        pages.Touch(i);
        m.heads.push_back(static_cast<uint32_t>(i));
      });
      m.status = gate.Add(m.heads.size() - gated);
      gated = m.heads.size();
    }
  });
}

/// Anti-semijoin (Monet kdiff): keeps the AB BUNs whose head has no match
/// in CD's head — the parallel typed anti-probe feeding a two-phase
/// scatter. The kept set depends only on the two head value sequences, so
/// the head-only sync-key derivation is genuinely sound here (unlike the
/// theta-join, whose matches read the left *tail*).
Result<Bat> HashAntiSemijoin(const ExecContext& ctx, const Bat& ab,
                             const Bat& cd, OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  auto hash = cd.EnsureHeadHash(ctx.parallel_degree());
  a.TouchAll(ctx.io());
  internal::MorselRun run(ctx, ab.size(), internal::ChargeRowBytes(a, b));
  MF_RETURN_NOT_OK(RunMisses(run, *hash, a, b));
  MF_RETURN_NOT_OK(run.Stage());
  MF_ASSIGN_OR_RETURN(auto cols, run.Scatter(a, b));
  ColumnPtr out_head = std::move(cols.first);
  SetSync(out_head, MixSync(MixSync(a.sync_key(), cd.head().sync_key()),
                            HashString("kdiff")));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = ab.props().tsorted;
  props.tkey = ab.props().tkey;
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(out_head, std::move(cols.second), props));
  rec.Finish("hash_antisemijoin", res.size());
  return res;
}

/// Set union on heads (Monet kunion): all of AB, plus the CD BUNs whose
/// head is absent from AB. AB's rows are charged upfront and each CD miss
/// through its block's gate. The CD anti-probe runs as morsels; the result
/// assembles through bulk typed appends (one contiguous range copy per AB
/// column, one gather per miss list) — mixed source columns rule out a
/// single-column scatter.
Result<Bat> HashUnion(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      OpRecorder& rec) {
  const Column& a = ab.head();
  const Column& b = ab.tail();
  MF_RETURN_NOT_OK(ChargeGather(ctx, ab.size(), a, b));
  ColumnBuilder hb(a.type());
  ColumnBuilder tb(b.type(), b.str_heap());
  a.TouchAll(ctx.io());
  b.TouchAll(ctx.io());
  hb.Reserve(ab.size());
  tb.Reserve(ab.size());
  hb.AppendRange(a, 0, ab.size());
  tb.AppendRange(b, 0, ab.size());
  auto hash = ab.EnsureHeadHash(ctx.parallel_degree());
  const Column& c = cd.head();
  const Column& d = cd.tail();
  c.TouchAll(ctx.io());
  internal::MorselRun run(ctx, cd.size(), internal::ChargeRowBytes(a, b));
  MF_RETURN_NOT_OK(RunMisses(run, *hash, c, d));
  MF_RETURN_NOT_OK(run.Stage());
  for (const internal::Morsel& m : run.morsels()) {
    hb.GatherFrom(c, m.heads.data(), m.heads.size());
    tb.GatherFrom(d, m.heads.data(), m.heads.size());
  }
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(hb.Finish(), tb.Finish(), bat::Properties{}));
  rec.Finish("hash_union", res.size());
  return res;
}

}  // namespace

Result<Bat> Semijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "semijoin");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "semijoin", MakeInput(ctx, ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Diff(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "kdiff");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "kdiff", MakeInput(ctx, ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Union(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  // The result concatenates both operands' columns.
  if (StoredType(ab.head().type()) != StoredType(cd.head().type()) ||
      StoredType(ab.tail().type()) != StoredType(cd.tail().type())) {
    return Status::TypeError("kunion requires matching column types");
  }
  OpRecorder rec(ctx, "kunion");
  return KernelRegistry::Global().Dispatch<BinaryImplSig>(
      "kunion", MakeInput(ctx, ab, cd), ctx, ab, cd, rec);
}

Result<Bat> Intersect(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  return Semijoin(ctx, ab, cd);
}

namespace internal {

double EstSemijoinMatches(const DispatchInput& in) {
  return EstEquiMatches(in.left.size, in.right->size);
}

void RegisterSemijoinKernels(KernelRegistry& r) {
  // Costs are expected cold page faults (Section 5.2.2): the datavector
  // estimate is one E_dv term of the analytic model — random fetches into
  // EXTENT and VECTOR priced by the per-page hit probability — which is
  // what makes dv semijoins win at low selectivity and lose the advantage
  // as the fetch set approaches every page, exactly as in Fig. 8.
  r.Register<BinaryImplSig>(
      "semijoin", "sync_semijoin",
      [](const DispatchInput& in) { return in.synced && in.right.has_value(); },
      [](const DispatchInput&) { return 0.0; },  // zero-copy, no touches
      std::function<BinaryImplSig>(SyncSemijoin),
      "operands synced (Section 5.1): zero-copy view of AB");
  r.Register<BinaryImplSig>(
      "semijoin", "datavector_semijoin",
      [](const DispatchInput& in) {
        return in.left.has_datavector && in.right.has_value() &&
               in.right->head_oidlike;
      },
      [](const DispatchInput& in) {
        const double est = EstSemijoinMatches(in);
        return HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.head_width, est) +
               RandomFetchPages(in.left.size, in.left.tail_width, est) +
               kCpuSequential /
                   ParallelCpuScale(in.right->size, in.degree);
      },
      std::function<BinaryImplSig>(DatavectorSemijoin),
      "Section 5.2.1 datavector with the persistent LOOKUP cache");
  r.Register<BinaryImplSig>(
      "semijoin", "merge_semijoin",
      [](const DispatchInput& in) {
        return in.left.props.hsorted && in.right.has_value() &&
               in.right->props.hsorted;
      },
      [](const DispatchInput& in) {
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                EstSemijoinMatches(in)) +
               kCpuSequential;
      },
      std::function<BinaryImplSig>(MergeSemijoin),
      "single interleaved pass over hsorted heads");
  r.Register<BinaryImplSig>(
      "semijoin", "hash_semijoin",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        // One build pass over CD's head (skipped when the accelerator is
        // cached), one probe pass over AB's head, tail fetches per match.
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        return build + HeapPages(in.left.size, in.left.head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                EstSemijoinMatches(in)) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<BinaryImplSig>(HashSemijoin),
      "probe the (cached) hash accelerator on CD's head (parallel probe)");

  // kdiff/kunion have one registered shape each today; registration still
  // buys degree-aware costs in the decision table (Explain) and a seam
  // for future merge/sync variants.
  r.Register<BinaryImplSig>(
      "kdiff", "hash_antisemijoin",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        const double build =
            in.right->head_hashed
                ? 0.0
                : HeapPages(in.right->size, in.right->head_width);
        // Misses are the left rows minus the expected equi-matches.
        const double est = static_cast<double>(in.left.size) -
                           EstSemijoinMatches(in);
        return build + HeapPages(in.left.size, in.left.head_width) +
               RandomFetchPages(in.left.size, in.left.tail_width,
                                est > 0 ? est : 0) +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<BinaryImplSig>(HashAntiSemijoin),
      "anti-probe the hash accelerator on CD's head (parallel probe)");
  r.Register<BinaryImplSig>(
      "kunion", "hash_union",
      [](const DispatchInput& in) { return in.right.has_value(); },
      [](const DispatchInput& in) {
        const double build =
            in.left.head_hashed
                ? 0.0
                : HeapPages(in.left.size, in.left.head_width);
        const double est = static_cast<double>(in.right->size) -
                           EstSemijoinMatches(in);
        return HeapPages(in.left.size, in.left.head_width) +
               HeapPages(in.left.size, in.left.tail_width) + build +
               HeapPages(in.right->size, in.right->head_width) +
               RandomFetchPages(in.right->size, in.right->tail_width,
                                est > 0 ? est : 0) +
               kCpuHashed / ParallelCpuScale(in.right->size, in.degree);
      },
      std::function<BinaryImplSig>(HashUnion),
      "copy AB, anti-probe CD against AB's head hash (parallel probe)");
}

}  // namespace internal

}  // namespace moaflat::kernel
