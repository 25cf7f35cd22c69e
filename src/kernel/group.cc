#include <memory>
#include <unordered_map>
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
using internal::MixSync;

/// Runs `body(hash, eq)` where hash(i) = col.HashAt(i) and
/// eq(i, j) = col.EqualAt(i, col, j), with the per-value type dispatch
/// hoisted out of the caller's loop for fixed-width columns (boxed
/// fallback for str and void).
template <typename Body>
void WithRowOps(const Column& col, Body&& body) {
  if (!col.is_void() && col.type() != MonetType::kStr) {
    Column::VisitType(col.type(), [&](auto tag) {
      using T = typename decltype(tag)::type;
      const T* v = col.Data<T>().data();
      body([v](size_t i) { return bat::TypedValueHash(v[i]); },
           [v](size_t i, size_t j) {
             return bat::NumValue(v[i]) == bat::NumValue(v[j]);
           });
    });
    return;
  }
  body([&col](size_t i) { return col.HashAt(i); },
       [&col](size_t i, size_t j) { return col.EqualAt(i, col, j); });
}

/// Open-addressing hash -> dense id machinery shared by the two grouping
/// tables: a linear-probed slot array over a flat per-id hash vector (no
/// per-bucket chain allocations, no node-based map). Ids are dense and
/// assigned in insertion order — the first-appearance numbering the
/// parallel merges rely on. Callers keep their own id-indexed payload
/// (the representative positions) and resolve collisions via `eq`.
class HashSlots {
 public:
  HashSlots() {
    slots_.assign(kInitialSlots, 0);
    mask_ = kInitialSlots - 1;
  }

  /// Returns the id whose stored hash is `h` and for which eq(id) holds,
  /// or -1 if no such id exists yet.
  template <typename EqFn>
  int64_t Find(uint64_t h, const EqFn& eq) const {
    size_t s = h & mask_;
    while (slots_[s] != 0) {
      const uint32_t id = slots_[s] - 1;
      if (hashes_[id] == h && eq(id)) return id;
      s = (s + 1) & mask_;
    }
    return -1;
  }

  /// Appends the next dense id for `h`.
  uint32_t Insert(uint64_t h) {
    const uint32_t id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(h);
    size_t s = h & mask_;
    while (slots_[s] != 0) s = (s + 1) & mask_;
    slots_[s] = id + 1;
    if (hashes_.size() * 4 > slots_.size() * 3) Grow();
    return id;
  }

  size_t size() const { return hashes_.size(); }

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two; grows 2x

  void Grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (size_t k = 0; k < hashes_.size(); ++k) {
      size_t s = hashes_[k] & mask_;
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<uint32_t>(k + 1);
    }
  }

  std::vector<uint32_t> slots_;   // 1-based ids, 0 = empty
  std::vector<uint64_t> hashes_;  // id -> stored hash, insertion order
  uint64_t mask_;
};

/// Hash-consing of tail values into dense group oids (gid == insertion
/// index), with collision verification against a representative position.
class GroupTable {
 public:
  explicit GroupTable(const Column& col) : col_(col) {}

  /// Returns the group oid of col[i], creating one if unseen. `h` must be
  /// col.HashAt(i) and eq(i, j) value equality — both typically hoisted
  /// via WithRowOps.
  template <typename EqFn>
  Oid GidOf(size_t i, uint64_t h, const EqFn& eq) {
    const int64_t id =
        slots_.Find(h, [&](uint32_t cand) { return eq(i, reps_[cand]); });
    if (id >= 0) return static_cast<Oid>(id);
    reps_.push_back(static_cast<uint32_t>(i));
    return slots_.Insert(h);
  }

  /// Boxed convenience for the (small) merge phases.
  Oid GidOf(size_t i) {
    return GidOf(i, col_.HashAt(i), [this](size_t a, size_t b) {
      return col_.EqualAt(a, col_, b);
    });
  }

  Oid group_count() const { return static_cast<Oid>(reps_.size()); }

  /// Representative positions in gid (first-appearance) order.
  const std::vector<uint32_t>& reps() const { return reps_; }

 private:
  const Column& col_;
  HashSlots slots_;
  std::vector<uint32_t> reps_;
};

/// Parallel hash grouping. Every block hash-conses its contiguous row
/// range into a *local* table (writing local gids into its slice of
/// `gids`); the serial merge then feeds each block's representatives — in
/// block order, each block's in local first-appearance order — through one
/// global table. Because blocks are contiguous and ascending, that visit
/// order sorts representatives by their value's first global occurrence,
/// so the global numbering is exactly the serial first-appearance
/// numbering; a second parallel pass rewrites local to global gids.
Result<Bat> HashGroup(const ExecContext& ctx, const Bat& ab, OpRecorder& rec) {
  // The result shares the head; only the gid tail is new storage.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(ab.size() * sizeof(Oid)));
  const Column& tail = ab.tail();
  tail.TouchAll(ctx.io());
  std::vector<Oid> gids(ab.size());
  const BlockPlan plan = ctx.Plan(ab.size());
  if (plan.blocks <= 1) {
    GroupTable groups(tail);
    WithRowOps(tail, [&](auto hash, auto eq) {
      for (size_t i = 0; i < ab.size(); ++i) {
        gids[i] = groups.GidOf(i, hash(i), eq);
      }
    });
  } else {
    std::vector<std::unique_ptr<GroupTable>> locals(plan.blocks);
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      auto table = std::make_unique<GroupTable>(tail);
      WithRowOps(tail, [&](auto hash, auto eq) {
        for (size_t i = begin; i < end; ++i) {
          gids[i] = table->GidOf(i, hash(i), eq);
        }
      });
      locals[block] = std::move(table);
    });
    // An interrupted eval phase leaves null local tables; bail before the
    // merge dereferences them.
    MF_RETURN_NOT_OK(ctx.CheckInterrupt());
    GroupTable global(tail);
    std::vector<std::vector<Oid>> to_global(plan.blocks);
    for (size_t b = 0; b < plan.blocks; ++b) {
      auto& map = to_global[b];
      map.reserve(locals[b]->reps().size());
      for (uint32_t rep : locals[b]->reps()) map.push_back(global.GidOf(rep));
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

/// Pair (previous gid, refined value) -> new dense gid (gid == insertion
/// index), keyed by MixSync(prev_gid, value hash) over the shared
/// HashSlots machinery. Keeps its representatives in gid order for the
/// parallel merge.
class RefineTable {
 public:
  explicit RefineTable(const Column& d) : d_(d) {}

  /// `dhash` must be d.HashAt(dpos) and deq(i, j) value equality on d —
  /// hoisted via WithRowOps on the hot path.
  template <typename EqFn>
  Oid Refine(Oid prev_gid, size_t dpos, uint64_t dhash, const EqFn& deq) {
    const uint64_t h = MixSync(prev_gid, dhash);
    const int64_t id = slots_.Find(h, [&](uint32_t cand) {
      return reps_[cand].prev_gid == prev_gid && deq(dpos, reps_[cand].dpos);
    });
    if (id >= 0) return static_cast<Oid>(id);
    reps_.push_back(Rep{prev_gid, static_cast<uint32_t>(dpos)});
    return slots_.Insert(h);
  }

  /// Boxed convenience for the (small) merge phases.
  Oid Refine(Oid prev_gid, size_t dpos) {
    return Refine(prev_gid, dpos, d_.HashAt(dpos),
                  [this](size_t a, size_t b) { return d_.EqualAt(a, d_, b); });
  }

  struct Rep {
    Oid prev_gid;
    uint32_t dpos;  // position in cd whose tail is the representative
  };
  const std::vector<Rep>& reps() const { return reps_; }

 private:
  const Column& d_;
  HashSlots slots_;
  std::vector<Rep> reps_;
};

Result<Bat> FinishRefine(const Bat& ab, std::vector<Oid> gids) {
  ColumnPtr gid_col = Column::MakeOid(std::move(gids));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  return Bat::Make(ab.head_col(), gid_col, props);
}

/// Shared refinement machinery of the two variants: `dpos_of(i, d_pages)`
/// yields the position in CD whose tail refines row i (or a negative value
/// for "missing", an error), reporting its touches of `d` through the
/// block's page filter `d_pages`. Runs
/// block-local RefineTables in parallel and merges them into the serial
/// first-appearance numbering exactly as HashGroup does for its
/// GroupTable.
template <typename DposFn>
Result<std::vector<Oid>> ParallelRefine(const ExecContext& ctx, const Bat& ab,
                                        const Column& d,
                                        const DposFn& dpos_of) {
  const Column& prev = ab.tail();
  std::vector<Oid> gids(ab.size());
  const BlockPlan plan = ctx.Plan(ab.size());
  const auto missing = [] {
    return Status::ExecutionError(
        "group refinement: left head value missing on the right");
  };
  if (plan.blocks <= 1) {
    RefineTable table(d);
    storage::ColdPageFilter d_pages = d.PageFilter(ctx.io());
    bool miss = false;
    WithRowOps(d, [&](auto dhash, auto deq) {
      for (size_t i = 0; i < ab.size(); ++i) {
        const int64_t pos = dpos_of(i, d_pages);
        if (pos < 0) {
          miss = true;
          return;
        }
        const size_t p = static_cast<size_t>(pos);
        gids[i] = table.Refine(prev.OidAt(i), p, dhash(p), deq);
      }
    });
    if (miss) return missing();
    return gids;
  }

  struct alignas(64) Shard {
    std::unique_ptr<RefineTable> table;
    storage::IoStats io = storage::IoStats::ForShard();
    bool missing = false;
  };
  std::vector<Shard> shards(plan.blocks);
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Shard& mine = shards[block];
    mine.table = std::make_unique<RefineTable>(d);
    storage::ColdPageFilter d_pages =
        d.PageFilter(internal::ShardIo(ctx, mine.io));
    WithRowOps(d, [&](auto dhash, auto deq) {
      for (size_t i = begin; i < end; ++i) {
        const int64_t pos = dpos_of(i, d_pages);
        if (pos < 0) {
          mine.missing = true;
          return;
        }
        const size_t p = static_cast<size_t>(pos);
        gids[i] = mine.table->Refine(prev.OidAt(i), p, dhash(p), deq);
      }
    });
  });
  for (Shard& s : shards) {
    if (ctx.io() != nullptr) ctx.io()->MergeFrom(s.io);
  }
  for (const Shard& s : shards) {
    if (s.missing) return missing();
  }
  // Interrupted eval leaves null shard tables; bail before the merge.
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  RefineTable global(d);
  std::vector<std::vector<Oid>> to_global(plan.blocks);
  for (size_t b = 0; b < plan.blocks; ++b) {
    auto& map = to_global[b];
    map.reserve(shards[b].table->reps().size());
    for (const RefineTable::Rep& rep : shards[b].table->reps()) {
      map.push_back(global.Refine(rep.prev_gid, rep.dpos));
    }
  }
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
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
  MF_ASSIGN_OR_RETURN(
      std::vector<Oid> gids,
      ParallelRefine(ctx, ab, d, [](size_t i, storage::ColdPageFilter&) {
        return static_cast<int64_t>(i);
      }));
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
  const auto dpos_of = [&](size_t i, storage::ColdPageFilter& d_pages) {
    const int64_t pos = hash->FindFirst(ab.head(), i);
    if (pos >= 0) d_pages.Touch(static_cast<uint64_t>(pos));
    return pos;
  };
  MF_ASSIGN_OR_RETURN(std::vector<Oid> gids,
                      ParallelRefine(ctx, ab, d, dpos_of));
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
