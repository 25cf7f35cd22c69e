#include <algorithm>
#include <numeric>
#include <vector>

#include "kernel/group_table.h"
#include "kernel/internal.h"
#include "kernel/operators.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::ChargeGather;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

/// Copies the BUNs at `positions` (in order) into a fresh BAT: one bulk
/// typed gather per column (the hoisted replacement for the old per-row
/// AppendFrom loop), with the touches batched per heap.
Result<Bat> GatherPositions(const ExecContext& ctx, const Bat& ab,
                            const std::vector<uint32_t>& pos,
                            bat::Properties props, uint64_t sync_salt) {
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  MF_RETURN_NOT_OK(ChargeGather(ctx, pos.size(), head, tail));
  head.TouchGather(ctx.io(), pos.data(), pos.size());
  tail.TouchGather(ctx.io(), pos.data(), pos.size());
  ColumnBuilder hb(head.type());
  ColumnBuilder tb(tail.type(), tail.str_heap());
  hb.Reserve(pos.size());
  tb.Reserve(pos.size());
  hb.GatherFrom(head, pos.data(), pos.size());
  tb.GatherFrom(tail, pos.data(), pos.size());
  ColumnPtr out_head = hb.Finish();
  // Each caller encodes what chose `pos` into sync_salt — unique/topn mix
  // the tail sync key, slice its index bounds — so tail dependence enters
  // the derivation there, not here.  lint:allow(sync-head-only)
  SetSync(out_head, MixSync(head.sync_key(), sync_salt));
  return Bat::Make(out_head, tb.Finish(), props);
}

}  // namespace

Result<Bat> Unique(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "unique");
  const Column& head = ab.head();
  const Column& tail = ab.tail();
  head.TouchAll(ctx.io());
  tail.TouchAll(ctx.io());

  // First occurrences of the distinct (head, tail) pairs: the refinement
  // of the head groups by tail value, in first-appearance order.
  const int degree = ctx.parallel_degree();
  std::vector<Oid> head_gid(ab.size());
  internal::GroupTable heads(bat::IntegralKeyRange(head, degree), ab.size());
  heads.Add(head, 0, ab.size(), head_gid.data());
  std::vector<uint32_t> rows(ab.size());
  std::iota(rows.begin(), rows.end(), 0u);
  internal::RefineTable pairs(bat::KeyRange{0, heads.reps().size()},
                              bat::IntegralKeyRange(tail, degree), ab.size());
  pairs.Add(tail, head_gid.data(), rows.data(), ab.size(), nullptr);
  std::vector<uint32_t> keep;
  keep.reserve(pairs.reps().size());
  for (const internal::RefineTable::Rep& rep : pairs.reps()) {
    keep.push_back(rep.dpos);
  }

  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.tsorted = ab.props().tsorted;
  props.hkey = ab.props().hkey;
  props.tkey = ab.props().tkey;
  // The keep set depends on the tail values too (duplicate BUNs, not
  // duplicate heads), so the tail sync key joins the derivation — same
  // reasoning as SortTail.
  MF_ASSIGN_OR_RETURN(
      Bat res,
      GatherPositions(ctx, ab, keep, props,
                      MixSync(HashString("unique"), ab.tail().sync_key())));
  rec.Finish("hash_unique", res.size());
  return res;
}

Result<Bat> HeadUnique(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "hunique");
  const Column& head = ab.head();
  head.TouchAll(ctx.io());
  // First occurrence of every distinct head value.
  internal::GroupTable groups(
      bat::IntegralKeyRange(head, ctx.parallel_degree()), ab.size());
  groups.Add(head, 0, ab.size(), nullptr);
  const std::vector<uint32_t>& keep = groups.reps();
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.tsorted = ab.props().tsorted;
  props.hkey = true;
  props.tkey = ab.props().tkey;
  MF_ASSIGN_OR_RETURN(
      Bat res, GatherPositions(ctx, ab, keep, props, HashString("hunique")));
  rec.Finish("hash_head_unique", res.size());
  return res;
}

Result<Bat> Mark(const ExecContext& ctx, const Bat& ab, Oid base) {
  OpRecorder rec(ctx, "mark");
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = true;
  props.tkey = true;
  MF_ASSIGN_OR_RETURN(
      Bat res,
      Bat::Make(ab.head_col(), Column::MakeVoid(base, ab.size()), props));
  rec.Finish("mark", res.size());
  return res;
}

Result<Bat> VoidTail(const ExecContext& ctx, const Bat& ab) {
  return Mark(ctx, ab, 0);
}

Result<Bat> Slice(const ExecContext& ctx, const Bat& ab, size_t lo,
                  size_t hi) {
  OpRecorder rec(ctx, "slice");
  lo = std::min(lo, ab.size());
  hi = std::min(hi, ab.size());
  if (hi < lo) hi = lo;
  std::vector<uint32_t> pos(hi - lo);
  std::iota(pos.begin(), pos.end(), static_cast<uint32_t>(lo));
  bat::Properties props = ab.props();
  MF_ASSIGN_OR_RETURN(
      Bat res, GatherPositions(ctx, ab, pos, props,
                               MixSync(HashString("slice"), lo * 31 + hi)));
  rec.Finish("slice", res.size());
  return res;
}

Result<Bat> SortTail(const ExecContext& ctx, const Bat& ab) {
  OpRecorder rec(ctx, "sort");
  const Column& tail = ab.tail();
  tail.TouchAll(ctx.io());
  std::vector<uint32_t> pos(ab.size());
  std::iota(pos.begin(), pos.end(), 0u);
  tail.VisitValues([&](const auto& v) {
    std::stable_sort(pos.begin(), pos.end(), [&](uint32_t x, uint32_t y) {
      return bat::Compare(v, x, v, y) < 0;
    });
  });
  bat::Properties props;
  props.tsorted = true;
  props.hkey = ab.props().hkey;
  props.tkey = ab.props().tkey;
  props.hsorted = ab.size() <= 1;
  // The gather permutation is a function of the *tail* values, so the
  // result-head key must mix the tail's sync key: two BATs with equal
  // head keys but different tails (e.g. two attributes sharing a class
  // head column) reorder differently, and deriving the key from the head
  // alone would forge a synced proof between misaligned results.
  MF_ASSIGN_OR_RETURN(
      Bat res,
      GatherPositions(ctx, ab, pos, props,
                      MixSync(HashString("sort_tail"),
                              ab.tail().sync_key())));
  rec.Finish("stable_sort", res.size());
  return res;
}

Result<Bat> TopN(const ExecContext& ctx, const Bat& ab, size_t n,
                 bool descending) {
  OpRecorder rec(ctx, "topn");
  const Column& tail = ab.tail();
  tail.TouchAll(ctx.io());
  std::vector<uint32_t> pos(ab.size());
  std::iota(pos.begin(), pos.end(), 0u);
  const size_t k = std::min(n, pos.size());
  tail.VisitValues([&](const auto& v) {
    auto cmp = [&](uint32_t x, uint32_t y) {
      const int c = bat::Compare(v, x, v, y);
      if (c != 0) return descending ? c > 0 : c < 0;
      return x < y;  // deterministic tie-break on position
    };
    std::partial_sort(pos.begin(), pos.begin() + k, pos.end(), cmp);
  });
  pos.resize(k);
  bat::Properties props;
  props.tsorted = !descending;
  props.hkey = ab.props().hkey;
  // Tail-dependent permutation: mix the tail sync key (see SortTail).
  MF_ASSIGN_OR_RETURN(
      Bat res,
      GatherPositions(ctx, ab, pos, props,
                      MixSync(HashString("topn"),
                              MixSync(ab.tail().sync_key(),
                                      n * 2 + descending))));
  rec.Finish("partial_sort_topn", res.size());
  return res;
}

Result<Bat> ProjectConst(const ExecContext& ctx, const Bat& ab,
                         const Value& v) {
  OpRecorder rec(ctx, "project");
  const MonetType out_type = StoredType(v.type());
  // The constant tail materializes ab.size() values (the head is shared
  // zero-copy); this path used to charge nothing against the budget.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(static_cast<uint64_t>(ab.size()) *
                                    static_cast<uint64_t>(
                                        TypeWidth(out_type))));
  ColumnBuilder tb(out_type);
  MF_RETURN_NOT_OK(tb.AppendRepeat(v, ab.size()));
  bat::Properties props;
  props.hsorted = ab.props().hsorted;
  props.hkey = ab.props().hkey;
  props.tsorted = true;
  props.tkey = ab.size() <= 1;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(ab.head_col(), tb.Finish(), props));
  rec.Finish("project_const", res.size());
  return res;
}

Result<Bat> Append(const ExecContext& ctx, const Bat& ab, const Bat& cd) {
  OpRecorder rec(ctx, "append");
  const Column& a = ab.head();
  const Column& b = ab.tail();
  const Column& c = cd.head();
  const Column& d = cd.tail();
  if (StoredType(a.type()) != StoredType(c.type()) ||
      StoredType(b.type()) != StoredType(d.type())) {
    return Status::TypeError("append requires matching column types");
  }
  MF_RETURN_NOT_OK(ChargeGather(ctx, ab.size() + cd.size(), a, b));
  ColumnBuilder hb(a.type());
  ColumnBuilder tb(b.type(), b.str_heap());
  hb.Reserve(ab.size() + cd.size());
  tb.Reserve(ab.size() + cd.size());
  hb.AppendRange(a, 0, ab.size());
  tb.AppendRange(b, 0, ab.size());
  hb.AppendRange(c, 0, cd.size());
  tb.AppendRange(d, 0, cd.size());
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(hb.Finish(), tb.Finish(), bat::Properties{}));
  rec.Finish("append", res.size());
  return res;
}

}  // namespace moaflat::kernel
