#include <cstdint>
#include <vector>

#include "kernel/internal.h"
#include "kernel/operators.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;

}  // namespace

Result<Bat> InsertBuns(const ExecContext& ctx, const Bat& ab,
                       const std::vector<Value>& heads,
                       const std::vector<Value>& tails) {
  OpRecorder rec(ctx, "insert");
  if (heads.size() != tails.size()) {
    return Status::Invalid("insert: head/tail value counts differ");
  }
  const Column& h = ab.head();
  const Column& t = ab.tail();
  MF_RETURN_NOT_OK(
      internal::ChargeGather(ctx, ab.size() + heads.size(), h, t));

  ColumnBuilder hb(h.type());
  ColumnBuilder tb(t.type(), t.str_heap());
  hb.Reserve(ab.size() + heads.size());
  tb.Reserve(ab.size() + heads.size());
  // The carried-over prefix is one contiguous typed copy per column; only
  // the genuinely boxed inputs (the inserted Values) append per row.
  hb.AppendRange(h, 0, ab.size());
  tb.AppendRange(t, 0, ab.size());
  for (size_t k = 0; k < heads.size(); ++k) {
    MF_RETURN_NOT_OK(hb.AppendValue(heads[k]));
    MF_RETURN_NOT_OK(tb.AppendValue(tails[k]));
  }
  ColumnPtr new_head = hb.Finish();
  ColumnPtr new_tail = tb.Finish();

  // Property guarding: recheck each declared property against the
  // inserted run only (O(inserted) for sortedness, hash probes for
  // keyness) and switch it off if violated.
  bat::Properties props = ab.props();
  const size_t old_n = ab.size();
  const size_t run_from = old_n > 0 ? old_n - 1 : 0;
  if (props.hsorted) props.hsorted = new_head->RangeSorted(run_from, SIZE_MAX);
  if (props.tsorted) props.tsorted = new_tail->RangeSorted(run_from, SIZE_MAX);

  auto run_key = [&](const Column& col,
                     const std::shared_ptr<const bat::HashIndex>& old_idx) {
    // Against the old values (via the accelerator)...
    bool dup = false;
    if (old_n > 0) {
      old_idx->ForEachContained(col, old_n, col.size(),
                                [&](size_t) { dup = true; });
    }
    // ...and among the inserted values.
    return !dup && col.VisitValues([&](const auto& v) {
      for (size_t i = old_n; i < col.size(); ++i) {
        for (size_t j = old_n; j < i; ++j) {
          if (bat::Equal(v, i, v, j)) return false;
        }
      }
      return true;
    });
  };
  if (props.hkey && !heads.empty()) {
    props.hkey = run_key(*new_head, ab.EnsureHeadHash());
  }
  if (props.tkey && !tails.empty()) {
    props.tkey = run_key(*new_tail, ab.EnsureTailHash());
  }

  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(new_head, new_tail, props));
  rec.Finish("guarded_insert", res.size());
  return res;
}

}  // namespace moaflat::kernel
