#include "kernel/internal.h"

namespace moaflat::kernel::internal {

Status MorselRun::Replay() {
  if (plan_.blocks > 1 && ctx_.io() != nullptr) {
    for (const Morsel& m : morsels_) ctx_.io()->MergeFrom(m.shard);
  }
  return FirstFailure();
}

Status MorselRun::FirstFailure() const {
  for (const Morsel& m : morsels_) {
    MF_RETURN_NOT_OK(m.status);
  }
  return Status::OK();
}

Status MorselRun::Stage(uint64_t extra_row_bytes) {
  offset_.assign(plan_.blocks + 1, 0);
  uint64_t positions = 0;
  for (size_t b = 0; b < plan_.blocks; ++b) {
    offset_[b + 1] = offset_[b] + morsels_[b].heads.size();
    positions += morsels_[b].heads.size() + morsels_[b].tails.size();
  }
  return staging_.Add(positions * sizeof(uint32_t) +
                      total() * extra_row_bytes);
}

Result<std::pair<bat::ColumnPtr, bat::ColumnPtr>> MorselRun::Scatter(
    const bat::Column& head, const bat::Column& tail) {
  bat::ColumnScatter ts(tail, total());
  MF_ASSIGN_OR_RETURN(
      bat::ColumnPtr out_head,
      ScatterHead(head, [&](const Morsel& m, size_t at) {
        const std::vector<uint32_t>& pos = m.tails.empty() ? m.heads : m.tails;
        ts.Gather(pos.data(), pos.size(), at);
        return Status::OK();
      }));
  return std::make_pair(std::move(out_head), ts.Finish());
}

}  // namespace moaflat::kernel::internal
