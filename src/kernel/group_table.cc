#include "kernel/group_table.h"

#include <type_traits>

namespace moaflat::kernel::internal {

GroupTable::GroupTable(const std::optional<bat::KeyRange>& range,
                       size_t rows) {
  if (range && range->span <= DenseBound(rows)) {
    dense_ = true;
    range_ = *range;
    gid_of_.assign(range_.span, 0);
  }
}

template <typename V>
Oid GroupTable::GidOf(const V& v, size_t i) {
  if constexpr (std::is_integral_v<decltype(bat::ValueKey(v[i]))>) {
    if (dense_) {
      uint32_t& slot = gid_of_[range_.Offset(bat::ValueKey(v[i]))];
      if (slot == 0) {
        reps_.push_back(static_cast<uint32_t>(i));
        slot = static_cast<uint32_t>(reps_.size());
      }
      return slot - 1;
    }
  }
  const uint64_t h = bat::Hash(v, i);
  const int64_t id = slots_.Find(
      h, [&](uint32_t cand) { return bat::Equal(v, i, v, reps_[cand]); });
  if (id >= 0) return static_cast<Oid>(id);
  reps_.push_back(static_cast<uint32_t>(i));
  return slots_.Insert(h);
}

void GroupTable::Add(const bat::Column& col, size_t begin, size_t end,
                     Oid* gids) {
  col.VisitValues([&](const auto& v) {
    for (size_t i = begin; i < end; ++i) {
      const Oid gid = GidOf(v, i);
      if (gids != nullptr) gids[i - begin] = gid;
    }
  });
}

void GroupTable::AddAt(const bat::Column& col,
                       const std::vector<uint32_t>& positions,
                       std::vector<Oid>& gids) {
  gids.reserve(gids.size() + positions.size());
  col.VisitValues([&](const auto& v) {
    for (uint32_t pos : positions) gids.push_back(GidOf(v, pos));
  });
}

RefineTable::RefineTable(const std::optional<bat::KeyRange>& prev,
                         const std::optional<bat::KeyRange>& values,
                         size_t rows) {
  if (prev && values && prev->span <= DenseBound(rows) / values->span) {
    dense_ = true;
    prev_range_ = *prev;
    value_range_ = *values;
    gid_of_.assign(prev->span * values->span, 0);
  }
}

template <typename V>
Oid RefineTable::Refine(Oid prev_gid, const V& d, size_t dpos) {
  if constexpr (std::is_integral_v<decltype(bat::ValueKey(d[dpos]))>) {
    if (dense_) {
      uint32_t& slot =
          gid_of_[prev_range_.Offset(prev_gid) * value_range_.span +
                  value_range_.Offset(bat::ValueKey(d[dpos]))];
      if (slot == 0) {
        reps_.push_back(Rep{prev_gid, static_cast<uint32_t>(dpos)});
        slot = static_cast<uint32_t>(reps_.size());
      }
      return slot - 1;
    }
  }
  const uint64_t h = MixSync(prev_gid, bat::Hash(d, dpos));
  const int64_t id = slots_.Find(h, [&](uint32_t cand) {
    return reps_[cand].prev_gid == prev_gid &&
           bat::Equal(d, dpos, d, reps_[cand].dpos);
  });
  if (id >= 0) return static_cast<Oid>(id);
  reps_.push_back(Rep{prev_gid, static_cast<uint32_t>(dpos)});
  return slots_.Insert(h);
}

void RefineTable::Add(const bat::Column& d, const Oid* prev,
                      const uint32_t* dpos, size_t n, Oid* gids) {
  d.VisitValues([&](const auto& v) {
    for (size_t k = 0; k < n; ++k) {
      const Oid gid = Refine(prev[k], v, dpos[k]);
      if (gids != nullptr) gids[k] = gid;
    }
  });
}

void RefineTable::AddReps(const bat::Column& d, const std::vector<Rep>& reps,
                          std::vector<Oid>& gids) {
  gids.reserve(gids.size() + reps.size());
  d.VisitValues([&](const auto& v) {
    for (const Rep& rep : reps) gids.push_back(Refine(rep.prev_gid, v, rep.dpos));
  });
}

}  // namespace moaflat::kernel::internal
