// Differential tests for the datavector LOOKUP of Section 5.2.1.
//
// Datavector::FindPositions (O(1) positions on dense extents, the binary
// search's touches replayed through a ColdPageFilter) must reproduce a loop
// over the reference Datavector::FindPosition exactly: the same positions
// and the same accountant state — faults, sequential/random split, logical
// touches, resident pages, evictions and the shard fault log — over dense,
// void, gapped, single-element and empty extents, into cold and LRU
// accountants and through ForShard shards merged at 1 and 4 blocks. Page
// filters that saturate, and Column::TouchGather built on them, must equal
// touching every element. The
// datavector semijoin kernel must match a FindPosition-plus-gather
// reference (same BAT, same sync key, same faults) at degrees 1 and 4, and
// the LOOKUP memo must drop the entries of dead right operands.

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/datavector.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernel/exec_context.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "storage/page_accountant.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using bat::ColumnPtr;
using bat::Datavector;
using kernel::BinaryImplSig;
using kernel::ExecContext;
using kernel::ExecTracer;
using kernel::KernelRegistry;
using kernel::OpRecorder;
using storage::IoStats;

constexpr size_t kExtentRows = 20000;  // ~40 extent pages of 8-byte oids

struct ExtentCase {
  std::string name;
  ColumnPtr extent;
};

std::vector<ExtentCase> Extents() {
  std::vector<Oid> dense(kExtentRows);
  std::iota(dense.begin(), dense.end(), Oid{1000});
  Rng rng(5);
  std::vector<Oid> gapped(kExtentRows);
  Oid next = 300;
  for (Oid& o : gapped) {
    o = next;
    next += static_cast<Oid>(rng.Uniform(1, 4));
  }
  return {{"dense", Column::MakeOid(dense)},
          {"void", Column::MakeVoid(500, kExtentRows)},
          {"gapped", Column::MakeOid(gapped)},
          {"single", Column::MakeOid({42})},
          {"empty", Column::MakeOid({})}};
}

/// `m` probe oids for `extent`, shuffled: members, values in and around
/// the extent's range (gaps, below the base, past the end) and duplicates.
ColumnPtr Probes(const Column& extent, size_t m, uint64_t seed) {
  Rng rng(seed);
  const int64_t first = extent.size() == 0 ? 100 : extent.OidAt(0);
  const int64_t last =
      extent.size() == 0 ? 100 : extent.OidAt(extent.size() - 1);
  std::vector<Oid> p;
  p.reserve(m);
  while (p.size() < m) {
    const int64_t kind = rng.Uniform(0, 9);
    if (kind < 5 && extent.size() != 0) {
      p.push_back(extent.OidAt(rng.Uniform(0, extent.size() - 1)));
    } else if (kind < 7) {
      p.push_back(rng.Uniform(std::max<int64_t>(0, first - 64), last + 64));
    } else if (kind == 7) {
      p.push_back(rng.Uniform(0, std::max<int64_t>(0, first - 1)));
    } else if (kind == 8) {
      p.push_back(rng.Uniform(last + 1, last + 1000));
    } else if (!p.empty()) {
      p.push_back(p[rng.Uniform(0, p.size() - 1)]);  // duplicate
    }
  }
  for (size_t i = p.size(); i > 1; --i) {
    std::swap(p[i - 1], p[rng.Uniform(0, i - 1)]);
  }
  return Column::MakeOid(std::move(p));
}

std::vector<ColumnPtr> ProbeSets(const Column& extent) {
  const Oid first = extent.size() == 0 ? 0 : extent.OidAt(0);
  return {Probes(extent, 3 * kExtentRows, 11),  // saturates the filter
          Probes(extent, 40, 12),               // leaves pages unseen
          Column::MakeVoid(first + 3, kExtentRows)};
}

void ExpectSameIo(const IoStats& want, const IoStats& got,
                  const std::string& what, bool same_log_order = true) {
  EXPECT_EQ(want.faults(), got.faults()) << what;
  EXPECT_EQ(want.sequential_faults(), got.sequential_faults()) << what;
  EXPECT_EQ(want.random_faults(), got.random_faults()) << what;
  EXPECT_EQ(want.logical_touches(), got.logical_touches()) << what;
  EXPECT_EQ(want.resident_pages(), got.resident_pages()) << what;
  EXPECT_EQ(want.evictions(), got.evictions()) << what;
  if (same_log_order) {
    EXPECT_EQ(want.fault_log(), got.fault_log()) << what;
  }
}

/// The reference: one FindPosition per probe, reporting to `io`.
std::vector<uint32_t> ReferencePositions(const Datavector& dv,
                                         const Column& probe, size_t begin,
                                         size_t end, IoStats* io) {
  std::vector<uint32_t> out;
  for (size_t i = begin; i < end; ++i) {
    const int64_t pos = dv.FindPosition(probe.OidAt(i), io);
    if (pos >= 0) out.push_back(static_cast<uint32_t>(pos));
  }
  return out;
}

TEST(FindPositionsTest, MatchesFindPositionIntoColdAndLruAccountants) {
  for (const ExtentCase& ec : Extents()) {
    const Datavector dv(ec.extent, Column::MakeVoid(0, ec.extent->size()));
    for (const ColumnPtr& probe : ProbeSets(*ec.extent)) {
      const std::string what = ec.name + " / " +
                               std::to_string(probe->size()) + " probes";
      for (size_t capacity : {size_t{0}, size_t{3}, size_t{64}}) {
        IoStats want(capacity), got(capacity);
        const std::vector<uint32_t> expected =
            ReferencePositions(dv, *probe, 0, probe->size(), &want);
        std::vector<uint32_t> positions;
        dv.FindPositions(*probe, 0, probe->size(), &positions, &got);
        EXPECT_EQ(expected, positions) << what;
        ExpectSameIo(want, got,
                     what + " capacity " + std::to_string(capacity));
      }
      // No accountant: positions only.
      std::vector<uint32_t> quiet;
      dv.FindPositions(*probe, 0, probe->size(), &quiet, nullptr);
      IoStats ignored;
      EXPECT_EQ(ReferencePositions(dv, *probe, 0, probe->size(), &ignored),
                quiet)
          << what;
    }
  }
}

TEST(FindPositionsTest, ShardsMergeLikeFindPositionShards) {
  for (const ExtentCase& ec : Extents()) {
    const Datavector dv(ec.extent, Column::MakeVoid(0, ec.extent->size()));
    for (const ColumnPtr& probe : ProbeSets(*ec.extent)) {
      for (size_t blocks : {size_t{1}, size_t{4}}) {
        const std::string what = ec.name + " / " +
                                 std::to_string(probe->size()) +
                                 " probes / " + std::to_string(blocks) +
                                 " blocks";
        // Merge targets: a cold one pre-warmed by an unrelated touch and an
        // LRU pager that evicts mid-merge.
        IoStats want_cold, got_cold, want_lru(5), got_lru(5);
        for (IoStats* t : {&want_cold, &got_cold, &want_lru, &got_lru}) {
          t->TouchElement(ec.extent->heap_id(), 0, 8,
                          storage::Access::kSequential);
        }
        std::vector<uint32_t> expected, positions;
        const size_t n = probe->size();
        const size_t chunk = (n + blocks - 1) / blocks;
        for (size_t b = 0; b < blocks; ++b) {
          const size_t begin = std::min(n, b * chunk);
          const size_t end = std::min(n, begin + chunk);
          IoStats want = IoStats::ForShard();
          IoStats got = IoStats::ForShard();
          const std::vector<uint32_t> ref =
              ReferencePositions(dv, *probe, begin, end, &want);
          expected.insert(expected.end(), ref.begin(), ref.end());
          dv.FindPositions(*probe, begin, end, &positions, &got);
          ExpectSameIo(want, got, what + " shard " + std::to_string(b));
          want_cold.MergeFrom(want);
          got_cold.MergeFrom(got);
          want_lru.MergeFrom(want);
          got_lru.MergeFrom(got);
        }
        EXPECT_EQ(expected, positions) << what;
        ExpectSameIo(want_cold, got_cold, what + " merged cold");
        ExpectSameIo(want_lru, got_lru, what + " merged LRU");
      }
    }
  }
}

TEST(DenseExtentTest, DensityAndPathLengths) {
  EXPECT_NE(bat::DenseExtent::Of(*Column::MakeOid({7, 8, 9})), nullptr);
  EXPECT_EQ(bat::DenseExtent::Of(*Column::MakeOid({7, 9, 10})), nullptr);
  EXPECT_NE(bat::DenseExtent::Of(*Column::MakeOid({})), nullptr);
  auto v = bat::DenseExtent::Of(*Column::MakeVoid(3, 10));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->base, 3u);
  EXPECT_TRUE(v->path_len.empty());  // void extents report no touches

  // path_len[t] is the touch count of FindPosition's search for target t.
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{8},
                   size_t{1000}, size_t{4097}}) {
    std::vector<Oid> oids(n);
    std::iota(oids.begin(), oids.end(), Oid{50});
    const ColumnPtr extent = Column::MakeOid(oids);
    auto dense = bat::DenseExtent::Of(*extent);
    ASSERT_NE(dense, nullptr);
    ASSERT_EQ(dense->path_len.size(), n + 1);
    const Datavector dv(extent, extent);
    for (size_t t = 0; t <= n; ++t) {
      IoStats io;
      (void)dv.FindPosition(50 + t, &io);
      EXPECT_EQ(dense->path_len[t], io.logical_touches())
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(ColdPageFilterTest, InterleavedFiltersKeepFirstTouchOrder) {
  // Two heaps touched alternately, as the serial datavector insertion
  // loop does; the filtered shard must log the same faults in the same
  // order as touching every element.
  Rng rng(3);
  for (size_t capacity : {size_t{0}, size_t{4}}) {
    IoStats want = capacity == 0 ? IoStats::ForShard() : IoStats(capacity);
    IoStats got = capacity == 0 ? IoStats::ForShard() : IoStats(capacity);
    {
      storage::ColdPageFilter a(&got, 901, 8, 10000);
      storage::ColdPageFilter b(&got, 902, 4, 10000);
      for (int k = 0; k < 30000; ++k) {
        const uint64_t i = rng.Uniform(0, 9999);
        want.TouchElement(901, i, 8, storage::Access::kRandom);
        want.TouchElement(902, i, 4, storage::Access::kRandom);
        a.Touch(i);
        b.Touch(i);
      }
    }
    ExpectSameIo(want, got, "capacity " + std::to_string(capacity));
  }
}

TEST(ColdPageFilterTest, SaturatedFilterAddsRepeatsExactly) {
  // A loop that stops touching once every page has been forwarded
  // (saturated) and adds the remaining touches through AddRepeats must
  // leave the accountant as touching every element does: on a cold owner,
  // on a shard (fault log included) and under an LRU pager, for which the
  // filter forwards every touch and never saturates.
  Rng rng(17);
  std::vector<uint64_t> idx(20000);
  for (uint64_t& i : idx) i = rng.Uniform(0, 4999);  // 10 pages of 8 B
  for (const char* mode : {"cold", "shard", "lru"}) {
    const auto make = [&] {
      return mode[0] == 'c'   ? IoStats()
             : mode[0] == 's' ? IoStats::ForShard()
                              : IoStats(4);
    };
    IoStats want = make();
    IoStats got = make();
    for (uint64_t i : idx) {
      want.TouchElement(903, i, 8, storage::Access::kRandom);
    }
    size_t forwarded = 0;
    {
      storage::ColdPageFilter pages(&got, 903, 8, 5000);
      while (forwarded < idx.size() && !pages.saturated()) {
        pages.Touch(idx[forwarded++]);
      }
      if (forwarded < idx.size()) pages.AddRepeats(idx.size() - forwarded);
    }
    EXPECT_EQ(forwarded < idx.size(), mode[0] != 'l') << mode;
    ExpectSameIo(want, got, mode);
  }
}

TEST(ColdPageFilterTest, ColumnTouchGatherEqualsTouchAtLoop) {
  // Column::TouchGather filters its touches and stops reading indices once
  // the filter saturates. It must equal one TouchAt per index for every
  // element width and a storage-less void column, on seeded random index
  // sets that cover every page (saturating) and that cover half of them.
  constexpr size_t kRows = 200000;
  const std::vector<ColumnPtr> columns = {
      Column::MakeChr(std::vector<char>(kRows, 'x')),
      Column::MakeSht(std::vector<int16_t>(kRows)),
      Column::MakeInt(std::vector<int32_t>(kRows)),
      Column::MakeLng(std::vector<int64_t>(kRows)),
      Column::MakeVoid(0, kRows)};
  Rng rng(29);
  for (size_t span : {kRows, kRows / 2}) {
    std::vector<uint32_t> idx(100000);
    for (uint32_t& i : idx) {
      i = static_cast<uint32_t>(rng.Uniform(0, span - 1));
    }
    for (const ColumnPtr& col : columns) {
      for (size_t capacity : {size_t{0}, size_t{4}}) {
        for (bool shard : {false, true}) {
          if (capacity > 0 && shard) continue;
          const auto make = [&] {
            return shard ? IoStats::ForShard() : IoStats(capacity);
          };
          IoStats want = make();
          IoStats got = make();
          for (uint32_t i : idx) col->TouchAt(&want, i);
          col->TouchGather(&got, idx.data(), idx.size());
          ExpectSameIo(want, got,
                       "width " + std::to_string(col->width()) + " span " +
                           std::to_string(span) + " capacity " +
                           std::to_string(capacity) +
                           (shard ? " shard" : ""));
        }
      }
    }
  }
}

// ------------------------------------------------------------ the kernel

/// Forces multi-block plans on machines with fewer cores than the degree.
struct ForceFanout {
  ForceFanout() { SetParallelBlockCap(kMaxParallelDegree); }
  ~ForceFanout() { SetParallelBlockCap(0); }
};

constexpr size_t kClassRows = 100000;

struct ClassFixture {
  ColumnPtr extent;
  std::shared_ptr<bat::DvLookupCache> cache =
      std::make_shared<bat::DvLookupCache>();

  /// An attribute BAT like the TPC-D loader builds: tail-sorted, with the
  /// class datavector attached.
  Bat Attribute(ColumnPtr values) const {
    Bat oid_ordered(extent, values,
                    bat::Properties{true, false, true, false});
    Bat sorted = kernel::SortTail(ExecContext(), oid_ordered).ValueOrDie();
    sorted.SetDatavector(
        std::make_shared<Datavector>(extent, std::move(values), cache));
    return sorted;
  }
};

ColumnPtr IntValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> v(n);
  for (int32_t& x : v) x = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
  return Column::MakeInt(std::move(v));
}

Result<Bat> RunDatavectorVariant(const ExecContext& ctx, const Bat& ab,
                                 const Bat& cd) {
  for (const auto& v : *KernelRegistry::Global().VariantsOf("semijoin")) {
    if (v.name != "datavector_semijoin") continue;
    const auto& fn = std::any_cast<const std::function<BinaryImplSig>&>(v.exec);
    OpRecorder rec(ctx, "semijoin");
    return fn(ctx, ab, cd, rec);
  }
  return Status::KeyError("datavector_semijoin is not registered");
}

/// The reference semijoin: FindPosition per right head, then a plain
/// positional gather, touching exactly what the Section 5.2.1 pseudo-code
/// touches. Like the kernel's probe phase, the probes report through a
/// shard merged into `io`; `cached` models a memoized LOOKUP, whose
/// semijoin reports the gather alone.
Bat ReferenceSemijoin(const Datavector& dv, const Bat& cd, IoStats* io,
                      bool cached) {
  const Column& extent = *dv.extent();
  const Column& values = *dv.values();
  std::vector<uint32_t> pos;
  if (!cached) cd.head().TouchAll(io);
  IoStats shard = IoStats::ForShard();
  for (size_t i = 0; i < cd.size(); ++i) {
    const int64_t p = dv.FindPosition(cd.head().OidAt(i), &shard);
    if (p >= 0) pos.push_back(static_cast<uint32_t>(p));
  }
  if (!cached) io->MergeFrom(shard);
  std::vector<Oid> heads;
  std::vector<int32_t> tails;
  for (uint32_t p : pos) {
    extent.TouchAt(io, p);
    values.TouchAt(io, p);
    heads.push_back(extent.OidAt(p));
    tails.push_back(values.Data<int32_t>()[p]);
  }
  ColumnPtr head = Column::MakeOid(std::move(heads));
  using kernel::internal::MixSync;
  kernel::internal::SetSync(
      head, MixSync(MixSync(extent.sync_key(), cd.head().sync_key()),
                    kernel::internal::HashString("dv_semijoin")));
  bat::Properties props;
  props.hsorted = std::is_sorted(pos.begin(), pos.end());
  props.hkey = cd.props().hkey;
  return Bat(head, Column::MakeInt(std::move(tails)), props);
}

void ExpectSameBat(const Bat& want, const Bat& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(want.head().sync_key(), got.head().sync_key()) << what;
  EXPECT_EQ(want.props().hsorted, got.props().hsorted) << what;
  EXPECT_EQ(want.props().hkey, got.props().hkey) << what;
  EXPECT_EQ(want.props().tsorted, got.props().tsorted) << what;
  EXPECT_EQ(want.props().tkey, got.props().tkey) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.head().OidAt(i), got.head().OidAt(i)) << what << " @" << i;
    ASSERT_EQ(want.tail().Data<int32_t>()[i], got.tail().Data<int32_t>()[i])
        << what << " @" << i;
  }
}

TEST(DatavectorSemijoinTest, KernelMatchesFindPositionReference) {
  ForceFanout fanout;
  std::vector<Oid> oids(kClassRows);
  std::iota(oids.begin(), oids.end(), Oid{1} << 20);
  std::vector<Oid> gapped(kClassRows);
  for (size_t i = 0; i < kClassRows; ++i) gapped[i] = 7 + 3 * i;

  for (const ColumnPtr& extent :
       {Column::MakeOid(oids), Column::MakeOid(gapped)}) {
    for (int degree : {1, 4}) {
      for (size_t capacity : {size_t{0}, size_t{16}}) {
        const std::string what =
            std::string(extent->OidAt(1) - extent->OidAt(0) == 1 ? "dense"
                                                                 : "gapped") +
            " degree " + std::to_string(degree) + " capacity " +
            std::to_string(capacity);
        ClassFixture cls{extent};
        Bat a1 = cls.Attribute(IntValues(kClassRows, 1));
        Bat a2 = cls.Attribute(IntValues(kClassRows, 2));
        // ~60K right heads: hits, misses and duplicates, shuffled.
        ColumnPtr probe = Probes(*extent, 60000, 9);
        Bat cd(probe, Column::MakeVoid(0, probe->size()));

        IoStats want = capacity == 0 ? IoStats::ForShard() : IoStats(capacity);
        IoStats got = capacity == 0 ? IoStats::ForShard() : IoStats(capacity);
        ExecTracer tracer;
        ExecContext ctx;
        ctx.WithIo(&got).WithTracer(&tracer).WithParallelDegree(degree);

        // Uncached: the probe phase plus the insertion phase.
        Bat ref1 = ReferenceSemijoin(*a1.datavector(), cd, &want, false);
        Bat out1 = RunDatavectorVariant(ctx, a1, cd).ValueOrDie();
        EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin") << what;
        ExpectSameBat(ref1, out1, what + " uncached");
        // Parallel insertion shards touch a block's extent positions
        // before its vector positions, so the fault *log* follows the
        // serial order only at degree 1; and they replay only first-touch
        // faults into an LRU pager, whose re-faults are exact only serially.
        if (degree == 1 || capacity == 0) {
          ExpectSameIo(want, got, what + " uncached", degree == 1);
        }

        // Cached: the second attribute of the class reuses the LOOKUP.
        IoStats want2 = IoStats::ForShard(), got2 = IoStats::ForShard();
        ctx.WithIo(&got2);
        Bat ref2 = ReferenceSemijoin(*a2.datavector(), cd, &want2, true);
        Bat out2 = RunDatavectorVariant(ctx, a2, cd).ValueOrDie();
        EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin(cached)")
            << what;
        ExpectSameBat(ref2, out2, what + " cached");
        ExpectSameIo(want2, got2, what + " cached", degree == 1);
        EXPECT_TRUE(out1.SyncedWith(out2)) << what;
      }
    }
  }
}

TEST(DatavectorSemijoinTest, DispatchPicksDatavectorForSmallSelections) {
  std::vector<Oid> oids(kClassRows);
  std::iota(oids.begin(), oids.end(), Oid{1});
  ClassFixture cls{Column::MakeOid(oids)};
  Bat attr = cls.Attribute(IntValues(kClassRows, 4));
  ColumnPtr probe = Probes(*cls.extent, 200, 13);
  Bat cd(probe, Column::MakeVoid(0, probe->size()));
  IoStats want, got;
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithIo(&got).WithTracer(&tracer).WithParallelDegree(1);
  Bat out = kernel::Semijoin(ctx, attr, cd).ValueOrDie();
  EXPECT_EQ(tracer.LastImplOf("semijoin"), "datavector_semijoin");
  ExpectSameBat(ReferenceSemijoin(*attr.datavector(), cd, &want, false), out,
                "dispatched");
  EXPECT_EQ(want.faults(), got.faults());
  EXPECT_EQ(want.logical_touches(), got.logical_touches());
}

// ------------------------------------------------------------ LOOKUP memo

TEST(DvLookupCacheTest, DeadRightOperandsAreDropped) {
  std::vector<Oid> oids(kClassRows);
  std::iota(oids.begin(), oids.end(), Oid{1});
  ClassFixture cls{Column::MakeOid(oids)};
  Bat a1 = cls.Attribute(IntValues(kClassRows, 1));
  Bat a2 = cls.Attribute(IntValues(kClassRows, 2));
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithTracer(&tracer);

  Bat live(Probes(*cls.extent, 500, 21), Column::MakeVoid(0, 500));
  ASSERT_TRUE(RunDatavectorVariant(ctx, a1, live).ok());
  for (int round = 0; round < 40; ++round) {
    Bat dead(Probes(*cls.extent, 500, 100 + round), Column::MakeVoid(0, 500));
    ASSERT_TRUE(RunDatavectorVariant(ctx, a1, dead).ok());
    // Within its lifetime the memo serves every attribute of the class.
    ASSERT_TRUE(RunDatavectorVariant(ctx, a2, dead).ok());
    EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin(cached)");
  }
  Bat live2(Probes(*cls.extent, 500, 22), Column::MakeVoid(0, 500));
  ASSERT_TRUE(RunDatavectorVariant(ctx, a1, live2).ok());
  // 41 right operands were memoized; only the two live ones remain.
  EXPECT_EQ(cls.cache->size(), 2u);

  // The survivors still hit, with the faults of a cached semijoin.
  IoStats want = IoStats::ForShard(), got = IoStats::ForShard();
  ctx.WithIo(&got);
  Bat ref = ReferenceSemijoin(*a2.datavector(), live, &want, true);
  Bat out = RunDatavectorVariant(ctx, a2, live).ValueOrDie();
  EXPECT_EQ(tracer.records.back().impl, "datavector_semijoin(cached)");
  ExpectSameBat(ref, out, "live after purge");
  ExpectSameIo(want, got, "live after purge");
}

}  // namespace
}  // namespace moaflat
