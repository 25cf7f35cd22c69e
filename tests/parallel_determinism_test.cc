// Determinism of the morsel-parallel kernels: for every kernel whose
// evaluation phase runs on the TaskPool, the result at degree 8 must be
// *element-identical* (bitwise, including doubles) to the result at
// degree 1 on TPC-D-shaped inputs, and the per-context IoStats merged from
// the block shards must match the serial run exactly (faults, the
// sequential/random split, and logical touches). Each run builds fresh
// operand instances so cached accelerators cannot cross-subsidize runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"
#include "tpcd/loader.h"
#include "tpcd/queries.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using kernel::ExecContext;
using kernel::ExecTracer;

constexpr size_t kRows = 200000;  // >= 8 blocks at the 16K morsel floor

/// Lineitem-shaped attribute BATs (SF-agnostic): dense oid heads, an
/// unsorted int "quantity", a dbl "extendedprice" with varying magnitudes
/// (so merging floating partial sums out of order would be detectable),
/// and an oid "suppkey" grouping column with ~1000 groups.
std::vector<Oid> DenseHeads(size_t n) {
  std::vector<Oid> h(n);
  std::iota(h.begin(), h.end(), Oid{1});
  return h;
}

Bat QuantityBat(size_t n) {
  Rng rng(7);
  std::vector<int32_t> q(n);
  for (auto& v : q) v = static_cast<int32_t>(rng.Uniform(1, 50));
  return Bat(Column::MakeOid(DenseHeads(n)), Column::MakeInt(q),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

Bat PriceBat(size_t n) {
  Rng rng(11);
  std::vector<double> p(n);
  for (size_t i = 0; i < n; ++i) {
    // Mixed magnitudes: summing these in a different order rounds
    // differently, which is exactly what the test must catch.
    p[i] = rng.NextDouble() * (i % 97 == 0 ? 1e9 : 1e-3);
  }
  return Bat(Column::MakeOid(DenseHeads(n)), Column::MakeDbl(p),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

Bat SuppkeyBat(size_t n, bool head_sorted_runs) {
  Rng rng(13);
  std::vector<Oid> groups(n);
  if (head_sorted_runs) {
    // Contiguous ascending runs of uneven length (run-aggregate shape).
    Oid g = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.005)) ++g;
      groups[i] = g;
    }
  } else {
    for (auto& v : groups) v = static_cast<Oid>(rng.Uniform(0, 999));
  }
  return Bat(Column::MakeOid(std::move(groups)),
             Column::MakeOid(DenseHeads(n)));
}

void ExpectSameBat(const Bat& serial, const Bat& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.head().GetValue(i), parallel.head().GetValue(i))
        << "head mismatch at " << i;
    ASSERT_EQ(serial.tail().GetValue(i), parallel.tail().GetValue(i))
        << "tail mismatch at " << i;
  }
}

struct Measured {
  Bat result;
  std::string impl;
  uint64_t faults, seq, rnd, touches;
};

/// Runs `body(ctx)` under a fresh context at `degree` with fresh IoStats
/// and tracer; `body` must construct its own operands.
template <typename Body>
Measured RunAt(int degree, const char* op, Body&& body) {
  storage::IoStats io;
  ExecTracer tracer;
  ExecContext ctx;
  ctx.WithIo(&io).WithTracer(&tracer).WithParallelDegree(degree);
  Bat out = body(ctx);
  return Measured{out, tracer.LastImplOf(op), io.faults(),
                  io.sequential_faults(), io.random_faults(),
                  io.logical_touches()};
}

/// The hardware block cap would fold a degree-8 plan down to the machine's
/// core count (a single block on 1-core CI), silently skipping the
/// shard-merge paths this suite exists to test; force full fan-out (or a
/// fixed `cap`, making plans machine-independent) for the duration of a
/// run.
struct ForceFanout {
  explicit ForceFanout(int cap = kMaxParallelDegree) {
    SetParallelBlockCap(cap);
  }
  ~ForceFanout() { SetParallelBlockCap(0); }
};

template <typename Body>
void ExpectDegreeInvariant(const char* op, const char* want_impl,
                           Body&& body) {
  ForceFanout fanout;
  Measured serial = RunAt(1, op, body);
  const uint64_t jobs_before = TaskPool::Global().jobs_run();
  Measured parallel = RunAt(8, op, body);
  EXPECT_EQ(serial.impl, want_impl);
  EXPECT_EQ(parallel.impl, want_impl);
  // The parallel run must actually have gone through the TaskPool.
  EXPECT_GT(TaskPool::Global().jobs_run(), jobs_before) << want_impl;
  ExpectSameBat(serial.result, parallel.result);
  EXPECT_EQ(serial.faults, parallel.faults) << want_impl;
  EXPECT_EQ(serial.seq, parallel.seq) << want_impl;
  EXPECT_EQ(serial.rnd, parallel.rnd) << want_impl;
  EXPECT_EQ(serial.touches, parallel.touches) << want_impl;
}

TEST(ParallelDeterminismTest, ScanSelect) {
  ExpectDegreeInvariant("select", "scan_select", [](const ExecContext& ctx) {
    Bat quantity = QuantityBat(kRows);
    return kernel::SelectRange(ctx, quantity, Value::Int(10), Value::Int(24))
        .ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HashJoin) {
  ExpectDegreeInvariant("join", "hash_join", [](const ExecContext& ctx) {
    // fk -> key table with duplicates on both sides (a modest fan-out);
    // neither side is sorted the way the merge variant needs, so the
    // hash probe runs.
    Rng rng(17);
    std::vector<int32_t> fk_vals(kRows);
    for (auto& v : fk_vals) v = static_cast<int32_t>(rng.Uniform(1, 20000));
    Bat fk(Column::MakeOid(DenseHeads(kRows)), Column::MakeInt(fk_vals));
    std::vector<int32_t> keys(2000);
    for (auto& v : keys) v = static_cast<int32_t>(rng.Uniform(1, 20000));
    std::vector<double> payload(keys.size());
    for (auto& v : payload) v = rng.NextDouble() * 1e4;
    Bat pk(Column::MakeInt(keys), Column::MakeDbl(payload));
    return kernel::Join(ctx, fk, pk).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HashSemijoin) {
  ExpectDegreeInvariant(
      "semijoin", "hash_semijoin", [](const ExecContext& ctx) {
        Rng rng(19);
        std::vector<Oid> heads(kRows);
        for (auto& v : heads) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat ab(Column::MakeOid(heads), PriceBat(kRows).tail_col());
        std::vector<Oid> keep(30000);
        for (auto& v : keep) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat cd(Column::MakeOid(keep), Column::MakeVoid(0, keep.size()));
        return kernel::Semijoin(ctx, ab, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashGroup) {
  ExpectDegreeInvariant("group", "hash_group", [](const ExecContext& ctx) {
    Bat quantity = QuantityBat(kRows);
    return kernel::Group(ctx, quantity).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, SyncGroupRefine) {
  ExpectDegreeInvariant(
      "group", "sync_group_refine", [](const ExecContext& ctx) {
        Bat quantity = QuantityBat(kRows);
        Bat grouped = kernel::Group(ctx, quantity).ValueOrDie();
        Rng rng(23);
        std::vector<int32_t> flags(kRows);
        for (auto& v : flags) v = static_cast<int32_t>(rng.Uniform(0, 2));
        // Shares the head column object -> provably synced.
        Bat cd(quantity.head_col(), Column::MakeInt(flags));
        return kernel::GroupRefine(ctx, grouped, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashGroupRefine) {
  ExpectDegreeInvariant(
      "group", "hash_group_refine", [](const ExecContext& ctx) {
        Bat quantity = QuantityBat(kRows);
        Bat grouped = kernel::Group(ctx, quantity).ValueOrDie();
        Rng rng(29);
        // A fresh head column with the same values in reversed order: the
        // sync proof fails, so refinement must align via the head hash.
        std::vector<Oid> rheads(kRows);
        for (size_t i = 0; i < kRows; ++i) rheads[i] = kRows - i;
        std::vector<int32_t> flags(kRows);
        for (auto& v : flags) v = static_cast<int32_t>(rng.Uniform(0, 2));
        Bat cd(Column::MakeOid(rheads), Column::MakeInt(flags));
        return kernel::GroupRefine(ctx, grouped, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, SyncedNumericMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_synced", [](const ExecContext& ctx) {
        Bat price = PriceBat(kRows);
        Bat factor(price.head_col(), QuantityBat(kRows).tail_col());
        return kernel::Multiplex(ctx, *kernel::FindScalarFn("*"),
                                 {price, factor})
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, SyncedBoxedMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_synced", [](const ExecContext& ctx) {
        // Three synced args, a bit condition and dbl branches: the typed
        // ifthen of the synced variant (its result type round-trips
        // through double).
        Bat price = PriceBat(kRows);
        Rng rng(37);
        std::vector<uint8_t> cond(kRows);
        for (auto& v : cond) v = rng.Chance(0.5) ? 1 : 0;
        Bat flags(price.head_col(), Column::MakeBit(cond));
        return kernel::Multiplex(ctx, *kernel::FindScalarFn("ifthen"),
                                 {flags, price, Value::Dbl(0.0)})
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, BandThetaJoinAllOrderedOps) {
  // The band variant serves <, <=, >, >= (kEq delegates to the equi-join
  // family, covered by HashJoin above). 60K left rows split into >= 3
  // blocks; 16 distinct right values keep the ~n*m/2 output bounded.
  struct Case {
    kernel::CmpOp op;
    const char* name;
  };
  for (const Case c : {Case{kernel::CmpOp::kLt, "kLt"},
                       Case{kernel::CmpOp::kLe, "kLe"},
                       Case{kernel::CmpOp::kGt, "kGt"},
                       Case{kernel::CmpOp::kGe, "kGe"}}) {
    SCOPED_TRACE(c.name);
    ExpectDegreeInvariant(
        "thetajoin", "sort_band_thetajoin", [&](const ExecContext& ctx) {
          constexpr size_t kLeft = 60000;
          Rng rng(43);
          std::vector<int32_t> lt(kLeft);
          for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 1000));
          Bat left(Column::MakeOid(DenseHeads(kLeft)), Column::MakeInt(lt));
          std::vector<int32_t> rh(16);
          for (auto& v : rh) v = static_cast<int32_t>(rng.Uniform(0, 1000));
          Bat right(Column::MakeInt(rh), Column::MakeOid(DenseHeads(16)));
          return kernel::ThetaJoin(ctx, left, right, c.op).ValueOrDie();
        });
  }
}

TEST(ParallelDeterminismTest, EqThetaJoinDelegatesToParallelEquiJoin) {
  // The sixth CmpOp: '=' routes to the equi-join family, whose hash probe
  // is morsel-parallel — the delegation must stay degree-invariant too.
  ExpectDegreeInvariant("join", "hash_join", [](const ExecContext& ctx) {
    Rng rng(71);
    std::vector<int32_t> lt(kRows);
    for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 20000));
    Bat left(Column::MakeOid(DenseHeads(kRows)), Column::MakeInt(lt));
    std::vector<int32_t> rh(2000);
    for (auto& v : rh) v = static_cast<int32_t>(rng.Uniform(0, 20000));
    Bat right(Column::MakeInt(rh), Column::MakeOid(DenseHeads(2000)));
    return kernel::ThetaJoin(ctx, left, right, kernel::CmpOp::kEq)
        .ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, NestedThetaJoinNotEqual) {
  // '!=' is the only comparison the band shape cannot serve: the nested
  // variant must run, morsel-parallel over the left side.
  ExpectDegreeInvariant(
      "thetajoin", "nested_thetajoin", [](const ExecContext& ctx) {
        constexpr size_t kLeft = 40000;
        Rng rng(47);
        std::vector<int32_t> lt(kLeft);
        for (auto& v : lt) v = static_cast<int32_t>(rng.Uniform(0, 8));
        Bat left(Column::MakeOid(DenseHeads(kLeft)), Column::MakeInt(lt));
        Bat right(Column::MakeInt({0, 1, 2, 3, 4, 5, 6, 7}),
                  Column::MakeOid(DenseHeads(8)));
        return kernel::ThetaJoin(ctx, left, right, kernel::CmpOp::kNe)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, KdiffAntiProbe) {
  ExpectDegreeInvariant(
      "kdiff", "hash_antisemijoin", [](const ExecContext& ctx) {
        Rng rng(59);
        std::vector<Oid> heads(kRows);
        for (auto& v : heads) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat ab(Column::MakeOid(heads), PriceBat(kRows).tail_col());
        std::vector<Oid> drop(30000);
        for (auto& v : drop) v = static_cast<Oid>(rng.Uniform(0, 99999));
        Bat cd(Column::MakeOid(drop), Column::MakeVoid(0, drop.size()));
        return kernel::Diff(ctx, ab, cd).ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, KunionAntiProbe) {
  ExpectDegreeInvariant("kunion", "hash_union", [](const ExecContext& ctx) {
    Rng rng(61);
    std::vector<Oid> lh(kRows / 2), rh(kRows);
    for (auto& v : lh) v = static_cast<Oid>(rng.Uniform(0, 99999));
    for (auto& v : rh) v = static_cast<Oid>(rng.Uniform(0, 99999));
    Bat ab(Column::MakeOid(lh), PriceBat(kRows / 2).tail_col());
    Bat cd(Column::MakeOid(rh), PriceBat(kRows).tail_col());
    return kernel::Union(ctx, ab, cd).ValueOrDie();
  });
}

TEST(ParallelDeterminismTest, HeadJoinMultiplex) {
  ExpectDegreeInvariant(
      "multiplex", "multiplex_headjoin", [](const ExecContext& ctx) {
        // The second operand carries its own head column (no sync proof),
        // with only ~half the driver's head values present: alignment must
        // go through the hash accelerators and drop the misses.
        Rng rng(67);
        Bat driver(Column::MakeOid(DenseHeads(kRows)),
                   PriceBat(kRows).tail_col());
        std::vector<Oid> rheads(kRows);
        for (auto& v : rheads) {
          v = static_cast<Oid>(rng.Uniform(1, 2 * kRows));
        }
        std::vector<double> rvals(kRows);
        for (auto& v : rvals) v = rng.NextDouble() * 1e3;
        Bat other(Column::MakeOid(rheads), Column::MakeDbl(rvals));
        return kernel::Multiplex(ctx, *kernel::FindScalarFn("+"),
                                 {driver, other})
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, RunSetAggregateBitIdenticalSums) {
  ExpectDegreeInvariant(
      "set_aggregate", "run_set_aggregate", [](const ExecContext& ctx) {
        Bat groups = SuppkeyBat(kRows, /*head_sorted_runs=*/true);
        Bat grouped = Bat(groups.head_col(), PriceBat(kRows).tail_col(),
                          bat::Properties{false, false, true, false});
        return kernel::SetAggregate(ctx, kernel::AggKind::kSum, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, HashSetAggregateBitIdenticalAvgs) {
  ExpectDegreeInvariant(
      "set_aggregate", "hash_set_aggregate", [](const ExecContext& ctx) {
        Bat groups = SuppkeyBat(kRows, /*head_sorted_runs=*/false);
        Bat grouped = Bat(groups.head_col(), PriceBat(kRows).tail_col());
        return kernel::SetAggregate(ctx, kernel::AggKind::kAvg, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, MinMaxKeepTheSerialTieBreak) {
  // Min/max keep the *first* best position; block merges must preserve
  // that, and the tail has many exact ties to prove it.
  ExpectDegreeInvariant(
      "set_aggregate", "hash_set_aggregate", [](const ExecContext& ctx) {
        Rng rng(31);
        std::vector<Oid> g(kRows);
        std::vector<int32_t> v(kRows);
        for (size_t i = 0; i < kRows; ++i) {
          g[i] = static_cast<Oid>(rng.Uniform(0, 49));
          v[i] = static_cast<int32_t>(rng.Uniform(0, 4));  // heavy ties
        }
        Bat grouped(Column::MakeOid(g), Column::MakeInt(v));
        return kernel::SetAggregate(ctx, kernel::AggKind::kMin, grouped)
            .ValueOrDie();
      });
}

TEST(ParallelDeterminismTest, TailReorderCannotForgeASyncProof) {
  // Regression (found when degree-aware dispatch switched TPC-D Q4's
  // semijoins from the datavector to the hash variant): two attributes
  // sharing one class head column are tail-reordered differently at load,
  // so their sorted BATs must NOT prove synced — a forged proof made the
  // later multiplex compare misaligned rows positionally.
  ExecContext ctx;
  auto heads = Column::MakeOid(DenseHeads(1000));
  Rng rng(41);
  std::vector<int32_t> t1(1000), t2(1000);
  for (size_t i = 0; i < 1000; ++i) {
    t1[i] = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
    t2[i] = static_cast<int32_t>(rng.Uniform(0, 1 << 20));
  }
  Bat attr1(heads, Column::MakeInt(t1));
  Bat attr2(heads, Column::MakeInt(t2));
  Bat sorted1 = kernel::SortTail(ctx, attr1).ValueOrDie();
  Bat sorted2 = kernel::SortTail(ctx, attr2).ValueOrDie();
  EXPECT_FALSE(sorted1.SyncedWith(sorted2));
  // Re-sorting the *same* BAT still yields a provable correspondence.
  Bat again = kernel::SortTail(ctx, attr1).ValueOrDie();
  EXPECT_TRUE(sorted1.SyncedWith(again));
}

TEST(ParallelDeterminismTest, ContextDegreeOverridesProcessDegree) {
  // A context pinned to degree 1 stays serial even when the process-wide
  // degree says otherwise, and vice versa — the per-context knob is what
  // lets a latency-sensitive session coexist with a fan-out query.
  ForceFanout force_fanout;
  SetParallelDegree(8);
  ExecContext pinned;
  pinned.WithParallelDegree(1);
  EXPECT_EQ(pinned.parallel_degree(), 1);
  const uint64_t jobs_before = TaskPool::Global().jobs_run();
  Bat q = QuantityBat(kRows);
  ASSERT_TRUE(
      kernel::SelectRange(pinned, q, Value::Int(10), Value::Int(20)).ok());
  EXPECT_EQ(TaskPool::Global().jobs_run(), jobs_before);

  SetParallelDegree(1);
  ExecContext fanout;
  fanout.WithParallelDegree(8);
  EXPECT_EQ(fanout.parallel_degree(), 8);
  ASSERT_TRUE(
      kernel::SelectRange(fanout, q, Value::Int(10), Value::Int(20)).ok());
  EXPECT_GT(TaskPool::Global().jobs_run(), jobs_before);
  SetParallelDegree(0);
}

// ------------------------------------------------- whole-query IO ledger

/// One run of one TPC-D query (SF 0.01, default seed) in the IO ledger:
/// faults, their sequential/random split, logical touches, and the
/// Monet implementation sequence as its length plus an FNV-1a hash over
/// the space-terminated implementation names (the row store records no
/// implementations).
struct LedgerRow {
  int q;
  char engine;  // 'm' = Monet, 'r' = row store
  int degree;
  uint64_t faults, seq, rnd, touches;
  size_t ops;
  uint64_t impl_hash;
};

/// Monet runs at degrees 1 and 4 (block cap 4), the row store at degree 1.
/// The committed fault baseline gates faults only; this table also pins
/// every touch, so a dropped touch of an already-resident page shows here.
/// Re-record an entry only for an intended change of a query's access
/// pattern.
constexpr LedgerRow kLedger[] = {
    {1, 'm', 1, 5035, 3184, 1851, 3443719, 41, 0x9d334451ee9d950dULL},
    {1, 'm', 4, 5035, 3184, 1851, 3443719, 41, 0x9d334451ee9d950dULL},
    {1, 'r', 1, 1331, 111, 1220, 60519, 0, 0xcbf29ce484222325ULL},
    {2, 'm', 1, 102, 36, 66, 27535, 13, 0x7bd83bce81145398ULL},
    {2, 'm', 4, 102, 36, 66, 27535, 13, 0x7bd83bce81145398ULL},
    {2, 'r', 1, 99, 99, 0, 9848, 0, 0xcbf29ce484222325ULL},
    {3, 'm', 1, 983, 251, 732, 458521, 23, 0x33327f407eb90589ULL},
    {3, 'm', 4, 966, 324, 642, 122537, 23, 0x9326e4e0f2fc64e1ULL},
    {3, 'r', 1, 1495, 91, 1404, 40719, 0, 0xcbf29ce484222325ULL},
    {4, 'm', 1, 683, 150, 533, 101240, 12, 0xfadd64f4b1d06aa9ULL},
    {4, 'm', 4, 573, 380, 193, 29189, 12, 0x08344b7c6581e13fULL},
    {4, 'r', 1, 1394, 1212, 182, 78535, 0, 0xcbf29ce484222325ULL},
    {5, 'm', 1, 1033, 276, 757, 323007, 22, 0x7e043c07ee1f99c3ULL},
    {5, 'm', 4, 992, 374, 618, 148996, 22, 0xa578ff732c3182d2ULL},
    {5, 'r', 1, 1421, 1235, 186, 2486, 0, 0xcbf29ce484222325ULL},
    {6, 'm', 1, 869, 331, 538, 1121538, 13, 0x221f7df3eca93736ULL},
    {6, 'm', 4, 1115, 647, 468, 794557, 13, 0xa9623b3993ac2c74ULL},
    {6, 'r', 1, 1146, 14, 1132, 9745, 0, 0xcbf29ce484222325ULL},
    {7, 'm', 1, 1071, 309, 762, 580250, 27, 0xedb3fab526ecf7feULL},
    {7, 'm', 4, 1239, 535, 704, 227424, 27, 0xaaea18529ba8940dULL},
    {7, 'r', 1, 1449, 235, 1214, 19728, 0, 0xcbf29ce484222325ULL},
    {8, 'm', 1, 565, 148, 417, 10452, 30, 0x1404f52e1f57d79fULL},
    {8, 'm', 4, 565, 148, 417, 10452, 30, 0x1404f52e1f57d79fULL},
    {8, 'r', 1, 1438, 1438, 0, 34, 0, 0xcbf29ce484222325ULL},
    {9, 'm', 1, 1473, 372, 1101, 292199, 31, 0x00bcd9ec9f57582fULL},
    {9, 'm', 4, 1865, 1019, 846, 204428, 31, 0x49e8b79128608368ULL},
    {9, 'r', 1, 1489, 1489, 0, 5, 0, 0xcbf29ce484222325ULL},
    {10, 'm', 1, 855, 184, 671, 527167, 23, 0xf18fe7680ac44173ULL},
    {10, 'm', 4, 1048, 489, 559, 116028, 23, 0x3d4d6999d502ba30ULL},
    {10, 'r', 1, 1392, 1392, 0, 2, 0, 0xcbf29ce484222325ULL},
    {11, 'm', 1, 59, 26, 33, 8299, 12, 0xa7033b1e9cf08af4ULL},
    {11, 'm', 4, 59, 26, 33, 8299, 12, 0xa7033b1e9cf08af4ULL},
    {11, 'r', 1, 74, 74, 0, 3, 0, 0xcbf29ce484222325ULL},
    {12, 'm', 1, 755, 170, 585, 389956, 27, 0xa8dd1193bcc8fb9aULL},
    {12, 'm', 4, 940, 477, 463, 51288, 27, 0xaec3ae6c5bc82a22ULL},
    {12, 'r', 1, 1392, 1392, 0, 2, 0, 0xcbf29ce484222325ULL},
    {13, 'm', 1, 858, 191, 667, 174330, 19, 0xa8e3664eb02b5d28ULL},
    {13, 'm', 4, 954, 529, 425, 37364, 19, 0x83e6938137c43422ULL},
    {13, 'r', 1, 1402, 1213, 189, 1582, 0, 0xcbf29ce484222325ULL},
    {14, 'm', 1, 501, 20, 481, 18917, 11, 0xce3da08aeea2cd4bULL},
    {14, 'm', 4, 501, 20, 481, 18917, 11, 0xce3da08aeea2cd4bULL},
    {14, 'r', 1, 482, 24, 458, 856, 0, 0xcbf29ce484222325ULL},
    {15, 'm', 1, 523, 38, 485, 51226, 10, 0x5a79802f3aa7e690ULL},
    {15, 'm', 4, 775, 395, 380, 16392, 10, 0x591212152ce72916ULL},
    {15, 'r', 1, 719, 3, 716, 2368, 0, 0xcbf29ce484222325ULL},
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The row as it is spelled in kLedger, so a mismatch prints the entry.
std::string LedgerString(const LedgerRow& r) {
  using ull = unsigned long long;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{%d, '%c', %d, %llu, %llu, %llu, %llu, %zu, 0x%016llxULL}",
                r.q, r.engine, r.degree, static_cast<ull>(r.faults),
                static_cast<ull>(r.seq), static_cast<ull>(r.rnd),
                static_cast<ull>(r.touches), r.ops,
                static_cast<ull>(r.impl_hash));
  return buf;
}

TEST(ParallelDeterminismTest, WholeQueryIoLedgerIsPinned) {
  ForceFanout cap(4);
  auto inst = tpcd::MakeInstance(0.01).ValueOrDie();
  tpcd::QuerySuite suite(inst);
  for (const LedgerRow& want : kLedger) {
    storage::IoStats io;
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithIo(&io).WithTracer(&tracer).WithParallelDegree(want.degree);
    auto run = want.engine == 'm' ? suite.RunMonet(want.q, ctx)
                                  : suite.RunBaseline(want.q, ctx);
    ASSERT_TRUE(run.ok()) << "Q" << want.q << ": "
                          << run.status().ToString();
    std::string impls;
    for (const kernel::TraceRecord& r : tracer.records) impls += r.impl + " ";
    const LedgerRow got{want.q, want.engine, want.degree,
                        io.faults(), io.sequential_faults(),
                        io.random_faults(), io.logical_touches(),
                        tracer.records.size(), Fnv1a(impls)};
    EXPECT_EQ(LedgerString(got), LedgerString(want)) << impls;
  }
}

/// One Monet run of one TPC-D query (SF 0.01, default seed) under a
/// 256-page LRU pager: the ledger row plus the evictions, the only
/// measure the cold ledger cannot show.
struct LruLedgerRow {
  int q;
  int degree;
  uint64_t faults, seq, rnd, touches, evictions;
  size_t ops;
  uint64_t impl_hash;
};

/// Monet runs at degrees 1 and 4 (block cap 4) under IoStats(256). An LRU
/// pager sees every touch in order, so a kernel whose touch sequence
/// changes moves faults or evictions here even when the cold ledger holds.
constexpr LruLedgerRow kLruLedger[] = {
    {1, 1, 7648, 4032, 3616, 3443719, 7392, 41, 0x9d334451ee9d950dULL},
    {1, 4, 7487, 4032, 3455, 3443719, 7231, 41, 0x9d334451ee9d950dULL},
    {2, 1, 102, 36, 66, 27535, 0, 13, 0x7bd83bce81145398ULL},
    {2, 4, 102, 36, 66, 27535, 0, 13, 0x7bd83bce81145398ULL},
    {3, 1, 1181, 252, 929, 458521, 925, 23, 0x33327f407eb90589ULL},
    {3, 4, 966, 324, 642, 122537, 710, 23, 0x9326e4e0f2fc64e1ULL},
    {4, 1, 683, 150, 533, 101240, 427, 12, 0xfadd64f4b1d06aa9ULL},
    {4, 4, 806, 497, 309, 29189, 550, 12, 0x08344b7c6581e13fULL},
    {5, 1, 1223, 276, 947, 323007, 967, 22, 0x7e043c07ee1f99c3ULL},
    {5, 4, 992, 374, 618, 148996, 736, 22, 0xa578ff732c3182d2ULL},
    {6, 1, 1124, 331, 793, 1121538, 868, 13, 0x221f7df3eca93736ULL},
    {6, 4, 1386, 885, 501, 794557, 1130, 13, 0xa9623b3993ac2c74ULL},
    {7, 1, 1306, 348, 958, 580250, 1050, 27, 0xedb3fab526ecf7feULL},
    {7, 4, 1263, 547, 716, 227424, 1007, 27, 0xaaea18529ba8940dULL},
    {8, 1, 606, 148, 458, 10452, 350, 30, 0x1404f52e1f57d79fULL},
    {8, 4, 606, 148, 458, 10452, 350, 30, 0x1404f52e1f57d79fULL},
    {9, 1, 1849, 379, 1470, 292199, 1593, 31, 0x00bcd9ec9f57582fULL},
    {9, 4, 1907, 1026, 881, 204428, 1651, 31, 0x49e8b79128608368ULL},
    {10, 1, 1393, 187, 1206, 527167, 1137, 23, 0xf18fe7680ac44173ULL},
    {10, 4, 1536, 727, 809, 116028, 1280, 23, 0x3d4d6999d502ba30ULL},
    {11, 1, 59, 26, 33, 8299, 0, 12, 0xa7033b1e9cf08af4ULL},
    {11, 4, 59, 26, 33, 8299, 0, 12, 0xa7033b1e9cf08af4ULL},
    {12, 1, 852, 170, 682, 389956, 596, 27, 0xa8dd1193bcc8fb9aULL},
    {12, 4, 1116, 596, 520, 51288, 860, 27, 0xaec3ae6c5bc82a22ULL},
    {13, 1, 980, 195, 785, 174330, 724, 19, 0xa8e3664eb02b5d28ULL},
    {13, 4, 1191, 648, 543, 37364, 935, 19, 0x83e6938137c43422ULL},
    {14, 1, 565, 20, 545, 18917, 309, 11, 0xce3da08aeea2cd4bULL},
    {14, 4, 565, 20, 545, 18917, 309, 11, 0xce3da08aeea2cd4bULL},
    {15, 1, 596, 38, 558, 51226, 340, 10, 0x5a79802f3aa7e690ULL},
    {15, 4, 775, 395, 380, 16392, 519, 10, 0x591212152ce72916ULL},
};

std::string LruLedgerString(const LruLedgerRow& r) {
  using ull = unsigned long long;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{%d, %d, %llu, %llu, %llu, %llu, %llu, %zu, 0x%016llxULL}",
                r.q, r.degree, static_cast<ull>(r.faults),
                static_cast<ull>(r.seq), static_cast<ull>(r.rnd),
                static_cast<ull>(r.touches), static_cast<ull>(r.evictions),
                r.ops, static_cast<ull>(r.impl_hash));
  return buf;
}

TEST(ParallelDeterminismTest, WholeQueryLruIoLedgerIsPinned) {
  ForceFanout cap(4);
  auto inst = tpcd::MakeInstance(0.01).ValueOrDie();
  tpcd::QuerySuite suite(inst);
  for (const LruLedgerRow& want : kLruLedger) {
    storage::IoStats io(256);
    ExecTracer tracer;
    ExecContext ctx;
    ctx.WithIo(&io).WithTracer(&tracer).WithParallelDegree(want.degree);
    auto run = suite.RunMonet(want.q, ctx);
    ASSERT_TRUE(run.ok()) << "Q" << want.q << ": "
                          << run.status().ToString();
    std::string impls;
    for (const kernel::TraceRecord& r : tracer.records) impls += r.impl + " ";
    const LruLedgerRow got{want.q,
                           want.degree,
                           io.faults(),
                           io.sequential_faults(),
                           io.random_faults(),
                           io.logical_touches(),
                           io.evictions(),
                           tracer.records.size(),
                           Fnv1a(impls)};
    EXPECT_EQ(LruLedgerString(got), LruLedgerString(want)) << impls;
  }
}

}  // namespace
}  // namespace moaflat
