// Equivalence of the accelerators' direct-addressed forms: HashIndex bulk
// probes over dense, void, sparse, duplicate and empty oid columns against
// a naive reference for every probe key kind; GroupTable/RefineTable
// numbering and representatives on both sides of the dense bound, against
// a reference map and the hashed form; hash set aggregates over dense
// group oids against the same groups under sparse oids (the hashed path);
// and the cross-class rule — a hash probe matches only keys of its own
// class (integral, float, str) — through every hash-probing kernel
// variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "bat/hash_index.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernel/exec_context.h"
#include "kernel/exec_tracer.h"
#include "kernel/group_table.h"
#include "kernel/operators.h"
#include "kernel/registry.h"

namespace moaflat {
namespace {

using bat::Bat;
using bat::Column;
using bat::ColumnPtr;
using bat::HashIndex;
using kernel::ExecContext;
using kernel::KernelRegistry;
using kernel::internal::GroupTable;
using kernel::internal::RefineTable;

/// Multi-block plans at degree 4 on any host, for the duration of a test.
struct BlockCap4 {
  BlockCap4() { SetParallelBlockCap(4); }
  ~BlockCap4() { SetParallelBlockCap(0); }
};

constexpr size_t kBig = 40000;  // past 2 x 16K rows: parallel builds

void Shuffle(std::vector<Oid>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
}

/// `n` distinct oids from [min, min + span), both ends included, shuffled.
std::vector<Oid> UniqueOids(Oid min, uint64_t span, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Oid> interior;
  for (uint64_t k = 1; k + 1 < span; ++k) interior.push_back(min + k);
  Shuffle(interior, rng);
  std::vector<Oid> out = {min, min + span - 1};
  out.insert(out.end(), interior.begin(), interior.begin() + (n - 2));
  Shuffle(out, rng);
  return out;
}

struct Indexed {
  std::string name;
  ColumnPtr col;
  HashIndex::Form form;
};

std::vector<Indexed> IndexedColumns(size_t n) {
  std::vector<Indexed> out;
  out.push_back({"dense_min0_span_n", Column::MakeOid(UniqueOids(0, n, n, 1)),
                 HashIndex::Form::kDense});
  out.push_back({"dense_min1000_span_n",
                 Column::MakeOid(UniqueOids(1000, n, n, 2)),
                 HashIndex::Form::kDense});
  out.push_back({"dense_span_2n",
                 Column::MakeOid(UniqueOids(7, 2 * n, n, 3)),
                 HashIndex::Form::kDense});
  out.push_back({"span_2n_plus_1",
                 Column::MakeOid(UniqueOids(7, 2 * n + 1, n, 4)),
                 HashIndex::Form::kChained});
  std::vector<Oid> dup = UniqueOids(0, n, n, 5);
  dup[n / 2] = dup[n / 3];
  out.push_back({"one_duplicate", Column::MakeOid(dup),
                 HashIndex::Form::kChained});
  std::vector<Oid> sparse = UniqueOids(0, n, n, 6);
  for (Oid& o : sparse) o *= 1000;
  sparse[0] = Oid{1} << 53;
  sparse[1] = (Oid{1} << 53) + 1;
  out.push_back({"sparse", Column::MakeOid(sparse),
                 HashIndex::Form::kChained});
  out.push_back({"void", Column::MakeVoid(500, n), HashIndex::Form::kVoid});
  out.push_back({"empty", Column::MakeOid({}), HashIndex::Form::kChained});
  return out;
}

std::vector<std::pair<std::string, ColumnPtr>> ProbeColumns(Oid hi) {
  constexpr size_t m = 3000;
  Rng rng(99);
  const auto draw = [&] { return rng.Uniform(-50, static_cast<int64_t>(hi)); };
  std::vector<Oid> oids(m);
  std::vector<int32_t> ints(m);
  std::vector<int64_t> lngs(m);
  std::vector<Date> dates(m);
  std::vector<double> dbls(m);
  std::vector<std::string> strs(m);
  for (size_t j = 0; j < m; ++j) {
    oids[j] = static_cast<Oid>(std::max<int64_t>(draw(), 0)) *
              (j % 7 != 0 ? 1 : 1000);
    ints[j] = static_cast<int32_t>(draw());
    lngs[j] = j % 5 == 0 ? (int64_t{1} << 53) + static_cast<int64_t>(j % 3)
                         : draw();
    dates[j] = Date(static_cast<int32_t>(draw()));
    dbls[j] = static_cast<double>(draw());
    strs[j] = std::to_string(draw());
  }
  return {{"oid", Column::MakeOid(oids)},
          {"void", Column::MakeVoid(480, m)},
          {"int", Column::MakeInt(ints)},
          {"lng", Column::MakeLng(lngs)},
          {"date", Column::MakeDate(dates)},
          {"dbl", Column::MakeDbl(dbls)},
          {"str", Column::MakeStr(strs)}};
}

/// The naive reference: probe[j] matches the indexed oids equal to its
/// integral key; a float or str probe matches nothing (the key classes
/// hash apart).
std::vector<std::vector<uint32_t>> Reference(const Column& indexed,
                                             const Column& probe) {
  std::map<Oid, std::vector<uint32_t>> at;
  for (size_t i = 0; i < indexed.size(); ++i) {
    at[indexed.OidAt(i)].push_back(static_cast<uint32_t>(i));
  }
  std::vector<std::vector<uint32_t>> out(probe.size());
  for (size_t j = 0; j < probe.size(); ++j) {
    const Value v = probe.GetValue(j);
    std::optional<Oid> key;
    switch (v.type()) {
      case MonetType::kOidT: key = v.AsOid(); break;
      case MonetType::kInt:
      case MonetType::kLng:
      case MonetType::kDate: {
        const int64_t s = v.type() == MonetType::kDate ? v.AsDate().days()
                          : v.type() == MonetType::kInt ? v.AsInt()
                                                        : v.AsLng();
        if (s >= 0) key = static_cast<Oid>(s);
        break;
      }
      default: break;
    }
    if (key && at.count(*key)) out[j] = at[*key];
  }
  return out;
}

void ExpectProbesMatch(const HashIndex& index, const Column& probe,
                       const std::vector<std::vector<uint32_t>>& ref,
                       const std::string& what) {
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, probe.size()},
        std::pair<size_t, size_t>{7, probe.size() - 3}}) {
    std::vector<std::vector<uint32_t>> all(probe.size());
    size_t last = begin;
    index.ForEachMatchRange(probe, begin, end, [&](size_t j, uint32_t pos) {
      EXPECT_GE(j, last) << what;
      last = j;
      all[j].push_back(pos);
    });
    std::vector<std::pair<size_t, uint32_t>> first, want_first;
    index.ForEachFirstMatch(probe, begin, end, [&](size_t j, uint32_t pos) {
      first.emplace_back(j, pos);
    });
    std::vector<size_t> missing, contained, want_missing, want_contained;
    index.ForEachMissing(probe, begin, end,
                         [&](size_t j) { missing.push_back(j); });
    index.ForEachContained(probe, begin, end,
                           [&](size_t j) { contained.push_back(j); });
    for (size_t j = begin; j < end; ++j) {
      std::sort(all[j].begin(), all[j].end());
      ASSERT_EQ(all[j], ref[j]) << what << " row " << j;
      if (ref[j].empty()) {
        want_missing.push_back(j);
      } else {
        want_first.emplace_back(j, ref[j].front());
        want_contained.push_back(j);
      }
    }
    EXPECT_EQ(first, want_first) << what;
    EXPECT_EQ(missing, want_missing) << what;
    EXPECT_EQ(contained, want_contained) << what;
  }
}

TEST(DenseFormsTest, HashIndexFormsAnswerLikeANaiveLoop) {
  BlockCap4 cap;
  for (const size_t n : {size_t{100}, kBig}) {
    for (const Indexed& ix : IndexedColumns(n)) {
      const Oid hi = ix.col->size() == 0 ? 100 : [&] {
        Oid m = 0;
        for (size_t i = 0; i < ix.col->size(); ++i) {
          m = std::max(m, ix.col->OidAt(i) % (Oid{1} << 40));
        }
        return m + 10;
      }();
      const auto probes = ProbeColumns(hi);
      for (const int degree : {1, 4}) {
        const HashIndex index(ix.col, degree);
        const std::string at = ix.name + " n=" + std::to_string(n) +
                               " degree " + std::to_string(degree);
        EXPECT_EQ(index.form(), ix.form) << at;
        if (index.form() != HashIndex::Form::kChained) {
          // Never larger than the chained form's 2.5n slots or more.
          EXPECT_LE(index.byte_size(), 2 * n * sizeof(uint32_t)) << at;
        }
        for (const auto& [kind, probe] : probes) {
          ExpectProbesMatch(index, *probe, Reference(*ix.col, *probe),
                            at + " probe " + kind);
        }
      }
    }
  }
}

/// First-appearance numbering of a column's values and its first
/// positions, through boxed values.
std::pair<std::vector<Oid>, std::vector<uint32_t>> ReferenceGroups(
    const Column& col) {
  std::map<std::string, Oid> gid_of;
  std::vector<Oid> gids;
  std::vector<uint32_t> reps;
  for (size_t i = 0; i < col.size(); ++i) {
    const auto [it, fresh] =
        gid_of.try_emplace(col.GetValue(i).ToString(), reps.size());
    if (fresh) reps.push_back(static_cast<uint32_t>(i));
    gids.push_back(it->second);
  }
  return {gids, reps};
}

TEST(DenseFormsTest, GroupTableMatchesAReferenceAtTheDenseBound) {
  constexpr size_t n = 1000;  // DenseBound(1000) = 1000 slots
  Rng rng(3);
  const auto span_of = [&](int64_t lo, int64_t span) {
    std::vector<int64_t> v(n);
    for (auto& x : v) x = lo + rng.Uniform(0, span - 1);
    v[0] = lo;
    v[n - 1] = lo + span - 1;
    return v;
  };
  struct Case {
    std::string name;
    ColumnPtr col;
    bool dense;
  };
  std::vector<Case> cases;
  for (const int64_t span : {int64_t{n}, int64_t{n + 1}}) {
    const bool inside = span == static_cast<int64_t>(n);
    const std::string tag = inside ? "_inside" : "_outside";
    const auto ints = span_of(-300, span);
    cases.push_back({"int" + tag,
                     Column::MakeInt(std::vector<int32_t>(ints.begin(),
                                                          ints.end())),
                     inside});
    std::vector<Date> dates;
    for (int64_t d : span_of(9000, span)) {
      dates.push_back(Date(static_cast<int32_t>(d)));
    }
    cases.push_back({"date" + tag, Column::MakeDate(dates), inside});
    const auto oids = span_of(1 << 20, span);
    cases.push_back({"oid" + tag,
                     Column::MakeOid(std::vector<Oid>(oids.begin(),
                                                      oids.end())),
                     inside});
  }
  std::vector<char> chrs(n);
  for (auto& c : chrs) c = static_cast<char>(rng.Uniform(-128, 127));
  cases.push_back({"chr", Column::MakeChr(chrs), true});
  std::vector<uint8_t> bits(n);
  for (auto& b : bits) b = rng.Chance(0.3) ? 1 : 0;
  cases.push_back({"bit", Column::MakeBit(bits), true});
  std::vector<double> dbls(n);
  for (auto& d : dbls) d = static_cast<double>(rng.Uniform(0, 9));
  cases.push_back({"dbl", Column::MakeDbl(dbls), false});

  for (const Case& c : cases) {
    const auto [want_gids, want_reps] = ReferenceGroups(*c.col);
    const auto range = bat::IntegralKeyRange(*c.col);
    GroupTable table(range, n);
    EXPECT_EQ(table.dense(), c.dense) << c.name;
    // Two Adds (gids relative to each call's begin) and one AddAt.
    std::vector<Oid> gids(n);
    table.Add(*c.col, 0, n / 2, gids.data());
    table.Add(*c.col, n / 2, n, gids.data() + n / 2);
    EXPECT_EQ(gids, want_gids) << c.name;
    EXPECT_EQ(table.reps(), want_reps) << c.name;
    GroupTable hashed;
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    std::vector<Oid> hashed_gids;
    hashed.AddAt(*c.col, all, hashed_gids);
    EXPECT_EQ(hashed_gids, want_gids) << c.name;
    EXPECT_EQ(hashed.reps(), want_reps) << c.name;
  }
}

TEST(DenseFormsTest, RefineTableMatchesAReferenceAtTheDenseBound) {
  constexpr size_t n = 1000;
  Rng rng(5);
  // 10 previous groups x a value span of 100 fills DenseBound(1000)
  // exactly; a span of 101 is one past it.
  for (const int32_t span : {100, 101}) {
    std::vector<Oid> prev(n);
    std::vector<int32_t> vals(n);
    for (size_t i = 0; i < n; ++i) {
      prev[i] = static_cast<Oid>(rng.Uniform(0, 9));
      vals[i] = static_cast<int32_t>(rng.Uniform(0, span - 1));
    }
    prev[0] = 0;
    prev[1] = 9;
    vals[0] = 0;
    vals[1] = span - 1;
    const ColumnPtr d = Column::MakeInt(vals);
    std::map<std::pair<Oid, int32_t>, Oid> gid_of;
    std::vector<Oid> want;
    std::vector<uint32_t> want_reps;
    for (size_t i = 0; i < n; ++i) {
      const auto [it, fresh] =
          gid_of.try_emplace({prev[i], vals[i]}, want_reps.size());
      if (fresh) want_reps.push_back(static_cast<uint32_t>(i));
      want.push_back(it->second);
    }
    std::vector<uint32_t> dpos(n);
    for (size_t i = 0; i < n; ++i) dpos[i] = static_cast<uint32_t>(i);
    RefineTable dense(bat::KeyRange{0, 10}, bat::IntegralKeyRange(*d), n);
    EXPECT_EQ(dense.dense(), span == 100) << span;
    RefineTable hashed;
    for (RefineTable* t : {&dense, &hashed}) {
      std::vector<Oid> gids(n);
      t->Add(*d, prev.data(), dpos.data(), n, gids.data());
      EXPECT_EQ(gids, want) << span;
      ASSERT_EQ(t->reps().size(), want_reps.size()) << span;
      for (size_t g = 0; g < want_reps.size(); ++g) {
        EXPECT_EQ(t->reps()[g].dpos, want_reps[g]) << span;
        EXPECT_EQ(t->reps()[g].prev_gid, prev[want_reps[g]]) << span;
      }
    }
  }
}

std::string Bits(const Value& v) {
  if (v.type() != MonetType::kDbl) return v.ToString();
  const double d = v.AsDbl();
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return std::to_string(bits);
}

TEST(DenseFormsTest, DenseSetAggregatesAreBitEqualToTheHashedPath) {
  BlockCap4 cap;
  constexpr size_t n = 60000;
  Rng rng(17);
  // 60 group oids from 0..199 (gaps between them), in random row order.
  std::vector<Oid> used;
  for (Oid g = 0; g < 200; ++g) {
    if (rng.Chance(0.3)) used.push_back(g);
  }
  std::vector<Oid> dense(n), sparse(n);
  std::vector<double> prices(n);
  std::vector<int32_t> ties(n);
  for (size_t i = 0; i < n; ++i) {
    dense[i] = used[rng.Uniform(0, static_cast<int64_t>(used.size()) - 1)];
    sparse[i] = dense[i] * 1000003 + 7;  // same order, far past the bound
    prices[i] = rng.NextDouble() * (i % 97 == 0 ? 1e9 : 1e-3);
    ties[i] = static_cast<int32_t>(rng.Uniform(0, 4));
  }
  for (const kernel::AggKind kind :
       {kernel::AggKind::kSum, kernel::AggKind::kAvg, kernel::AggKind::kCount,
        kernel::AggKind::kMin, kernel::AggKind::kMax}) {
    const bool minmax =
        kind == kernel::AggKind::kMin || kind == kernel::AggKind::kMax;
    const ColumnPtr tail =
        minmax ? Column::MakeInt(ties) : Column::MakeDbl(prices);
    std::vector<std::vector<std::string>> runs;
    for (const bool is_dense : {true, false}) {
      const std::vector<Oid>& heads = is_dense ? dense : sparse;
      for (const int degree : {1, 4}) {
        kernel::ExecTracer tracer;
        ExecContext ctx;
        ctx.WithTracer(&tracer).WithParallelDegree(degree);
        const Bat res =
            kernel::SetAggregate(ctx, kind, Bat(Column::MakeOid(heads), tail))
                .ValueOrDie();
        EXPECT_EQ(tracer.LastImplOf("set_aggregate"), "hash_set_aggregate");
        ASSERT_EQ(res.size(), used.size());
        std::vector<std::string> rows;
        for (size_t k = 0; k < res.size(); ++k) {
          EXPECT_EQ(res.head().OidAt(k),
                    is_dense ? used[k] : used[k] * 1000003 + 7);
          rows.push_back(Bits(res.tail().GetValue(k)));
        }
        runs.push_back(rows);
      }
    }
    for (const auto& run : runs) {
      EXPECT_EQ(run, runs[0]) << kernel::AggKindName(kind);
    }
  }
}

/// Runs the registered variant `name` of `op` on (ab, cd) directly.
Bat RunVariant(const ExecContext& ctx, const char* op, const char* name,
               const Bat& ab, const Bat& cd) {
  for (const KernelRegistry::Variant& v :
       *KernelRegistry::Global().VariantsOf(op)) {
    if (v.name != name) continue;
    kernel::OpRecorder rec(ctx, op);
    return (*std::any_cast<std::function<kernel::BinaryImplSig>>(&v.exec))(
               ctx, ab, cd, rec)
        .ValueOrDie();
  }
  ADD_FAILURE() << "no variant " << name << " of " << op;
  return Bat();
}

TEST(DenseFormsTest, HashProbesNeverMatchAcrossKeyClasses) {
  // An oid key and a dbl probe of equal value hash apart, so no hash
  // probe pairs them — whatever the accelerator's form or table size
  // (merge_join, which compares, still does). kunion's two heads always
  // share a stored type (Union rejects any other pair), so its anti-probe
  // is covered by ForEachMissing above.
  BlockCap4 cap;
  for (const size_t n : {size_t{10}, size_t{1000}, size_t{5000}, kBig}) {
    for (const Oid stride : {Oid{1}, Oid{3}}) {  // dense and chained forms
      std::vector<Oid> oids(n);
      std::vector<double> as_dbl(n);
      for (size_t i = 0; i < n; ++i) {
        oids[i] = i * stride;
        as_dbl[i] = static_cast<double>(i * stride);
      }
      const Bat keyed(Column::MakeOid(oids), Column::MakeVoid(0, n));
      const Bat dbl_tail(Column::MakeVoid(0, n), Column::MakeDbl(as_dbl));
      const Bat dbl_head(Column::MakeDbl(as_dbl), Column::MakeVoid(0, n));
      for (const int degree : {1, 4}) {
        ExecContext ctx;
        ctx.WithParallelDegree(degree);
        const std::string at = "n=" + std::to_string(n) + " stride " +
                               std::to_string(stride) + " degree " +
                               std::to_string(degree);
        EXPECT_EQ(RunVariant(ctx, "join", "hash_join", dbl_tail, keyed).size(),
                  0u)
            << at;
        EXPECT_EQ(
            RunVariant(ctx, "semijoin", "hash_semijoin", dbl_head, keyed)
                .size(),
            0u)
            << at;
        EXPECT_EQ(
            RunVariant(ctx, "kdiff", "hash_antisemijoin", dbl_head, keyed)
                .size(),
            n)
            << at;
      }
    }
  }
}

}  // namespace
}  // namespace moaflat
