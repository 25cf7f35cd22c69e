// Ablation for Section 5.1 (property management / dynamic optimization):
// the same logical operator on operands with and without the properties
// that unlock the fast implementations — binary-search vs scan select,
// merge vs hash join. This quantifies what the actively-maintained
// `ordered`/`key`/`synced` properties buy at run time.

#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"

namespace {

using namespace moaflat;  // NOLINT
using bat::Bat;
using bat::Column;

Bat MakeAttr(size_t n, bool tail_sorted, uint64_t seed) {
  const kernel::ExecContext ctx;
  Rng rng(seed);
  std::vector<int32_t> vals(n);
  for (size_t i = 0; i < n; ++i) {
    vals[i] = static_cast<int32_t>(rng.Next() & 0xffffff);
  }
  std::vector<Oid> oids(n);
  std::iota(oids.begin(), oids.end(), Oid{1});
  Bat b(Column::MakeOid(oids), Column::MakeInt(vals),
        bat::Properties{true, false, true, false});
  if (!tail_sorted) return b;
  return kernel::SortTail(ctx, b).ValueOrDie();
}

void BM_Select_BinarySearch(benchmark::State& state) {
  const kernel::ExecContext ctx;
  Bat attr = MakeAttr(1 << 20, true, 1);
  for (auto _ : state) {
    auto out =
        kernel::SelectRange(ctx, attr, Value::Int(1000), Value::Int(9000));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Select_BinarySearch);

void BM_Select_Scan(benchmark::State& state) {
  const kernel::ExecContext ctx;
  Bat attr = MakeAttr(1 << 20, false, 1);
  for (auto _ : state) {
    auto out =
        kernel::SelectRange(ctx, attr, Value::Int(1000), Value::Int(9000));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Select_Scan);

void BM_Join_Merge(benchmark::State& state) {
  const kernel::ExecContext ctx;
  // [x, oid] tail-sorted x [oid, y] head-sorted -> merge join.
  const size_t n = 1 << 18;
  std::vector<Oid> keys(n);
  std::iota(keys.begin(), keys.end(), Oid{1});
  Bat left(Column::MakeVoid(0, n), Column::MakeOid(keys),
           bat::Properties{true, false, true, true});
  Bat right(Column::MakeOid(keys), Column::MakeVoid(100, n),
            bat::Properties{true, true, true, true});
  for (auto _ : state) {
    auto out = kernel::Join(ctx, left, right);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Join_Merge);

void BM_Join_Hash(benchmark::State& state) {
  const kernel::ExecContext ctx;
  // Same data, but the sortedness properties are withheld.
  const size_t n = 1 << 18;
  std::vector<Oid> keys(n);
  std::iota(keys.begin(), keys.end(), Oid{1});
  Bat left(Column::MakeVoid(0, n), Column::MakeOid(keys),
           bat::Properties{true, false, true, false});
  Bat right(Column::MakeOid(keys), Column::MakeVoid(100, n),
            bat::Properties{true, true, false, true});
  for (auto _ : state) {
    auto out = kernel::Join(ctx, left, right);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Join_Hash);

void BM_Multiplex_Synced(benchmark::State& state) {
  const kernel::ExecContext ctx;
  const size_t n = 1 << 18;
  std::vector<Oid> oids(n);
  std::iota(oids.begin(), oids.end(), Oid{1});
  auto head = Column::MakeOid(oids);
  Bat a(head, Column::MakeDbl(std::vector<double>(n, 2.0)));
  Bat b(head, Column::MakeDbl(std::vector<double>(n, 0.1)));
  for (auto _ : state) {
    auto out = kernel::Multiplex(ctx, *kernel::FindScalarFn("*"), {a, b});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Multiplex_Synced);

void BM_Multiplex_HeadJoin(benchmark::State& state) {
  const kernel::ExecContext ctx;
  const size_t n = 1 << 18;
  std::vector<Oid> oids(n);
  std::iota(oids.begin(), oids.end(), Oid{1});
  Bat a(Column::MakeOid(oids), Column::MakeDbl(std::vector<double>(n, 2.0)));
  Bat b(Column::MakeOid(oids), Column::MakeDbl(std::vector<double>(n, 0.1)));
  for (auto _ : state) {
    auto out = kernel::Multiplex(ctx, *kernel::FindScalarFn("*"), {a, b});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Multiplex_HeadJoin);

}  // namespace

BENCHMARK_MAIN();
