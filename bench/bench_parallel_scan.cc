// Ablation for the Section 2 parallelism claim ("standard PC hardware
// will come with multiple processors, so shared memory parallelism will
// become ever present"): the hot kernels at parallel degrees 1/2/4/8 on
// the persistent TaskPool, with per-context degrees (no process-global
// mutation) and exact merged page-fault accounting.
//
// Usage:
//   bench_parallel_scan [--rows N] [--json PATH] [--reps R]
//
// --rows   scan-select input cardinality (default 10,000,000; the other
//          kernels run at N/4 to keep total runtime balanced)
// --json   write machine-readable results (wall-ns, faults, degree,
//          effective block count, result rows per bench x degree, plus the
//          machine's ParallelBlockCap) for perf-trajectory tracking
// --reps   timed repetitions per cell; best-of is reported (default 3)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"

namespace {

using namespace moaflat;  // NOLINT
using bat::Bat;
using bat::Column;

struct Cell {
  std::string bench;
  int degree;
  int64_t wall_ns;
  uint64_t faults;
  size_t rows;
  /// Blocks the planner actually produces for this bench's evaluation
  /// phase at this degree — distinct from the requested degree whenever
  /// the morsel floor or ParallelBlockCap() flattens the fan-out, which is
  /// exactly the regime where "no speedup at degree 8" is the planner
  /// working as intended, not a regression.
  size_t blocks;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Bat IntAttr(size_t n, int64_t lo, int64_t hi, uint64_t seed) {
  Rng rng(seed);
  std::vector<Oid> heads(n);
  std::iota(heads.begin(), heads.end(), Oid{1});
  std::vector<int32_t> tails(n);
  for (auto& v : tails) v = static_cast<int32_t>(rng.Uniform(lo, hi));
  return Bat(Column::MakeOid(std::move(heads)), Column::MakeInt(tails),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

Bat DblAttr(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Oid> heads(n);
  std::iota(heads.begin(), heads.end(), Oid{1});
  std::vector<double> tails(n);
  for (auto& v : tails) v = rng.NextDouble() * 1e4;
  return Bat(Column::MakeOid(std::move(heads)), Column::MakeDbl(tails),
             bat::Properties{/*hkey=*/true, /*tkey=*/false,
                             /*hsorted=*/true, /*tsorted=*/false});
}

/// Times `run(ctx)` at the given per-context degree: `reps` repetitions,
/// each under a fresh cold IoStats; best wall time and the (repetition-
/// invariant) fault count are recorded.
Cell Measure(const std::string& bench, int degree, int reps, size_t input_rows,
             const std::function<size_t(const kernel::ExecContext&)>& run) {
  Cell cell{bench, degree, INT64_MAX, 0, 0,
            PlanBlocks(input_rows, degree).blocks};
  for (int r = 0; r < reps; ++r) {
    storage::IoStats io;
    kernel::ExecContext ctx;
    ctx.WithIo(&io).WithParallelDegree(degree);
    const int64_t t0 = NowNs();
    cell.rows = run(ctx);
    const int64_t dt = NowNs() - t0;
    if (dt < cell.wall_ns) cell.wall_ns = dt;
    cell.faults = io.faults();
  }
  return cell;
}

void WriteJson(const char* path, const std::vector<Cell>& cells,
               size_t rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_parallel_scan\",\n");
  std::fprintf(f, "  \"scan_rows\": %zu,\n  \"block_cap\": %d,\n", rows,
               ParallelBlockCap());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"bench\": \"%s\", \"degree\": %d, \"blocks\": %zu, "
                 "\"wall_ns\": %lld, \"faults\": %llu, \"rows\": %zu}%s\n",
                 c.bench.c_str(), c.degree, c.blocks,
                 static_cast<long long>(c.wall_ns),
                 static_cast<unsigned long long>(c.faults), c.rows,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  size_t rows = 10000000;
  int reps = 3;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--rows N] [--json PATH] [--reps R]\n",
                   argv[0]);
      return 1;
    }
  }
  const size_t small = rows / 4;

  // Operands are built once; hash accelerators are warmed by the first
  // repetition, so best-of-reps times the steady-state probe.
  Bat scan_attr = IntAttr(rows, 0, 1 << 20, 123);
  Bat mx_a = DblAttr(rows, 5);
  Bat mx_b = Bat(mx_a.head_col(), DblAttr(rows, 6).tail_col());
  // pk's head oids 1..65536 are dense and unique, so the join probes the
  // direct-addressed accelerator form; the sparse pair spreads the same
  // keys over 3x their count, past the dense bound, and keeps the chained
  // form measured at the same fan-out.
  Bat fk = IntAttr(small, 1, 1 << 16, 7);
  Bat pk = IntAttr(1 << 16, 1, 1 << 16, 8);
  const auto spread = [](const Bat& b, auto key) {
    std::vector<Oid> heads(b.size());
    std::vector<int32_t> tails(b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      heads[i] = 3 * b.head().OidAt(i) - 2;
      tails[i] = key(b, i);
    }
    return Bat(Column::MakeOid(std::move(heads)), Column::MakeInt(tails),
               b.props());
  };
  Bat fk_sparse = spread(fk, [](const Bat& b, size_t i) {
    return 3 * b.tail().Data<int32_t>()[i] - 2;
  });
  Bat pk_sparse = spread(pk, [](const Bat& b, size_t i) {
    return b.tail().Data<int32_t>()[i];
  });
  Bat group_attr = IntAttr(small, 0, 9999, 9);
  Bat agg = [&] {
    // hsorted oid grouping column with ~4K groups -> run_set_aggregate.
    std::vector<Oid> g(small);
    for (size_t i = 0; i < small; ++i) g[i] = i / 1024;
    return Bat(Column::MakeOid(std::move(g)),
               DblAttr(small, 10).tail_col(),
               bat::Properties{false, false, /*hsorted=*/true, false});
  }();
  Bat hagg = [&] {
    // unsorted oid grouping column -> hash_set_aggregate.
    Rng rng(13);
    std::vector<Oid> g(small);
    for (auto& v : g) v = static_cast<Oid>(rng.Uniform(0, 4095));
    return Bat(Column::MakeOid(std::move(g)), DblAttr(small, 12).tail_col());
  }();
  // Theta-join operands: a small right side keeps the ~n*m/2 output near
  // the input cardinality. The comparison reads the right side's *head*.
  Bat theta_left = IntAttr(rows / 8, 0, 1000, 14);
  Bat theta_right = [&] {
    Rng rng(15);
    std::vector<int32_t> h(8);
    for (auto& v : h) v = static_cast<int32_t>(rng.Uniform(0, 1000));
    std::vector<Oid> t(8);
    std::iota(t.begin(), t.end(), Oid{1});
    return Bat(Column::MakeInt(std::move(h)), Column::MakeOid(std::move(t)));
  }();
  // kdiff/kunion operands: ~half the probe side misses.
  Bat set_left = [&] {
    Rng rng(16);
    std::vector<Oid> h(small);
    for (auto& v : h) v = static_cast<Oid>(rng.Uniform(0, 2 * small));
    return Bat(Column::MakeOid(std::move(h)), DblAttr(small, 17).tail_col());
  }();
  Bat set_right = [&] {
    Rng rng(18);
    std::vector<Oid> h(small);
    for (auto& v : h) v = static_cast<Oid>(rng.Uniform(0, 2 * small));
    return Bat(Column::MakeOid(std::move(h)), DblAttr(small, 19).tail_col());
  }();
  // Head-join multiplex: the second operand carries its own head column
  // (no sync proof), with ~half the driver's head values present.
  Bat hj_driver = [&] {
    std::vector<Oid> h(small);
    std::iota(h.begin(), h.end(), Oid{1});
    return Bat(Column::MakeOid(std::move(h)), DblAttr(small, 20).tail_col());
  }();
  Bat hj_other = [&] {
    Rng rng(21);
    std::vector<Oid> h(small);
    for (auto& v : h) v = static_cast<Oid>(rng.Uniform(1, 2 * small));
    return Bat(Column::MakeOid(std::move(h)), DblAttr(small, 22).tail_col());
  }();

  struct Named {
    const char* name;
    size_t input_rows;  // driver cardinality the block planner sees
    std::function<size_t(const kernel::ExecContext&)> run;
  };
  const std::vector<Named> benches = {
      {"scan_select", rows,
       [&](const kernel::ExecContext& ctx) {
         return kernel::SelectRange(ctx, scan_attr, Value::Int(0),
                                    Value::Int(1 << 14))
             .ValueOrDie()
             .size();
       }},
      {"multiplex_mul", rows,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Multiplex(ctx, *kernel::FindScalarFn("*"),
                                  {mx_a, mx_b})
             .ValueOrDie()
             .size();
       }},
      {"hash_join", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Join(ctx, fk, pk).ValueOrDie().size();
       }},
      {"hash_join_sparse", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Join(ctx, fk_sparse, pk_sparse).ValueOrDie().size();
       }},
      {"hash_group", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Group(ctx, group_attr).ValueOrDie().size();
       }},
      {"run_set_aggregate_sum", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::SetAggregate(ctx, kernel::AggKind::kSum, agg)
             .ValueOrDie()
             .size();
       }},
      {"hash_set_aggregate_sum", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::SetAggregate(ctx, kernel::AggKind::kSum, hagg)
             .ValueOrDie()
             .size();
       }},
      {"theta_join_band", rows / 8,
       [&](const kernel::ExecContext& ctx) {
         return kernel::ThetaJoin(ctx, theta_left, theta_right,
                                  kernel::CmpOp::kLt)
             .ValueOrDie()
             .size();
       }},
      {"kdiff", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Diff(ctx, set_left, set_right).ValueOrDie().size();
       }},
      {"kunion", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Union(ctx, set_left, set_right).ValueOrDie().size();
       }},
      {"headjoin_multiplex", small,
       [&](const kernel::ExecContext& ctx) {
         return kernel::Multiplex(ctx, *kernel::FindScalarFn("+"),
                                  {hj_driver, hj_other})
             .ValueOrDie()
             .size();
       }},
  };

  std::printf(
      "== parallel kernels on the TaskPool (%zu scan rows, block cap %d) "
      "==\n",
      rows, ParallelBlockCap());
  std::printf("%-24s %6s %7s %12s %10s %10s %8s\n", "bench", "degree",
              "blocks", "wall(ms)", "faults", "rows", "speedup");
  std::vector<Cell> cells;
  for (const Named& b : benches) {
    int64_t base_ns = 0;
    for (int degree : {1, 2, 4, 8}) {
      Cell c = Measure(b.name, degree, reps, b.input_rows, b.run);
      if (degree == 1) base_ns = c.wall_ns;
      std::printf("%-24s %6d %7zu %12.3f %10llu %10zu %7.2fx\n",
                  c.bench.c_str(), c.degree, c.blocks, c.wall_ns / 1e6,
                  static_cast<unsigned long long>(c.faults), c.rows,
                  base_ns > 0 ? static_cast<double>(base_ns) / c.wall_ns
                              : 0.0);
      cells.push_back(std::move(c));
    }
  }
  if (json_path != nullptr) WriteJson(json_path, cells, rows);
  return 0;
}
