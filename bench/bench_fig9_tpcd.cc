// Reproduces Fig. 9 of the paper: the TPC-D results table. For every query
// Q1..Q15 it reports elapsed time on the row-store baseline (the paper's
// IBM DB2 reference point) and on the flattened Monet engine, the total
// size of intermediate results, the maximum memory during execution, the
// Item-table selectivity, simulated page faults of the Monet run, and the
// Fig. 9 comment — plus the `load` row and the geometric-mean-based
// query-per-hour rate ratio (QppD).
//
// Scale factor via MOAFLAT_SF (default 0.01; the paper ran SF 1 = 1 GB).
// Absolute times are not comparable to 1997 hardware; the claim reproduced
// is the *shape*: which queries Monet wins, and that low-selectivity /
// tiny-result queries (2, 11, 13) are its relative weak spot.
//
// `--reps N` (default 1) runs every query N times on each engine and
// reports the median time and its spread (max - min); fault counts must be
// equal in every run. `--json PATH` additionally writes the per-query rows
// (median and spread wall-ns for both engines, page faults, intermediate
// MB, selectivity) plus the load and QppD summary, so the perf trajectory
// is machine-tracked across PRs.

#include <chrono>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "storage/memory_tracker.h"
#include "storage/page_accountant.h"
#include "tpcd/queries.h"

namespace {

using namespace moaflat;  // NOLINT

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median and spread (max - min) of one query's repeated timings.
struct Timing {
  double median, spread;
};

Timing Summarize(std::vector<double> secs) {
  std::sort(secs.begin(), secs.end());
  const size_t n = secs.size();
  const double median =
      n % 2 == 1 ? secs[n / 2] : 0.5 * (secs[n / 2 - 1] + secs[n / 2]);
  return Timing{median, secs.back() - secs.front()};
}

struct QueryRow {
  int q;
  Timing row, monet;
  unsigned long long row_faults, monet_faults;
  double total_mb, max_mb, item_sel;
};

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.01;
  if (const char* env = std::getenv("MOAFLAT_SF")) sf = std::atof(env);
  const char* json_path = nullptr;
  int reps = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--reps N]\n", argv[0]);
      return 1;
    }
  }
  std::vector<QueryRow> json_rows;

  std::printf("== Fig. 9: TPC-D results, scale factor %.3f ==\n", sf);
  const auto t_load = std::chrono::steady_clock::now();
  auto inst = tpcd::MakeInstance(sf).ValueOrDie();
  const double load_sec = Seconds(t_load);
  tpcd::QuerySuite suite(inst);

  std::printf("%d run(s) per query and engine: median ms and its spread "
              "(max - min)\n", reps);
  std::printf("%-4s %9s %7s %9s %7s %9s %9s %8s %8s %8s  %s\n", "Qx",
              "row(ms)", "+-ms", "mnt(ms)", "+-ms", "row-flts", "mnt-flts",
              "tot(MB)", "max(MB)", "Item sel", "comment");

  double geo_ratio = 0;
  int geo_n = 0;
  for (int q = 1; q <= tpcd::QuerySuite::kNumQueries; ++q) {
    // Baseline runs, each with cold IO accounting of its own.
    uint64_t base_faults = 0;
    std::vector<double> base_secs;
    tpcd::EngineRun base;
    for (int rep = 0; rep < reps; ++rep) {
      storage::IoStats io;
      kernel::ExecContext ctx;
      ctx.WithIo(&io);
      const auto t0 = std::chrono::steady_clock::now();
      auto r = suite.RunBaseline(q, ctx);
      base_secs.push_back(Seconds(t0));
      if (!r.ok()) {
        std::printf("Q%-3d baseline failed: %s\n", q,
                    r.status().ToString().c_str());
        return 1;
      }
      if (rep > 0 && io.faults() != base_faults) {
        std::printf("Q%-3d baseline faults vary across runs\n", q);
        return 1;
      }
      base_faults = io.faults();
      base = *r;
    }

    // Monet runs: a fresh cold accountant each; the first one also opens
    // a memory epoch.
    uint64_t monet_faults = 0;
    std::vector<double> monet_secs;
    tpcd::EngineRun monet;
    auto& mem = storage::MemoryTracker::Global();
    const uint64_t mem_before = mem.current();
    mem.MarkEpoch();
    double total_mb = 0;
    double max_mb = 0;
    for (int rep = 0; rep < reps; ++rep) {
      storage::IoStats io;
      kernel::ExecContext ctx;
      ctx.WithIo(&io);
      const auto t0 = std::chrono::steady_clock::now();
      auto r = suite.RunMonet(q, ctx);
      monet_secs.push_back(Seconds(t0));
      if (!r.ok()) {
        std::printf("Q%-3d monet failed: %s\n", q,
                    r.status().ToString().c_str());
        return 1;
      }
      if (rep > 0 && io.faults() != monet_faults) {
        std::printf("Q%-3d monet faults vary across runs\n", q);
        return 1;
      }
      if (rep == 0) {
        total_mb = mem.allocated_total() / 1.0e6;
        max_mb = (mem.peak() - mem_before) / 1.0e6;
      }
      monet_faults = io.faults();
      monet = *r;
    }
    const Timing base_t = Summarize(base_secs);
    const Timing monet_t = Summarize(monet_secs);

    const double sel =
        monet.item_selectivity >= 0 ? monet.item_selectivity
                                    : base.item_selectivity;
    char selbuf[16];
    if (sel >= 0) {
      std::snprintf(selbuf, sizeof(selbuf), "%6.2f%%", 100.0 * sel);
    } else {
      std::snprintf(selbuf, sizeof(selbuf), "   n.a.");
    }
    std::printf("Q%-3d %9.2f %7.2f %9.2f %7.2f %9llu %9llu %8.1f %8.1f %8s"
                "  %s\n",
                q, 1e3 * base_t.median, 1e3 * base_t.spread,
                1e3 * monet_t.median, 1e3 * monet_t.spread,
                static_cast<unsigned long long>(base_faults),
                static_cast<unsigned long long>(monet_faults), total_mb,
                max_mb, selbuf, tpcd::QuerySuite::Comment(q));
    json_rows.push_back(QueryRow{
        q, base_t, monet_t, static_cast<unsigned long long>(base_faults),
        static_cast<unsigned long long>(monet_faults), total_mb, max_mb,
        sel});

    // Cross-check the engines agree (the harness is only meaningful if
    // both computed the same answer).
    const double tol = 1e-6 * std::max({1.0, std::fabs(monet.check),
                                        std::fabs(base.check)});
    if (std::fabs(monet.check - base.check) > tol ||
        monet.rows != base.rows) {
      std::printf("  !! result mismatch: monet %zu rows / %.4f vs "
                  "baseline %zu rows / %.4f\n",
                  monet.rows, monet.check, base.rows, base.check);
      return 1;
    }
    if (base_t.median > 0 && monet_t.median > 0) {
      geo_ratio += std::log(base_t.median / monet_t.median);
      ++geo_n;
    }
  }
  std::printf("load %9.3f sec total (bulk %.3f / extents+datavectors %.3f /"
              " tail reorder %.3f); base data %.1f MB, datavectors %.1f MB\n",
              load_sec, inst->stats.bulk_load_sec, inst->stats.accel_sec,
              inst->stats.reorder_sec, inst->stats.base_bytes / 1.0e6,
              inst->stats.datavector_bytes / 1.0e6);
  const double qppd = std::exp(geo_ratio / std::max(geo_n, 1));
  std::printf("QppD speedup (geometric mean row/monet): %.2fx\n", qppd);

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_fig9_tpcd\",\n");
    std::fprintf(f, "  \"scale_factor\": %g,\n", sf);
    std::fprintf(f, "  \"degree\": %d,\n", ParallelDegree());
    std::fprintf(f, "  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"load_sec\": %.6f,\n  \"qppd_speedup\": %.4f,\n",
                 load_sec, qppd);
    std::fprintf(f, "  \"queries\": [\n");
    for (size_t i = 0; i < json_rows.size(); ++i) {
      const QueryRow& r = json_rows[i];
      std::fprintf(f,
                   "    {\"q\": %d, \"row_wall_ns\": %lld, "
                   "\"row_spread_ns\": %lld, \"monet_wall_ns\": %lld, "
                   "\"monet_spread_ns\": %lld, \"row_faults\": %llu, "
                   "\"monet_faults\": %llu, \"total_mb\": %.3f, "
                   "\"max_mb\": %.3f, \"item_selectivity\": %.6f}%s\n",
                   r.q, static_cast<long long>(r.row.median * 1e9),
                   static_cast<long long>(r.row.spread * 1e9),
                   static_cast<long long>(r.monet.median * 1e9),
                   static_cast<long long>(r.monet.spread * 1e9), r.row_faults,
                   r.monet_faults, r.total_mb, r.max_mb, r.item_sel,
                   i + 1 < json_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
