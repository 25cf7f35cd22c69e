// Runs any of the 15 TPC-D queries on both engines — the flattened Monet
// path and the row-store baseline — and reports timing, result agreement
// and the Monet execution trace.
//
// Usage: example_tpcd_explorer [query 1..15] [scale_factor]
//        example_tpcd_explorer          (runs all queries)

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "storage/page_accountant.h"
#include "tpcd/queries.h"

using namespace moaflat;  // NOLINT

namespace {

void RunOne(tpcd::QuerySuite& suite, int q, bool verbose) {
  storage::IoStats io;
  kernel::ExecContext ctx;
  ctx.WithIo(&io);

  const auto t0 = std::chrono::steady_clock::now();
  auto monet = suite.RunMonet(q, ctx).ValueOrDie();
  const auto t1 = std::chrono::steady_clock::now();
  auto base = suite.RunBaseline(q, ctx).ValueOrDie();
  const auto t2 = std::chrono::steady_clock::now();

  const double monet_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double base_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  const bool agree = monet.rows == base.rows &&
                     std::abs(monet.check - base.check) <=
                         1e-6 * std::max(1.0, std::abs(base.check));
  std::printf("Q%-2d [%3s] monet %8.2f ms | row-store %8.2f ms | "
              "%4zu rows | check %.6g | %s  -- %s\n",
              q, monet.via.c_str(), monet_ms, base_ms, monet.rows,
              monet.check, agree ? "MATCH" : "MISMATCH",
              tpcd::QuerySuite::Comment(q));
  if (verbose) {
    std::printf("\nMonet execution trace:\n");
    for (const auto& t : monet.traces) {
      std::printf("  %8.3f ms %6zu out  %s  [%s]\n", t.elapsed_us / 1000.0,
                  t.out_size, t.text.c_str(), t.impl.c_str());
    }
    const std::string moa = suite.MoaText(q);
    if (!moa.empty()) std::printf("\nMOA source:\n%s\n", moa.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int query = argc > 1 ? std::atoi(argv[1]) : 0;
  const double sf = argc > 2 ? std::atof(argv[2]) : 0.01;

  std::printf("Loading TPC-D at scale factor %.3f ...\n", sf);
  auto inst = tpcd::MakeInstance(sf).ValueOrDie();
  tpcd::QuerySuite suite(inst);
  std::printf("Item table: %zu rows; probe clerk: %s\n\n", inst->num_items,
              inst->probe_clerk.c_str());

  if (query >= 1 && query <= tpcd::QuerySuite::kNumQueries) {
    RunOne(suite, query, /*verbose=*/true);
  } else {
    for (int q = 1; q <= tpcd::QuerySuite::kNumQueries; ++q) {
      RunOne(suite, q, /*verbose=*/false);
    }
  }
  return 0;
}
