// Ablation for the Section 6.2 Q1 observation: "Only on query 1, the
// database hot-set outgrows main-memory size. ... A test run with explicit
// buffer management omitted, choked the system by excessive swapping."
//
// We run the Q1-shaped workload (a ~100%-selectivity scan-aggregate over
// the Item value attributes) under decreasing simulated memory budgets and
// report how page faults explode once the hot set no longer fits —
// including the re-fault blowup of making a *second* pass over data that
// was evicted between passes (what Monet's algebraic buffer-management
// advice exists to avoid).

#include <cstdio>
#include <cstdlib>

#include "kernel/operators.h"
#include "mil/interpreter.h"
#include "storage/page_accountant.h"
#include "tpcd/loader.h"

namespace {

using namespace moaflat;  // NOLINT

/// Two passes of the Q1 hot loop: extendedprice/discount/tax fetches plus
/// multiplexed arithmetic over all qualifying items.
Result<uint64_t> RunQ1Workload(const tpcd::TpcdInstance& inst,
                               size_t capacity_pages) {
  storage::IoStats io =
      capacity_pages == 0 ? storage::IoStats() : storage::IoStats(capacity_pages);
  kernel::ExecContext ctx;
  ctx.WithIo(&io);
  mil::MilEnv env = inst.db.env();
  mil::MilInterpreter interp(&env, &ctx);
  using mil::L;
  using mil::V;
  for (int pass = 0; pass < 2; ++pass) {
    const std::string p = std::to_string(pass);
    MF_RETURN_NOT_OK(interp.Exec(
        {"sel" + p, "select.!=", {V("Item_returnflag"), L(Value::Chr('?'))}}));
    MF_RETURN_NOT_OK(interp.Exec(
        {"price" + p, "semijoin", {V("Item_extendedprice"), V("sel" + p)}}));
    MF_RETURN_NOT_OK(interp.Exec(
        {"disc" + p, "semijoin", {V("Item_discount"), V("sel" + p)}}));
    MF_RETURN_NOT_OK(interp.Exec(
        {"tax" + p, "semijoin", {V("Item_tax"), V("sel" + p)}}));
    MF_RETURN_NOT_OK(interp.Exec(
        {"f" + p, "[-]", {L(Value::Dbl(1.0)), V("disc" + p)}}));
    MF_RETURN_NOT_OK(
        interp.Exec({"rev" + p, "[*]", {V("price" + p), V("f" + p)}}));
    MF_RETURN_NOT_OK(interp.Exec({"total" + p, "sum", {V("rev" + p)}}));
  }
  return io.faults();
}

}  // namespace

int main() {
  double sf = 0.02;
  if (const char* env = std::getenv("MOAFLAT_SF")) sf = std::atof(env);
  auto inst = tpcd::MakeInstance(sf).ValueOrDie();

  // The cold-run fault count is the hot-set size in pages.
  const uint64_t cold = RunQ1Workload(*inst, 0).ValueOrDie();
  std::printf("== Section 6.2 ablation: Q1 workload under memory pressure "
              "(SF %.3f) ==\n", sf);
  std::printf("hot set: %llu pages (%.1f MB)\n\n",
              static_cast<unsigned long long>(cold),
              cold * storage::kPageSize / 1.0e6);
  std::printf("%-28s %12s %10s\n", "memory budget", "page faults",
              "vs cold");
  for (double frac : {4.0, 1.0, 0.5, 0.25, 0.1}) {
    const size_t budget = static_cast<size_t>(cold * frac);
    const uint64_t faults = RunQ1Workload(*inst, budget).ValueOrDie();
    std::printf("%6zu pages (%4.0f%% of hot) %12llu %9.2fx\n", budget,
                100 * frac, static_cast<unsigned long long>(faults),
                static_cast<double>(faults) / cold);
  }
  std::printf(
      "\n(once the budget drops below the hot set, the second pass\n"
      " re-faults evicted pages — the swapping regime the paper's\n"
      " algebraic buffer-management advice avoids on Q1)\n");
  return 0;
}
