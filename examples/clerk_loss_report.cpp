// The paper's running example end-to-end: TPC-D query 13 ("analyze the
// quality of work of a certain clerk") written in MOA exactly as printed
// in Section 4.1, flattened by the term rewriter into MIL, executed on
// the Monet-style kernel, and read back through the structure functions.
//
// Usage: example_clerk_loss_report [scale_factor] [clerk]

#include <cstdio>
#include <cstdlib>

#include "moa/query.h"
#include "tpcd/loader.h"

using namespace moaflat;  // NOLINT

int main(int argc, char** argv) {
  const kernel::ExecContext ctx;
  const double sf = argc > 1 ? std::atof(argv[1]) : 0.005;
  auto inst = tpcd::MakeInstance(sf).ValueOrDie();
  const std::string clerk = argc > 2 ? argv[2] : inst->probe_clerk;

  const std::string q13 =
      "project[<date : year, sum(project[revenue](%2)) : loss>]("
      "  nest[date]("
      "    project[<year(order.orderdate) : date,"
      "             *(extendedprice, -(1.0, discount)) : revenue>]("
      "      select[=(order.clerk, \"" + clerk + "\"),"
      "             =(returnflag, 'R')](Item))))";

  std::printf("MOA query (Section 4.1 of the paper):\n%s\n\n", q13.c_str());

  auto qr = moa::RunMoa(ctx, inst->db, q13).ValueOrDie();

  std::printf("Flattened MIL program:\n%s\n",
              qr.translation.program.ToString().c_str());
  std::printf("Result structure function: %s\n\n",
              qr.translation.result->ToString().c_str());
  std::printf("Loss per year for %s:\n%s\n", clerk.c_str(),
              qr.Render().ValueOrDie().c_str());
  return 0;
}
