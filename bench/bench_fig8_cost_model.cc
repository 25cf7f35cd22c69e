// Reproduces Fig. 8 of the paper: select-project IO cost (page faults)
// according to selectivity, relational (E_rel) vs datavector (E_dv)
// approach, for p in {1,3,6,9,12} projected attributes of an n=16 table.
//
// Two sections are printed:
//  1. the analytic model with the paper's exact parameters
//     (X=6,000,000, n=16, w=4, B=4096), including the crossover point the
//     paper quotes as s ~ 0.004 for p=3;
//  2. a *measured* validation: the same select-project executed on this
//     library's flattened store (binary-search select + p datavector
//     semijoins) and on the row store (inverted-list select + unclustered
//     fetch), counting simulated cold page faults.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bat/datavector.h"
#include "common/rng.h"
#include "kernel/cost_model.h"
#include "kernel/operators.h"
#include "relational/executor.h"
#include "storage/page_accountant.h"

namespace {

using namespace moaflat;  // NOLINT
using bat::Bat;
using bat::Column;
using bat::ColumnPtr;

void PrintAnalytic() {
  kernel::CostModel model(kernel::CostModelParams{});
  std::printf(
      "== Fig. 8 (analytic): select-project IO cost, X=6e6 n=16 w=4 "
      "B=4096 ==\n");
  std::printf("%-12s %12s %12s %12s %12s %12s %12s\n", "selectivity",
              "E_rel", "E_dv(p=1)", "E_dv(p=3)", "E_dv(p=6)", "E_dv(p=9)",
              "E_dv(p=12)");
  for (double s = 0.0; s <= 0.0301; s += 0.0025) {
    std::printf("%-12.4f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n", s,
                model.ERel(s), model.EDv(s, 1), model.EDv(s, 3),
                model.EDv(s, 6), model.EDv(s, 9), model.EDv(s, 12));
  }
  for (int p : {1, 3, 6, 9, 12}) {
    std::printf("crossover(p=%-2d): s = %.4f   (paper: ~0.004 for p=3)\n", p,
                model.Crossover(p));
  }
}

/// A synthetic 16-attribute table in both representations.
struct WideTable {
  static constexpr int kAttrs = 16;
  std::vector<Bat> attr_bats;           // tail-sorted, with datavectors
  std::unique_ptr<rel::Table> row_tab;  // N-ary rows, inverted list on a0
  size_t rows;

  explicit WideTable(size_t n) : rows(n) {
    std::vector<Oid> oids(n);
    std::iota(oids.begin(), oids.end(), Oid{1});
    ColumnPtr extent = Column::MakeOid(oids);

    Rng rng(42);
    std::vector<rel::ColumnDef> defs;
    for (int a = 0; a < kAttrs; ++a) {
      defs.push_back({"a" + std::to_string(a), MonetType::kInt});
    }
    row_tab = std::make_unique<rel::Table>("wide", defs);

    std::vector<std::vector<int32_t>> cols(kAttrs);
    for (int a = 0; a < kAttrs; ++a) {
      cols[a].reserve(n);
      for (size_t i = 0; i < n; ++i) {
        // a0 is the selection attribute: uniform so selectivity maps to a
        // value range; the rest are arbitrary payloads.
        cols[a].push_back(a == 0
                              ? static_cast<int32_t>(rng.Uniform(0, 999999))
                              : static_cast<int32_t>(rng.Next() & 0xffff));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      std::vector<Value> row;
      for (int a = 0; a < kAttrs; ++a) row.push_back(Value::Int(cols[a][i]));
      (void)row_tab->AppendRow(row);
    }
    row_tab->Finalize();
    row_tab->EnsureIndex(0);

    for (int a = 0; a < kAttrs; ++a) {
      ColumnPtr values = Column::MakeInt(cols[a]);
      Bat oid_ordered(extent, values,
                      bat::Properties{true, false, true, false});
      auto dv = std::make_shared<bat::Datavector>(extent, values);
      Bat sorted =
          kernel::SortTail(kernel::ExecContext(), oid_ordered).ValueOrDie();
      sorted.SetDatavector(dv);
      attr_bats.push_back(std::move(sorted));
    }
  }

  /// Monet-side select on a0 with selectivity s, then fetch of p value
  /// attributes via (datavector) semijoins. Returns cold page faults.
  uint64_t MeasureDv(double s, int p) const {
    storage::IoStats io;
    kernel::ExecContext ctx;
    ctx.WithIo(&io);
    const int32_t hi = static_cast<int32_t>(s * 1000000) - 1;
    Bat sel =
        kernel::SelectRange(ctx, attr_bats[0], Value::Int(0), Value::Int(hi))
            .ValueOrDie();
    for (int a = 1; a <= p; ++a) {
      Bat fetched = kernel::Semijoin(ctx, attr_bats[a], sel).ValueOrDie();
      (void)fetched;
    }
    return io.faults();
  }

  /// Relational select via the inverted list, then unclustered tuple
  /// retrieval (the full row is fetched regardless of p).
  uint64_t MeasureRel(double s) const {
    storage::IoStats io;
    const int32_t hi = static_cast<int32_t>(s * 1000000) - 1;
    rel::RowSet sel = rel::IndexRange(&io, *row_tab, "a0", Value::Int(0),
                                      Value::Int(hi));
    rel::RowSet fetched = rel::FetchFilter(&io, sel, {});
    (void)fetched;
    return io.faults();
  }
};

void PrintMeasured() {
  const size_t kRows = 400000;
  std::printf(
      "\n== Fig. 8 (measured on the simulated pager): X=%zu n=16 w=4 ==\n",
      kRows);
  std::printf("%-12s %12s %12s %12s %12s %12s\n", "selectivity", "rel",
              "dv(p=1)", "dv(p=3)", "dv(p=6)", "dv(p=12)");
  WideTable t(kRows);
  for (double s : {0.0005, 0.001, 0.002, 0.004, 0.008, 0.015, 0.03}) {
    std::printf("%-12.4f %12llu %12llu %12llu %12llu %12llu\n", s,
                static_cast<unsigned long long>(t.MeasureRel(s)),
                static_cast<unsigned long long>(t.MeasureDv(s, 1)),
                static_cast<unsigned long long>(t.MeasureDv(s, 3)),
                static_cast<unsigned long long>(t.MeasureDv(s, 6)),
                static_cast<unsigned long long>(t.MeasureDv(s, 12)));
  }
  std::printf(
      "\n(shape check: dv beats rel except at the lowest selectivities;\n"
      " oids are 8-byte in this implementation vs the model's uniform w=4,\n"
      " so measured dv numbers sit slightly above the analytic curve)\n");
}

}  // namespace

int main() {
  PrintAnalytic();
  PrintMeasured();
  return 0;
}
