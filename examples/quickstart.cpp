// Quickstart: the BAT layer and the execution algebra in 60 lines.
//
// Builds a tiny customer table decomposed into BATs (Fig. 2/3 of the
// paper), then runs the basic kernel operators: select, join, semijoin,
// mirror, group and a set-aggregate — the vocabulary every MOA query is
// flattened into.

#include <cstdio>

#include "bat/bat.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"

using namespace moaflat;  // NOLINT
using bat::Bat;
using bat::Column;

int main() {
  // Every operator runs under an explicit execution context; this one has
  // no tracer and no page-fault accountant attached.
  const kernel::ExecContext ctx;

  // Customer_name[oid, str] and Customer_acctbal[oid, dbl]: vertical
  // decomposition means each attribute is its own binary table. Sharing
  // one head column makes the BATs provably *synced* (Section 5.1).
  auto heads = Column::MakeOid({101, 102, 103, 104});
  Bat name(heads, Column::MakeStr({"Annita", "Martin", "Peter", "Annita"}),
           bat::Properties{true, false, true, false});
  Bat acctbal(heads, Column::MakeDbl({120.5, -30.0, 77.0, 10.0}),
              bat::Properties{true, false, true, false});

  std::printf("Customer_name =\n%s\n", name.DebugString().c_str());

  // Point selection on the tail: who is called "Annita"?
  Bat annitas = kernel::Select(ctx, name, Value::Str("Annita")).ValueOrDie();
  std::printf("select(Customer_name, \"Annita\") =\n%s\n",
              annitas.DebugString().c_str());

  // Semijoin re-assembles vertical fragments: balances of the selection.
  Bat balances = kernel::Semijoin(ctx, acctbal, annitas).ValueOrDie();
  std::printf("semijoin(Customer_acctbal, annitas) =\n%s\n",
              balances.DebugString().c_str());

  // The mirror view is free: no data moves (Section 4.2).
  Bat by_name = name.Mirror();
  std::printf("mirror view is bat[%s,%s], same columns, zero copies\n\n",
              TypeName(by_name.head().type()), TypeName(by_name.tail().type()));

  // Multiplex: bulk scalar computation over synced BATs.
  Bat doubled =
      kernel::Multiplex(ctx, *kernel::FindScalarFn("*"),
                        {acctbal, Value::Dbl(2.0)})
          .ValueOrDie();
  std::printf("[*](Customer_acctbal, 2.0) =\n%s\n",
              doubled.DebugString().c_str());

  // Group + set-aggregate: total balance per name.
  Bat grp = kernel::Group(ctx, name).ValueOrDie();
  Bat grouped_bal = kernel::Join(ctx, grp.Mirror(), acctbal).ValueOrDie();
  Bat totals = kernel::SetAggregate(ctx, kernel::AggKind::kSum, grouped_bal)
                   .ValueOrDie();
  std::printf("{sum} of acctbal grouped by name =\n%s\n",
              totals.DebugString().c_str());
  return 0;
}
