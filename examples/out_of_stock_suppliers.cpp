// Section 4.3.2's nested-set query: "for each supplier, the set of parts
// that are out of stock". Demonstrates the paper's key point about
// flattening — the selection on a *set-valued attribute* executes as ONE
// selection on the flat representation instead of a loop over suppliers:
// "instead of executing repeated selections for each nested set, we can
// do all work together in one selection".

#include <cstdio>

#include "moa/query.h"
#include "moa/result_view.h"
#include "tpcd/loader.h"

using namespace moaflat;  // NOLINT

int main() {
  const kernel::ExecContext ctx;
  auto inst = tpcd::MakeInstance(0.005).ValueOrDie();

  const char* query =
      "project[<%name : name, "
      "select[=(%available, 0)](%supplies) : out_of_stock>](Supplier)";
  std::printf("MOA query (Section 4.3.2):\n%s\n\n", query);

  auto qr = moa::RunMoa(ctx, inst->db, query).ValueOrDie();
  std::printf("Flattened MIL:\n%s\n",
              qr.translation.program.ToString().c_str());

  // Print suppliers that actually have out-of-stock supplies entries.
  moa::ResultView view(&qr.env);
  const moa::StructExpr& root = *qr.translation.result;
  auto name_field = view.Field(*root.elem, "name").ValueOrDie();
  auto oos_field = view.Field(*root.elem, "out_of_stock").ValueOrDie();

  int shown = 0;
  for (Oid supplier : view.SetIds(root).ValueOrDie()) {
    auto members = view.SetMembersOf(*oos_field, supplier).ValueOrDie();
    if (members.empty()) continue;
    Value name = view.AtomValue(*name_field, supplier).ValueOrDie();
    std::printf("%s: %zu part(s) out of stock\n", name.AsStr().c_str(),
                members.size());
    if (++shown >= 15) break;
  }
  if (shown == 0) std::printf("(no supplier is out of stock at this SF)\n");
  return 0;
}
