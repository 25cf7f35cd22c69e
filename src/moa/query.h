#ifndef MOAFLAT_MOA_QUERY_H_
#define MOAFLAT_MOA_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mil/interpreter.h"
#include "moa/database.h"
#include "moa/rewriter.h"

namespace moaflat::moa {

/// End-to-end result of one MOA query: the translation (MIL program +
/// structure expression), the execution environment holding the result
/// BATs, and the per-statement traces.
struct QueryResult {
  Translation translation;
  mil::MilEnv env;
  std::vector<mil::StmtTrace> traces;

  /// Renders the structured result via the structure functions.
  Result<std::string> Render(size_t max_elems = 20) const;
};

/// Parses, flattens and executes MOA text against `db` — the complete
/// pipeline of Fig. 6: MOA -> (rewriter) -> MIL -> (interpreter) -> BATs
/// -> (structure function) -> structured result. The database environment
/// is copied, so base BATs are never mutated. All execution state (tracer,
/// IO accounting, memory budget) flows through `ctx`, so concurrent
/// queries with separate contexts are fully isolated.
Result<QueryResult> RunMoa(const kernel::ExecContext& ctx, const Database& db,
                           const std::string& moa_text);

}  // namespace moaflat::moa

#endif  // MOAFLAT_MOA_QUERY_H_
