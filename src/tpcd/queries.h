#ifndef MOAFLAT_TPCD_QUERIES_H_
#define MOAFLAT_TPCD_QUERIES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "kernel/exec_context.h"
#include "mil/interpreter.h"
#include "tpcd/loader.h"

namespace moaflat::tpcd {

/// Outcome of one query on one engine. `check` is an engine-independent
/// checksum (an aggregate over the query result) used to cross-validate
/// the Monet path against the relational baseline.
struct EngineRun {
  size_t rows = 0;
  double check = 0;
  /// Fraction of the Item class qualifying, where the query selects items
  /// (the "Item select%" column of Fig. 9); negative if not applicable.
  double item_selectivity = -1;
  /// "moa" when the query went through the full parse->flatten pipeline,
  /// "mil" when hand-flattened (the paper hand-translated all queries).
  std::string via;
  std::vector<mil::StmtTrace> traces;
};

/// The 15 read-only TPC-D queries of Fig. 9, adapted to the MOA object
/// schema exactly as the paper did. Every query exists twice: on the
/// flattened Monet engine (MOA text where the rewriter covers the query,
/// hand-written MIL otherwise) and on the row-store baseline.
class QuerySuite {
 public:
  static constexpr int kNumQueries = 15;

  explicit QuerySuite(std::shared_ptr<TpcdInstance> inst)
      : inst_(std::move(inst)) {}

  /// Fig. 9's per-query comment.
  static const char* Comment(int q);

  /// MOA text of query `q`, or "" if it is hand-flattened MIL.
  std::string MoaText(int q) const;

  /// Runs query `q` (1-based) on the flattened Monet engine under `ctx`:
  /// all trace records, page faults and memory charges land in the
  /// context, so concurrent runs with separate contexts are isolated.
  Result<EngineRun> RunMonet(int q, const kernel::ExecContext& ctx);

  /// Runs query `q` on the row-store baseline, charging its page faults to
  /// the context's accountant (the baseline records no trace).
  Result<EngineRun> RunBaseline(int q, const kernel::ExecContext& ctx);

  const TpcdInstance& instance() const { return *inst_; }

 private:
  std::shared_ptr<TpcdInstance> inst_;
};

}  // namespace moaflat::tpcd

#endif  // MOAFLAT_TPCD_QUERIES_H_
