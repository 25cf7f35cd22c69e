#ifndef MOAFLAT_KERNEL_EXEC_TRACER_H_
#define MOAFLAT_KERNEL_EXEC_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace moaflat::kernel {

/// One executed BAT-algebra call: which operator ran, which of its
/// implementations the dynamic optimizer picked (Section 5.1: "a run-time
/// choice between the available algorithms"), how long it took and how many
/// simulated page faults it caused. The Fig. 10 per-statement trace is
/// rendered from these records.
struct TraceRecord {
  std::string op;    // e.g. "semijoin"
  std::string impl;  // e.g. "datavector_semijoin"
  size_t out_size = 0;
  int64_t elapsed_us = 0;
  uint64_t faults = 0;
};

/// Collects TraceRecords for an execution context. Attach one to an
/// ExecContext (ctx.WithTracer(&tracer)); two contexts with distinct
/// tracers never observe each other's records, which is what makes
/// concurrent traced queries possible.
class ExecTracer {
 public:
  std::vector<TraceRecord> records;

  /// Sum of recorded fault counts.
  uint64_t TotalFaults() const;

  /// Implementation name of the most recent record with op == `op`
  /// (empty if none); lets tests assert the optimizer's choice.
  std::string LastImplOf(const std::string& op) const;
};

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_EXEC_TRACER_H_
