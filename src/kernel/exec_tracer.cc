#include "kernel/exec_tracer.h"

namespace moaflat::kernel {

uint64_t ExecTracer::TotalFaults() const {
  uint64_t total = 0;
  for (const TraceRecord& r : records) total += r.faults;
  return total;
}

std::string ExecTracer::LastImplOf(const std::string& op) const {
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->op == op) return it->impl;
  }
  return "";
}

}  // namespace moaflat::kernel
