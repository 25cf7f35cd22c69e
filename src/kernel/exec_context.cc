#include "kernel/exec_context.h"

namespace moaflat::kernel {

OpRecorder::OpRecorder(const ExecContext& ctx, const char* op)
    : ctx_(ctx),
      op_(op),
      fault_scope_(ctx.fault_injector()),
      start_(std::chrono::steady_clock::now()),
      faults_before_(ctx.io() != nullptr ? ctx.io()->faults() : 0),
      charged_before_(ctx.memory_charged()) {}

OpRecorder::~OpRecorder() {
  if (finished_) return;
  const uint64_t charged = ctx_.memory_charged();
  if (charged > charged_before_) ctx_.ReleaseMemory(charged - charged_before_);
}

void OpRecorder::Finish(const char* impl, size_t out_size) {
  Finish(std::string(impl), out_size);
}

void OpRecorder::Finish(const std::string& impl, size_t out_size) {
  finished_ = true;
  ExecTracer* tracer = ctx_.tracer();
  if (tracer == nullptr) return;
  const uint64_t faults_after = ctx_.io() != nullptr ? ctx_.io()->faults() : 0;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  tracer->records.push_back(TraceRecord{
      op_, impl, out_size,
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
      faults_after - faults_before_});
}

}  // namespace moaflat::kernel
