#ifndef MOAFLAT_MIL_INTERPRETER_H_
#define MOAFLAT_MIL_INTERPRETER_H_

#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "bat/bat.h"
#include "common/result.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "mil/program.h"

namespace moaflat::mil {

/// Variable bindings of a MIL execution: names map to BATs (tables) or
/// Values (scalar aggregate results).
class MilEnv {
 public:
  using Binding = std::variant<bat::Bat, Value>;

  void BindBat(const std::string& name, bat::Bat b) {
    vars_[name] = std::move(b);
  }
  void BindValue(const std::string& name, Value v) {
    vars_[name] = std::move(v);
  }
  void Bind(const std::string& name, Binding b) { vars_[name] = std::move(b); }

  bool Has(const std::string& name) const { return vars_.count(name) > 0; }

  Result<bat::Bat> GetBat(const std::string& name) const;
  Result<Value> GetValue(const std::string& name) const;

  const std::map<std::string, Binding>& bindings() const { return vars_; }

 private:
  std::map<std::string, Binding> vars_;
};

/// Per-statement execution record, the raw material of the Fig. 10 trace:
/// elapsed time, simulated page faults, result cardinality and the
/// implementation(s) the dynamic optimizer picked.
struct StmtTrace {
  std::string text;
  int64_t elapsed_us = 0;
  uint64_t faults = 0;
  size_t out_size = 0;
  std::string impl;
};

/// Executes MIL programs against a MilEnv using the kernel operators.
/// Every statement materializes its result into the environment, mirroring
/// Monet's "BAT-algebra operations materialize their result and never
/// change their operands" (Section 4.2).
///
/// Execution state flows through an ExecContext: every statement runs under
/// a copy of the session context whose tracer is swapped for a per-statement
/// one (the raw material of the Fig. 10 trace); the records are forwarded to
/// the session tracer afterwards.
class MilInterpreter {
 public:
  /// Statements run under `*ctx`, which must outlive the interpreter; its
  /// accountant receives every page fault the program causes.
  MilInterpreter(MilEnv* env, const kernel::ExecContext* ctx)
      : env_(env), ctx_(ctx) {}

  /// Runs all statements; on success the result variables are bound in the
  /// environment and the per-statement traces are available.
  Status Run(const MilProgram& program);

  /// Executes a single statement.
  Status Exec(const MilStmt& stmt);

  /// Statement-level execution hook: called before each statement runs;
  /// a non-OK return aborts the program with that status, leaving the
  /// environment with the bindings committed so far. The query service
  /// uses this for cooperative cancellation between the statements of an
  /// admitted program (a running kernel is never interrupted mid-flight).
  using StmtHook = std::function<Status(const MilStmt&)>;
  void SetStmtHook(StmtHook hook) { hook_ = std::move(hook); }

  const std::vector<StmtTrace>& traces() const { return traces_; }

  /// Renders the trace like Fig. 10 of the paper (elapsed ms, page faults,
  /// statement text).
  std::string TraceString() const;

 private:
  MilEnv* env_;
  const kernel::ExecContext* ctx_;
  StmtHook hook_;
  std::vector<StmtTrace> traces_;
};

}  // namespace moaflat::mil

#endif  // MOAFLAT_MIL_INTERPRETER_H_
