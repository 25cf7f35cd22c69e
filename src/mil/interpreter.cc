#include "mil/interpreter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>
#include <sstream>

#include "kernel/exec_tracer.h"
#include "mil/analyzer.h"
#include "mil/ops.h"

namespace moaflat::mil {

using bat::Bat;

namespace {

/// Operand `i` of `stmt` as the kind its position takes.
Result<MilEnv::Binding> Fetch(const MilEnv& env, const MilStmt& stmt,
                              size_t i, ArgKind kind) {
  const MilArg& a = stmt.args[i];
  if (a.kind == MilArg::Kind::kLit) {
    if (kind != ArgKind::kBat) return MilEnv::Binding(a.lit);
    return Status::Invalid("argument " + std::to_string(i) + " of " +
                           stmt.op + " must be a BAT variable");
  }
  if (kind == ArgKind::kBat) return AsBinding(env.GetBat(a.var));
  if (kind == ArgKind::kScalar) return AsBinding(env.GetValue(a.var));
  // A variable may hold a BAT or a scalar aggregate result.
  auto it = env.bindings().find(a.var);
  if (it == env.bindings().end()) {
    return Status::KeyError("undefined MIL variable '" + a.var + "'");
  }
  return it->second;
}

}  // namespace

Result<Bat> MilEnv::GetBat(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) {
    return Status::KeyError("undefined MIL variable '" + name + "'");
  }
  if (const Bat* b = std::get_if<Bat>(&it->second)) return *b;
  return Status::TypeError("MIL variable '" + name + "' is a scalar");
}

Result<Value> MilEnv::GetValue(const std::string& name) const {
  auto it = vars_.find(name);
  if (it == vars_.end()) {
    return Status::KeyError("undefined MIL variable '" + name + "'");
  }
  if (const Value* v = std::get_if<Value>(&it->second)) return *v;
  return Status::TypeError("MIL variable '" + name + "' is a BAT");
}

Status MilInterpreter::Run(const MilProgram& program) {
  // Static analysis gate: an ill-formed program is rejected before any
  // statement executes — no binding committed, no page touched, no trace
  // emitted. Hygiene warnings do not block.
  AnalysisReport report = AnalyzeProgram(program, *env_);
  if (!report.ok()) {
    return Status::TypeError("program rejected by static analysis:\n" +
                             report.DiagnosticsString());
  }
  for (const MilStmt& stmt : program.stmts) {
    MF_RETURN_NOT_OK(Exec(stmt));
  }
  return Status::OK();
}

Status MilInterpreter::Exec(const MilStmt& stmt) {
  if (hook_) MF_RETURN_NOT_OK(hook_(stmt));
  // The statement runs under a copy of the session context with a local
  // tracer, so the per-statement implementation choices can be reported
  // even when the session has no tracer of its own.
  const kernel::ExecContext& base = *ctx_;
  kernel::ExecTracer local_tracer;
  kernel::ExecContext stmt_ctx = base;
  stmt_ctx.WithTracer(&local_tracer);

  // The statement boundary is the interpreter's own interruption point: a
  // cancelled or timed-out query never starts its next statement, and a
  // latched (possibly injected) IO error surfaces here instead of being
  // silently absorbed between operators.
  MF_RETURN_NOT_OK(base.CheckInterrupt());

  storage::IoStats* io = base.io();
  const uint64_t faults_before = io ? io->faults() : 0;
  const uint64_t charged_before = base.memory_charged();
  const auto start = std::chrono::steady_clock::now();

  size_t out_size = 0;

  // Scalar calculations (`calc.*`) and scalar aggregates bind a Value;
  // everything else binds a BAT. The whole statement body runs under one
  // failure boundary: on any non-OK status (budget veto, cancel, injected
  // fault) or allocation failure, no binding is committed and every byte
  // the statement charged for its discarded partial results is refunded,
  // so the session's balance is exactly what it was before the statement
  // and the next query runs bit-identically.
  auto run_stmt = [&]() -> Status {
    const ResolvedOp op = ResolveOp(stmt.op);
    if (op.decl == nullptr) return UnknownOp(stmt.op);
    // Operands are fetched in argument order, so the first bad one is the
    // error; a missing one is an arity error.
    ExecArgs args{stmt_ctx, stmt, op, {}};
    for (size_t i = 0; i < std::min(stmt.args.size(), kMaxArgs); ++i) {
      MF_ASSIGN_OR_RETURN(args.arg[i],
                          Fetch(*env_, stmt, i, op.decl->kinds[i]));
    }
    MF_RETURN_NOT_OK(CheckArity(op, stmt.op, stmt.args.size()));
    MF_ASSIGN_OR_RETURN(MilEnv::Binding out, op.decl->exec(args));
    const Bat* b = std::get_if<Bat>(&out);
    out_size = b != nullptr ? b->size() : 1;
    env_->Bind(stmt.var, std::move(out));
    return Status::OK();
  };
  Status stmt_status;
  try {
    stmt_status = run_stmt();
  } catch (const std::bad_alloc&) {
    stmt_status = Status::ResourceExhausted(
        "allocation failed while evaluating '" + stmt.op + "'");
  }
  if (!stmt_status.ok()) {
    const uint64_t charged_now = base.memory_charged();
    if (charged_now > charged_before) {
      base.ReleaseMemory(charged_now - charged_before);
    }
    return stmt_status;
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  std::string impls;
  for (const kernel::TraceRecord& r : local_tracer.records) {
    if (!impls.empty()) impls += "+";
    impls += r.impl;
  }
  // Forward the statement's records to the session tracer so a context
  // that traces a whole query sees every operator call.
  if (base.tracer() != nullptr) {
    base.tracer()->records.insert(base.tracer()->records.end(),
                                  local_tracer.records.begin(),
                                  local_tracer.records.end());
  }
  traces_.push_back(StmtTrace{
      stmt.ToString(),
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(),
      (io ? io->faults() : 0) - faults_before, out_size, impls});
  return Status::OK();
}

std::string MilInterpreter::TraceString() const {
  std::ostringstream os;
  os << "elapsed-ms    faults   #out  statement  [impl]\n";
  for (const StmtTrace& t : traces_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%9.3f %9llu %6zu  ",
                  t.elapsed_us / 1000.0,
                  static_cast<unsigned long long>(t.faults), t.out_size);
    os << buf << t.text;
    if (!t.impl.empty()) os << "  [" << t.impl << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace moaflat::mil
