#include "mil/interpreter.h"

#include <chrono>
#include <cstdio>
#include <new>
#include <sstream>

#include "kernel/exec_tracer.h"
#include "kernel/scalar_fn.h"
#include "mil/analyzer.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using kernel::AggKind;
using kernel::CmpOp;

Result<AggKind> ParseAgg(const std::string& name) {
  if (name == "sum") return AggKind::kSum;
  if (name == "count") return AggKind::kCount;
  if (name == "avg") return AggKind::kAvg;
  if (name == "min") return AggKind::kMin;
  if (name == "max") return AggKind::kMax;
  return Status::ParseError("unknown aggregate '" + name + "'");
}

bool IsSetAggOp(const std::string& op) {
  return op.size() > 2 && op.front() == '{' && op.back() == '}';
}

bool IsMultiplexOp(const std::string& op) {
  return op.size() > 2 && op.front() == '[' && op.back() == ']';
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
    auto agg = ParseAgg(stmt.op);
    if (stmt.op.rfind("calc.", 0) == 0) {
      MF_RETURN_NOT_OK(ExecScalarCalc(stmt));
      out_size = 1;
    } else if (agg.ok() && stmt.args.size() == 1) {
      MF_ASSIGN_OR_RETURN(Bat in, env_->GetBat(stmt.args[0].var));
      MF_ASSIGN_OR_RETURN(Value v,
                          kernel::ScalarAggregate(stmt_ctx, *agg, in));
      env_->BindValue(stmt.var, v);
      out_size = 1;
    } else {
      MF_ASSIGN_OR_RETURN(Bat out, EvalBatOp(stmt_ctx, stmt));
      out_size = out.size();
      env_->BindBat(stmt.var, std::move(out));
    }
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

Result<Bat> MilInterpreter::EvalBatOp(const kernel::ExecContext& ctx,
                                      const MilStmt& stmt) {
  const std::string& op = stmt.op;
  auto arg_bat = [&](size_t i) -> Result<Bat> {
    if (i >= stmt.args.size()) {
      return Status::Invalid("missing argument " + std::to_string(i) +
                             " of " + op);
    }
    if (stmt.args[i].kind != MilArg::Kind::kVar) {
      return Status::Invalid("argument " + std::to_string(i) + " of " + op +
                             " must be a BAT variable");
    }
    return env_->GetBat(stmt.args[i].var);
  };
  auto arg_val = [&](size_t i) -> Result<Value> {
    if (i >= stmt.args.size()) {
      return Status::Invalid("missing argument " + std::to_string(i) +
                             " of " + op);
    }
    if (stmt.args[i].kind == MilArg::Kind::kLit) return stmt.args[i].lit;
    return env_->GetValue(stmt.args[i].var);
  };

  if (IsMultiplexOp(op)) {
    const std::string fn = op.substr(1, op.size() - 2);
    std::vector<kernel::MxArg> margs;
    for (const MilArg& a : stmt.args) {
      if (a.kind == MilArg::Kind::kLit) {
        margs.emplace_back(a.lit);
      } else if (env_->Has(a.var)) {
        // A variable may hold a BAT or a scalar aggregate result.
        auto as_bat = env_->GetBat(a.var);
        if (as_bat.ok()) {
          margs.emplace_back(*as_bat);
        } else {
          MF_ASSIGN_OR_RETURN(Value v, env_->GetValue(a.var));
          margs.emplace_back(std::move(v));
        }
      } else {
        return Status::KeyError("undefined MIL variable '" + a.var + "'");
      }
    }
    return kernel::Multiplex(ctx, fn, margs);
  }

  if (IsSetAggOp(op)) {
    MF_ASSIGN_OR_RETURN(AggKind kind, ParseAgg(op.substr(1, op.size() - 2)));
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::SetAggregate(ctx, kind, in);
  }

  if (op == "select") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    if (stmt.args.size() == 2) {
      MF_ASSIGN_OR_RETURN(Value v, arg_val(1));
      return kernel::Select(ctx, in, v);
    }
    MF_ASSIGN_OR_RETURN(Value lo, arg_val(1));
    MF_ASSIGN_OR_RETURN(Value hi, arg_val(2));
    return kernel::SelectRange(ctx, in, lo, hi);
  }
  if (op.rfind("select.", 0) == 0) {
    const std::string cmp = op.substr(7);
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    if (cmp == "like") {
      MF_ASSIGN_OR_RETURN(Value v, arg_val(1));
      if (v.type() != MonetType::kStr) {
        return Status::TypeError("select.like needs a string pattern");
      }
      return kernel::SelectLike(ctx, in, v.AsStr());
    }
    CmpOp c;
    if (cmp == "!=") {
      c = CmpOp::kNe;
    } else if (cmp == "<") {
      c = CmpOp::kLt;
    } else if (cmp == "<=") {
      c = CmpOp::kLe;
    } else if (cmp == ">") {
      c = CmpOp::kGt;
    } else if (cmp == ">=") {
      c = CmpOp::kGe;
    } else {
      return Status::ParseError("unknown select comparator '" + cmp + "'");
    }
    MF_ASSIGN_OR_RETURN(Value v, arg_val(1));
    return kernel::SelectCmp(ctx, in, c, v);
  }

  if (op == "join" || op == "semijoin" || op == "kdiff" || op == "kunion" ||
      op == "kintersect") {
    MF_ASSIGN_OR_RETURN(Bat left, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Bat right, arg_bat(1));
    if (op == "join") return kernel::Join(ctx, left, right);
    if (op == "semijoin") return kernel::Semijoin(ctx, left, right);
    if (op == "kdiff") return kernel::Diff(ctx, left, right);
    if (op == "kunion") return kernel::Union(ctx, left, right);
    return kernel::Intersect(ctx, left, right);
  }

  if (op.rfind("thetajoin.", 0) == 0) {
    const std::string cmp = op.substr(10);
    MF_ASSIGN_OR_RETURN(Bat left, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Bat right, arg_bat(1));
    CmpOp c;
    if (cmp == "<") {
      c = CmpOp::kLt;
    } else if (cmp == "<=") {
      c = CmpOp::kLe;
    } else if (cmp == ">") {
      c = CmpOp::kGt;
    } else if (cmp == ">=") {
      c = CmpOp::kGe;
    } else if (cmp == "!=") {
      c = CmpOp::kNe;
    } else {
      return Status::ParseError("unknown theta comparator '" + cmp + "'");
    }
    return kernel::ThetaJoin(ctx, left, right, c);
  }
  if (op == "fetch") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Bat pos, arg_bat(1));
    return kernel::Fetch(ctx, in, pos);
  }
  if (op == "insert") {
    // insert(b, h, t): a new BAT = b plus the BUN [h, t] (columns are
    // immutable, so the "mutation" materializes a fresh binding — which is
    // exactly what the WAL logs when a durable session commits one).
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Value h, arg_val(1));
    MF_ASSIGN_OR_RETURN(Value t, arg_val(2));
    return kernel::InsertBuns(ctx, in, {std::move(h)}, {std::move(t)});
  }
  if (op == "histogram") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::Histogram(ctx, in);
  }
  if (op == "mirror") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return in.Mirror();
  }
  if (op == "unique") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::Unique(ctx, in);
  }
  if (op == "hunique") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::HeadUnique(ctx, in);
  }
  if (op == "group") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    if (stmt.args.size() == 1) return kernel::Group(ctx, in);
    MF_ASSIGN_OR_RETURN(Bat refine, arg_bat(1));
    return kernel::GroupRefine(ctx, in, refine);
  }
  if (op == "mark") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Value base, arg_val(1));
    MF_ASSIGN_OR_RETURN(Value oid_base, base.CastTo(MonetType::kOidT));
    return kernel::Mark(ctx, in, oid_base.AsOid());
  }
  if (op == "extent") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::VoidTail(ctx, in);
  }
  if (op == "slice") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Value lo, arg_val(1));
    MF_ASSIGN_OR_RETURN(Value hi, arg_val(2));
    MF_ASSIGN_OR_RETURN(Value lo_i, lo.CastTo(MonetType::kLng));
    MF_ASSIGN_OR_RETURN(Value hi_i, hi.CastTo(MonetType::kLng));
    return kernel::Slice(ctx, in, static_cast<size_t>(lo_i.AsLng()),
                         static_cast<size_t>(hi_i.AsLng()));
  }
  if (op == "sort") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    return kernel::SortTail(ctx, in);
  }
  if (op == "topn_max" || op == "topn_min") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Value n, arg_val(1));
    MF_ASSIGN_OR_RETURN(Value n_i, n.CastTo(MonetType::kLng));
    return kernel::TopN(ctx, in, static_cast<size_t>(n_i.AsLng()),
                        op == "topn_max");
  }
  if (op == "project") {
    MF_ASSIGN_OR_RETURN(Bat in, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Value v, arg_val(1));
    return kernel::ProjectConst(ctx, in, v);
  }
  if (op == "append") {
    MF_ASSIGN_OR_RETURN(Bat left, arg_bat(0));
    MF_ASSIGN_OR_RETURN(Bat right, arg_bat(1));
    return kernel::Append(ctx, left, right);
  }

  return Status::NotImplemented("unknown MIL operator '" + op + "'");
}

Status MilInterpreter::ExecScalarCalc(const MilStmt& stmt) {
  const std::string fn = stmt.op.substr(5);
  std::vector<Value> args;
  for (const MilArg& a : stmt.args) {
    if (a.kind == MilArg::Kind::kLit) {
      args.push_back(a.lit);
    } else {
      MF_ASSIGN_OR_RETURN(Value v, env_->GetValue(a.var));
      args.push_back(std::move(v));
    }
  }
  MF_ASSIGN_OR_RETURN(Value out, kernel::ScalarApply(fn, args));
  env_->BindValue(stmt.var, std::move(out));
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
