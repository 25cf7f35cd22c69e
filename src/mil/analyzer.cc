#include "mil/analyzer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "mil/ops.h"

namespace moaflat::mil {
namespace {

using bat::Bat;

/// Walks a program once, statement by statement: each spelling resolves
/// through the operator table (mil/ops.h), whose rules infer the result
/// and price the statement; this class owns name resolution, operand
/// checking against the declared argument kinds, and hygiene.
class Analyzer {
 public:
  explicit Analyzer(const MilEnv& env) : env_(env) {}

  AnalysisReport Analyze(const MilProgram& program) {
    // First-def lines let name resolution distinguish "used before its
    // definition on line N" from a plain unknown name.
    for (const MilStmt& s : program.stmts) {
      if (first_def_.count(s.var) == 0) first_def_[s.var] = s.line;
    }

    for (const MilStmt& stmt : program.stmts) {
      CheckShadow(stmt);
      const ResolvedOp op = ResolveOp(stmt.op);
      StaticStmt s{stmt, op, &report_.diagnostics};
      const bool resolved = Resolve(s);
      s.result = resolved ? op.decl->type(s) : UnknownBinding();

      StmtInfo info;
      info.line = stmt.line;
      info.var = stmt.var;
      info.text = stmt.ToString();
      info.result = s.result;
      if (resolved) PriceStmt(s, &info);
      report_.stmts.push_back(std::move(info));

      DefInfo& def = defs_[stmt.var];
      def.line = stmt.line;
      def.read = false;
      bindings_[stmt.var] = s.result;
    }

    Hygiene(program);
    report_.bindings = bindings_;
    for (const Diagnostic& d : report_.diagnostics) {
      (d.severity == Severity::kError ? report_.errors : report_.warnings)++;
    }
    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
    return std::move(report_);
  }

 private:
  struct DefInfo {
    int line = 0;
    bool read = false;
  };

  /// Resolves a name against the program-so-far, then the environment
  /// catalog. Marks the in-program definition as read.
  const AbstractBinding* Lookup(const std::string& name) {
    auto def = defs_.find(name);
    if (def != defs_.end()) def->second.read = true;
    auto it = bindings_.find(name);
    if (it != bindings_.end()) return &it->second;
    auto env_it = env_.bindings().find(name);
    if (env_it == env_.bindings().end()) return nullptr;
    AbstractBinding b;
    if (const Bat* bat = std::get_if<Bat>(&env_it->second)) {
      b = BatBinding(bat->head().type(), bat->tail().type(),
                     {static_cast<double>(bat->size()),
                      static_cast<double>(bat->size())},
                     bat->props().hkey || bat->head().is_void());
      b.bound = bat;
    } else {
      b = ScalarBinding(std::get<Value>(env_it->second).type());
    }
    return &(bindings_[name] = b);
  }

  /// The spelling, the arity and every operand against the declaration.
  /// False when the type rule cannot run: the problem is diagnosed here,
  /// or — for an operand whose own inference failed — already was.
  bool Resolve(StaticStmt& s) {
    const MilStmt& stmt = s.stmt;
    if (s.op.decl == nullptr) {
      s.Error(UnknownOp(stmt.op).message());
      return false;
    }
    if (Status arity = CheckArity(s.op, stmt.op, stmt.args.size());
        !arity.ok()) {
      s.Error(arity.message());
      return false;
    }
    bool ok = true;
    for (size_t i = 0; i < stmt.args.size(); ++i) {
      if (!Operand(s, i)) ok = false;
    }
    return ok;
  }

  /// Argument `i` as the kind its position takes; a literal or
  /// catalog-bound scalar also records its value.
  bool Operand(StaticStmt& s, size_t i) {
    const MilStmt& stmt = s.stmt;
    const ArgKind kind = s.op.decl->kinds[i];
    const MilArg& a = stmt.args[i];
    const auto where = [&] {
      return "argument " + std::to_string(i + 1) + " of '" + stmt.op + "'";
    };
    if (a.kind == MilArg::Kind::kLit) {
      if (kind == ArgKind::kBat) {
        s.Error(where() + " must be a BAT, got literal " + a.lit.ToString());
        return false;
      }
      s.arg[i] = ScalarBinding(a.lit.type());
      s.known[i] = &a.lit;
      return true;
    }
    const AbstractBinding* b = Lookup(a.var);
    if (b == nullptr) {
      auto fd = first_def_.find(a.var);
      if (fd != first_def_.end()) {
        s.Error("variable '" + a.var + "' used before its definition (line " +
                std::to_string(fd->second) + ")");
      } else {
        s.Error("unknown MIL variable '" + a.var + "'");
      }
      return false;
    }
    if (b->kind == AbstractBinding::Kind::kUnknown) return false;
    if (kind == ArgKind::kBat && b->kind == AbstractBinding::Kind::kScalar) {
      s.Error(where() + " must be a BAT; '" + a.var + "' is a " +
              TypeName(b->scalar) + " scalar");
      return false;
    }
    if (kind == ArgKind::kScalar && b->kind == AbstractBinding::Kind::kBat) {
      s.Error(where() + " must be a scalar; '" + a.var + "' is a BAT");
      return false;
    }
    s.arg[i] = *b;
    if (b->kind == AbstractBinding::Kind::kScalar && defs_.count(a.var) == 0) {
      s.known[i] = std::get_if<Value>(&env_.bindings().at(a.var));
    }
    return true;
  }

  /// Rebinding a name whose previous in-program definition was never read
  /// makes the earlier statement unobservable.
  void CheckShadow(const MilStmt& stmt) {
    auto it = defs_.find(stmt.var);
    if (it != defs_.end() && !it->second.read) {
      report_.diagnostics.push_back(Diagnostic{
          Severity::kWarning, stmt.line, stmt.var,
          "rebinds '" + stmt.var + "' before the definition on line " +
              std::to_string(it->second.line) + " is ever read"});
    }
  }

  /// Section 5.2.2 fault price of the statement at both interval ends.
  /// The hi bound prices the cheapest applicable variant over the largest
  /// operand views any execution can present; the lo bound subtracts the
  /// model's sub-page CPU tie-breaker terms, so it never overtakes a
  /// measured run of the same plan.
  static void PriceStmt(const StaticStmt& s, StmtInfo* info) {
    for (int end = 0; end < 2; ++end) {
      const bool hi_end = end == 1;
      double f = s.op.decl->price(s, hi_end);
      if (!hi_end) f = std::max(0.0, f - 1.0);
      (hi_end ? info->faults_hi : info->faults_lo) = f;
    }
    if (info->faults_lo > info->faults_hi) {
      info->faults_lo = info->faults_hi;
    }
  }

  // ------------------------------------------------------------- hygiene

  void Hygiene(const MilProgram& program) {
    // Observable sinks: the declared results, or — for programs without a
    // result clause, where the shell prints the last binding — the final
    // statement. Anything else computed but never read is dead weight.
    std::set<std::string> sinks(program.results.begin(),
                               program.results.end());
    if (sinks.empty() && !program.stmts.empty()) {
      sinks.insert(program.stmts.back().var);
    }
    for (const MilStmt& s : program.stmts) {
      auto def = defs_.find(s.var);
      if (def == defs_.end() || def->second.line != s.line) continue;
      if (!def->second.read && sinks.count(s.var) == 0) {
        report_.diagnostics.push_back(Diagnostic{
            Severity::kWarning, s.line, s.var,
            "binding '" + s.var + "' is never read and not a result"});
      }
    }
    for (const std::string& name : sinks) {
      auto it = bindings_.find(name);
      if (it == bindings_.end()) continue;
      const AbstractBinding& b = it->second;
      if (b.kind == AbstractBinding::Kind::kBat && b.card.hi <= 0) {
        report_.diagnostics.push_back(Diagnostic{
            Severity::kWarning, defs_.count(name) ? defs_[name].line : 0,
            name, "result '" + name + "' is statically empty"});
      }
    }
  }

  const MilEnv& env_;
  AnalysisReport report_;
  std::map<std::string, AbstractBinding> bindings_;
  std::map<std::string, DefInfo> defs_;
  std::map<std::string, int> first_def_;
};

}  // namespace

// ------------------------------------------------------------- rendering

std::string Diagnostic::ToString() const {
  std::string s = "line " + std::to_string(line) + ": ";
  s += severity == Severity::kError ? "error: " : "warning: ";
  s += message;
  return s;
}

std::string AbstractBinding::ToString() const {
  switch (kind) {
    case Kind::kScalar:
      return std::string(TypeName(scalar)) + " scalar";
    case Kind::kBat: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "] rows in [%.0f, %.0f]", card.lo,
                    card.hi);
      return "[" + std::string(TypeName(head)) + "," + TypeName(tail) + buf;
    }
    case Kind::kUnknown:
      break;
  }
  return "unknown";
}

std::string AnalysisReport::DiagnosticsString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString();
    out += "\n";
  }
  return out;
}

std::string AnalysisReport::FirstError() const {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return d.ToString();
  }
  return "";
}

std::string AnalysisReport::SchemaString(
    const std::vector<std::string>& names) const {
  std::string out;
  for (const std::string& name : names) {
    auto it = bindings.find(name);
    if (it == bindings.end()) continue;
    out += name + " : " + it->second.ToString() + "\n";
  }
  return out;
}

// -------------------------------------------------------------- analysis

AnalysisReport AnalyzeProgram(const MilProgram& program, const MilEnv& env) {
  return Analyzer(env).Analyze(program);
}

std::vector<std::string> ResultNames(const MilProgram& program) {
  if (!program.results.empty()) return program.results;
  std::vector<std::string> names;
  names.reserve(program.stmts.size());
  for (const MilStmt& s : program.stmts) names.push_back(s.var);
  return names;
}

}  // namespace moaflat::mil
