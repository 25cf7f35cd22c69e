#ifndef MOAFLAT_MIL_OPS_H_
#define MOAFLAT_MIL_OPS_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"
#include "mil/analysis_types.h"
#include "mil/interpreter.h"
#include "mil/program.h"

/// The MIL operator table: one declaration per operator of the BAT algebra
/// (Fig. 4) or per spelling family (`select.<cmp>`, `[f]`, `{agg}`, ...).
/// The analyzer, the interpreter, the lexer and the query service all walk
/// this table; adding an operator is one OpDecl plus its kernel entry point.
namespace moaflat::mil {

/// Most arguments any operator takes (`select(b, lo, hi)`, `[ifthen]`).
inline constexpr size_t kMaxArgs = 3;

/// What one argument position accepts.
enum class ArgKind : uint8_t { kBat, kScalar, kAny };

/// What follows a family's prefix (and precedes its close): nothing, a
/// comparator, an aggregate or a scalar-function name.
enum class Suffix : uint8_t { kNone, kCmp, kAgg, kFn };

struct OpDecl;

/// A spelling resolved against the table, its suffix parsed once.
struct ResolvedOp {
  const OpDecl* decl = nullptr;  // null: not a MIL operator
  kernel::CmpOp cmp = kernel::CmpOp::kEq;
  kernel::AggKind agg = kernel::AggKind::kSum;
  const kernel::ScalarFn* fn = nullptr;
};

/// One statement as the type and price rules see it. They only run once
/// every operand resolved to the kind its position takes.
struct StaticStmt {
  const MilStmt& stmt;
  const ResolvedOp& op;
  std::vector<Diagnostic>* diags;
  AbstractBinding arg[kMaxArgs] = {};
  /// Value of a literal or catalog-bound scalar operand; null when it only
  /// exists at run time (a calc.* result) or the operand is a BAT.
  const Value* known[kMaxArgs] = {};
  double est_selectivity = -1;  // two-probe estimate of the select rules
  AbstractBinding result = {};  // set before the price rule runs

  void Error(std::string message) const;
  void Warn(std::string message) const;
};

/// One statement as an exec rule sees it: each operand fetched as the
/// kind its position takes, and the argument count checked.
struct ExecArgs {
  const kernel::ExecContext& ctx;
  const MilStmt& stmt;
  const ResolvedOp& op;
  std::optional<MilEnv::Binding> arg[kMaxArgs];

  const bat::Bat& BatAt(size_t i) const { return std::get<bat::Bat>(*arg[i]); }
  const Value& ValAt(size_t i) const { return std::get<Value>(*arg[i]); }
};

struct OpDecl {
  std::string_view prefix;  // the whole name when `suffix` is kNone
  Suffix suffix;
  std::string_view close;
  /// Bit n set: n arguments are accepted. 0: the scalar function's arity.
  uint8_t arities;
  ArgKind kinds[kMaxArgs];
  /// Rebinds state a durable session must log (the WAL's mutations).
  bool mutates;
  /// Type-and-cardinality rule: the inferred result binding. Diagnoses
  /// through s.Error and returns UnknownBinding() on a type error.
  AbstractBinding (*type)(StaticStmt& s);
  /// Section 5.2.2 fault price at one end of the cardinality interval.
  double (*price)(const StaticStmt& s, bool hi_end);
  /// Runs the kernel entry point.
  Result<MilEnv::Binding> (*exec)(const ExecArgs& a);
};

/// Every declaration, in table order.
std::span<const OpDecl> AllOps();

/// Resolves `spelling`; decl is null when it names no operator.
ResolvedOp ResolveOp(std::string_view spelling);

/// The error for a spelling ResolveOp rejects (a family with an unknown
/// comparator, aggregate or function is no operator either).
Status UnknownOp(std::string_view spelling);

/// The error for a statement that passes `got` arguments, or OK.
Status CheckArity(const ResolvedOp& op, std::string_view spelling,
                  size_t got);

/// The comparator a comparison name spells ("=", "!=", "<", ...).
std::optional<kernel::CmpOp> CmpOf(std::string_view name);

/// The aggregate an aggregate name spells ("sum", "count", ...).
std::optional<kernel::AggKind> AggOf(std::string_view name);

/// A kernel result as an environment binding.
template <typename T>
Result<MilEnv::Binding> AsBinding(Result<T> r) {
  if (!r.ok()) return r.status();
  return MilEnv::Binding(std::move(r).Value());
}

/// Result of a failed inference: statements reading it are not diagnosed
/// again.
AbstractBinding UnknownBinding();
AbstractBinding BatBinding(MonetType head, MonetType tail, CardInterval card,
                           bool head_key);
AbstractBinding ScalarBinding(MonetType t);

}  // namespace moaflat::mil

#endif  // MOAFLAT_MIL_OPS_H_
