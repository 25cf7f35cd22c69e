#ifndef MOAFLAT_KERNEL_SCALAR_FN_H_
#define MOAFLAT_KERNEL_SCALAR_FN_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace moaflat::kernel {

/// The scalar operation vocabulary available to the multiplex constructor
/// [f](...) of Fig. 4 ("bulk application of any algebraic operation") and
/// to MIL's `calc.f`, as data: arithmetic, comparisons, logic, calendar,
/// string and conditional functions, one ScalarFn each in scalar_fn.cc.
/// This is the extension point mirroring Monet's run-time extensible
/// operator set (Section 2, "algebra commands and operators can be added").

/// What one argument position of a scalar function accepts. Void columns
/// carry dense oids, so a void operand is read as oid.
enum class ScalarClass : uint8_t {
  kNum,  // any type Value::ToDouble reads: everything but str
  kBit,
  kDate,
  kStr,
  kCmp,   // any type, comparable with the other kCmp operand (str with str)
  kSame,  // any type, the same as the other kSame operand
};

/// The row evaluation multiplex's typed loop runs for a function
/// (kernel/multiplex.cc): an arithmetic operator, a comparison, a logical
/// connective, ifthen or a calendar field. kNone leaves the function to
/// the boxed `apply`.
enum class RowOp : uint8_t {
  kNone,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kCmp,
  kAnd,
  kOr,
  kNot,
  kIfThen,
  kYear,
  kMonth,
  kDay,
};

struct RowEval {
  RowOp op = RowOp::kNone;
  /// kCmp: the outcomes of the three-way comparison that yield true.
  bool lt = false, eq = false, gt = false;
};

struct ScalarFn {
  std::string_view name;
  size_t arity;
  ScalarClass args[3];
  /// Result type, unless `result_arg` names the argument whose type the
  /// result takes (ifthen).
  MonetType result;
  int result_arg;
  /// Boxed application to `arity` arguments that passed ScalarArgFits.
  Result<Value> (*apply)(const Value* args);
  /// The typed row evaluation of the same function.
  RowEval eval;
};

/// Every scalar function, in table order.
std::span<const ScalarFn> AllScalarFns();

/// The entry named `name`, or null: the one name -> entry lookup. Callers
/// resolve a function once and pass the entry on.
const ScalarFn* FindScalarFn(std::string_view name);

/// True when a value of type `t` may stand at argument `pos` of `f`.
bool ScalarArgFits(const ScalarFn& f, size_t pos, MonetType t);

/// The diagnostic for an argument ScalarArgFits rejects.
std::string ScalarArgError(const ScalarFn& f, size_t pos, MonetType t);

/// Result type of `fn` applied to arguments of the given types; a wrong
/// argument count is Invalid.
Result<MonetType> ScalarResultType(const ScalarFn& fn,
                                   const std::vector<MonetType>& args);

/// Checks that a value of type `t` may stand at argument `pos` of `fn`:
/// a nil (a kVoid value; a void column's values are oids) or a value
/// ScalarArgFits rejects is a TypeError.
Status ScalarArgCheck(const ScalarFn& fn, size_t pos, MonetType t);

/// Applies `fn` to boxed arguments; a wrong argument count is Invalid, a
/// nil or wrongly typed argument a TypeError.
Result<Value> ScalarApply(const ScalarFn& fn, const std::vector<Value>& args);

/// SQL LIKE matching with '%' (any run) and '_' (any single char).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_SCALAR_FN_H_
