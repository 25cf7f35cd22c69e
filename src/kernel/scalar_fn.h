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
};

/// Every scalar function, in table order.
std::span<const ScalarFn> AllScalarFns();

/// The entry named `name`, or null.
const ScalarFn* FindScalarFn(std::string_view name);

/// True when a value of type `t` may stand at argument `pos` of `f`.
bool ScalarArgFits(const ScalarFn& f, size_t pos, MonetType t);

/// The diagnostic for an argument ScalarArgFits rejects.
std::string ScalarArgError(const ScalarFn& f, size_t pos, MonetType t);

/// Result type of `fn` applied to arguments of the given types.
Result<MonetType> ScalarResultType(const std::string& fn,
                                   const std::vector<MonetType>& args);

/// Applies `fn` to boxed arguments; a wrongly typed argument is a
/// TypeError.
Result<Value> ScalarApply(const std::string& fn,
                          const std::vector<Value>& args);

/// True if `fn` is a pure numeric binary operator eligible for the
/// unboxed multiplex fast path.
bool IsNumericBinary(const std::string& fn);

/// SQL LIKE matching with '%' (any run) and '_' (any single char).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_SCALAR_FN_H_
