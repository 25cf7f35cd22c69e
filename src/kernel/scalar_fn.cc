#include "kernel/scalar_fn.h"

#include <iterator>

namespace moaflat::kernel {
namespace {

template <char Op>
Result<Value> Arith(const Value* a) {
  MF_ASSIGN_OR_RETURN(double x, a[0].ToDouble());
  MF_ASSIGN_OR_RETURN(double y, a[1].ToDouble());
  if constexpr (Op == '+') return Value::Dbl(x + y);
  if constexpr (Op == '-') return Value::Dbl(x - y);
  if constexpr (Op == '*') return Value::Dbl(x * y);
  if (y == 0.0) return Status::ExecutionError("division by zero");
  return Value::Dbl(x / y);
}

/// A comparison as the wanted outcomes of the three-way Value::Compare.
template <bool kLt, bool kEq, bool kGt>
Result<Value> Cmp(const Value* a) {
  const int c = Value::Compare(a[0], a[1]);
  return Value::Bit(c < 0 ? kLt : c > 0 ? kGt : kEq);
}

Result<Value> And(const Value* a) {
  return Value::Bit(a[0].AsBit() && a[1].AsBit());
}
Result<Value> Or(const Value* a) {
  return Value::Bit(a[0].AsBit() || a[1].AsBit());
}
Result<Value> Not(const Value* a) { return Value::Bit(!a[0].AsBit()); }
Result<Value> Year(const Value* a) { return Value::Int(a[0].AsDate().Year()); }
Result<Value> Month(const Value* a) {
  return Value::Int(a[0].AsDate().Month());
}
Result<Value> Day(const Value* a) { return Value::Int(a[0].AsDate().Day()); }
Result<Value> Like(const Value* a) {
  return Value::Bit(LikeMatch(a[0].AsStr(), a[1].AsStr()));
}
Result<Value> Length(const Value* a) {
  return Value::Int(static_cast<int32_t>(a[0].AsStr().size()));
}
Result<Value> Concat(const Value* a) {
  return Value::Str(a[0].AsStr() + a[1].AsStr());
}
Result<Value> IfThen(const Value* a) { return a[0].AsBit() ? a[1] : a[2]; }

using C = ScalarClass;
using R = RowOp;
constexpr MonetType kBitT = MonetType::kBit;
constexpr MonetType kIntT = MonetType::kInt;

/// A comparison entry: the boxed Cmp and the typed loop's outcomes agree
/// by construction.
template <bool kLt, bool kEq, bool kGt>
constexpr ScalarFn CmpFn(std::string_view name) {
  return {name, 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<kLt, kEq, kGt>,
          {R::kCmp, kLt, kEq, kGt}};
}

constexpr ScalarFn kScalarFns[] = {
    {"+", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'+'>, {R::kAdd}},
    {"-", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'-'>, {R::kSub}},
    {"*", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'*'>, {R::kMul}},
    {"/", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'/'>, {R::kDiv}},
    CmpFn<false, true, false>("="),
    CmpFn<true, false, true>("!="),
    CmpFn<true, false, false>("<"),
    CmpFn<true, true, false>("<="),
    CmpFn<false, false, true>(">"),
    CmpFn<false, true, true>(">="),
    {"and", 2, {C::kBit, C::kBit}, kBitT, -1, And, {R::kAnd}},
    {"or", 2, {C::kBit, C::kBit}, kBitT, -1, Or, {R::kOr}},
    {"not", 1, {C::kBit}, kBitT, -1, Not, {R::kNot}},
    {"year", 1, {C::kDate}, kIntT, -1, Year, {R::kYear}},
    {"month", 1, {C::kDate}, kIntT, -1, Month, {R::kMonth}},
    {"day", 1, {C::kDate}, kIntT, -1, Day, {R::kDay}},
    {"like", 2, {C::kStr, C::kStr}, kBitT, -1, Like, {}},
    {"length", 1, {C::kStr}, kIntT, -1, Length, {}},
    {"concat", 2, {C::kStr, C::kStr}, MonetType::kStr, -1, Concat, {}},
    {"ifthen", 3, {C::kBit, C::kSame, C::kSame}, MonetType::kVoid, 1, IfThen,
     {R::kIfThen}},
};

Status CheckArity(const ScalarFn& f, size_t got) {
  if (got == f.arity) return Status::OK();
  return Status::Invalid("scalar fn '" + std::string(f.name) + "' expects " +
                         std::to_string(f.arity) + " args, got " +
                         std::to_string(got));
}

}  // namespace

std::span<const ScalarFn> AllScalarFns() { return kScalarFns; }

const ScalarFn* FindScalarFn(std::string_view name) {
  for (const ScalarFn& f : kScalarFns) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

bool ScalarArgFits(const ScalarFn& f, size_t pos, MonetType t) {
  t = StoredType(t);
  switch (f.args[pos]) {
    case ScalarClass::kNum:
      return t != MonetType::kStr;
    case ScalarClass::kBit:
      return t == MonetType::kBit;
    case ScalarClass::kDate:
      return t == MonetType::kDate;
    case ScalarClass::kStr:
      return t == MonetType::kStr;
    case ScalarClass::kCmp:
    case ScalarClass::kSame:
      return true;
  }
  return false;
}

std::string ScalarArgError(const ScalarFn& f, size_t pos, MonetType t) {
  static constexpr const char* kWanted[] = {"numeric", "bit", "date", "str"};
  const auto c = static_cast<size_t>(f.args[pos]);
  return "'" + std::string(f.name) + "' needs " +
         (c < std::size(kWanted) ? kWanted[c] : "other") +
         " operands, argument " + std::to_string(pos + 1) + " is " +
         TypeName(StoredType(t));
}

Result<MonetType> ScalarResultType(const ScalarFn& fn,
                                   const std::vector<MonetType>& args) {
  MF_RETURN_NOT_OK(CheckArity(fn, args.size()));
  // A void operand contributes dense oids, so the result is oid.
  if (fn.result_arg < 0) return fn.result;
  return StoredType(args[fn.result_arg]);
}

Status ScalarArgCheck(const ScalarFn& fn, size_t pos, MonetType t) {
  if (t == MonetType::kVoid) {
    return Status::TypeError("'" + std::string(fn.name) + "' argument " +
                             std::to_string(pos + 1) + " is nil");
  }
  if (!ScalarArgFits(fn, pos, t)) {
    return Status::TypeError(ScalarArgError(fn, pos, t));
  }
  return Status::OK();
}

Result<Value> ScalarApply(const ScalarFn& fn, const std::vector<Value>& args) {
  MF_RETURN_NOT_OK(CheckArity(fn, args.size()));
  for (size_t i = 0; i < args.size(); ++i) {
    MF_RETURN_NOT_OK(ScalarArgCheck(fn, i, args[i].type()));
  }
  return fn.apply(args.data());
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer wildcard matcher ('%' = any run, '_' = any one).
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace moaflat::kernel
