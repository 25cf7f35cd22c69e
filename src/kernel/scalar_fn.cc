#include "kernel/scalar_fn.h"

#include <iterator>

namespace moaflat::kernel {
namespace {

MonetType Norm(MonetType t) {
  return t == MonetType::kVoid ? MonetType::kOidT : t;
}

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
constexpr MonetType kBitT = MonetType::kBit;
constexpr MonetType kIntT = MonetType::kInt;

constexpr ScalarFn kScalarFns[] = {
    {"+", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'+'>},
    {"-", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'-'>},
    {"*", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'*'>},
    {"/", 2, {C::kNum, C::kNum}, MonetType::kDbl, -1, Arith<'/'>},
    {"=", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<false, true, false>},
    {"!=", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<true, false, true>},
    {"<", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<true, false, false>},
    {"<=", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<true, true, false>},
    {">", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<false, false, true>},
    {">=", 2, {C::kCmp, C::kCmp}, kBitT, -1, Cmp<false, true, true>},
    {"and", 2, {C::kBit, C::kBit}, kBitT, -1, And},
    {"or", 2, {C::kBit, C::kBit}, kBitT, -1, Or},
    {"not", 1, {C::kBit}, kBitT, -1, Not},
    {"year", 1, {C::kDate}, kIntT, -1, Year},
    {"month", 1, {C::kDate}, kIntT, -1, Month},
    {"day", 1, {C::kDate}, kIntT, -1, Day},
    {"like", 2, {C::kStr, C::kStr}, kBitT, -1, Like},
    {"length", 1, {C::kStr}, kIntT, -1, Length},
    {"concat", 2, {C::kStr, C::kStr}, MonetType::kStr, -1, Concat},
    {"ifthen", 3, {C::kBit, C::kSame, C::kSame}, MonetType::kVoid, 1, IfThen},
};

Status ArityError(const ScalarFn& f, size_t got) {
  return Status::Invalid("scalar fn '" + std::string(f.name) + "' expects " +
                         std::to_string(f.arity) + " args, got " +
                         std::to_string(got));
}

Result<const ScalarFn*> Lookup(const std::string& fn, size_t arity) {
  const ScalarFn* f = FindScalarFn(fn);
  if (f == nullptr) {
    return Status::NotImplemented("unknown scalar fn '" + fn + "'");
  }
  if (arity != f->arity) return ArityError(*f, arity);
  return f;
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
  t = Norm(t);
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
         TypeName(Norm(t));
}

bool IsNumericBinary(const std::string& fn) {
  const ScalarFn* f = FindScalarFn(fn);
  return f != nullptr && f->arity == 2 && f->args[0] == ScalarClass::kNum &&
         f->args[1] == ScalarClass::kNum;
}

Result<MonetType> ScalarResultType(const std::string& fn,
                                   const std::vector<MonetType>& args) {
  MF_ASSIGN_OR_RETURN(const ScalarFn* f, Lookup(fn, args.size()));
  // A void operand contributes dense oids, so the result is oid.
  if (f->result_arg < 0) return f->result;
  const MonetType t = args[f->result_arg];
  return t == MonetType::kVoid ? MonetType::kOidT : t;
}

Result<Value> ScalarApply(const std::string& fn,
                          const std::vector<Value>& args) {
  MF_ASSIGN_OR_RETURN(const ScalarFn* f, Lookup(fn, args.size()));
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].type() == MonetType::kVoid) {  // nil: no column is void-valued
      return Status::TypeError("'" + fn + "' argument " +
                               std::to_string(i + 1) + " is nil");
    }
    if (!ScalarArgFits(*f, i, args[i].type())) {
      return Status::TypeError(ScalarArgError(*f, i, args[i].type()));
    }
  }
  return f->apply(args.data());
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
