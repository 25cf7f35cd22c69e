#include "common/value.h"

#include <cmath>
#include <sstream>

namespace moaflat {

Result<double> Value::ToDouble() const {
  switch (type_) {
    case MonetType::kBit:
      return AsBit() ? 1.0 : 0.0;
    case MonetType::kChr:
      return static_cast<double>(AsChr());
    case MonetType::kInt:
      return static_cast<double>(AsInt());
    case MonetType::kLng:
      return static_cast<double>(AsLng());
    case MonetType::kOidT:
      return static_cast<double>(AsOid());
    case MonetType::kFlt:
      return static_cast<double>(AsFlt());
    case MonetType::kDbl:
      return AsDbl();
    case MonetType::kDate:
      return static_cast<double>(AsDate().days());
    default:
      return Status::TypeError("cannot view " + std::string(TypeName(type_)) +
                               " as double");
  }
}

Result<Value> Value::CastTo(MonetType target) const {
  if (type_ == target) return *this;
  switch (target) {
    case MonetType::kInt: {
      MF_ASSIGN_OR_RETURN(double d, ToDouble());
      return Value::Int(static_cast<int32_t>(d));
    }
    case MonetType::kLng: {
      MF_ASSIGN_OR_RETURN(double d, ToDouble());
      return Value::Lng(static_cast<int64_t>(d));
    }
    case MonetType::kOidT: {
      MF_ASSIGN_OR_RETURN(double d, ToDouble());
      if (d < 0) {
        return Status::TypeError("cannot cast " + ToString() + " to oid");
      }
      return Value::MakeOid(static_cast<Oid>(d));
    }
    case MonetType::kFlt: {
      MF_ASSIGN_OR_RETURN(double d, ToDouble());
      return Value::Flt(static_cast<float>(d));
    }
    case MonetType::kDbl: {
      MF_ASSIGN_OR_RETURN(double d, ToDouble());
      return Value::Dbl(d);
    }
    case MonetType::kChr: {
      if (type_ == MonetType::kStr && AsStr().size() == 1) {
        return Value::Chr(AsStr()[0]);
      }
      return Status::TypeError("cannot cast " + ToString() + " to chr");
    }
    case MonetType::kDate: {
      if (type_ == MonetType::kStr) {
        Date d;
        if (Date::Parse(AsStr(), &d)) return Value::MakeDate(d);
      }
      if (type_ == MonetType::kInt) return Value::MakeDate(Date(AsInt()));
      return Status::TypeError("cannot cast " + ToString() + " to date");
    }
    case MonetType::kStr:
      return Value::Str(ToString());
    default:
      return Status::TypeError(std::string("unsupported cast to ") +
                               TypeName(target));
  }
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type_) {
    case MonetType::kVoid:
      os << "nil";
      break;
    case MonetType::kBit:
      os << (AsBit() ? "true" : "false");
      break;
    case MonetType::kChr:
      os << '\'' << AsChr() << '\'';
      break;
    case MonetType::kInt:
      os << AsInt();
      break;
    case MonetType::kLng:
      os << AsLng();
      break;
    case MonetType::kOidT:
      os << AsOid() << "@0";
      break;
    case MonetType::kFlt:
      os << AsFlt();
      break;
    case MonetType::kDbl:
      os << AsDbl();
      break;
    case MonetType::kStr:
      os << '"' << AsStr() << '"';
      break;
    case MonetType::kDate:
      os << AsDate().ToString();
      break;
    default:
      os << "?";
  }
  return os.str();
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.type() == MonetType::kStr && b.type() == MonetType::kStr) {
    return a.AsStr().compare(b.AsStr());
  }
  auto da = a.ToDouble();
  auto db = b.ToDouble();
  if (da.ok() && db.ok()) {
    if (*da < *db) return -1;
    if (*da > *db) return 1;
    return 0;
  }
  // Fall back to type ordering for incomparable values.
  return static_cast<int>(a.type()) - static_cast<int>(b.type());
}

}  // namespace moaflat
