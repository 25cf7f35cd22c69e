#ifndef MOAFLAT_COMMON_TYPES_H_
#define MOAFLAT_COMMON_TYPES_H_

#include <cstdint>
#include <string>

namespace moaflat {

/// Object identifier. Monet's `oid` atomic type (Section 3.3 of the paper):
/// the value domain used to identify objects, tuples and set elements.
using Oid = uint64_t;

/// Sentinel for "no oid" / nil.
inline constexpr Oid kNilOid = ~Oid{0};

/// The atomic ("base") types of the Monet kernel as listed in Section 3.1:
/// {bool, short, integer, float, double, long, string} plus `oid`, `char`,
/// and the `date` extension type used by the TPC-D schema (`instant`).
/// `kVoid` is the zero-space dense-sequence column type of Section 5.2
/// ("BATs that have the zero-space type void in one column").
enum class MonetType : uint8_t {
  kVoid = 0,
  kBit,    // bool
  kChr,    // char
  kSht,    // int16
  kInt,    // int32
  kLng,    // int64
  kOidT,   // object identifier
  kFlt,    // float
  kDbl,    // double
  kStr,    // variable-size string (separate heap, Fig. 2)
  kDate,   // days since 1970-01-01 (TPC-D `instant`)
};

/// Returns the Monet name of a type ("void", "oid", "int", ...).
const char* TypeName(MonetType t);

/// Byte width of one value of type `t` inside a BUN heap. Strings count the
/// width of their offset slot (the bytes live in the string heap); void
/// columns occupy zero bytes, which is what makes the paper's "unary BATs"
/// half-width.
int TypeWidth(MonetType t);

/// The type a column of type `t` materializes as, and its values read as:
/// a void column's values are dense oids. Every other type is itself.
inline MonetType StoredType(MonetType t) {
  return t == MonetType::kVoid ? MonetType::kOidT : t;
}

/// True for the numeric types on which arithmetic multiplex operations are
/// defined (sht/int/lng/flt/dbl).
bool IsNumeric(MonetType t);

/// A calendar date stored as days since the epoch 1970-01-01 (proleptic
/// Gregorian). Implements the TPC-D `instant` attribute type.
class Date {
 public:
  Date() = default;
  explicit Date(int32_t days_since_epoch) : days_(days_since_epoch) {}

  /// Builds a date from a civil year/month/day triple.
  static Date FromYmd(int year, int month, int day);

  /// Parses "YYYY-MM-DD". Returns false on malformed input.
  static bool Parse(const std::string& text, Date* out);

  int32_t days() const { return days_; }
  int Year() const;
  int Month() const;
  int Day() const;

  /// Formats as "YYYY-MM-DD".
  std::string ToString() const;

  Date AddDays(int n) const { return Date(days_ + n); }

  friend bool operator==(Date a, Date b) { return a.days_ == b.days_; }
  friend auto operator<=>(Date a, Date b) { return a.days_ <=> b.days_; }

 private:
  int32_t days_ = 0;
};

}  // namespace moaflat

#endif  // MOAFLAT_COMMON_TYPES_H_
