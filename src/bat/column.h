#ifndef MOAFLAT_BAT_COLUMN_H_
#define MOAFLAT_BAT_COLUMN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "common/value.h"
#include "storage/page_accountant.h"
#include "storage/string_heap.h"

namespace moaflat::bat {

class Column;
using ColumnPtr = std::shared_ptr<const Column>;

/// Tag carrying the native C++ storage type of a MonetType, passed to
/// Column::VisitType visitors so storage loops can be written once and
/// instantiated per type.
template <typename T>
struct TypeTag {
  using type = T;
};

/// Hash mixer of the value view's integral and float hashes.
inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a: the hash of a str value.
inline uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Native storage value of a boxed Value already cast to the storage type
/// T — the single Value -> native mapping shared by
/// ColumnBuilder::AppendValue/AppendRepeat and the kernel result sinks.
template <typename T>
inline T NativeValueOf(const Value& v) {
  if constexpr (std::is_same_v<T, Oid>) {
    return v.AsOid();
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return v.AsBit() ? 1 : 0;
  } else if constexpr (std::is_same_v<T, char>) {
    return v.AsChr();
  } else if constexpr (std::is_same_v<T, int16_t>) {
    return static_cast<int16_t>(v.AsInt());
  } else if constexpr (std::is_same_v<T, int32_t>) {
    return v.AsInt();
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return v.AsLng();
  } else if constexpr (std::is_same_v<T, float>) {
    return v.AsFlt();
  } else if constexpr (std::is_same_v<T, double>) {
    return v.AsDbl();
  } else {
    return v.AsDate();
  }
}

// --------------------------------------------------------------------
// The value view: what a column value *is* — its numeric view, hash,
// equality and order — defined here once, for every storage shape.
//
// Column::VisitValues hands a kernel loop one accessor per shape (a
// native span per fixed-width type, the dense base of a void column, the
// offsets into a str heap), and VisitBound lowers a boxed constant once
// to a one-value accessor comparable with a column's. A loop written
// once over `auto` accessors and the four operations below is
// instantiated per shape with no per-value dispatch.
//
// Each value reads as a key: bit/chr/sht/int/lng/date as int64 (bit 0/1,
// date its day number), oid/void as uint64, flt/dbl as double, str as its
// bytes. Two integral keys compare exactly — sign-aware between int64 and
// oid, so 2^53 and 2^53+1 stay apart. A float on either side compares
// both as doubles (NaN compares "equal" in the three-way Compare but is
// never Equal). Strings order bytewise, after every non-str value, and
// never equal one.

/// A fixed-width column: its native span.
template <typename T>
struct NativeValues {
  const T* data;
  T operator[](size_t i) const { return data[i]; }
};

/// A void column: the dense oids base, base+1, ...
struct VoidValues {
  Oid base;
  Oid operator[](size_t i) const { return base + i; }
};

/// A str column: offsets into one (deduplicating) string heap.
struct StrValues {
  const storage::StringHeap* heap;
  const int32_t* offsets;
  std::string_view operator[](size_t i) const {
    return heap->View(offsets[i]);
  }
};

/// One boxed constant lowered to a key (VisitBound): reads the same at
/// every position.
template <typename K>
struct ConstValue {
  K key;
  K operator[](size_t) const { return key; }
};

/// The key of one native value (see above).
template <typename T>
inline auto ValueKey(T v) {
  if constexpr (std::is_same_v<T, Oid> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string_view>) {
    return v;
  } else if constexpr (std::is_same_v<T, float>) {
    return static_cast<double>(v);
  } else if constexpr (std::is_same_v<T, Date>) {
    return static_cast<int64_t>(v.days());
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return static_cast<int64_t>(v != 0);
  } else {
    return static_cast<int64_t>(v);
  }
}

namespace value_internal {

template <typename K>
inline constexpr bool kIsStr = std::is_same_v<K, std::string_view>;

template <typename K>
inline constexpr bool kIsFloat = std::is_same_v<K, double>;

template <typename A, typename B>
inline int CompareKeys(A a, B b) {
  if constexpr (kIsStr<A> && kIsStr<B>) {
    const int c = a.compare(b);
    return (c > 0) - (c < 0);
  } else if constexpr (kIsStr<A>) {
    return 1;
  } else if constexpr (kIsStr<B>) {
    return -1;
  } else if constexpr (kIsFloat<A> || kIsFloat<B>) {
    const double x = static_cast<double>(a);
    const double y = static_cast<double>(b);
    return x < y ? -1 : (x > y ? 1 : 0);
  } else if constexpr (std::is_same_v<A, B>) {
    return (a > b) - (a < b);
  } else if constexpr (std::is_signed_v<A>) {
    return a < 0 ? -1 : CompareKeys(static_cast<uint64_t>(a), b);
  } else {
    return b < 0 ? 1 : CompareKeys(a, static_cast<uint64_t>(b));
  }
}

template <typename A, typename B>
inline bool EqualKeys(A a, B b) {
  if constexpr (kIsStr<A> != kIsStr<B>) {
    return false;
  } else if constexpr (kIsStr<A> || std::is_same_v<A, B>) {
    return a == b;
  } else if constexpr (kIsFloat<A> || kIsFloat<B>) {
    return static_cast<double>(a) == static_cast<double>(b);
  } else if constexpr (std::is_signed_v<A>) {
    return a >= 0 && static_cast<uint64_t>(a) == b;
  } else {
    return b >= 0 && a == static_cast<uint64_t>(b);
  }
}

/// A bit/chr/int/lng/date constant as an int64 key; nullopt otherwise.
inline std::optional<int64_t> SignedOf(const Value& v) {
  switch (v.type()) {
    case MonetType::kBit: return v.AsBit() ? 1 : 0;
    case MonetType::kChr: return v.AsChr();
    case MonetType::kInt: return v.AsInt();
    case MonetType::kLng: return v.AsLng();
    case MonetType::kDate: return v.AsDate().days();
    default: return std::nullopt;
  }
}

template <typename K>
inline uint64_t HashKey(K k) {
  if constexpr (kIsStr<K>) {
    return HashBytes(k);
  } else if constexpr (kIsFloat<K>) {
    const double d = k == 0 ? 0.0 : k;  // -0.0 is 0.0
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(d));
    return MixHash64(bits);
  } else {
    return MixHash64(static_cast<uint64_t>(k));
  }
}

}  // namespace value_internal

/// Numeric view of value i (str reads as 0.0).
template <typename V>
inline double Num(const V& v, size_t i) {
  auto k = ValueKey(v[i]);
  if constexpr (value_internal::kIsStr<decltype(k)>) {
    return 0.0;
  } else {
    return static_cast<double>(k);
  }
}

/// Hash of value i. Equal values hash equal within a key class (integral,
/// float, str), across columns and shapes; -0.0 hashes as 0.0. An
/// integral and a float value hash apart even where they are Equal (the
/// analyzer warns about such lossy matches).
template <typename V>
inline uint64_t Hash(const V& v, size_t i) {
  return value_internal::HashKey(ValueKey(v[i]));
}

namespace value_internal {

template <typename V>
constexpr int KeyClass() {
  using K = decltype(ValueKey(std::declval<const std::decay_t<V>&>()[0]));
  return kIsStr<K> ? 2 : (kIsFloat<K> ? 1 : 0);
}

}  // namespace value_internal

/// True if the values of views VA and VB share a key class (integral,
/// float, str). Since the classes hash apart, a hash probe matches only
/// within its own class, whatever the accelerator's form or size.
template <typename VA, typename VB>
inline constexpr bool kSameKeyClass =
    value_internal::KeyClass<VA>() == value_internal::KeyClass<VB>();

/// Three-way comparison of a[i] against b[j]: negative, 0 or positive.
template <typename VA, typename VB>
inline int Compare(const VA& a, size_t i, const VB& b, size_t j) {
  return value_internal::CompareKeys(ValueKey(a[i]), ValueKey(b[j]));
}

/// Value equality of a[i] and b[j]. Two str columns on one heap compare
/// offsets (the heap deduplicates).
template <typename VA, typename VB>
inline bool Equal(const VA& a, size_t i, const VB& b, size_t j) {
  if constexpr (std::is_same_v<VA, StrValues> &&
                std::is_same_v<VB, StrValues>) {
    if (a.heap == b.heap) return a.offsets[i] == b.offsets[j];
  }
  return value_internal::EqualKeys(ValueKey(a[i]), ValueKey(b[j]));
}

/// Hash of one native storage value: Hash over a one-value view.
template <typename T>
inline uint64_t TypedValueHash(T v) {
  return value_internal::HashKey(ValueKey(v));
}

/// Lowers the boxed constant `v` once against the value view `view` (a
/// select bound) and runs `f(bound)` with a one-value view, to be compared
/// against `view` at index 0. The bound compares exactly as the boxed
/// value would, through at most two view kinds per column view: against
/// integral values, an integral constant becomes the column's own key (or
/// +-infinity where it lies outside that key's range), a float constant a
/// double, and a str constant +infinity (every non-str value sorts before
/// it); against float values, any numeric constant is a double; against
/// str values, a str constant is its bytes and any other constant a
/// number (every str value sorts after it). nil reads as the number 0.
template <typename V, typename F>
decltype(auto) VisitBound(const V& view, const Value& v, F&& f) {
  (void)view;
  using K = decltype(ValueKey(view[0]));
  const bool str = v.type() == MonetType::kStr;
  if constexpr (value_internal::kIsStr<K> || value_internal::kIsFloat<K>) {
    if (str) return f(ConstValue<std::string_view>{v.AsStr()});
    const Result<double> d = v.ToDouble();
    return f(ConstValue<double>{d.ok() ? *d : 0.0});
  } else {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    K key = 0;
    bool exact = false;  // `key` holds the constant exactly
    double num = 0.0;    // else its stand-in under the double rule
    if (const std::optional<int64_t> c = value_internal::SignedOf(v)) {
      exact = std::is_same_v<K, int64_t> || *c >= 0;
      key = static_cast<K>(*c);
      num = -kInf;  // a negative constant lies below every oid
    } else if (v.type() == MonetType::kOidT) {
      exact = std::is_same_v<K, Oid> ||
              v.AsOid() <=
                  static_cast<Oid>(std::numeric_limits<int64_t>::max());
      key = static_cast<K>(v.AsOid());
      num = kInf;  // an oid past int64 lies above every int64
    } else if (str) {
      num = kInf;
    } else {
      const Result<double> d = v.ToDouble();
      num = d.ok() ? *d : 0.0;
    }
    if (exact) return f(ConstValue<K>{key});
    return f(ConstValue<double>{num});
  }
}

/// One column (head or tail) of a BAT: a typed, immutable value sequence
/// stored as a dense BUN heap (Fig. 2 of the paper).
///
/// Three storage shapes exist:
///   - `void` columns store nothing and represent the dense oid sequence
///     base, base+1, ... (the "zero-space type void" of Section 5.2 that
///     makes unary BATs possible);
///   - fixed-width columns store a native vector (oid/chr/int/lng/flt/dbl/
///     date/bit);
///   - string columns store int32 offsets into a shared StringHeap.
///
/// Every column registers a heap id with the page accountant so kernel
/// operators can report simulated page faults, and carries a `sync key`:
/// two BATs whose head columns have equal sync keys are *synced* in the
/// sense of Section 5.1 (their BUNs correspond by position). Operators
/// derive result sync keys deterministically from operand sync keys, which
/// is how e.g. the two datavector semijoins in Q13 (Fig. 10) are recognized
/// as producing synced results.
class Column {
 public:
  /// Dense sequence base, base+1, ..., base+n-1 of type void/oid.
  static ColumnPtr MakeVoid(Oid base, size_t n);

  static ColumnPtr MakeOid(std::vector<Oid> v);
  static ColumnPtr MakeBit(std::vector<uint8_t> v);
  static ColumnPtr MakeChr(std::vector<char> v);
  static ColumnPtr MakeSht(std::vector<int16_t> v);
  static ColumnPtr MakeInt(std::vector<int32_t> v);
  static ColumnPtr MakeLng(std::vector<int64_t> v);
  static ColumnPtr MakeFlt(std::vector<float> v);
  static ColumnPtr MakeDbl(std::vector<double> v);
  static ColumnPtr MakeDate(std::vector<Date> v);

  /// Interns all strings into a fresh heap.
  static ColumnPtr MakeStr(const std::vector<std::string>& v);

  /// String column over an existing heap (offsets previously interned).
  static ColumnPtr MakeStrOffsets(std::shared_ptr<storage::StringHeap> heap,
                                  std::vector<int32_t> offsets);

  ~Column();

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  MonetType type() const { return type_; }
  size_t size() const { return size_; }
  bool is_void() const { return type_ == MonetType::kVoid; }
  Oid void_base() const { return void_base_; }

  /// Byte width of one stored value (0 for void).
  int width() const { return TypeWidth(type_); }

  /// Payload bytes of the BUN heap (excludes shared string heaps).
  size_t byte_size() const { return size_ * static_cast<size_t>(width()); }

  uint64_t heap_id() const { return heap_id_; }

  uint64_t sync_key() const { return sync_key_; }
  void set_sync_key(uint64_t k) { sync_key_ = k; }

  /// Typed raw access. Callers must match the column type.
  template <typename T>
  const std::vector<T>& Data() const {
    return std::get<std::vector<T>>(repr_);
  }

  /// Typed view of the native BUN heap: the zero-dispatch access path for
  /// kernel inner loops. T must be the storage type (str columns store
  /// int32 heap offsets); void columns have no storage — callers branch on
  /// is_void() first.
  template <typename T>
  std::span<const T> Span() const {
    const auto& v = std::get<std::vector<T>>(repr_);
    return std::span<const T>(v.data(), v.size());
  }

  /// Dispatches `t` to `f(TypeTag<T>{})` where T is the native storage
  /// type: the visit for storage work (builders, scatter, serde). kStr
  /// visits as its int32 offset storage; kVoid visits as Oid (the type its
  /// *values* carry — void columns have no Span). Loops that read values
  /// visit through VisitValues instead.
  template <typename F>
  static decltype(auto) VisitType(MonetType t, F&& f) {
    switch (t) {
      case MonetType::kVoid:
      case MonetType::kOidT:
        return f(TypeTag<Oid>{});
      case MonetType::kBit:
        return f(TypeTag<uint8_t>{});
      case MonetType::kChr:
        return f(TypeTag<char>{});
      case MonetType::kSht:
        return f(TypeTag<int16_t>{});
      case MonetType::kInt:
      case MonetType::kStr:
        return f(TypeTag<int32_t>{});
      case MonetType::kLng:
        return f(TypeTag<int64_t>{});
      case MonetType::kFlt:
        return f(TypeTag<float>{});
      case MonetType::kDbl:
        return f(TypeTag<double>{});
      case MonetType::kDate:
        return f(TypeTag<Date>{});
    }
    return f(TypeTag<Oid>{});
  }

  /// Runs `f(view)` with this column's value view (NativeValues<T> for a
  /// fixed-width type, VoidValues, StrValues): the one dispatch that lets
  /// a kernel loop written once over the value operations (Num, Hash,
  /// Compare, Equal) run per shape with no per-value dispatch. VisitType
  /// stays the visit for storage work (builders, scatter, serde).
  template <typename F>
  decltype(auto) VisitValues(F&& f) const {
    if (is_void()) return f(VoidValues{void_base_});
    if (type_ == MonetType::kStr) {
      return f(StrValues{str_heap_.get(), Data<int32_t>().data()});
    }
    return VisitType(type_, [&](auto tag) -> decltype(auto) {
      using T = typename decltype(tag)::type;
      return f(NativeValues<T>{Data<T>().data()});
    });
  }

  /// True if values over [lo, hi) are non-decreasing (one visit, then a
  /// tight loop over the value view).
  bool RangeSorted(size_t lo, size_t hi) const;

  /// Oid view: valid for void and oid columns.
  Oid OidAt(size_t i) const {
    if (is_void()) return void_base_ + i;
    return Data<Oid>()[i];
  }

  /// String view at position i (str columns only).
  std::string_view Str(size_t i) const {
    return str_heap_->View(Data<int32_t>()[i]);
  }

  int32_t StrOffset(size_t i) const { return Data<int32_t>()[i]; }
  const std::shared_ptr<storage::StringHeap>& str_heap() const {
    return str_heap_;
  }

  /// Boxes the value at position i (slow path; printing and tests).
  Value GetValue(size_t i) const;

  // Per-element value operations for tests, printing and the row-store
  // baseline: each is one visit plus the value view's operation. Kernel
  // loops visit once and use the view directly.

  /// Num of the value at i (dates read as their day number, str as 0).
  double NumAt(size_t i) const;

  /// Hash of the value at i.
  uint64_t HashAt(size_t i) const;

  /// Equal of this[i] and other[j].
  bool EqualAt(size_t i, const Column& other, size_t j) const;

  /// Compare of this[i] against other[j].
  int CompareAt(size_t i, const Column& other, size_t j) const;

  /// Compare of this[i] against a boxed constant (lowered by VisitBound).
  int CompareValue(size_t i, const Value& v) const;

  /// True if values are non-decreasing over [0, size).
  bool ComputeSorted() const;

  /// True if all values are distinct (hash-based check).
  bool ComputeKey() const;

  // --- IO accounting (no-ops when `io` is null) ---------------------

  /// Reports a random touch of element i to `io`. For binary searches
  /// only: a loop of per-element touches goes through PageFilter.
  void TouchAt(storage::IoStats* io, size_t i) const {
    if (io != nullptr) {
      io->TouchElement(heap_id_, i, width(), storage::Access::kRandom);
    }
  }

  /// Reports a sequential touch of elements [lo, hi) to `io`.
  void TouchRange(storage::IoStats* io, size_t lo, size_t hi) const {
    if (io != nullptr) io->TouchRange(heap_id_, lo, hi, width());
  }

  /// Reports a sequential touch of the whole column to `io`.
  void TouchAll(storage::IoStats* io) const { TouchRange(io, 0, size_); }

  /// A page filter for a loop of random touches of this column's elements
  /// (storage::ColdPageFilter): `io` sees each page's first touch, in
  /// order, and the repeats in bulk when the filter dies.
  storage::ColdPageFilter PageFilter(storage::IoStats* io) const {
    return storage::ColdPageFilter(io, heap_id_, width(), size_);
  }

  /// Reports one random touch per gathered element — the batch equivalent
  /// of a TouchAt loop, through a page filter that stops looking at the
  /// indices once every page of the column has been touched.
  void TouchGather(storage::IoStats* io, const uint32_t* idx,
                   size_t n) const;

  /// Storage representation; exposed for the builder machinery only.
  struct VoidTag {};
  using Repr =
      std::variant<VoidTag, std::vector<Oid>, std::vector<uint8_t>,
                   std::vector<char>, std::vector<int16_t>,
                   std::vector<int32_t>, std::vector<int64_t>,
                   std::vector<float>, std::vector<double>, std::vector<Date>>;

 private:
  friend class ColumnBuilder;
  friend class ColumnScatter;

  Column(MonetType type, size_t size, Repr repr,
         std::shared_ptr<storage::StringHeap> heap, Oid void_base);

  MonetType type_;
  size_t size_;
  Repr repr_;
  std::shared_ptr<storage::StringHeap> str_heap_;  // kStr only
  Oid void_base_ = 0;                              // kVoid only
  uint64_t heap_id_;
  uint64_t sync_key_;
};

/// The keys of an integral column (bit/chr/sht/int/lng/date/oid/void) laid
/// out as one offset space: key k sits at offset uint64(k) - base, and
/// every key of the column at an offset below `span` (max - min + 1). The
/// direct-addressed accelerator forms index their arrays by it.
struct KeyRange {
  uint64_t base = 0;  // the smallest key, as uint64 (int64 keys wrap)
  uint64_t span = 0;  // max - min + 1

  /// Offset of a key of the range's own key type (int64 or oid).
  template <typename K>
  uint64_t Offset(K k) const {
    return static_cast<uint64_t>(k) - base;
  }
};

/// The key range of an integral column, from one pass over its value view
/// (on the TaskPool at degree > 1; a void column reads its base and size):
/// nullopt for an empty, flt, dbl or str column, and for one whose keys
/// span all 2^64 values. Callers compute it once per column and kernel
/// call and hand it to every table built over that column.
std::optional<KeyRange> IntegralKeyRange(const Column& col, int degree = 1);

/// Up to kRows consecutive values of one column lowered to their keys
/// (a str column's offsets stay offsets): a value view of one of four
/// kinds — int64, oid, double or str — whatever the column's storage
/// shape. A loop over two columns reads one side through it and is
/// instantiated per (shape, key kind) instead of per pair of shapes.
class KeyBatch {
 public:
  static constexpr size_t kRows = 1024;

  /// Lowers col[lo, hi); requires hi - lo <= kRows.
  void Fill(const Column& col, size_t lo, size_t hi);

  /// Runs `f(view)` with the batch's value view; index k is row lo + k.
  template <typename F>
  void Visit(F&& f) const {
    switch (kind_) {
      case Kind::kInt: return f(NativeValues<int64_t>{ints_});
      case Kind::kOid: return f(NativeValues<Oid>{oids_});
      case Kind::kFloat: return f(NativeValues<double>{floats_});
      case Kind::kStr: return f(StrValues{heap_, offsets_});
    }
  }

 private:
  enum class Kind { kInt, kOid, kFloat, kStr } kind_ = Kind::kInt;
  union {
    int64_t ints_[kRows];
    Oid oids_[kRows];
    double floats_[kRows];
    int32_t offsets_[kRows];
  };
  const storage::StringHeap* heap_ = nullptr;
};

/// Incremental builder used by all kernel operators to materialize result
/// columns. Values are appended either by copying from a source column
/// (`AppendFrom`, the common kernel path — string offsets are reused when
/// the source heap is shared) or from boxed Values (literals).
class ColumnBuilder {
 public:
  explicit ColumnBuilder(MonetType type);

  /// Builder that shares `heap` for interning (str columns).
  ColumnBuilder(MonetType type, std::shared_ptr<storage::StringHeap> heap);

  void Reserve(size_t n);

  /// Appends src[i]; src.type() must equal the builder type (void sources
  /// append their oid view into an oid builder).
  void AppendFrom(const Column& src, size_t i);

  /// Bulk-appends src[lo..hi): one type dispatch, then one contiguous
  /// vector copy (memcpy for the fixed-width types) — the hoisted
  /// replacement for an AppendFrom loop over a contiguous range.
  void AppendRange(const Column& src, size_t lo, size_t hi);

  /// Bulk-appends src[idx[k]] for k in [0, n): one type dispatch, then a
  /// tight typed gather loop — the hoisted replacement for an AppendFrom
  /// loop over a position list.
  void GatherFrom(const Column& src, const uint32_t* idx, size_t n);

  void AppendOid(Oid v) {
    std::get<std::vector<Oid>>(repr_).push_back(v);
    ++count_;
  }
  void AppendInt(int32_t v) {
    std::get<std::vector<int32_t>>(repr_).push_back(v);
    ++count_;
  }
  void AppendDbl(double v) {
    std::get<std::vector<double>>(repr_).push_back(v);
    ++count_;
  }

  /// Appends a boxed value (must be coercible to the builder type).
  Status AppendValue(const Value& v);

  /// Appends `n` copies of `v`: the cast (and, for str, the intern) runs
  /// once, then one typed fill — the bulk replacement for an AppendValue
  /// loop over a repeated constant.
  Status AppendRepeat(const Value& v, size_t n);

  size_t size() const { return count_; }

  /// Finalizes into an immutable column.
  ColumnPtr Finish();

 private:
  MonetType type_;
  Column::Repr repr_;
  std::shared_ptr<storage::StringHeap> heap_;
  size_t count_ = 0;
};

/// Pre-sized materialization sink for the two-phase morsel output pattern:
/// once the per-block match counts are prefix-summed, every block gathers
/// its results directly into its disjoint slice of the final heap,
/// concurrently — no serial append loop, no builder growth.
///
///   ColumnScatter hs(head, total);
///   RunBlocks(plan, [&](int b, ...) {
///     hs.Gather(idx_of[b].data(), idx_of[b].size(), offset[b]);
///   });
///   ColumnPtr out = hs.Finish();
///
/// The result shares the source's string heap (str gathers copy offsets);
/// a void source materializes as oid. Distinct [at, at+n) windows may be
/// written from different threads concurrently.
class ColumnScatter {
 public:
  ColumnScatter(const Column& src, size_t total);

  /// Sink for *computed* results of a fixed-width type (no source column):
  /// blocks write native values directly into their disjoint slice via
  /// Slot<T>(). str results need a shared heap — use a ColumnBuilder.
  ColumnScatter(MonetType type, size_t total);

  /// Raw write pointer of the pre-sized native heap; T must be the
  /// storage type of the scatter's result type. Distinct index windows
  /// may be written from different threads concurrently.
  template <typename T>
  T* Slot() {
    return std::get<std::vector<T>>(repr_).data();
  }

  /// Writes src[idx[k]] into position at+k for k in [0, n).
  void Gather(const uint32_t* idx, size_t n, size_t at);

  size_t size() const { return total_; }

  /// Finalizes into an immutable column; call once, after all gathers.
  ColumnPtr Finish();

 private:
  const Column* src_ = nullptr;  // null for the computed-result sink
  MonetType type_;  // result type (void sources materialize as oid)
  Column::Repr repr_;
  std::shared_ptr<storage::StringHeap> heap_;
  size_t total_;
};

}  // namespace moaflat::bat

#endif  // MOAFLAT_BAT_COLUMN_H_
