#ifndef MOAFLAT_BAT_COLUMN_H_
#define MOAFLAT_BAT_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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
/// Column::VisitType visitors so kernel inner loops can be written once
/// and instantiated per type.
template <typename T>
struct TypeTag {
  using type = T;
};

/// Hash mixer shared by Column::HashAt and the typed probe fast paths.
inline uint64_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Numeric view of one native storage value: the compile-time twin of
/// Column::NumAt, for loops that hoisted the type dispatch via VisitType.
/// Must agree with NumAt exactly (bit maps to 0/1, dates to their day
/// number, everything else casts).
template <typename T>
inline double NumValue(T v) {
  if constexpr (std::is_same_v<T, Date>) {
    return static_cast<double>(v.days());
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return v ? 1.0 : 0.0;
  } else {
    return static_cast<double>(v);
  }
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

/// Typed twin of Column::HashAt for fixed-width storage values. Produces
/// the identical hash (HashAt is implemented in terms of it), so typed
/// and boxed probes of one accelerator agree on every bucket.
template <typename T>
inline uint64_t TypedValueHash(T v) {
  if constexpr (std::is_same_v<T, Oid>) {
    return MixHash64(v);
  } else if constexpr (std::is_same_v<T, float> || std::is_same_v<T, double>) {
    const double d = static_cast<double>(v);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(d));
    return MixHash64(bits);
  } else {
    // Matches the boxed path's value -> double -> int64 round trip.
    return MixHash64(
        static_cast<uint64_t>(static_cast<int64_t>(NumValue(v))));
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
  /// type, hoisting the per-value type switch of a kernel loop into one
  /// dispatch per call. kStr visits as its int32 offset storage; kVoid
  /// visits as Oid (the type its *values* carry — void columns have no
  /// Span, so loops over them go through OidAt/void_base instead).
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

  /// True if values over [lo, hi) are non-decreasing; one type dispatch,
  /// then a tight typed loop (the bulk replacement for per-element
  /// CompareAt sortedness probes).
  bool RangeSorted(size_t lo, size_t hi) const;

  /// Lowers this column to a zero-dispatch numeric accessor and runs
  /// `cont(acc)` with it, where `acc(i)` equals NumAt(i) exactly: the type
  /// switch is hoisted out of the caller's loop, void columns compute
  /// base+i, and every fixed-width type reads through its native span.
  /// Returns false — without calling `cont` — for str columns, whose
  /// comparisons are not numeric; callers keep a boxed fallback for them.
  /// Because CompareAt between non-str columns is defined as the
  /// three-way comparison of the two NumAt views, two accessors obtained
  /// here form an exact typed three-way-compare replacement for CompareAt
  /// in sort and Satisfies loops.
  template <typename Cont>
  bool WithNumView(Cont&& cont) const {
    if (type_ == MonetType::kStr) return false;
    if (is_void()) {
      cont([base = void_base_](size_t i) {
        return static_cast<double>(base + i);
      });
      return true;
    }
    VisitType(type_, [&](auto tag) {
      using T = typename decltype(tag)::type;
      cont([p = Data<T>().data()](size_t i) { return NumValue(p[i]); });
    });
    return true;
  }

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

  /// Numeric view of the value at i as double (valid for all non-str
  /// types; dates map to their day number, chr to its code point).
  double NumAt(size_t i) const;

  /// Hash of the value at i, equal across columns iff values equal.
  uint64_t HashAt(size_t i) const;

  /// Value equality between this[i] and other[j] (types must match, except
  /// that void and oid columns compare as oids).
  bool EqualAt(size_t i, const Column& other, size_t j) const;

  /// Three-way value comparison between this[i] and other[j].
  int CompareAt(size_t i, const Column& other, size_t j) const;

  /// Three-way comparison of this[i] against a boxed value of a compatible
  /// type.
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

  /// Contiguous variant: writes src[lo..hi) into positions starting at.
  void GatherRange(size_t lo, size_t hi, size_t at);

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
