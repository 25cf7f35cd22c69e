#include "bat/column.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <unordered_set>

#include "common/fault_injector.h"
#include "common/parallel.h"
#include "storage/memory_tracker.h"

namespace moaflat::bat {
namespace {

/// Allocation-site fault hook of the result builders: when the thread's
/// armed injector draws kAlloc, the reservation fails exactly as a real
/// exhausted heap would — std::bad_alloc — which the interpreter catches
/// at the statement boundary and unwinds like any failed statement.
void MaybeInjectAllocFailure() {
  FaultInjector* fi = CurrentFaultInjector();
  if (fi != nullptr && fi->Fire(FaultInjector::Site::kAlloc)) {
    throw std::bad_alloc();
  }
}

template <typename T>
Column::Repr WrapVector(std::vector<T> v) {
  return Column::Repr(std::move(v));
}

}  // namespace

Column::Column(MonetType type, size_t size, Repr repr,
               std::shared_ptr<storage::StringHeap> heap, Oid void_base)
    : type_(type),
      size_(size),
      repr_(std::move(repr)),
      str_heap_(std::move(heap)),
      void_base_(void_base),
      heap_id_(storage::NewHeapId()),
      sync_key_(heap_id_) {
  storage::MemoryTracker::Global().Add(byte_size());
}

Column::~Column() { storage::MemoryTracker::Global().Sub(byte_size()); }

ColumnPtr Column::MakeVoid(Oid base, size_t n) {
  return ColumnPtr(
      new Column(MonetType::kVoid, n, VoidTag{}, nullptr, base));
}

#define MF_COLUMN_FACTORY(Name, Type, Cpp)                                   \
  ColumnPtr Column::Name(std::vector<Cpp> v) {                               \
    const size_t n = v.size();                                               \
    return ColumnPtr(                                                        \
        new Column(MonetType::Type, n, WrapVector(std::move(v)), nullptr,    \
                   0));                                                      \
  }

MF_COLUMN_FACTORY(MakeOid, kOidT, Oid)
MF_COLUMN_FACTORY(MakeBit, kBit, uint8_t)
MF_COLUMN_FACTORY(MakeChr, kChr, char)
MF_COLUMN_FACTORY(MakeSht, kSht, int16_t)
MF_COLUMN_FACTORY(MakeLng, kLng, int64_t)
MF_COLUMN_FACTORY(MakeFlt, kFlt, float)
MF_COLUMN_FACTORY(MakeDbl, kDbl, double)
MF_COLUMN_FACTORY(MakeDate, kDate, Date)
#undef MF_COLUMN_FACTORY

ColumnPtr Column::MakeInt(std::vector<int32_t> v) {
  const size_t n = v.size();
  return ColumnPtr(
      new Column(MonetType::kInt, n, WrapVector(std::move(v)), nullptr, 0));
}

ColumnPtr Column::MakeStr(const std::vector<std::string>& v) {
  auto heap = std::make_shared<storage::StringHeap>();
  std::vector<int32_t> offsets;
  offsets.reserve(v.size());
  for (const std::string& s : v) offsets.push_back(heap->Intern(s));
  return MakeStrOffsets(std::move(heap), std::move(offsets));
}

ColumnPtr Column::MakeStrOffsets(std::shared_ptr<storage::StringHeap> heap,
                                 std::vector<int32_t> offsets) {
  const size_t n = offsets.size();
  return ColumnPtr(new Column(MonetType::kStr, n,
                              WrapVector(std::move(offsets)), std::move(heap),
                              0));
}

Value Column::GetValue(size_t i) const {
  switch (type_) {
    case MonetType::kVoid:
      return Value::MakeOid(void_base_ + i);
    case MonetType::kOidT:
      return Value::MakeOid(Data<Oid>()[i]);
    case MonetType::kBit:
      return Value::Bit(Data<uint8_t>()[i] != 0);
    case MonetType::kChr:
      return Value::Chr(Data<char>()[i]);
    case MonetType::kSht:
      return Value::Int(Data<int16_t>()[i]);
    case MonetType::kInt:
      return Value::Int(Data<int32_t>()[i]);
    case MonetType::kLng:
      return Value::Lng(Data<int64_t>()[i]);
    case MonetType::kFlt:
      return Value::Flt(Data<float>()[i]);
    case MonetType::kDbl:
      return Value::Dbl(Data<double>()[i]);
    case MonetType::kStr:
      return Value::Str(std::string(Str(i)));
    case MonetType::kDate:
      return Value::MakeDate(Data<Date>()[i]);
  }
  return Value();
}

double Column::NumAt(size_t i) const {
  return VisitValues([i](const auto& v) { return Num(v, i); });
}

uint64_t Column::HashAt(size_t i) const {
  return VisitValues([i](const auto& v) { return Hash(v, i); });
}

// The pair operations read `other` through a one-row KeyBatch: one
// instantiation per (shape, key kind) instead of per pair of shapes.

bool Column::EqualAt(size_t i, const Column& other, size_t j) const {
  KeyBatch b;
  b.Fill(other, j, j + 1);
  bool eq = false;
  VisitValues([&](const auto& av) {
    b.Visit([&](const auto& bv) { eq = Equal(av, i, bv, 0); });
  });
  return eq;
}

int Column::CompareAt(size_t i, const Column& other, size_t j) const {
  KeyBatch b;
  b.Fill(other, j, j + 1);
  int cmp = 0;
  VisitValues([&](const auto& av) {
    b.Visit([&](const auto& bv) { cmp = Compare(av, i, bv, 0); });
  });
  return cmp;
}

int Column::CompareValue(size_t i, const Value& v) const {
  return VisitValues([&](const auto& a) {
    return VisitBound(a, v, [&](const auto& c) { return Compare(a, i, c, 0); });
  });
}

void Column::TouchGather(storage::IoStats* io, const uint32_t* idx,
                         size_t n) const {
  storage::ColdPageFilter pages = PageFilter(io);
  if (!pages.active()) return;
  size_t k = 0;
  for (; k < n && !pages.saturated(); ++k) pages.Touch(idx[k]);
  if (k < n) pages.AddRepeats(n - k);
}

bool Column::ComputeSorted() const { return RangeSorted(0, size_); }

bool Column::RangeSorted(size_t lo, size_t hi) const {
  if (hi > size_) hi = size_;
  if (lo >= hi) return true;
  if (is_void()) return true;  // dense ascending by construction
  return VisitValues([&](const auto& v) {
    for (size_t i = lo + 1; i < hi; ++i) {
      if (Compare(v, i - 1, v, i) > 0) return false;
    }
    return true;
  });
}

bool Column::ComputeKey() const {
  if (is_void()) return true;
  return VisitValues([&](const auto& v) {
    std::unordered_set<uint64_t> seen;
    seen.reserve(size_ * 2);
    for (size_t i = 0; i < size_; ++i) {
      if (!seen.insert(Hash(v, i)).second) {
        // Hash collision or duplicate: verify by scanning (rare).
        for (size_t j = 0; j < i; ++j) {
          if (Equal(v, i, v, j)) return false;
        }
      }
    }
    return true;
  });
}

std::optional<KeyRange> IntegralKeyRange(const Column& col, int degree) {
  const size_t n = col.size();
  if (n == 0) return std::nullopt;
  if (col.is_void()) return KeyRange{col.void_base(), n};
  return col.VisitValues([&](const auto& v) -> std::optional<KeyRange> {
    using K = decltype(ValueKey(v[0]));
    if constexpr (!std::is_integral_v<K>) {
      return std::nullopt;
    } else {
      const BlockPlan plan = PlanBlocks(n, std::min(degree, kMaxScatterDegree));
      std::vector<std::pair<K, K>> bounds(plan.blocks);
      RunBlocks(plan, [&](int block, size_t begin, size_t end) {
        K lo = std::numeric_limits<K>::max();
        K hi = std::numeric_limits<K>::min();
        for (size_t i = begin; i < end; ++i) {
          const K k = ValueKey(v[i]);
          lo = std::min(lo, k);
          hi = std::max(hi, k);
        }
        bounds[block] = {lo, hi};
      });
      K lo = bounds[0].first;
      K hi = bounds[0].second;
      for (const auto& [blo, bhi] : bounds) {
        lo = std::min(lo, blo);
        hi = std::max(hi, bhi);
      }
      const uint64_t extent =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (extent == std::numeric_limits<uint64_t>::max()) return std::nullopt;
      return KeyRange{static_cast<uint64_t>(lo), extent + 1};
    }
  });
}

void KeyBatch::Fill(const Column& col, size_t lo, size_t hi) {
  col.VisitValues([&](const auto& v) {
    using V = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<V, StrValues>) {
      kind_ = Kind::kStr;
      heap_ = v.heap;
      std::copy(v.offsets + lo, v.offsets + hi, offsets_);
    } else {
      using K = decltype(ValueKey(v[0]));
      K* out;
      if constexpr (std::is_same_v<K, int64_t>) {
        kind_ = Kind::kInt;
        out = ints_;
      } else if constexpr (std::is_same_v<K, Oid>) {
        kind_ = Kind::kOid;
        out = oids_;
      } else {
        kind_ = Kind::kFloat;
        out = floats_;
      }
      for (size_t i = lo; i < hi; ++i) out[i - lo] = ValueKey(v[i]);
    }
  });
}

// --------------------------------------------------------------------
// ColumnBuilder

namespace {

Column::Repr EmptyRepr(MonetType t) {
  switch (t) {
    case MonetType::kVoid:
      return Column::Repr(std::in_place_type<std::vector<Oid>>);
    case MonetType::kOidT:
      return Column::Repr(std::in_place_type<std::vector<Oid>>);
    case MonetType::kBit:
      return Column::Repr(std::in_place_type<std::vector<uint8_t>>);
    case MonetType::kChr:
      return Column::Repr(std::in_place_type<std::vector<char>>);
    case MonetType::kSht:
      return Column::Repr(std::in_place_type<std::vector<int16_t>>);
    case MonetType::kInt:
    case MonetType::kStr:
      return Column::Repr(std::in_place_type<std::vector<int32_t>>);
    case MonetType::kLng:
      return Column::Repr(std::in_place_type<std::vector<int64_t>>);
    case MonetType::kFlt:
      return Column::Repr(std::in_place_type<std::vector<float>>);
    case MonetType::kDbl:
      return Column::Repr(std::in_place_type<std::vector<double>>);
    case MonetType::kDate:
      return Column::Repr(std::in_place_type<std::vector<Date>>);
  }
  return Column::Repr(std::in_place_type<std::vector<Oid>>);
}

}  // namespace

ColumnBuilder::ColumnBuilder(MonetType type)
    : type_(StoredType(type)), repr_(EmptyRepr(type_)) {
  if (type_ == MonetType::kStr) {
    heap_ = std::make_shared<storage::StringHeap>();
  }
}

ColumnBuilder::ColumnBuilder(MonetType type,
                             std::shared_ptr<storage::StringHeap> heap)
    : type_(StoredType(type)),
      repr_(EmptyRepr(type_)),
      heap_(std::move(heap)) {}

void ColumnBuilder::Reserve(size_t n) {
  MaybeInjectAllocFailure();
  std::visit(
      [n](auto& v) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                      Column::VoidTag>) {
          v.reserve(n);
        }
      },
      repr_);
}

void ColumnBuilder::AppendFrom(const Column& src, size_t i) {
  ++count_;
  switch (type_) {
    case MonetType::kOidT:
      std::get<std::vector<Oid>>(repr_).push_back(src.OidAt(i));
      return;
    case MonetType::kBit:
      std::get<std::vector<uint8_t>>(repr_).push_back(
          src.Data<uint8_t>()[i]);
      return;
    case MonetType::kChr:
      std::get<std::vector<char>>(repr_).push_back(src.Data<char>()[i]);
      return;
    case MonetType::kSht:
      std::get<std::vector<int16_t>>(repr_).push_back(
          src.Data<int16_t>()[i]);
      return;
    case MonetType::kInt:
      std::get<std::vector<int32_t>>(repr_).push_back(
          src.Data<int32_t>()[i]);
      return;
    case MonetType::kLng:
      std::get<std::vector<int64_t>>(repr_).push_back(
          src.Data<int64_t>()[i]);
      return;
    case MonetType::kFlt:
      std::get<std::vector<float>>(repr_).push_back(src.Data<float>()[i]);
      return;
    case MonetType::kDbl:
      std::get<std::vector<double>>(repr_).push_back(src.Data<double>()[i]);
      return;
    case MonetType::kDate:
      std::get<std::vector<Date>>(repr_).push_back(src.Data<Date>()[i]);
      return;
    case MonetType::kStr: {
      int32_t off;
      if (src.str_heap() == heap_) {
        off = src.StrOffset(i);
      } else {
        off = heap_->Intern(src.Str(i));
      }
      std::get<std::vector<int32_t>>(repr_).push_back(off);
      return;
    }
    case MonetType::kVoid:
      return;  // unreachable: ctor maps void to oid
  }
}

void ColumnBuilder::AppendRange(const Column& src, size_t lo, size_t hi) {
  if (hi <= lo) return;
  count_ += hi - lo;
  if (type_ == MonetType::kOidT && src.is_void()) {
    auto& v = std::get<std::vector<Oid>>(repr_);
    const size_t at = v.size();
    v.resize(at + (hi - lo));
    const Oid base = src.void_base();
    for (size_t k = 0; k < hi - lo; ++k) v[at + k] = base + lo + k;
    return;
  }
  if (type_ == MonetType::kStr && src.str_heap() != heap_) {
    auto& v = std::get<std::vector<int32_t>>(repr_);
    v.reserve(v.size() + (hi - lo));
    for (size_t i = lo; i < hi; ++i) v.push_back(heap_->Intern(src.Str(i)));
    return;
  }
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& v = std::get<std::vector<T>>(repr_);
    const auto& s = src.Data<T>();
    v.insert(v.end(), s.begin() + lo, s.begin() + hi);
  });
}

void ColumnBuilder::GatherFrom(const Column& src, const uint32_t* idx,
                               size_t n) {
  if (n == 0) return;
  count_ += n;
  if (type_ == MonetType::kOidT && src.is_void()) {
    auto& v = std::get<std::vector<Oid>>(repr_);
    const size_t at = v.size();
    v.resize(at + n);
    const Oid base = src.void_base();
    for (size_t k = 0; k < n; ++k) v[at + k] = base + idx[k];
    return;
  }
  if (type_ == MonetType::kStr && src.str_heap() != heap_) {
    auto& v = std::get<std::vector<int32_t>>(repr_);
    v.reserve(v.size() + n);
    for (size_t k = 0; k < n; ++k) v.push_back(heap_->Intern(src.Str(idx[k])));
    return;
  }
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& v = std::get<std::vector<T>>(repr_);
    const T* s = src.Data<T>().data();
    const size_t at = v.size();
    v.resize(at + n);
    T* out = v.data() + at;
    for (size_t k = 0; k < n; ++k) out[k] = s[idx[k]];
  });
}

Status ColumnBuilder::AppendValue(const Value& v) {
  if (type_ == MonetType::kVoid) {
    return Status::TypeError("cannot append to void builder");
  }
  MF_ASSIGN_OR_RETURN(Value cast, v.CastTo(type_));
  ++count_;
  if (type_ == MonetType::kStr) {
    std::get<std::vector<int32_t>>(repr_).push_back(
        heap_->Intern(cast.AsStr()));
    return Status::OK();
  }
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    std::get<std::vector<T>>(repr_).push_back(NativeValueOf<T>(cast));
  });
  return Status::OK();
}

Status ColumnBuilder::AppendRepeat(const Value& v, size_t n) {
  if (n == 0) return Status::OK();
  if (type_ == MonetType::kVoid) {
    return Status::TypeError("cannot append to void builder");
  }
  MF_ASSIGN_OR_RETURN(Value cast, v.CastTo(type_));
  count_ += n;
  if (type_ == MonetType::kStr) {
    const int32_t off = heap_->Intern(cast.AsStr());
    auto& vec = std::get<std::vector<int32_t>>(repr_);
    vec.resize(vec.size() + n, off);
    return Status::OK();
  }
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& vec = std::get<std::vector<T>>(repr_);
    vec.resize(vec.size() + n, NativeValueOf<T>(cast));
  });
  return Status::OK();
}

// --------------------------------------------------------------------
// ColumnScatter

ColumnScatter::ColumnScatter(const Column& src, size_t total)
    : src_(&src),
      type_(StoredType(src.type())),
      repr_(EmptyRepr(type_)),
      heap_(src.str_heap()),
      total_(total) {
  MaybeInjectAllocFailure();
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    std::get<std::vector<T>>(repr_).resize(total);
  });
}

ColumnScatter::ColumnScatter(MonetType type, size_t total)
    : type_(StoredType(type)),
      repr_(EmptyRepr(type_)),
      total_(total) {
  MaybeInjectAllocFailure();
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    std::get<std::vector<T>>(repr_).resize(total);
  });
}

void ColumnScatter::Gather(const uint32_t* idx, size_t n, size_t at) {
  assert(src_ != nullptr && "computed-result sinks take Slot<T>, not Gather");
  if (n == 0) return;
  if (src_->is_void()) {
    auto& v = std::get<std::vector<Oid>>(repr_);
    const Oid base = src_->void_base();
    Oid* out = v.data() + at;
    for (size_t k = 0; k < n; ++k) out[k] = base + idx[k];
    return;
  }
  Column::VisitType(type_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const T* s = src_->Data<T>().data();
    T* out = std::get<std::vector<T>>(repr_).data() + at;
    for (size_t k = 0; k < n; ++k) out[k] = s[idx[k]];
  });
}

ColumnPtr ColumnScatter::Finish() {
  if (type_ == MonetType::kStr) {
    return Column::MakeStrOffsets(
        heap_, std::move(std::get<std::vector<int32_t>>(repr_)));
  }
  return ColumnPtr(new Column(type_, total_, std::move(repr_), nullptr, 0));
}

ColumnPtr ColumnBuilder::Finish() {
  if (type_ == MonetType::kStr) {
    return Column::MakeStrOffsets(
        heap_, std::move(std::get<std::vector<int32_t>>(repr_)));
  }
  ColumnPtr out(
      new Column(type_, count_, std::move(repr_), nullptr, 0));
  repr_ = EmptyRepr(type_);
  count_ = 0;
  return out;
}

}  // namespace moaflat::bat
