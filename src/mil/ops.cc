#include "mil/ops.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "kernel/cost_model.h"
#include "kernel/registry.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using kernel::Bound;
using kernel::DispatchInput;
using kernel::ExecContext;
using kernel::OperandView;
using kernel::OpParam;
using Binding = MilEnv::Binding;

using AK = ArgKind;
constexpr AK B = AK::kBat;
constexpr AK S = AK::kScalar;

constexpr std::pair<std::string_view, kernel::CmpOp> kCmps[] = {
    {"=", kernel::CmpOp::kEq}, {"!=", kernel::CmpOp::kNe},
    {"<", kernel::CmpOp::kLt}, {"<=", kernel::CmpOp::kLe},
    {">", kernel::CmpOp::kGt}, {">=", kernel::CmpOp::kGe},
};

constexpr double kUnknownRows = 1e15;  // cardinality of failed inference

constexpr kernel::AggKind kAggs[] = {
    kernel::AggKind::kSum, kernel::AggKind::kCount, kernel::AggKind::kAvg,
    kernel::AggKind::kMin, kernel::AggKind::kMax,
};

// ---------------------------------------------------------------- typing

/// How two key types relate for equality-style matching (join heads,
/// select values): exact same normalized type, comparable-but-lossy
/// (differing numeric representations hash/compare differently), or
/// incomparable (str against anything else — the runtime silently matches
/// nothing, see Column::CompareValue).
enum class TypeMatch { kExact, kLossy, kIncomparable };

TypeMatch MatchTypes(MonetType a, MonetType b) {
  const MonetType na = StoredType(a);
  const MonetType nb = StoredType(b);
  if (na == nb) return TypeMatch::kExact;
  if ((na == MonetType::kStr) != (nb == MonetType::kStr)) {
    return TypeMatch::kIncomparable;
  }
  return TypeMatch::kLossy;
}

std::string Name(MonetType t) { return TypeName(t); }

/// `l` rows whose key `lk` matches an `r` key `rk`: incomparable classes
/// are an error, differing representations a warning.
bool MatchKeys(const StaticStmt& s, MonetType lk, MonetType rk) {
  switch (MatchTypes(lk, rk)) {
    case TypeMatch::kIncomparable:
      s.Error("'" + s.stmt.op + "' matches a " + Name(lk) +
              " column against a " + Name(rk) + " column; no pair can match");
      return false;
    case TypeMatch::kLossy:
      s.Warn("'" + s.stmt.op + "' matches " + Name(lk) + " against " +
             Name(rk) + "; differing representations usually match nothing");
      break;
    case TypeMatch::kExact:
      break;
  }
  return true;
}

/// Whether every value of type `from` casts to `to` (Value::CastTo). A
/// negative value casts to no oid.
bool AlwaysCasts(MonetType from, MonetType to) {
  if (from == to || to == MonetType::kStr) return true;
  if (to == MonetType::kDate) return from == MonetType::kInt;
  return IsNumeric(to) && to != MonetType::kSht && from != MonetType::kStr;
}

/// At least one row when the input has one (unique values, groups).
CardInterval Distinct(const AbstractBinding& in) {
  return {in.card.lo > 0 ? 1.0 : 0.0, in.card.hi};
}

/// The statically known value of a count or bound argument as lng; a
/// negative one is an error (the kernel takes it as size_t).
bool CheckCount(const StaticStmt& s, size_t i, const char* what,
                std::optional<int64_t>* out) {
  const MonetType t = s.arg[i].scalar;
  if (t == MonetType::kStr || t == MonetType::kDate) {
    s.Error(std::string(what) + " must cast to lng, got " + Name(t));
    return false;
  }
  if (s.known[i] == nullptr) return true;
  auto v = s.known[i]->CastTo(MonetType::kLng);
  if (!v.ok()) return true;
  if (v->AsLng() < 0) {
    s.Error(std::string(what) + " must not be negative, got " +
            std::to_string(v->AsLng()));
    return false;
  }
  *out = v->AsLng();
  return true;
}

/// Shared tail of the select rules. Every predicate value must be
/// comparable with the tail: a str/non-str mismatch silently selects
/// nothing at run time (Column::CompareValue orders str columns after
/// every non-str value). Cardinality: exact two-probe narrowing on
/// tail-sorted catalog BATs when the bounds are known; [0, n] otherwise.
AbstractBinding Selected(StaticStmt& s, bool bounded, const Bound& lo,
                         const Bound& hi) {
  const AbstractBinding& in = s.arg[0];
  for (size_t i = 1; i < s.stmt.args.size(); ++i) {
    const MonetType t = s.arg[i].scalar;
    if (MatchTypes(in.tail, t) == TypeMatch::kIncomparable) {
      s.Error("'" + s.stmt.op + "' compares a " + Name(in.tail) +
              " tail with a " + Name(t) + " value; no row can match");
      return UnknownBinding();
    }
  }
  CardInterval card{0, in.card.hi};
  if (in.bound != nullptr && bounded) {
    s.est_selectivity = kernel::EstimateSelectivity(*in.bound, lo, hi);
    if (s.est_selectivity >= 0) {
      const double rows = s.est_selectivity * in.card.hi;
      card = {std::floor(rows), std::ceil(rows)};
    }
  }
  return BatBinding(in.head, in.tail, card, in.head_key);
}

AbstractBinding TypeSelect(StaticStmt& s) {
  const Value* v1 = s.known[1];
  const Value* v2 = s.stmt.args.size() == 3 ? s.known[2] : v1;
  if (v1 == nullptr || v2 == nullptr) return Selected(s, false, {}, {});
  return Selected(s, true, Bound{true, true, *v1}, Bound{true, true, *v2});
}

AbstractBinding TypeSelectCmp(StaticStmt& s) {
  Bound lo, hi;
  const Value* v = s.known[1];
  bool bounded = v != nullptr;
  if (bounded) {
    switch (s.op.cmp) {
      case kernel::CmpOp::kLt: hi = Bound{true, false, *v}; break;
      case kernel::CmpOp::kLe: hi = Bound{true, true, *v}; break;
      case kernel::CmpOp::kGt: lo = Bound{true, false, *v}; break;
      case kernel::CmpOp::kGe: lo = Bound{true, true, *v}; break;
      default: bounded = false; break;
    }
  }
  return Selected(s, bounded, lo, hi);
}

AbstractBinding TypeSelectLike(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  if (in.tail != MonetType::kStr) {
    s.Error("select.like needs a str tail, '" + s.stmt.args[0].ToString() +
            "' has a " + Name(in.tail) + " tail");
    return UnknownBinding();
  }
  if (s.arg[1].scalar != MonetType::kStr) {
    s.Error("select.like needs a string pattern, got " +
            Name(s.arg[1].scalar));
    return UnknownBinding();
  }
  return BatBinding(in.head, in.tail, {0, in.card.hi}, in.head_key);
}

AbstractBinding TypeJoin(StaticStmt& s) {
  const AbstractBinding& l = s.arg[0];
  const AbstractBinding& r = s.arg[1];
  if (!MatchKeys(s, l.tail, r.head)) return UnknownBinding();
  const double hi =
      r.head_key
          ? l.card.hi
          : std::min(l.card.hi * std::max(1.0, r.card.hi), kUnknownRows);
  return BatBinding(l.head, r.tail, {0, hi}, l.head_key && r.head_key);
}

/// semijoin / kintersect: l rows whose head occurs in r; kdiff: l rows
/// whose head does not.
template <bool kDiff>
AbstractBinding TypeSemijoin(StaticStmt& s) {
  const AbstractBinding& l = s.arg[0];
  const AbstractBinding& r = s.arg[1];
  if (!MatchKeys(s, l.head, r.head)) return UnknownBinding();
  const double hi = l.head_key && !kDiff ? std::min(l.card.hi, r.card.hi)
                                         : l.card.hi;
  return BatBinding(l.head, l.tail, {0, hi}, l.head_key);
}

AbstractBinding TypeUnion(StaticStmt& s) {
  const AbstractBinding& l = s.arg[0];
  const AbstractBinding& r = s.arg[1];
  if (!MatchKeys(s, l.head, r.head)) return UnknownBinding();
  // The result concatenates both operands' columns.
  for (const auto& [lt, rt, side] : {std::tuple{l.head, r.head, " head"},
                                     std::tuple{l.tail, r.tail, " tail"}}) {
    if (MatchTypes(lt, rt) != TypeMatch::kExact) {
      s.Error("'" + s.stmt.op + "' mixes a " + Name(lt) + side + " with a " +
              Name(rt) + side);
      return UnknownBinding();
    }
  }
  return BatBinding(l.head, l.tail, {l.card.lo, l.card.hi + r.card.hi},
                    l.head_key && r.head_key);
}

AbstractBinding TypeThetaJoin(StaticStmt& s) {
  const AbstractBinding& l = s.arg[0];
  const AbstractBinding& r = s.arg[1];
  if (MatchTypes(l.tail, r.head) == TypeMatch::kIncomparable) {
    s.Error("'" + s.stmt.op + "' compares a " + Name(l.tail) +
            " tail with a " + Name(r.head) + " head; no pair can match");
    return UnknownBinding();
  }
  const double hi =
      std::min(l.card.hi * std::max(1.0, r.card.hi), kUnknownRows);
  return BatBinding(l.head, r.tail, {0, hi}, false);
}

AbstractBinding TypeFetch(StaticStmt& s) {
  const AbstractBinding& pos = s.arg[1];
  if (StoredType(pos.tail) != MonetType::kOidT) {
    s.Error("fetch positions need an oid (or void) tail, '" +
            s.stmt.args[1].ToString() + "' has a " + Name(pos.tail) +
            " tail");
    return UnknownBinding();
  }
  return BatBinding(MonetType::kOidT, s.arg[0].tail, pos.card, false);
}

template <bool kHeadUnique>
AbstractBinding TypeUnique(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  return BatBinding(in.head, in.tail, Distinct(in),
                    kHeadUnique || in.head_key);
}

AbstractBinding TypeGroup(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  // A refinement extends the group oids in argument 1's tail.
  if (s.stmt.args.size() == 2 && StoredType(in.tail) != MonetType::kOidT) {
    s.Error("group refinement needs an oid (or void) tail on argument 1, '" +
            s.stmt.args[0].ToString() + "' has a " + Name(in.tail) + " tail");
    return UnknownBinding();
  }
  return BatBinding(in.head, MonetType::kOidT, in.card, in.head_key);
}

AbstractBinding TypeMark(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  const MonetType base = s.arg[1].scalar;
  const Value* v = s.known[1];
  if (base == MonetType::kStr || base == MonetType::kDate ||
      (v != nullptr && !v->CastTo(MonetType::kOidT).ok())) {
    s.Error("mark base must cast to oid, got " +
            (v != nullptr ? v->ToString() : Name(base)));
    return UnknownBinding();
  }
  return BatBinding(in.head, MonetType::kOidT, in.card, in.head_key);
}

AbstractBinding TypeSlice(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  std::optional<int64_t> lo, hi;
  if (!CheckCount(s, 1, "slice bounds", &lo) ||
      !CheckCount(s, 2, "slice bounds", &hi)) {
    return UnknownBinding();
  }
  CardInterval card{0, in.card.hi};
  if (lo && hi) {
    const double k =
        std::max<double>(0, static_cast<double>(*hi) - *lo + 1);
    card.hi = std::min(card.hi, k);
  }
  return BatBinding(in.head, in.tail, card, in.head_key);
}

AbstractBinding TypeTopN(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  std::optional<int64_t> n;
  if (!CheckCount(s, 1, "topn count", &n)) return UnknownBinding();
  CardInterval card{0, in.card.hi};
  if (n) {
    const double k = static_cast<double>(*n);
    card = {std::min(in.card.lo, k), std::min(in.card.hi, k)};
  }
  return BatBinding(in.head, in.tail, card, in.head_key);
}

AbstractBinding TypeInsert(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  // The kernel materializes void columns as oid when inserting (a dense
  // sequence plus an arbitrary BUN is no longer dense).
  const MonetType head_t = StoredType(in.head);
  const MonetType tail_t = StoredType(in.tail);
  // A value computed at run time must be of a type that always casts.
  auto check = [&](size_t i, MonetType want, const char* side) {
    const Value* v = s.known[i];
    if (v != nullptr ? !v->CastTo(want).ok()
                     : !AlwaysCasts(s.arg[i].scalar, want)) {
      s.Error(std::string("'insert' ") + side + " value " +
              (v != nullptr ? v->ToString() : s.stmt.args[i].ToString()) +
              " is not coercible to " + Name(want));
    }
  };
  check(1, head_t, "head");
  check(2, tail_t, "tail");
  // Sortedness and keyness are guarded (rechecked) by the kernel, not
  // provable here; card grows by exactly the one inserted BUN.
  return BatBinding(head_t, tail_t, {in.card.lo + 1, in.card.hi + 1}, false);
}

AbstractBinding TypeAppend(StaticStmt& s) {
  const AbstractBinding& l = s.arg[0];
  const AbstractBinding& r = s.arg[1];
  // Append concatenates columns; the kernel rejects mismatched types.
  if (MatchTypes(l.head, r.head) != TypeMatch::kExact ||
      MatchTypes(l.tail, r.tail) != TypeMatch::kExact) {
    s.Error("'append' requires matching column types, got [" + Name(l.head) +
            "," + Name(l.tail) + "] and [" + Name(r.head) + "," +
            Name(r.tail) + "]");
    return UnknownBinding();
  }
  return BatBinding(l.head, l.tail,
                    {l.card.lo + r.card.lo, l.card.hi + r.card.hi}, false);
}

/// Element types `els` against the scalar function's argument classes:
/// one error per misfit; paired operands must be comparable (kCmp) or of
/// one type (kSame).
bool CheckScalarArgs(const StaticStmt& s, const std::vector<MonetType>& els) {
  const kernel::ScalarFn& fn = *s.op.fn;
  bool ok = true;
  for (size_t i = 0; i < els.size(); ++i) {
    if (!kernel::ScalarArgFits(fn, i, els[i])) {
      s.Error(kernel::ScalarArgError(fn, i, els[i]));
      ok = false;
    }
  }
  for (size_t i = 0; i + 1 < els.size(); ++i) {
    const TypeMatch m = MatchTypes(els[i], els[i + 1]);
    if (fn.args[i] == kernel::ScalarClass::kCmp &&
        m == TypeMatch::kIncomparable) {
      s.Error("'" + std::string(fn.name) + "' compares " + Name(els[i]) +
              " with " + Name(els[i + 1]) + "; str only compares with str");
      ok = false;
    }
    if (fn.args[i] == kernel::ScalarClass::kSame &&
        m != TypeMatch::kExact) {
      s.Error("'" + std::string(fn.name) + "' branches differ: " +
              Name(els[i]) + " and " + Name(els[i + 1]));
      ok = false;
    }
  }
  return ok;
}

/// Element type of an operand: a BAT contributes its tail, a scalar its
/// value type.
MonetType ElementType(const AbstractBinding& b) {
  return b.kind == AbstractBinding::Kind::kBat ? b.tail : b.scalar;
}

AbstractBinding TypeMultiplex(StaticStmt& s) {
  // The first BAT is the driver; the result is one value per driver BUN.
  std::vector<MonetType> els;
  const AbstractBinding* driver = nullptr;
  double other_hi_factor = 1;
  for (size_t i = 0; i < s.stmt.args.size(); ++i) {
    const AbstractBinding& b = s.arg[i];
    els.push_back(ElementType(b));
    if (b.kind != AbstractBinding::Kind::kBat) continue;
    if (driver == nullptr) {
      driver = &b;
    } else if (!b.head_key) {
      // Unsynced operands take the head-join path, where a non-key head
      // can multiply the driver's rows.
      other_hi_factor *= std::max(1.0, b.card.hi);
    }
  }
  if (!CheckScalarArgs(s, els)) return UnknownBinding();
  if (driver == nullptr) {
    s.Error("multiplex " + s.stmt.op + " has no BAT operand");
    return UnknownBinding();
  }
  auto rt = kernel::ScalarResultType(*s.op.fn, els);
  if (!rt.ok()) {
    s.Error(rt.status().message());
    return UnknownBinding();
  }
  return BatBinding(driver->head, *rt, {0, driver->card.hi * other_hi_factor},
                    driver->head_key);
}

AbstractBinding TypeCalc(StaticStmt& s) {
  std::vector<MonetType> els;
  for (size_t i = 0; i < s.stmt.args.size(); ++i) {
    els.push_back(s.arg[i].scalar);
  }
  if (!CheckScalarArgs(s, els)) return UnknownBinding();
  auto rt = kernel::ScalarResultType(*s.op.fn, els);
  if (!rt.ok()) {
    s.Error(rt.status().message());
    return UnknownBinding();
  }
  return ScalarBinding(*rt);
}

/// Value type of aggregate `s.op.agg` over `in`'s tail, or nullopt after
/// diagnosing a str tail under sum/avg.
std::optional<MonetType> AggType(const StaticStmt& s,
                                 const AbstractBinding& in) {
  const kernel::AggKind agg = s.op.agg;
  const bool numeric = agg == kernel::AggKind::kSum ||
                       agg == kernel::AggKind::kAvg;
  if (numeric && in.tail == MonetType::kStr) {
    s.Error("'" + s.stmt.op + "' needs a numeric tail, '" +
            s.stmt.args[0].ToString() + "' has a str tail");
    return std::nullopt;
  }
  if (agg == kernel::AggKind::kCount) return MonetType::kLng;
  if (numeric) return MonetType::kDbl;
  return StoredType(in.tail);  // min / max
}

AbstractBinding TypeSetAgg(StaticStmt& s) {
  const AbstractBinding& in = s.arg[0];
  if (StoredType(in.head) != MonetType::kOidT) {
    s.Error("'" + s.stmt.op + "' groups over an oid head, '" +
            s.stmt.args[0].ToString() + "' has a " + Name(in.head) + " head");
    return UnknownBinding();
  }
  const std::optional<MonetType> out = AggType(s, in);
  if (!out) return UnknownBinding();
  return BatBinding(StoredType(in.head), *out, Distinct(in), true);
}

AbstractBinding TypeScalarAgg(StaticStmt& s) {
  const std::optional<MonetType> out = AggType(s, s.arg[0]);
  if (!out) return UnknownBinding();
  return ScalarBinding(*out);
}

// --------------------------------------------------------------- pricing

double PagesOf(const OperandView& v) {
  return kernel::HeapPages(v.size, v.head_width) +
         kernel::HeapPages(v.size, v.tail_width);
}

double FamilyPrice(const std::string& family, const DispatchInput& in) {
  if (auto c = kernel::KernelRegistry::Global().PriceCheapest(family, in)) {
    return *c;
  }
  double pages = PagesOf(in.left);
  if (in.right) pages += PagesOf(*in.right);
  return pages + kernel::kCpuSequential;
}

/// Dispatch view of an abstract binding at one end of its cardinality
/// interval. Catalog-bound names snapshot the real BAT (exact properties
/// and accelerators); derived results are property-free, which prices the
/// scan/hash variants and never a sorted-only shortcut the real result
/// might not support.
OperandView ViewAt(const AbstractBinding& b, bool hi_end) {
  if (b.bound != nullptr) return OperandView::Of(*b.bound);
  OperandView v;
  const double rows = std::max(0.0, hi_end ? b.card.hi : b.card.lo);
  v.size = static_cast<size_t>(std::llround(rows));
  v.head_width = TypeWidth(b.head);
  v.tail_width = TypeWidth(b.tail);
  v.head_void = b.head == MonetType::kVoid;
  v.tail_void = b.tail == MonetType::kVoid;
  v.head_oidlike = StoredType(b.head) == MonetType::kOidT;
  v.props.hkey = b.head_key;
  return v;
}

/// DispatchInput over operand views at one interval end. When both
/// operands are catalog BATs the kernel's own snapshot carries the exact
/// sync keys, alignment and accelerators.
DispatchInput InputAt(const AbstractBinding& l, bool hi_end) {
  DispatchInput in;
  in.left = ViewAt(l, hi_end);
  return in;
}
DispatchInput InputAt(const AbstractBinding& l, const AbstractBinding& r,
                      bool hi_end) {
  if (l.bound != nullptr && r.bound != nullptr) {
    return kernel::MakeInput(*l.bound, *r.bound);
  }
  DispatchInput in;
  in.left = ViewAt(l, hi_end);
  in.right = ViewAt(r, hi_end);
  return in;
}

double PriceFree(const StaticStmt&, bool) { return 0; }

double PriceSelect(const StaticStmt& s, bool hi_end) {
  DispatchInput di = InputAt(s.arg[0], hi_end);
  di.est_selectivity = s.est_selectivity;
  return FamilyPrice("select", di);
}

constexpr char kJoinFamily[] = "join";
constexpr char kSemijoinFamily[] = "semijoin";
constexpr char kDiffFamily[] = "kdiff";
constexpr char kUnionFamily[] = "kunion";

template <const char* kFamily>
double PriceBinary(const StaticStmt& s, bool hi_end) {
  return FamilyPrice(kFamily, InputAt(s.arg[0], s.arg[1], hi_end));
}

// Unregistered reshaping operators: one pass over the operand.

/// One pass over both columns of the operand, sequential or hashed.
template <bool kHashed>
double PricePass(const StaticStmt& s, bool hi_end) {
  return PagesOf(ViewAt(s.arg[0], hi_end)) + (kHashed ? kernel::kCpuHashed : 0);
}

/// A new column beside the operand's head.
double PriceHeadPass(const StaticStmt& s, bool hi_end) {
  const OperandView v = ViewAt(s.arg[0], hi_end);
  return kernel::HeapPages(v.size, v.head_width);
}

double PriceMultiplex(const StaticStmt& s, bool hi_end) {
  const AbstractBinding* driver = nullptr;
  const AbstractBinding* other = nullptr;
  for (size_t i = 0; i < s.stmt.args.size(); ++i) {
    if (s.arg[i].kind != AbstractBinding::Kind::kBat) continue;
    if (driver == nullptr) {
      driver = &s.arg[i];
    } else if (other == nullptr) {
      other = &s.arg[i];
    }
  }
  if (driver == nullptr) return 0;
  return FamilyPrice("multiplex", other != nullptr
                                      ? InputAt(*driver, *other, hi_end)
                                      : InputAt(*driver, hi_end));
}

// ------------------------------------------------------------- execution

using UnaryKernel = Result<Bat> (*)(const ExecContext&, const Bat&);
using BinaryKernel = Result<Bat> (*)(const ExecContext&, const Bat&,
                                     const Bat&);

template <UnaryKernel kKernel>
Result<Binding> ExecUnary(const ExecArgs& a) {
  return AsBinding(kKernel(a.ctx, a.BatAt(0)));
}

template <BinaryKernel kKernel>
Result<Binding> ExecBinary(const ExecArgs& a) {
  return AsBinding(kKernel(a.ctx, a.BatAt(0), a.BatAt(1)));
}

Result<Binding> ExecSelect(const ExecArgs& a) {
  if (a.stmt.args.size() == 2) {
    return AsBinding(kernel::Select(a.ctx, a.BatAt(0), a.ValAt(1)));
  }
  return AsBinding(
      kernel::SelectRange(a.ctx, a.BatAt(0), a.ValAt(1), a.ValAt(2)));
}

/// Argument `i` as a count or position. The kernels take size_t, so a
/// negative one would wrap.
Result<size_t> CountAt(const ExecArgs& a, size_t i) {
  MF_ASSIGN_OR_RETURN(Value n, a.ValAt(i).CastTo(MonetType::kLng));
  if (n.AsLng() < 0) {
    return Status::Invalid("argument " + std::to_string(i + 1) + " of '" +
                           a.stmt.op + "' must not be negative, got " +
                           std::to_string(n.AsLng()));
  }
  return static_cast<size_t>(n.AsLng());
}

template <bool kMax>
Result<Binding> ExecTopN(const ExecArgs& a) {
  MF_ASSIGN_OR_RETURN(size_t n, CountAt(a, 1));
  return AsBinding(kernel::TopN(a.ctx, a.BatAt(0), n, kMax));
}

// ------------------------------------------------------------- the table

constexpr uint8_t A(size_t n) { return static_cast<uint8_t>(1u << n); }

using Sx = Suffix;
constexpr AK N = AK::kAny;

constexpr OpDecl kOps[] = {
    // Selections on the tail: point (1 value) or range (2 values).
    {"select", Sx::kNone, "", A(2) | A(3), {B, S, S}, false, TypeSelect,
     PriceSelect, ExecSelect},
    {"select.like", Sx::kNone, "", A(2), {B, S}, false, TypeSelectLike,
     PriceSelect,
     [](const ExecArgs& a) -> Result<Binding> {
       if (a.ValAt(1).type() != MonetType::kStr) {
         return Status::TypeError("select.like needs a string pattern");
       }
       return AsBinding(
           kernel::SelectLike(a.ctx, a.BatAt(0), a.ValAt(1).AsStr()));
     }},
    {"select.", Sx::kCmp, "", A(2), {B, S}, false, TypeSelectCmp, PriceSelect,
     [](const ExecArgs& a) {
       return AsBinding(
           kernel::SelectCmp(a.ctx, a.BatAt(0), a.op.cmp, a.ValAt(1)));
     }},
    // Binary table operations.
    {"join", Sx::kNone, "", A(2), {B, B}, false, TypeJoin,
     PriceBinary<kJoinFamily>, ExecBinary<kernel::Join>},
    {"semijoin", Sx::kNone, "", A(2), {B, B}, false, TypeSemijoin<false>,
     PriceBinary<kSemijoinFamily>, ExecBinary<kernel::Semijoin>},
    {"kintersect", Sx::kNone, "", A(2), {B, B}, false, TypeSemijoin<false>,
     PriceBinary<kSemijoinFamily>, ExecBinary<kernel::Intersect>},
    {"kdiff", Sx::kNone, "", A(2), {B, B}, false, TypeSemijoin<true>,
     PriceBinary<kDiffFamily>, ExecBinary<kernel::Diff>},
    {"kunion", Sx::kNone, "", A(2), {B, B}, false, TypeUnion,
     PriceBinary<kUnionFamily>, ExecBinary<kernel::Union>},
    {"thetajoin.", Sx::kCmp, "", A(2), {B, B}, false, TypeThetaJoin,
     [](const StaticStmt& s, bool hi_end) {
       DispatchInput in = InputAt(s.arg[0], s.arg[1], hi_end);
       in.param = OpParam{static_cast<int64_t>(s.op.cmp)};
       return FamilyPrice("thetajoin", in);
     },
     [](const ExecArgs& a) {
       return AsBinding(
           kernel::ThetaJoin(a.ctx, a.BatAt(0), a.BatAt(1), a.op.cmp));
     }},
    // The random-fetch page model for positional gathers.
    {"fetch", Sx::kNone, "", A(2), {B, B}, false, TypeFetch,
     [](const StaticStmt& s, bool hi_end) {
       const AbstractBinding& pos = s.arg[1];
       const OperandView iv = ViewAt(s.arg[0], hi_end);
       return PagesOf(ViewAt(pos, hi_end)) +
              kernel::RandomFetchPages(iv.size, iv.tail_width,
                                       hi_end ? pos.card.hi : pos.card.lo);
     },
     ExecBinary<kernel::Fetch>},
    // Reshaping.
    {"histogram", Sx::kNone, "", A(1), {B}, false,
     [](StaticStmt& s) {
       return BatBinding(MonetType::kOidT, MonetType::kLng,
                         Distinct(s.arg[0]), true);
     },
     PricePass<true>, ExecUnary<kernel::Histogram>},
    {"mirror", Sx::kNone, "", A(1), {B}, false,
     [](StaticStmt& s) {
       return BatBinding(s.arg[0].tail, s.arg[0].head, s.arg[0].card, false);
     },
     PriceFree,
     [](const ExecArgs& a) { return Result<Binding>(a.BatAt(0).Mirror()); }},
    {"unique", Sx::kNone, "", A(1), {B}, false, TypeUnique<false>,
     PricePass<true>, ExecUnary<kernel::Unique>},
    {"hunique", Sx::kNone, "", A(1), {B}, false, TypeUnique<true>,
     PricePass<true>, ExecUnary<kernel::HeadUnique>},
    {"group", Sx::kNone, "", A(1) | A(2), {B, B}, false, TypeGroup,
     [](const StaticStmt& s, bool hi_end) {
       if (s.stmt.args.size() == 1) {
         return FamilyPrice("group", InputAt(s.arg[0], hi_end));
       }
       return FamilyPrice("group_refine", InputAt(s.arg[0], s.arg[1], hi_end));
     },
     [](const ExecArgs& a) {
       if (a.stmt.args.size() == 1) {
         return AsBinding(kernel::Group(a.ctx, a.BatAt(0)));
       }
       return AsBinding(kernel::GroupRefine(a.ctx, a.BatAt(0), a.BatAt(1)));
     }},
    {"mark", Sx::kNone, "", A(2), {B, S}, false, TypeMark, PriceHeadPass,
     [](const ExecArgs& a) -> Result<Binding> {
       MF_ASSIGN_OR_RETURN(Value base, a.ValAt(1).CastTo(MonetType::kOidT));
       return AsBinding(kernel::Mark(a.ctx, a.BatAt(0), base.AsOid()));
     }},
    {"extent", Sx::kNone, "", A(1), {B}, false,
     [](StaticStmt& s) {
       const AbstractBinding& in = s.arg[0];
       return BatBinding(in.head, MonetType::kVoid, in.card, in.head_key);
     },
     PriceHeadPass, ExecUnary<kernel::VoidTail>},
    {"slice", Sx::kNone, "", A(3), {B, S, S}, false, TypeSlice,
     [](const StaticStmt& s, bool hi_end) {
       const auto rows = static_cast<uint64_t>(hi_end ? s.result.card.hi
                                                      : s.result.card.lo);
       const OperandView v = ViewAt(s.arg[0], hi_end);
       return kernel::HeapPages(rows, v.head_width) +
              kernel::HeapPages(rows, v.tail_width);
     },
     [](const ExecArgs& a) -> Result<Binding> {
       MF_ASSIGN_OR_RETURN(size_t lo, CountAt(a, 1));
       MF_ASSIGN_OR_RETURN(size_t hi, CountAt(a, 2));
       return AsBinding(kernel::Slice(a.ctx, a.BatAt(0), lo, hi));
     }},
    {"sort", Sx::kNone, "", A(1), {B}, false,
     [](StaticStmt& s) {
       const AbstractBinding& in = s.arg[0];
       return BatBinding(in.head, in.tail, in.card, in.head_key);
     },
     PricePass<true>, ExecUnary<kernel::SortTail>},
    {"topn_max", Sx::kNone, "", A(2), {B, S}, false, TypeTopN,
     PricePass<false>, ExecTopN<true>},
    {"topn_min", Sx::kNone, "", A(2), {B, S}, false, TypeTopN,
     PricePass<false>, ExecTopN<false>},
    {"project", Sx::kNone, "", A(2), {B, S}, false,
     [](StaticStmt& s) {
       const AbstractBinding& in = s.arg[0];
       return BatBinding(in.head, s.arg[1].scalar, in.card, in.head_key);
     },
     PriceHeadPass,
     [](const ExecArgs& a) {
       return AsBinding(kernel::ProjectConst(a.ctx, a.BatAt(0), a.ValAt(1)));
     }},
    // insert(b, h, t): a new BAT = b plus the BUN [h, t] (columns are
    // immutable, so the "mutation" materializes a fresh binding — which is
    // exactly what the WAL logs when a durable session commits one).
    {"insert", Sx::kNone, "", A(3), {B, S, S}, true, TypeInsert,
     PricePass<false>,
     [](const ExecArgs& a) {
       return AsBinding(
           kernel::InsertBuns(a.ctx, a.BatAt(0), {a.ValAt(1)}, {a.ValAt(2)}));
     }},
    {"append", Sx::kNone, "", A(2), {B, B}, false, TypeAppend,
     [](const StaticStmt& s, bool hi_end) {
       return PagesOf(ViewAt(s.arg[0], hi_end)) +
              PagesOf(ViewAt(s.arg[1], hi_end));
     },
     ExecBinary<kernel::Append>},
    // Multiplex [f] over BATs and scalars; scalar calculation calc.f.
    {"[", Sx::kFn, "]", 0, {N, N, N}, false, TypeMultiplex, PriceMultiplex,
     [](const ExecArgs& a) {
       std::vector<kernel::MxArg> margs;
       for (size_t i = 0; i < a.stmt.args.size(); ++i) {
         margs.push_back(*a.arg[i]);
       }
       return AsBinding(kernel::Multiplex(a.ctx, *a.op.fn, margs));
     }},
    {"calc.", Sx::kFn, "", 0, {S, S, S}, false, TypeCalc, PriceFree,
     [](const ExecArgs& a) {
       std::vector<Value> args;
       for (size_t i = 0; i < a.stmt.args.size(); ++i) {
         args.push_back(a.ValAt(i));
       }
       return AsBinding(kernel::ScalarApply(*a.op.fn, args));
     }},
    // Set-aggregates {g} (grouped by head) and whole-tail aggregates.
    {"{", Sx::kAgg, "}", A(1), {B}, false, TypeSetAgg,
     [](const StaticStmt& s, bool hi_end) {
       return FamilyPrice("set_aggregate", InputAt(s.arg[0], hi_end));
     },
     [](const ExecArgs& a) {
       return AsBinding(kernel::SetAggregate(a.ctx, a.op.agg, a.BatAt(0)));
     }},
    {"", Sx::kAgg, "", A(1), {B}, false, TypeScalarAgg,
     [](const StaticStmt& s, bool hi_end) {
       const OperandView v = ViewAt(s.arg[0], hi_end);
       return kernel::HeapPages(v.size, v.tail_width);
     },
     [](const ExecArgs& a) {
       return AsBinding(kernel::ScalarAggregate(a.ctx, a.op.agg, a.BatAt(0)));
     }},
};

/// The text between a family's prefix and close, or nullopt when
/// `spelling` does not have the family's shape.
std::optional<std::string_view> Inner(const OpDecl& d,
                                      std::string_view spelling) {
  if (spelling.size() <= d.prefix.size() + d.close.size() ||
      !spelling.starts_with(d.prefix) || !spelling.ends_with(d.close)) {
    return std::nullopt;
  }
  return spelling.substr(d.prefix.size(), spelling.size() - d.prefix.size() -
                                              d.close.size());
}

/// Parses a family's suffix into `r`; false when it names nothing the
/// family takes. A comparator family has no `=` member: the plain operator
/// is the equality form.
bool ParseSuffix(const OpDecl& d, std::string_view inner, ResolvedOp* r) {
  if (d.suffix == Suffix::kFn) {
    r->fn = kernel::FindScalarFn(inner);
    return r->fn != nullptr;
  }
  if (d.suffix == Suffix::kAgg) {
    const auto agg = AggOf(inner);
    if (agg) r->agg = *agg;
    return agg.has_value();
  }
  const auto cmp = CmpOf(inner);
  if (cmp) r->cmp = *cmp;
  return cmp && *cmp != kernel::CmpOp::kEq;
}

}  // namespace

void StaticStmt::Error(std::string message) const {
  diags->push_back(
      Diagnostic{Severity::kError, stmt.line, stmt.var, std::move(message)});
}

void StaticStmt::Warn(std::string message) const {
  diags->push_back(
      Diagnostic{Severity::kWarning, stmt.line, stmt.var, std::move(message)});
}

std::span<const OpDecl> AllOps() { return kOps; }

ResolvedOp ResolveOp(std::string_view spelling) {
  ResolvedOp r;
  for (const OpDecl& d : kOps) {
    if (d.suffix == Suffix::kNone) {
      if (spelling != d.prefix) continue;
    } else {
      const auto inner = Inner(d, spelling);
      if (!inner || !ParseSuffix(d, *inner, &r)) continue;
    }
    r.decl = &d;
    return r;
  }
  return r;
}

Status UnknownOp(std::string_view spelling) {
  return Status::NotImplemented("unknown MIL operator '" +
                                std::string(spelling) + "'");
}

Status CheckArity(const ResolvedOp& op, std::string_view spelling,
                  size_t got) {
  const OpDecl& d = *op.decl;
  const uint8_t ok = d.arities != 0 ? d.arities : A(op.fn->arity);
  if (got <= kMaxArgs && (ok & A(got)) != 0) return Status::OK();
  std::string want;
  for (size_t n = 0; n <= kMaxArgs; ++n) {
    if ((ok & A(n)) == 0) continue;
    want += (want.empty() ? "" : " or ") + std::to_string(n);
  }
  const std::string got_text = ", got " + std::to_string(got);
  if (d.arities == 0) {
    return Status::Invalid((d.close.empty()
                                ? "scalar fn '" + std::string(op.fn->name) + "'"
                                : "multiplex " + std::string(spelling)) +
                           " expects " + want + " args" + got_text);
  }
  return Status::Invalid("operator '" + std::string(spelling) + "' expects " +
                         want + (ok == A(1) ? " argument" : " arguments") +
                         got_text);
}

std::optional<kernel::CmpOp> CmpOf(std::string_view name) {
  for (const auto& [spelling, cmp] : kCmps) {
    if (spelling == name) return cmp;
  }
  return std::nullopt;
}

std::optional<kernel::AggKind> AggOf(std::string_view name) {
  for (kernel::AggKind a : kAggs) {
    if (name == kernel::AggKindName(a)) return a;
  }
  return std::nullopt;
}

AbstractBinding UnknownBinding() {
  AbstractBinding b;
  b.kind = AbstractBinding::Kind::kUnknown;
  b.card = {0, kUnknownRows};
  return b;
}

AbstractBinding BatBinding(MonetType head, MonetType tail, CardInterval card,
                           bool head_key) {
  AbstractBinding b;
  b.kind = AbstractBinding::Kind::kBat;
  b.head = head;
  b.tail = tail;
  b.card = card;
  b.head_key = head_key;
  return b;
}

AbstractBinding ScalarBinding(MonetType t) {
  AbstractBinding b;
  b.kind = AbstractBinding::Kind::kScalar;
  b.scalar = t;
  b.card = {1, 1};
  return b;
}

}  // namespace moaflat::mil
