// Generated soundness test over the MIL operator table (mil/ops.h). For
// every OpDecl and every spelling it resolves, random programs run over
// small seeded catalogs: one statement per spelling with operands that
// follow (and sometimes deliberately break) the declared argument kinds,
// plus random 2–6 statement chains over derived bindings. Whatever the
// analyzer admits must run without throwing, to OK or to an error only the
// data can cause; an OK run must have the inferred types, stay inside the
// inferred cardinality interval, keep every claimed head key, and give
// bit-identical results at parallel degrees 1 and 4.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bat/bat.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernel/exec_context.h"
#include "kernel/operators.h"
#include "kernel/scalar_fn.h"
#include "mil/analyzer.h"
#include "mil/interpreter.h"
#include "mil/ops.h"

namespace moaflat::mil {
namespace {

using bat::Bat;
using bat::Column;
using bat::ColumnPtr;

constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};
constexpr int kTriesPerSpelling = 40;
constexpr int kChainsPerSeed = 3000;

/// Errors only the data can cause, so the analyzer cannot rule them out.
constexpr const char* kRuntimeOnly[] = {
    "division by zero",         // [/], calc./
    "fetch position",           // a position past the end
    "left head value missing",  // group refinement over unaligned heads
    "must not be negative",     // a count computed at run time
    "to oid",                   // a negative oid computed at run time
    "cannot view void",         // a nil: the min or max of no rows ...
    "is nil",                   // ... reaching a scalar function
};

MonetType Norm(MonetType t) {
  return t == MonetType::kVoid ? MonetType::kOidT : t;
}

const MonetType kTailTypes[] = {
    MonetType::kVoid, MonetType::kOidT, MonetType::kInt,
    MonetType::kLng,  MonetType::kDbl,  MonetType::kDate,
    MonetType::kStr,  MonetType::kBit,  MonetType::kChr,
};

const char* const kStrs[] = {"a", "b", "ab", "ba", "abc", ""};

Value RandomValue(MonetType t, Rng& rng) {
  switch (t) {
    case MonetType::kOidT:
      return Value::MakeOid(static_cast<Oid>(rng.Uniform(0, 30)));
    case MonetType::kInt:
      return Value::Int(static_cast<int32_t>(rng.Uniform(-3, 20)));
    case MonetType::kLng:
      return Value::Lng(rng.Uniform(-3, 20));
    case MonetType::kDbl:
      return Value::Dbl(static_cast<double>(rng.Uniform(-4, 20)) * 0.5);
    case MonetType::kDate:
      return Value::MakeDate(Date(9000 + static_cast<int>(rng.Uniform(0, 20))));
    case MonetType::kStr:
      return Value::Str(kStrs[rng.Uniform(0, 5)]);
    case MonetType::kBit:
      return Value::Bit(rng.Chance(0.5));
    case MonetType::kChr:
      return Value::Chr(static_cast<char>('a' + rng.Uniform(0, 3)));
    default:
      return Value::Int(0);
  }
}

/// A column of `n` values of type `t`: random over a small domain (so
/// duplicates and join partners occur), all equal, or sorted.
ColumnPtr MakeColumn(MonetType t, size_t n, Rng& rng) {
  if (t == MonetType::kVoid) {
    return Column::MakeVoid(static_cast<Oid>(rng.Uniform(0, 5)), n);
  }
  std::vector<Value> vals;
  const int shape = static_cast<int>(rng.Uniform(0, 2));
  for (size_t i = 0; i < n; ++i) {
    vals.push_back(shape == 1 && i > 0 ? vals[0] : RandomValue(t, rng));
  }
  if (shape == 2) {
    std::sort(vals.begin(), vals.end(), [](const Value& a, const Value& b) {
      return Value::Compare(a, b) < 0;
    });
  }
  bat::ColumnBuilder b(t);
  for (const Value& v : vals) EXPECT_TRUE(b.AppendValue(v).ok());
  return b.Finish();
}

/// Head column: void, unique oids (sorted or not), or oids with
/// duplicates.
ColumnPtr MakeHead(size_t n, Rng& rng) {
  switch (rng.Uniform(0, 2)) {
    case 0:
      return Column::MakeVoid(static_cast<Oid>(rng.Uniform(0, 5)), n);
    case 1: {
      std::vector<Oid> ids(40);
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
      for (size_t i = ids.size() - 1; i > 0; --i) {
        std::swap(ids[i], ids[static_cast<size_t>(rng.Uniform(0, i))]);
      }
      ids.resize(n);
      if (rng.Chance(0.5)) std::sort(ids.begin(), ids.end());
      return Column::MakeOid(std::move(ids));
    }
    default:
      return MakeColumn(MonetType::kOidT, n, rng);
  }
}

bool Unique(const Column& c) {
  std::set<std::string> seen;
  for (size_t i = 0; i < c.size(); ++i) {
    if (!seen.insert(c.GetValue(i).ToString()).second) return false;
  }
  return true;
}

bool Sorted(const Column& c) {
  for (size_t i = 1; i < c.size(); ++i) {
    if (Value::Compare(c.GetValue(i - 1), c.GetValue(i)) > 0) return false;
  }
  return true;
}

struct Catalog {
  MilEnv env;
  std::vector<std::string> bats;
  std::vector<std::string> scalars;
  /// Element type of every catalog name: a BAT's tail, a scalar's type.
  std::map<std::string, MonetType> element;
};

/// One BAT per tail type plus a few more, 0–40 rows each, with the sorted
/// and key properties declared (randomly) only where they hold.
Catalog MakeCatalog(uint64_t seed) {
  Rng rng(seed);
  Catalog cat;
  std::vector<MonetType> tails(std::begin(kTailTypes), std::end(kTailTypes));
  for (int extra = 0; extra < 4; ++extra) {
    tails.push_back(kTailTypes[rng.Uniform(0, std::size(kTailTypes) - 1)]);
  }
  for (MonetType t : tails) {
    const size_t n =
        rng.Chance(0.12) ? 0 : static_cast<size_t>(rng.Uniform(1, 40));
    Bat b(MakeHead(n, rng), MakeColumn(t, n, rng));
    bat::Properties p;
    p.hkey = Unique(b.head()) && rng.Chance(0.7);
    p.tkey = Unique(b.tail()) && rng.Chance(0.7);
    p.hsorted = Sorted(b.head()) && rng.Chance(0.7);
    p.tsorted = Sorted(b.tail()) && rng.Chance(0.7);
    const std::string name = "b" + std::to_string(cat.bats.size());
    cat.env.BindBat(name, b.WithProps(p).ValueOrDie());
    cat.bats.push_back(name);
    cat.element[name] = t;
  }
  const std::pair<const char*, Value> scalars[] = {
      {"si", Value::Int(3)},        {"sn", Value::Int(-2)},
      {"sd", Value::Dbl(2.5)},      {"ss", Value::Str("ab")},
      {"sdt", Value::MakeDate(Date(9005))}, {"sb", Value::Bit(true)},
  };
  for (const auto& [name, v] : scalars) {
    cat.env.BindValue(name, v);
    cat.scalars.push_back(name);
    cat.element[name] = v.type();
  }
  return cat;
}

/// Every spelling that resolves to `d`: its prefix and close around nothing,
/// a scalar-function name (the comparators among them) or an aggregate.
std::vector<std::string> Spellings(const OpDecl& d) {
  std::vector<std::string> suffixes{""};
  for (const kernel::ScalarFn& f : kernel::AllScalarFns()) {
    suffixes.emplace_back(f.name);
  }
  for (kernel::AggKind a :
       {kernel::AggKind::kSum, kernel::AggKind::kCount, kernel::AggKind::kAvg,
        kernel::AggKind::kMin, kernel::AggKind::kMax}) {
    suffixes.emplace_back(kernel::AggKindName(a));
  }
  std::vector<std::string> out;
  for (const std::string& s : suffixes) {
    std::string spelling =
        std::string(d.prefix) + s + std::string(d.close);
    if (ResolveOp(spelling).decl == &d) out.push_back(std::move(spelling));
  }
  return out;
}

/// Draws statements: operands follow the declared kinds, with a small
/// share of deliberate misfits (a literal for a BAT, a BAT for a scalar, a
/// wrong argument count).
class Generator {
 public:
  Generator(const Catalog& cat, uint64_t seed) : cat_(cat), rng_(seed) {}

  void Reset() {
    bats_ = cat_.bats;
    scalars_ = cat_.scalars;
  }

  MilStmt Draw(const std::string& var, const std::string& spelling) {
    const ResolvedOp op = ResolveOp(spelling);
    std::vector<size_t> arities;
    for (size_t n = 0; n <= kMaxArgs; ++n) {
      if (CheckArity(op, spelling, n).ok()) arities.push_back(n);
    }
    size_t n = arities[rng_.Uniform(0, arities.size() - 1)];
    if (rng_.Chance(0.04)) n = static_cast<size_t>(rng_.Uniform(0, 3));
    MilStmt s{var, spelling, {}};
    for (size_t i = 0; i < n; ++i) {
      const ArgKind kind = i < kMaxArgs ? op.decl->kinds[i] : ArgKind::kAny;
      // Operands of a scalar function mostly fit its argument classes.
      auto fits = [&](MonetType t) {
        return op.fn == nullptr || i >= op.fn->arity ||
               kernel::ScalarArgFits(*op.fn, i, t);
      };
      s.args.push_back(Operand(kind, op.fn != nullptr && rng_.Chance(0.75)
                                         ? std::function<bool(MonetType)>(fits)
                                         : nullptr));
    }
    // calc.f and the whole-tail aggregates bind scalars.
    const bool scalar_result = op.decl->close.empty() &&
                               (op.decl->suffix == Suffix::kFn ||
                                op.decl->suffix == Suffix::kAgg);
    (scalar_result ? scalars_ : bats_).push_back(var);
    return s;
  }

  Rng& rng() { return rng_; }

 private:
  using Fits = std::function<bool(MonetType)>;

  /// A random name of `names`: half the time one bound earlier in the
  /// program, when there is one; with `fits`, preferably a catalog name
  /// whose element type fits.
  std::string Pick(const std::vector<std::string>& names, const Fits& fits) {
    std::vector<std::string> fitting, derived;
    for (const std::string& n : names) {
      auto e = cat_.element.find(n);
      if (e == cat_.element.end()) {
        derived.push_back(n);
      } else if (fits && fits(e->second)) {
        fitting.push_back(n);
      }
    }
    const std::vector<std::string>& from =
        !derived.empty() && rng_.Chance(0.5) ? derived
        : !fitting.empty()                   ? fitting
                                             : names;
    return from[rng_.Uniform(0, from.size() - 1)];
  }

  MilArg Literal(const Fits& fits) {
    MonetType t = MonetType::kInt;
    for (int tries = 0; tries < 20; ++tries) {
      t = kTailTypes[rng_.Uniform(1, std::size(kTailTypes) - 1)];
      if (!fits || fits(t)) break;
    }
    return L(RandomValue(t, rng_));
  }

  MilArg Operand(ArgKind kind, const Fits& fits) {
    const double misfit = rng_.NextDouble();
    switch (kind) {
      case ArgKind::kBat:
        if (misfit < 0.04) return Literal(fits);
        if (misfit < 0.08) return V(Pick(scalars_, fits));
        return V(Pick(bats_, fits));
      case ArgKind::kScalar:
        if (misfit < 0.06) return V(Pick(bats_, fits));
        return rng_.Chance(0.6) ? Literal(fits) : V(Pick(scalars_, fits));
      case ArgKind::kAny:
        break;
    }
    if (rng_.Chance(0.55)) return V(Pick(bats_, fits));
    return rng_.Chance(0.6) ? Literal(fits) : V(Pick(scalars_, fits));
  }

  const Catalog& cat_;
  Rng rng_;
  std::vector<std::string> bats_;
  std::vector<std::string> scalars_;
};

struct Outcome {
  Status status;
  MilEnv env;
  std::string thrown;  // what() of an escaped exception
};

Outcome RunAt(const Catalog& cat, const MilProgram& p, int degree) {
  Outcome o{Status::OK(), cat.env, ""};
  kernel::ExecContext ctx;
  ctx.WithParallelDegree(degree);
  MilInterpreter interp(&o.env, &ctx);
  try {
    o.status = interp.Run(p);
  } catch (const std::exception& e) {
    o.thrown = e.what();
  }
  return o;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == MonetType::kDbl) {
    return std::bit_cast<uint64_t>(a.AsDbl()) ==
           std::bit_cast<uint64_t>(b.AsDbl());
  }
  if (a.type() == MonetType::kFlt) {
    return std::bit_cast<uint32_t>(a.AsFlt()) ==
           std::bit_cast<uint32_t>(b.AsFlt());
  }
  return Value::Compare(a, b) == 0;
}

bool SameColumn(const Column& a, const Column& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a.GetValue(i), b.GetValue(i))) return false;
  }
  return true;
}

bool SameBinding(const MilEnv::Binding& a, const MilEnv::Binding& b) {
  const Bat* ba = std::get_if<Bat>(&a);
  const Bat* bb = std::get_if<Bat>(&b);
  if ((ba == nullptr) != (bb == nullptr)) return false;
  if (ba == nullptr) return SameValue(std::get<Value>(a), std::get<Value>(b));
  return SameColumn(ba->head(), bb->head()) &&
         SameColumn(ba->tail(), bb->tail());
}

/// Why the executed binding contradicts the inferred one, or "". A nil
/// (min or max over no rows) is untyped, so a run that bound one is held
/// to the inferred kinds and intervals but not to the types.
std::string Contradiction(const AbstractBinding& want,
                          const MilEnv::Binding& got, bool bound_nil) {
  if (const Value* v = std::get_if<Value>(&got)) {
    if (want.kind != AbstractBinding::Kind::kScalar) {
      return "ran to a scalar, inferred " + want.ToString();
    }
    if (!bound_nil && Norm(want.scalar) != Norm(v->type())) {
      return std::string("ran to a ") + TypeName(v->type()) +
             " scalar, inferred " + want.ToString();
    }
    return "";
  }
  const Bat& b = std::get<Bat>(got);
  const std::string shape = std::string("ran to [") +
                            TypeName(b.head().type()) + "," +
                            TypeName(b.tail().type()) + "] of " +
                            std::to_string(b.size()) + " rows, inferred " +
                            want.ToString();
  if (want.kind != AbstractBinding::Kind::kBat ||
      (!bound_nil && (Norm(want.head) != Norm(b.head().type()) ||
                      Norm(want.tail) != Norm(b.tail().type())))) {
    return shape;
  }
  const double n = static_cast<double>(b.size());
  if (n < want.card.lo || n > want.card.hi) return shape;
  if (want.head_key && !Unique(b.head())) return shape + ", head not a key";
  return "";
}

class OpPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_cap_ = ParallelBlockCap();
    SetParallelBlockCap(4);
  }
  void TearDown() override { SetParallelBlockCap(saved_cap_); }

  /// Analyzes `p`; an admitted program runs at degrees 1 and 4 and is
  /// checked. Records the spellings of programs that ran to OK.
  void Check(const Catalog& cat, const MilProgram& p, uint64_t seed) {
    const AnalysisReport report = AnalyzeProgram(p, cat.env);
    if (!report.ok()) return;
    ++admitted_;
    const Outcome d1 = RunAt(cat, p, 1);
    const Outcome d4 = RunAt(cat, p, 4);
    std::string why;
    if (!d1.thrown.empty() || !d4.thrown.empty()) {
      why = "threw: " + d1.thrown + d4.thrown;
    } else if (d1.status.code() != d4.status.code()) {
      why = "degree 1 returned " + d1.status.ToString() + ", degree 4 " +
            d4.status.ToString();
    } else if (!d1.status.ok()) {
      const bool runtime_only =
          std::any_of(std::begin(kRuntimeOnly), std::end(kRuntimeOnly),
                      [&](const char* m) {
                        return d1.status.message().find(m) !=
                               std::string::npos;
                      });
      if (!runtime_only) why = "admitted, then failed: " + d1.status.ToString();
    } else {
      const bool bound_nil = std::any_of(
          p.stmts.begin(), p.stmts.end(), [&](const MilStmt& s) {
            const Value* v = std::get_if<Value>(&d1.env.bindings().at(s.var));
            return v != nullptr && v->type() == MonetType::kVoid;
          });
      for (const MilStmt& s : p.stmts) {
        const MilEnv::Binding& got = d1.env.bindings().at(s.var);
        why = Contradiction(report.bindings.at(s.var), got, bound_nil);
        if (why.empty() &&
            !SameBinding(got, d4.env.bindings().at(s.var))) {
          why = "degrees 1 and 4 differ";
        }
        if (!why.empty()) {
          why = "'" + s.var + "' " + why;
          break;
        }
      }
      if (why.empty()) {
        for (const MilStmt& s : p.stmts) ran_.insert(s.op);
      }
    }
    if (!why.empty() && ++failures_ <= 25) {
      ADD_FAILURE() << "seed " << seed << ": " << why << "\n"
                    << p.ToString();
    }
  }

  int saved_cap_ = 1;
  int admitted_ = 0;
  int failures_ = 0;
  std::set<std::string> ran_;
};

TEST_F(OpPropertyTest, EveryOperatorIsSoundOverGeneratedPrograms) {
  std::vector<std::string> spellings;
  for (const OpDecl& d : AllOps()) {
    const std::vector<std::string> own = Spellings(d);
    EXPECT_FALSE(own.empty()) << "declaration '" << d.prefix
                              << "' resolves no spelling";
    spellings.insert(spellings.end(), own.begin(), own.end());
  }

  for (uint64_t seed : kSeeds) {
    const Catalog cat = MakeCatalog(seed);
    Generator gen(cat, seed * 7919);
    // One statement per spelling.
    for (const std::string& spelling : spellings) {
      for (int t = 0; t < kTriesPerSpelling; ++t) {
        gen.Reset();
        MilProgram p;
        p.stmts.push_back(gen.Draw("r", spelling));
        Check(cat, p, seed);
      }
    }
    // Chains over derived bindings.
    for (int c = 0; c < kChainsPerSeed; ++c) {
      gen.Reset();
      MilProgram p;
      const int len = static_cast<int>(gen.rng().Uniform(2, 6));
      for (int k = 0; k < len; ++k) {
        const std::string& spelling =
            spellings[gen.rng().Uniform(0, spellings.size() - 1)];
        p.stmts.push_back(gen.Draw("v" + std::to_string(k), spelling));
      }
      Check(cat, p, seed);
    }
  }

  for (const std::string& s : spellings) {
    EXPECT_TRUE(ran_.count(s)) << "no admitted program ran '" << s << "'";
  }
  EXPECT_GT(admitted_, 0);
  EXPECT_EQ(failures_, 0);
}

}  // namespace
}  // namespace moaflat::mil
