#include <algorithm>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "kernel/cost_model.h"
#include "kernel/internal.h"
#include "kernel/operators.h"
#include "kernel/registry.h"
#include "kernel/scalar_fn.h"
#include "storage/page_accountant.h"

namespace moaflat::kernel {
namespace {

using bat::Column;
using bat::ColumnBuilder;
using bat::ColumnPtr;
using internal::HashString;
using internal::MixSync;
using internal::SetSync;

MonetType ArgType(const MxArg& a) {
  if (const Bat* b = std::get_if<Bat>(&a)) return b->tail().type();
  return std::get<Value>(a).type();
}

/// True when the typed loop can read `a` through its numeric view: a
/// column of any type but str, or a constant with a double value (nil and
/// str constants have none).
bool NumViewable(const MxArg& a) {
  if (const Bat* b = std::get_if<Bat>(&a)) {
    return b->tail().type() != MonetType::kStr;
  }
  return std::get<Value>(a).ToDouble().ok();
}

/// True when the typed loop computes `fn` over `args` bit-identically to
/// the boxed apply followed by CastTo(out). Over numeric views,
/// Value::Compare *is* the double comparison and the arithmetic is double
/// arithmetic; the logical functions need genuinely bit-typed operands;
/// ifthen needs both branches already of the result type, and a result
/// type that round-trips through double exactly; a calendar field needs a
/// date operand (its one argument is a column).
bool TypedEval(const ScalarFn& fn, const std::vector<MxArg>& args,
               MonetType out) {
  auto bit = [&args](size_t k) {
    return ArgType(args[k]) == MonetType::kBit;
  };
  switch (fn.eval.op) {
    case RowOp::kAdd:
    case RowOp::kSub:
    case RowOp::kMul:
    case RowOp::kDiv:
    case RowOp::kCmp:
      return NumViewable(args[0]) && NumViewable(args[1]);
    case RowOp::kAnd:
    case RowOp::kOr:
      return bit(0) && bit(1);
    case RowOp::kNot:
      return bit(0);
    case RowOp::kIfThen:
      return bit(0) && ArgType(args[1]) == out && ArgType(args[2]) == out &&
             (out == MonetType::kBit || out == MonetType::kChr ||
              out == MonetType::kInt || out == MonetType::kFlt ||
              out == MonetType::kDbl);
    case RowOp::kYear:
    case RowOp::kMonth:
    case RowOp::kDay:
      return ArgType(args[0]) == MonetType::kDate;
    case RowOp::kNone:
      return false;
  }
  return false;
}

/// Dispatch-relevant shape of one multiplex call, shared by the dispatcher
/// and the registered variants (each variant re-derives it; the analysis
/// is O(args) pointer chasing, never data).
struct MxShape {
  const Bat* driver = nullptr;        // first BAT argument
  std::vector<const Bat*> bats;       // all BAT arguments, in order
  std::vector<int> bat_of_arg;        // arg slot -> index in bats, -1 const
  bool synced = true;                 // all BATs share the driver's heads
  MonetType out_type = MonetType::kDbl;
  bool typed = false;                 // TypedEval holds
};

Result<MxShape> AnalyzeMx(const ScalarFn& fn, const std::vector<MxArg>& args) {
  MxShape sh;
  sh.bat_of_arg.assign(args.size(), -1);
  std::vector<MonetType> arg_types;
  for (size_t k = 0; k < args.size(); ++k) {
    arg_types.push_back(ArgType(args[k]));
    if (const Bat* b = std::get_if<Bat>(&args[k])) {
      if (sh.driver == nullptr) sh.driver = b;
      sh.bat_of_arg[k] = static_cast<int>(sh.bats.size());
      sh.bats.push_back(b);
    }
  }
  if (sh.driver == nullptr) {
    return Status::Invalid("multiplex [" + std::string(fn.name) +
                           "] needs at least one BAT argument");
  }
  // The multiplex constructor applies f over the natural join on head
  // values (Fig. 4). The synced variant applies it positionally; the
  // kernel proves syncedness via the propagated sync keys (Section 5.1),
  // e.g. for [*]( prices, factor ) in Q13.
  for (const Bat* b : sh.bats) {
    if (b != sh.driver && !sh.driver->SyncedWith(*b)) sh.synced = false;
  }
  MF_ASSIGN_OR_RETURN(sh.out_type, ScalarResultType(fn, arg_types));
  sh.typed = TypedEval(fn, args, sh.out_type);
  return sh;
}

// --------------------------------------------------------- typed rows

/// A constant's double value, broadcast to every row.
struct ConstNum {
  double v;
  double operator()(size_t) const { return v; }
};

/// A column's numeric view (bat::Num), read by row from row `first` on.
template <typename View>
struct ColumnNum {
  View view;
  size_t first;
  double operator()(size_t i) const { return bat::Num(view, first + i); }
};

/// One operand of the typed loop: a column, a buffer of numeric values
/// (head-join rows gathered into driver order) or a constant.
struct NumSource {
  const Column* col = nullptr;
  const double* vals = nullptr;
  double c = 0;
};

std::vector<NumSource> NumSources(const std::vector<MxArg>& args) {
  std::vector<NumSource> src(args.size());
  for (size_t k = 0; k < args.size(); ++k) {
    if (const Bat* b = std::get_if<Bat>(&args[k])) {
      src[k].col = &b->tail();
    } else {
      const Result<double> c = std::get<Value>(args[k]).ToDouble();
      src[k].c = c.ok() ? *c : 0.0;
    }
  }
  return src;
}

/// Lowers `s` from row `first` on to a numeric accessor and continues with
/// it, so the caller's loop is instantiated once per accessor type. A
/// buffer reads as a dbl column does and adds no instantiation; a str
/// column (TypedEval keeps them out) would read as Num's 0.
template <typename Cont>
void WithNum(const NumSource& s, size_t first, Cont&& cont) {
  if (s.vals != nullptr) {
    cont(ColumnNum<bat::NativeValues<double>>{{s.vals}, first});
  } else if (s.col == nullptr) {
    cont(ConstNum{s.c});
  } else {
    s.col->VisitValues([&](const auto& view) {
      using View = std::decay_t<decltype(view)>;
      if constexpr (std::is_same_v<View, bat::StrValues>) {
        cont(ConstNum{0.0});
      } else {
        cont(ColumnNum<View>{view, first});
      }
    });
  }
}

/// The one-operand row loops: not, a calendar field, and the first pass of
/// ifthen (its then-branch, copied).
template <typename X>
void UnaryRows(RowOp op, X x, size_t n, double* o) {
  switch (op) {
    case RowOp::kNot:
      for (size_t i = 0; i < n; ++i) o[i] = x(i) != 0 ? 0.0 : 1.0;
      break;
    case RowOp::kYear:
    case RowOp::kMonth:
    case RowOp::kDay:
      for (size_t i = 0; i < n; ++i) {
        const Date d(static_cast<int32_t>(x(i)));
        o[i] = op == RowOp::kYear    ? d.Year()
               : op == RowOp::kMonth ? d.Month()
                                     : d.Day();
      }
      break;
    case RowOp::kIfThen:
      for (size_t i = 0; i < n; ++i) o[i] = x(i);
      break;
    default:
      break;
  }
}

/// The two-operand row loops, one per operation and accessor pair. The
/// second pass of ifthen keeps the then-branch where the condition x
/// holds and takes y elsewhere. Returns false when a divisor was zero.
template <typename X, typename Y>
bool BinaryRows(const RowEval& e, X x, Y y, size_t n, double* o) {
  switch (e.op) {
    case RowOp::kAdd:
      for (size_t i = 0; i < n; ++i) o[i] = x(i) + y(i);
      break;
    case RowOp::kSub:
      for (size_t i = 0; i < n; ++i) o[i] = x(i) - y(i);
      break;
    case RowOp::kMul:
      for (size_t i = 0; i < n; ++i) o[i] = x(i) * y(i);
      break;
    case RowOp::kDiv: {
      bool zero = false;
      for (size_t i = 0; i < n; ++i) {
        const double d = y(i);
        zero |= d == 0;
        o[i] = d == 0 ? 0 : x(i) / d;
      }
      return !zero;
    }
    case RowOp::kCmp:
      // The wanted outcomes of the three-way comparison: Value::Compare
      // over numbers, NaN reading as "equal".
      for (size_t i = 0; i < n; ++i) {
        const double a = x(i);
        const double b = y(i);
        o[i] = (a < b ? e.lt : a > b ? e.gt : e.eq) ? 1.0 : 0.0;
      }
      break;
    case RowOp::kAnd:
    case RowOp::kOr: {
      const bool conj = e.op == RowOp::kAnd;
      for (size_t i = 0; i < n; ++i) {
        const bool a = x(i) != 0;
        const bool b = y(i) != 0;
        o[i] = (conj ? a && b : a || b) ? 1.0 : 0.0;
      }
      break;
    }
    case RowOp::kIfThen:
      for (size_t i = 0; i < n; ++i) o[i] = x(i) != 0 ? o[i] : y(i);
      break;
    default:
      break;
  }
  return true;
}

/// Typed evaluation of rows [first, first + n) of the operands into
/// out[0, n). Returns false when a divisor was zero.
bool EvalRows(const RowEval& e, const std::vector<NumSource>& src,
              size_t first, size_t n, double* out) {
  bool ok = true;
  if (src.size() == 1) {
    WithNum(src[0], first, [&](auto x) { UnaryRows(e.op, x, n, out); });
  } else if (e.op == RowOp::kIfThen) {
    WithNum(src[1], first, [&](auto x) { UnaryRows(e.op, x, n, out); });
    WithNum(src[0], first, [&](auto c) {
      WithNum(src[2], first, [&](auto y) { BinaryRows(e, c, y, n, out); });
    });
  } else {
    WithNum(src[0], first, [&](auto x) {
      WithNum(src[1], first, [&](auto y) { ok = BinaryRows(e, x, y, n, out); });
    });
  }
  return ok;
}

Status DivisionByZero() { return Status::ExecutionError("division by zero"); }

/// Converts typed (double) results into the fixed-width scatter slice:
/// the static_cast twin of Value::CastTo's numeric casts (exact for the
/// types TypedEval admits), one type dispatch, then a tight loop.
void StoreTyped(const double* vals, MonetType out_type, size_t n, size_t at,
                bat::ColumnScatter& ts) {
  Column::VisitType(out_type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* out = ts.Slot<T>() + at;
    for (size_t r = 0; r < n; ++r) {
      if constexpr (std::is_same_v<T, Date>) {
        out[r] = Date(static_cast<int32_t>(vals[r]));
      } else if constexpr (std::is_same_v<T, uint8_t>) {
        out[r] = vals[r] != 0 ? 1 : 0;
      } else {
        out[r] = static_cast<T>(vals[r]);
      }
    }
  });
}

// --------------------------------------------------------- boxed rows

/// Where output row r reads argument k: its BAT's tail at the row's driver
/// position (rows[r], or r itself when rows is null) or, for a non-driver
/// BAT of a head-join, at that position's aligned match in `pos`.
struct ArgIndexer {
  const MxShape* sh;
  const uint32_t* rows = nullptr;                      // kept driver rows
  const std::vector<std::vector<int64_t>>* pos = nullptr;  // alignment

  size_t operator()(size_t k, size_t r) const {
    const size_t src = rows != nullptr ? rows[r] : r;
    if (pos == nullptr) return src;
    const int bi = sh->bat_of_arg[k];
    if (bi < 0 || sh->bats[bi] == sh->driver) return src;
    return static_cast<size_t>((*pos)[bi][src]);
  }
};

/// Boxed evaluation of output rows [begin, end) into `out`: the entry's
/// apply per row, for what the typed loop cannot produce exactly (str
/// results, str operands, ifthen over types that do not round-trip
/// through double). A column has one type, so each argument's class is
/// checked once, and only when there is a row to evaluate.
Status BoxedEvalRows(const ScalarFn& fn, const std::vector<MxArg>& args,
                     const MxShape& sh, size_t begin, size_t end,
                     const ArgIndexer& at, std::vector<Value>& out) {
  if (begin == end) return Status::OK();
  for (size_t k = 0; k < args.size(); ++k) {
    const int bi = sh.bat_of_arg[k];
    MF_RETURN_NOT_OK(ScalarArgCheck(
        fn, k,
        bi >= 0 ? StoredType(sh.bats[bi]->tail().type()) : ArgType(args[k])));
  }
  out.reserve(end - begin);
  std::vector<Value> row(args.size());
  for (size_t r = begin; r < end; ++r) {
    for (size_t k = 0; k < args.size(); ++k) {
      const int bi = sh.bat_of_arg[k];
      row[k] = bi >= 0 ? sh.bats[bi]->tail().GetValue(at(k, r))
                       : std::get<Value>(args[k]);
    }
    MF_ASSIGN_OR_RETURN(Value v, fn.apply(row.data()));
    out.push_back(std::move(v));
  }
  return Status::OK();
}

/// Writes boxed results into the fixed-width scatter slice at `at`, each
/// through CastTo to the result type.
Status StoreBoxed(const std::vector<Value>& vals, MonetType out_type,
                  size_t at, bat::ColumnScatter& ts) {
  Status status = Status::OK();
  Column::VisitType(out_type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* out = ts.Slot<T>() + at;
    for (size_t r = 0; r < vals.size(); ++r) {
      Result<Value> cast = vals[r].CastTo(out_type);
      if (!cast.ok()) {
        status = cast.status();
        return;
      }
      out[r] = bat::NativeValueOf<T>(*cast);
    }
  });
  return status;
}

/// The str result tail of either variant: the blocks' boxed values in
/// block order, interned by one serial builder (interning into the shared
/// heap is not concurrent).
Result<ColumnPtr> StrTail(const std::vector<std::vector<Value>>& blocks,
                          size_t total) {
  ColumnBuilder tb(MonetType::kStr);
  tb.Reserve(total);
  for (const std::vector<Value>& block : blocks) {
    for (const Value& v : block) {
      MF_RETURN_NOT_OK(tb.AppendValue(v));
    }
  }
  return tb.Finish();
}

// ----------------------------------------------------------- variants

/// Synced multiplex: rows are positionally independent, so evaluation
/// morsels run on the TaskPool writing results straight into disjoint
/// slices of the pre-sized result heap — the typed row loops where
/// TypedEval holds (a dbl result in place, no staging), the boxed apply
/// otherwise. Every row emits, so the result head is the driver's head
/// column, shared zero-copy.
Result<Bat> SyncedMultiplex(const ExecContext& ctx, const ScalarFn& fn,
                            const std::vector<MxArg>& args, OpRecorder& rec) {
  MF_ASSIGN_OR_RETURN(MxShape sh, AnalyzeMx(fn, args));
  const Bat* driver = sh.driver;
  for (const Bat* b : sh.bats) b->tail().TouchAll(ctx.io());
  const size_t n = driver->size();
  // The result tail materializes n values of the scalar result type; the
  // head is zero-copy.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(
      static_cast<uint64_t>(n) *
      static_cast<uint64_t>(TypeWidth(sh.out_type))));

  // The boxed loop stages one Value per row beside the result until the
  // blocks' values are stored: transient staging, released on return.
  internal::TransientCharge staging(ctx);
  if (!sh.typed) {
    MF_RETURN_NOT_OK(
        staging.Add(static_cast<uint64_t>(n) * sizeof(Value)));
  }

  const BlockPlan plan = ctx.Plan(n);
  const bool str_out = sh.out_type == MonetType::kStr;
  std::optional<bat::ColumnScatter> ts;
  if (!str_out) ts.emplace(sh.out_type, n);
  const std::vector<NumSource> src =
      sh.typed ? NumSources(args) : std::vector<NumSource>();
  std::vector<std::vector<Value>> boxed(plan.blocks);
  std::vector<Status> stats(plan.blocks, Status::OK());
  RunBlocks(plan, [&](int block, size_t begin, size_t end) {
    Status& st = stats[block];
    if (!sh.typed) {
      st = BoxedEvalRows(fn, args, sh, begin, end, ArgIndexer{&sh},
                         boxed[block]);
      if (st.ok() && !str_out) {
        st = StoreBoxed(boxed[block], sh.out_type, begin, *ts);
      }
      return;
    }
    bool ok;
    if (sh.out_type == MonetType::kDbl) {
      ok = EvalRows(fn.eval, src, begin, end - begin,
                    ts->Slot<double>() + begin);
    } else {
      std::vector<double> tmp(end - begin);
      ok = EvalRows(fn.eval, src, begin, end - begin, tmp.data());
      StoreTyped(tmp.data(), sh.out_type, end - begin, begin, *ts);
    }
    if (!ok) st = DivisionByZero();
  });
  for (const Status& st : stats) {
    MF_RETURN_NOT_OK(st);
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  ColumnPtr out_tail;
  if (str_out) {
    MF_ASSIGN_OR_RETURN(out_tail, StrTail(boxed, n));
  } else {
    out_tail = ts->Finish();
  }

  bat::Properties props;
  props.hsorted = driver->props().hsorted;
  props.hkey = driver->props().hkey;
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(driver->head_col(), out_tail, props));
  rec.Finish("multiplex_synced", res.size());
  return res;
}

/// Typed evaluation of a head-join block's kept driver rows into
/// out[0, kept): chunk by chunk, every BAT operand's values at the rows'
/// aligned positions are gathered into a buffer, and the synced row loops
/// run over the buffers. Returns false when a divisor was zero.
bool EvalAligned(const ScalarFn& fn, const MxShape& sh,
                 const std::vector<NumSource>& src,
                 const std::vector<std::vector<int64_t>>& pos,
                 const uint32_t* rows, size_t kept, double* out) {
  constexpr size_t kChunk = 1024;
  std::vector<double> buf(src.size() * kChunk);
  std::vector<NumSource> gathered = src;
  for (size_t k = 0; k < src.size(); ++k) {
    if (src[k].col != nullptr) gathered[k] = {nullptr, &buf[k * kChunk], 0};
  }
  bool ok = true;
  for (size_t lo = 0; lo < kept; lo += kChunk) {
    const size_t n = std::min(kChunk, kept - lo);
    const uint32_t* at = rows + lo;
    for (size_t k = 0; k < src.size(); ++k) {
      if (src[k].col == nullptr) continue;
      const int bi = sh.bat_of_arg[k];
      const int64_t* align =
          sh.bats[bi] == sh.driver ? nullptr : pos[bi].data();
      double* b = &buf[k * kChunk];
      WithNum(src[k], 0, [&](auto x) {
        if (align == nullptr) {
          for (size_t r = 0; r < n; ++r) b[r] = x(at[r]);
        } else {
          for (size_t r = 0; r < n; ++r) {
            b[r] = x(static_cast<size_t>(align[at[r]]));
          }
        }
      });
    }
    ok &= EvalRows(fn.eval, gathered, 0, n, out + lo);
  }
  return ok;
}

/// Head-join multiplex: aligns every non-driver operand to the driver's
/// head values via the hash accelerators, then evaluates complete rows.
/// Both phases run as morsels: bulk typed first-match probes fill the
/// per-operand position maps, blocks collect their complete rows (charged
/// against the memory budget through their gates) and evaluate them into
/// block-local buffers, and the run scatters heads and tails into the
/// pre-sized result heaps concurrently.
Result<Bat> HeadJoinMultiplex(const ExecContext& ctx, const ScalarFn& fn,
                              const std::vector<MxArg>& args,
                              OpRecorder& rec) {
  MF_ASSIGN_OR_RETURN(MxShape sh, AnalyzeMx(fn, args));
  const Bat* driver = sh.driver;
  for (const Bat* b : sh.bats) b->tail().TouchAll(ctx.io());
  const size_t n = driver->size();
  const size_t nb = sh.bats.size();

  std::vector<std::shared_ptr<const bat::HashIndex>> hashes(nb);
  for (size_t k = 0; k < nb; ++k) {
    if (sh.bats[k] != driver) {
      hashes[k] = sh.bats[k]->EnsureHeadHash(ctx.parallel_degree());
    }
  }

  // Alignment maps: pos[k][i] = first position of bats[k] whose head
  // equals the driver head at i, -1 when absent (row i then drops out).
  // Blocks write disjoint [begin, end) windows. The maps are O(n) per
  // non-driver operand and die with this call, so they charge the budget
  // as transient working state — admission sees the peak before the
  // allocation commits, and the charge is released on return.
  std::vector<std::vector<int64_t>> pos(nb);
  uint64_t align_bytes = 0;
  for (size_t k = 0; k < nb; ++k) {
    if (sh.bats[k] != driver) align_bytes += n * sizeof(int64_t);
  }
  internal::TransientCharge staging(ctx);
  MF_RETURN_NOT_OK(staging.Add(align_bytes));
  for (size_t k = 0; k < nb; ++k) {
    if (sh.bats[k] != driver) pos[k].assign(n, -1);
  }

  const uint64_t row_bytes = static_cast<uint64_t>(
      internal::ChargeWidth(driver->head()) + TypeWidth(sh.out_type));
  const std::vector<NumSource> src =
      sh.typed ? NumSources(args) : std::vector<NumSource>();

  // Each block keeps its complete driver rows (ascending) as the run's
  // head positions and evaluates them into its typed or boxed results.
  internal::MorselRun run(ctx, n, row_bytes);
  std::vector<std::vector<double>> vals(run.plan().blocks);
  std::vector<std::vector<Value>> boxed(run.plan().blocks);
  MF_RETURN_NOT_OK(run.Run([&](internal::Morsel& m,
                               internal::ChargeGate& gate) {
    for (size_t k = 0; k < nb; ++k) {
      if (sh.bats[k] == driver) continue;
      storage::ColdPageFilter tail_pages =
          sh.bats[k]->tail().PageFilter(m.io);
      hashes[k]->ForEachFirstMatch(driver->head(), m.begin, m.end,
                                   [&](size_t j, uint32_t p) {
                                     tail_pages.Touch(p);
                                     pos[k][j] = p;
                                   });
    }
    for (size_t i = m.begin; i < m.end && m.status.ok(); ++i) {
      bool complete = true;
      for (size_t k = 0; k < nb; ++k) {
        if (sh.bats[k] != driver && pos[k][i] < 0) {
          complete = false;
          break;
        }
      }
      if (!complete) continue;
      m.heads.push_back(static_cast<uint32_t>(i));
      m.status = gate.Add(1);
    }
    if (!m.status.ok()) return;
    m.status = gate.Flush();
    if (!m.status.ok()) return;
    const size_t kept = m.heads.size();
    if (sh.typed) {
      vals[m.block].resize(kept);
      if (!EvalAligned(fn, sh, src, pos, m.heads.data(), kept,
                       vals[m.block].data())) {
        m.status = DivisionByZero();
      }
    } else {
      m.status = BoxedEvalRows(fn, args, sh, 0, kept,
                               ArgIndexer{&sh, m.heads.data(), &pos},
                               boxed[m.block]);
    }
  }));
  // The typed or boxed values are further transient staging beside the
  // kept-row lists, live until the scatter below finishes.
  MF_RETURN_NOT_OK(run.Stage(sh.typed ? sizeof(double) : sizeof(Value)));
  const bool str_out = sh.out_type == MonetType::kStr;
  std::optional<bat::ColumnScatter> ts;
  if (!str_out) ts.emplace(sh.out_type, run.total());
  MF_ASSIGN_OR_RETURN(
      ColumnPtr out_head,
      run.ScatterHead(driver->head(), [&](const internal::Morsel& m,
                                          size_t at) {
        if (str_out) return Status::OK();
        if (!sh.typed) return StoreBoxed(boxed[m.block], sh.out_type, at, *ts);
        StoreTyped(vals[m.block].data(), sh.out_type, vals[m.block].size(), at,
                   *ts);
        return Status::OK();
      }));
  ColumnPtr out_tail;
  if (str_out) {
    MF_ASSIGN_OR_RETURN(out_tail, StrTail(boxed, run.total()));
  } else {
    out_tail = ts->Finish();
  }

  // The kept-row set is a function of every non-driver operand's head
  // value set, so their sync keys join the derivation — a head-only key
  // would forge a synced proof between head-joins against different
  // right-hand operands.
  uint64_t key = driver->head().sync_key();
  for (const Bat* b : sh.bats) {
    if (b != driver) key = MixSync(key, b->head().sync_key());
  }
  SetSync(out_head, MixSync(key, MixSync(HashString("multiplex"),
                                         HashString(fn.name))));
  bat::Properties props;
  props.hsorted = driver->props().hsorted;
  props.hkey = driver->props().hkey;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(out_head, out_tail, props));
  rec.Finish("multiplex_headjoin", res.size());
  return res;
}

/// Both variants read every operand tail once; the dispatch input carries
/// the driver (left) and the first non-driver BAT (right) views.
double MxTailPages(const DispatchInput& in) {
  double pages = HeapPages(in.left.size, in.left.tail_width);
  if (in.right.has_value()) {
    pages += HeapPages(in.right->size, in.right->tail_width);
  }
  return pages;
}

}  // namespace

Result<Bat> Multiplex(const ExecContext& ctx, const ScalarFn& fn,
                      const std::vector<MxArg>& args) {
  OpRecorder rec(ctx, "multiplex");
  MF_ASSIGN_OR_RETURN(MxShape sh, AnalyzeMx(fn, args));

  DispatchInput in;
  in.left = OperandView::Of(*sh.driver);
  for (const Bat* b : sh.bats) {
    if (b != sh.driver) {
      in.right = OperandView::Of(*b);
      break;
    }
  }
  in.synced = sh.synced;
  in.degree = ctx.parallel_degree();
  return KernelRegistry::Global().Dispatch<MultiplexImplSig>("multiplex", in,
                                                             ctx, fn, args,
                                                             rec);
}

namespace internal {

void RegisterMultiplexKernels(KernelRegistry& r) {
  r.Register<MultiplexImplSig>(
      "multiplex", "multiplex_synced",
      [](const DispatchInput& in) { return in.synced; },
      [](const DispatchInput& in) {
        return MxTailPages(in) +
               kCpuSequential / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<MultiplexImplSig>(SyncedMultiplex),
      "positional row evaluation over synced operands (typed, parallel)");
  r.Register<MultiplexImplSig>(
      "multiplex", "multiplex_headjoin",
      [](const DispatchInput&) { return true; },
      [](const DispatchInput& in) {
        // Aligning each non-driver operand costs a hash build over its
        // head plus per-row aligned tail fetches; the probe/evaluation
        // phase morselizes over the driver.
        double extra = 0;
        if (in.right.has_value()) {
          extra = HeapPages(in.right->size, in.right->head_width) +
                  RandomFetchPages(in.right->size, in.right->tail_width,
                                   static_cast<double>(in.left.size));
        }
        return MxTailPages(in) + extra +
               kCpuHashed / ParallelCpuScale(in.left.size, in.degree);
      },
      std::function<MultiplexImplSig>(HeadJoinMultiplex),
      "natural join on heads via the hash accelerators (parallel probe)");
}

}  // namespace internal

}  // namespace moaflat::kernel
