#include <algorithm>
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

bool NumericTail(const Column& c) {
  return IsNumeric(c.type()) || c.type() == MonetType::kDate ||
         c.type() == MonetType::kChr;
}

/// Dispatch-relevant shape of one multiplex call, shared by the dispatcher
/// and the registered variants (each variant re-derives it; the analysis
/// is O(args) pointer chasing, never data).
struct MxShape {
  const Bat* driver = nullptr;        // first BAT argument
  std::vector<const Bat*> bats;       // all BAT arguments, in order
  std::vector<int> bat_of_arg;        // arg slot -> index in bats, -1 const
  bool synced = true;                 // all BATs share the driver's heads
  bool numeric = true;                // every argument is numeric-valued
  MonetType out_type = MonetType::kDbl;
};

Result<MxShape> AnalyzeMx(const std::string& fn,
                          const std::vector<MxArg>& args) {
  MxShape sh;
  sh.bat_of_arg.assign(args.size(), -1);
  std::vector<MonetType> arg_types;
  for (size_t k = 0; k < args.size(); ++k) {
    if (const Bat* b = std::get_if<Bat>(&args[k])) {
      if (sh.driver == nullptr) sh.driver = b;
      sh.bat_of_arg[k] = static_cast<int>(sh.bats.size());
      sh.bats.push_back(b);
      arg_types.push_back(b->tail().type());
      if (!NumericTail(b->tail())) sh.numeric = false;
    } else {
      const Value& v = std::get<Value>(args[k]);
      arg_types.push_back(v.type());
      if (!v.ToDouble().ok()) sh.numeric = false;
    }
  }
  if (sh.driver == nullptr) {
    return Status::Invalid("multiplex [" + fn +
                           "] needs at least one BAT argument");
  }
  // The multiplex constructor applies f over the natural join on head
  // values (Fig. 4). The synced fast path applies it positionally; the
  // kernel proves syncedness via the propagated sync keys (Section 5.1),
  // e.g. for [*]( prices, factor ) in Q13.
  for (const Bat* b : sh.bats) {
    if (b != sh.driver && !sh.driver->SyncedWith(*b)) sh.synced = false;
  }
  MF_ASSIGN_OR_RETURN(sh.out_type, ScalarResultType(fn, arg_types));
  return sh;
}

/// A constant argument's double value, broadcast to every row.
struct ConstNum {
  double v;
  double operator()(size_t) const { return v; }
};

/// Lowers one multiplex argument to a numeric accessor and continues with
/// it: a BAT tail reads Num through its value view (void included), a
/// constant broadcasts its double value. Callers gate str arguments out
/// (ArgNumViewable / NumericTail); a str tail would read as Num's 0 and
/// shares the constant's instantiation. The continuation style lets the
/// caller instantiate its inner loop once per accessor-type combination.
template <typename Cont>
decltype(auto) WithNumAccessor(const MxArg& arg, Cont&& cont) {
  if (const Bat* b = std::get_if<Bat>(&arg)) {
    return b->tail().VisitValues([&](const auto& view) -> decltype(auto) {
      if constexpr (std::is_same_v<std::decay_t<decltype(view)>,
                                   bat::StrValues>) {
        return cont(ConstNum{0.0});  // Num of any str value
      } else {
        return cont([view](size_t i) { return bat::Num(view, i); });
      }
    });
  }
  return cont(ConstNum{std::get<Value>(arg).ToDouble().ValueOrDie()});
}

/// Bit-gated twin of WithNumAccessor for arguments the caller has proved
/// kBit-typed (two shapes instead of one per storage type — this keeps
/// the 3-argument ifthen from cubing the instantiation count).
template <typename Cont>
decltype(auto) WithBitAccessor(const MxArg& arg, Cont&& cont) {
  if (const Bat* b = std::get_if<Bat>(&arg)) {
    return cont([p = b->tail().Data<uint8_t>().data()](size_t i) {
      return p[i] != 0;
    });
  }
  const bool v = std::get<Value>(arg).AsBit();
  return cont([v](size_t) { return v; });
}

enum class NumOp { kAdd, kSub, kMul, kDiv, kNone };

NumOp NumOpOf(const std::string& fn) {
  if (fn == "+") return NumOp::kAdd;
  if (fn == "-") return NumOp::kSub;
  if (fn == "*") return NumOp::kMul;
  if (fn == "/") return NumOp::kDiv;
  return NumOp::kNone;
}

/// Unboxed fast path: binary arithmetic over synced numeric operands,
/// parallel-block executed (Section 2). The operator and both operand
/// types are resolved once; the inner loop is a zero-dispatch typed pass
/// writing disjoint slices of the pre-sized output vector. A block that
/// meets a zero divisor flags it, and the call then fails with the
/// "division by zero" error ScalarApply reports for the boxed variants.
Result<Bat> SyncedNumericMultiplex(const ExecContext& ctx,
                                   const std::string& fn,
                                   const std::vector<MxArg>& args,
                                   OpRecorder& rec) {
  MF_ASSIGN_OR_RETURN(MxShape sh, AnalyzeMx(fn, args));
  for (const Bat* b : sh.bats) b->tail().TouchAll(ctx.io());
  const Bat* driver = sh.driver;
  const size_t n = driver->size();
  MF_RETURN_NOT_OK(ctx.ChargeMemory(n * sizeof(double)));
  std::vector<double> out(n);
  const NumOp op = NumOpOf(fn);
  const BlockPlan plan = ctx.Plan(n);
  std::vector<uint8_t> zero_divisor(plan.blocks, 0);
  WithNumAccessor(args[0], [&](auto ax) {
    WithNumAccessor(args[1], [&](auto ay) {
      RunBlocks(plan, [&](int block, size_t begin, size_t end) {
        double* o = out.data();
        switch (op) {
          case NumOp::kAdd:
            for (size_t i = begin; i < end; ++i) o[i] = ax(i) + ay(i);
            break;
          case NumOp::kSub:
            for (size_t i = begin; i < end; ++i) o[i] = ax(i) - ay(i);
            break;
          case NumOp::kMul:
            for (size_t i = begin; i < end; ++i) o[i] = ax(i) * ay(i);
            break;
          case NumOp::kDiv: {
            bool zero = false;
            for (size_t i = begin; i < end; ++i) {
              const double y = ay(i);
              zero |= y == 0;
              o[i] = y == 0 ? 0 : ax(i) / y;
            }
            zero_divisor[block] = zero;
            break;
          }
          case NumOp::kNone:  // unreachable: the variant predicate gates
            break;
        }
      });
    });
  });
  for (const uint8_t zero : zero_divisor) {
    if (zero != 0) return Status::ExecutionError("division by zero");
  }
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  MF_ASSIGN_OR_RETURN(
      Bat res, Bat::Make(driver->head_col(), Column::MakeDbl(std::move(out)),
                         bat::Properties{driver->props().hkey, false,
                                         driver->props().hsorted, false}));
  rec.Finish("multiplex_synced_numeric", res.size());
  return res;
}

/// Converts a double evaluation result to the native storage type — the
/// static_cast twin of Value::CastTo's numeric casts (which is why the
/// typed paths are gated to types that round-trip through double
/// exactly).
template <typename T>
T FromDouble(double v) {
  if constexpr (std::is_same_v<T, Date>) {
    return Date(static_cast<int32_t>(v));
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return v != 0 ? 1 : 0;
  } else {
    return static_cast<T>(v);
  }
}

bool ArgNumViewable(const MxArg& a) {
  if (const Bat* b = std::get_if<Bat>(&a)) {
    return b->tail().type() != MonetType::kStr;
  }
  return std::get<Value>(a).ToDouble().ok();
}

bool ArgBitTyped(const MxArg& a) {
  if (const Bat* b = std::get_if<Bat>(&a)) {
    return b->tail().type() == MonetType::kBit;
  }
  return std::get<Value>(a).type() == MonetType::kBit;
}

MonetType ArgType(const MxArg& a) {
  if (const Bat* b = std::get_if<Bat>(&a)) return b->tail().type();
  return std::get<Value>(a).type();
}

/// Per-arg position resolution shared by the evaluation loops: output row
/// r reads source row rows[r] (identity when rows == nullptr), and arg k
/// reads its BAT's tail there directly (synced) or through the head-join
/// alignment map `pos` when given.
struct ArgIndexer {
  const MxShape* sh;
  const uint32_t* rows = nullptr;                      // kept source rows
  const std::vector<std::vector<int64_t>>* pos = nullptr;  // alignment
  size_t base = 0;  // identity mapping offset (block-local staging)

  size_t operator()(size_t k, size_t r) const {
    const size_t src = rows != nullptr ? rows[r] : base + r;
    if (pos == nullptr) return src;
    const int bi = sh->bat_of_arg[k];
    if (bi < 0 || sh->bats[bi] == sh->driver) return src;
    return static_cast<size_t>((*pos)[bi][src]);
  }
};

/// Attempts the unboxed row evaluation of `fn`: for output rows r in
/// [begin, end), argument k reads its value at position at(k, r) and the
/// double result lands in out[r]. Covers arithmetic (except "/", whose
/// division-by-zero error a value-producing loop cannot report), the
/// comparisons, and/or/not, ifthen and the calendar functions, each gated
/// so the result is bit-identical to ScalarApply + CastTo
/// (Value::Compare over numeric operands *is* the double comparison; the
/// logical functions require genuinely bit-typed operands; ifthen
/// requires both branches to already carry the result type, and a result
/// type that round-trips through double exactly). Returns false — nothing
/// evaluated — when the function or argument shapes need the boxed path;
/// calling with begin == end is the eligibility probe.
bool TypedEvalRows(const std::string& fn, const std::vector<MxArg>& args,
                   MonetType out_type, size_t begin, size_t end,
                   const ArgIndexer& at, double* out) {
  const NumOp arith = NumOpOf(fn);
  if (arith != NumOp::kNone && arith != NumOp::kDiv && args.size() == 2 &&
      out_type == MonetType::kDbl && ArgNumViewable(args[0]) &&
      ArgNumViewable(args[1])) {
    WithNumAccessor(args[0], [&](auto ax) {
      WithNumAccessor(args[1], [&](auto ay) {
        for (size_t r = begin; r < end; ++r) {
          const double x = ax(at(0, r));
          const double y = ay(at(1, r));
          out[r] = arith == NumOp::kAdd   ? x + y
                   : arith == NumOp::kSub ? x - y
                                          : x * y;
        }
      });
    });
    return true;
  }
  const bool cmp = fn == "=" || fn == "!=" || fn == "<" || fn == "<=" ||
                   fn == ">" || fn == ">=";
  if (cmp && args.size() == 2 && ArgNumViewable(args[0]) &&
      ArgNumViewable(args[1])) {
    // One loop instantiation per accessor pair: the comparison is encoded
    // as the wanted outcomes of the three-way result, exactly mirroring
    // Value::Compare (including its NaN => "equal" behavior).
    const bool lt = fn == "<" || fn == "<=" || fn == "!=";
    const bool eq = fn == "=" || fn == "<=" || fn == ">=";
    const bool gt = fn == ">" || fn == ">=" || fn == "!=";
    WithNumAccessor(args[0], [&](auto ax) {
      WithNumAccessor(args[1], [&](auto ay) {
        for (size_t r = begin; r < end; ++r) {
          const double x = ax(at(0, r));
          const double y = ay(at(1, r));
          out[r] = (x < y ? lt : x > y ? gt : eq) ? 1.0 : 0.0;
        }
      });
    });
    return true;
  }
  if ((fn == "and" || fn == "or") && args.size() == 2 &&
      ArgBitTyped(args[0]) && ArgBitTyped(args[1])) {
    WithBitAccessor(args[0], [&](auto ax) {
      WithBitAccessor(args[1], [&](auto ay) {
        const bool conj = fn == "and";
        for (size_t r = begin; r < end; ++r) {
          const bool a = ax(at(0, r));
          const bool b = ay(at(1, r));
          out[r] = (conj ? (a && b) : (a || b)) ? 1.0 : 0.0;
        }
      });
    });
    return true;
  }
  if (fn == "not" && args.size() == 1 && ArgBitTyped(args[0])) {
    WithBitAccessor(args[0], [&](auto ax) {
      for (size_t r = begin; r < end; ++r) {
        out[r] = ax(at(0, r)) ? 0.0 : 1.0;
      }
    });
    return true;
  }
  if (fn == "ifthen" && args.size() == 3 && ArgBitTyped(args[0]) &&
      ArgType(args[1]) == out_type && ArgType(args[2]) == out_type &&
      (out_type == MonetType::kBit || out_type == MonetType::kChr ||
       out_type == MonetType::kInt || out_type == MonetType::kFlt ||
       out_type == MonetType::kDbl)) {
    WithBitAccessor(args[0], [&](auto ac) {
      WithNumAccessor(args[1], [&](auto ax) {
        WithNumAccessor(args[2], [&](auto ay) {
          for (size_t r = begin; r < end; ++r) {
            out[r] = ac(at(0, r)) ? ax(at(1, r)) : ay(at(2, r));
          }
        });
      });
    });
    return true;
  }
  if ((fn == "year" || fn == "month" || fn == "day") && args.size() == 1) {
    const Bat* b = std::get_if<Bat>(&args[0]);
    if (b != nullptr && b->tail().type() == MonetType::kDate) {
      const Date* dv = b->tail().Data<Date>().data();
      const int which = fn == "year" ? 0 : fn == "month" ? 1 : 2;
      for (size_t r = begin; r < end; ++r) {
        const Date d = dv[at(0, r)];
        out[r] = static_cast<double>(which == 0   ? d.Year()
                                     : which == 1 ? d.Month()
                                                  : d.Day());
      }
      return true;
    }
  }
  return false;
}

/// Boxed evaluation of output rows [begin, end): one ScalarApply per row
/// into out[r] — the fallback for the scalar functions TypedEvalRows does
/// not cover (strings, exotic casts, "/" with its error reporting).
Status BoxedEvalRows(const std::string& fn, const std::vector<MxArg>& args,
                     const MxShape& sh, size_t begin, size_t end,
                     const ArgIndexer& at, Value* out) {
  std::vector<Value> row(args.size());
  for (size_t r = begin; r < end; ++r) {
    for (size_t k = 0; k < args.size(); ++k) {
      const int bi = sh.bat_of_arg[k];
      row[k] = bi >= 0 ? sh.bats[bi]->tail().GetValue(at(k, r))
                       : std::get<Value>(args[k]);
    }
    Result<Value> v = ScalarApply(fn, row);
    if (!v.ok()) return v.status();
    out[r] = std::move(v).Value();
  }
  return Status::OK();
}

/// Writes boxed results [begin, end) into the fixed-width scatter slice:
/// the CastTo + native store the old per-row AppendValue loop performed,
/// without the builder.
Status StoreBoxed(const Value* vals, MonetType out_type, size_t begin,
                  size_t end, size_t at, bat::ColumnScatter& ts) {
  Status status = Status::OK();
  Column::VisitType(out_type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* out = ts.Slot<T>() + at;
    for (size_t r = begin; r < end; ++r) {
      Result<Value> cast = vals[r].CastTo(out_type);
      if (!cast.ok()) {
        status = cast.status();
        return;
      }
      out[r - begin] = bat::NativeValueOf<T>(*cast);
    }
  });
  return status;
}

/// Converts typed (double) results into the fixed-width scatter slice:
/// one type dispatch, then a tight cast loop.
void StoreTyped(const double* vals, MonetType out_type, size_t n, size_t at,
                bat::ColumnScatter& ts) {
  Column::VisitType(out_type, [&](auto tag) {
    using T = typename decltype(tag)::type;
    T* out = ts.Slot<T>() + at;
    for (size_t r = 0; r < n; ++r) out[r] = FromDouble<T>(vals[r]);
  });
}

/// Synced multiplex: rows are positionally independent, so evaluation
/// morsels run on the TaskPool writing results straight into disjoint
/// slices of the pre-sized result heap — typed zero-dispatch loops where
/// TypedEvalRows covers the function, one boxed ScalarApply per row
/// otherwise (str results keep a serial builder: interning into the
/// shared heap is not concurrent). Every row emits, so the result head
/// is the driver's head column, shared zero-copy.
Result<Bat> SyncedMultiplex(const ExecContext& ctx, const std::string& fn,
                            const std::vector<MxArg>& args, OpRecorder& rec) {
  MF_ASSIGN_OR_RETURN(MxShape sh, AnalyzeMx(fn, args));
  const Bat* driver = sh.driver;
  for (const Bat* b : sh.bats) b->tail().TouchAll(ctx.io());
  const size_t n = driver->size();
  // The result tail materializes n values of the scalar result type; the
  // head is zero-copy. This path used to charge nothing — a large synced
  // multiplex bypassed admission entirely.
  MF_RETURN_NOT_OK(ctx.ChargeMemory(
      static_cast<uint64_t>(n) *
      static_cast<uint64_t>(TypeWidth(sh.out_type))));

  const BlockPlan plan = ctx.Plan(n);
  const ArgIndexer ident{&sh};
  ColumnPtr out_tail;
  if (sh.out_type == MonetType::kStr) {
    std::vector<Value> vals(n);  // blocks fill disjoint [begin, end) slices
    std::vector<Status> stats(plan.blocks, Status::OK());
    RunBlocks(plan, [&](int block, size_t begin, size_t end) {
      stats[block] =
          BoxedEvalRows(fn, args, sh, begin, end, ident, vals.data());
    });
    for (const Status& s : stats) {
      MF_RETURN_NOT_OK(s);
    }
    MF_RETURN_NOT_OK(ctx.CheckInterrupt());
    ColumnBuilder tb(sh.out_type);
    tb.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      MF_RETURN_NOT_OK(tb.AppendValue(vals[i]));
    }
    out_tail = tb.Finish();
  } else {
    bat::ColumnScatter ts(sh.out_type, n);
    std::vector<Status> stats(plan.blocks, Status::OK());
    double probe;
    if (TypedEvalRows(fn, args, sh.out_type, 0, 0, ident, &probe)) {
      if (sh.out_type == MonetType::kDbl) {
        // The hot arithmetic shape: evaluation writes the result heap
        // directly, no staging buffer and no conversion pass.
        double* out = ts.Slot<double>();
        RunBlocks(plan, [&](int, size_t begin, size_t end) {
          TypedEvalRows(fn, args, sh.out_type, begin, end, ident, out);
        });
      } else {
        RunBlocks(plan, [&](int, size_t begin, size_t end) {
          std::vector<double> tmp(end - begin);
          const ArgIndexer shifted{&sh, nullptr, nullptr, begin};
          TypedEvalRows(fn, args, sh.out_type, 0, end - begin, shifted,
                        tmp.data());
          StoreTyped(tmp.data(), sh.out_type, end - begin, begin, ts);
        });
      }
    } else {
      std::vector<Value> vals(n);
      RunBlocks(plan, [&](int block, size_t begin, size_t end) {
        stats[block] =
            BoxedEvalRows(fn, args, sh, begin, end, ident, vals.data());
        if (stats[block].ok()) {
          stats[block] =
              StoreBoxed(vals.data(), sh.out_type, begin, end, begin, ts);
        }
      });
    }
    for (const Status& s : stats) {
      MF_RETURN_NOT_OK(s);
    }
    MF_RETURN_NOT_OK(ctx.CheckInterrupt());
    out_tail = ts.Finish();
  }

  bat::Properties props;
  props.hsorted = driver->props().hsorted;
  props.hkey = driver->props().hkey;
  MF_ASSIGN_OR_RETURN(Bat res,
                      Bat::Make(driver->head_col(), out_tail, props));
  rec.Finish("multiplex_synced", res.size());
  return res;
}

/// Head-join multiplex: aligns every non-driver operand to the driver's
/// head values via the hash accelerators, then evaluates complete rows.
/// Both phases run as morsels: bulk typed first-match probes fill the
/// per-operand position maps, blocks collect their complete rows (charged
/// against the memory budget through their gates) and evaluate them into
/// block-local buffers, and the run scatters heads and tails into the
/// pre-sized result heaps concurrently.
Result<Bat> HeadJoinMultiplex(const ExecContext& ctx, const std::string& fn,
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
  const bool str_out = sh.out_type == MonetType::kStr;
  double probe;
  const bool typed =
      !str_out && TypedEvalRows(fn, args, sh.out_type, 0, 0,
                                ArgIndexer{&sh}, &probe);

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
    const ArgIndexer at{&sh, m.heads.data(), &pos};
    if (typed) {
      vals[m.block].resize(kept);
      TypedEvalRows(fn, args, sh.out_type, 0, kept, at, vals[m.block].data());
    } else {
      boxed[m.block].resize(kept);
      m.status = BoxedEvalRows(fn, args, sh, 0, kept, at,
                               boxed[m.block].data());
    }
  }));
  // The typed values are further transient staging beside the kept-row
  // lists, live until the scatter below finishes.
  MF_RETURN_NOT_OK(run.Stage(typed ? sizeof(double) : 0));
  ColumnPtr out_head;
  ColumnPtr out_tail;
  if (str_out) {
    MF_ASSIGN_OR_RETURN(
        out_head, run.ScatterHead(driver->head(), [](const internal::Morsel&,
                                                     size_t) {
          return Status::OK();
        }));
    ColumnBuilder tb(sh.out_type);
    tb.Reserve(run.total());
    for (const std::vector<Value>& block : boxed) {
      for (const Value& v : block) {
        MF_RETURN_NOT_OK(tb.AppendValue(v));
      }
    }
    out_tail = tb.Finish();
  } else {
    bat::ColumnScatter ts(sh.out_type, run.total());
    MF_ASSIGN_OR_RETURN(
        out_head,
        run.ScatterHead(driver->head(), [&](const internal::Morsel& m,
                                            size_t at) {
          if (!typed) {
            return StoreBoxed(boxed[m.block].data(), sh.out_type, 0,
                              boxed[m.block].size(), at, ts);
          }
          StoreTyped(vals[m.block].data(), sh.out_type, vals[m.block].size(),
                     at, ts);
          return Status::OK();
        }));
    out_tail = ts.Finish();
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
                                         HashString(fn))));
  bat::Properties props;
  props.hsorted = driver->props().hsorted;
  props.hkey = driver->props().hkey;
  MF_ASSIGN_OR_RETURN(Bat res, Bat::Make(out_head, out_tail, props));
  rec.Finish("multiplex_headjoin", res.size());
  return res;
}

/// All variants read every operand tail once; the dispatch input carries
/// the driver (left) and the first non-driver BAT (right) views.
double MxTailPages(const DispatchInput& in) {
  double pages = HeapPages(in.left.size, in.left.tail_width);
  if (in.right.has_value()) {
    pages += HeapPages(in.right->size, in.right->tail_width);
  }
  return pages;
}

}  // namespace

Result<Bat> Multiplex(const ExecContext& ctx, const std::string& fn,
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
  in.param = OpParam{static_cast<int64_t>(args.size()), fn, sh.numeric};
  in.degree = ctx.parallel_degree();
  return KernelRegistry::Global().Dispatch<MultiplexImplSig>("multiplex", in,
                                                             ctx, fn, args,
                                                             rec);
}

namespace internal {

void RegisterMultiplexKernels(KernelRegistry& r) {
  r.Register<MultiplexImplSig>(
      "multiplex", "multiplex_synced_numeric",
      [](const DispatchInput& in) {
        return in.synced && in.param.has_value() && in.param->flag &&
               in.param->code == 2 && IsNumericBinary(in.param->name);
      },
      [](const DispatchInput& in) { return MxTailPages(in); },
      std::function<MultiplexImplSig>(SyncedNumericMultiplex),
      "unboxed parallel-block arithmetic over synced numeric operands");
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
