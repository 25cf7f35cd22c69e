#ifndef MOAFLAT_KERNEL_OPERATORS_H_
#define MOAFLAT_KERNEL_OPERATORS_H_

#include <string>
#include <variant>
#include <vector>

#include "bat/bat.h"
#include "common/result.h"
#include "common/value.h"
#include "kernel/exec_context.h"

/// The BAT execution algebra of Section 4.2 (Fig. 4), implemented with the
/// Monet discipline: every operator materializes its result, never mutates
/// operands, propagates the Section 5.1 properties onto the result, and
/// performs a dynamic optimization step that picks an implementation from
/// the operand properties/accelerators at run time (the KernelRegistry
/// dispatch loop; see registry.h).
///
/// Every operator takes an ExecContext first: the context owns the tracer
/// the chosen implementations report to, the IO/page-fault accountant, and
/// the memory budget. It is the only channel: an operator's touches reach
/// ctx.io() (or, inside a parallel block, the block's shard accountant)
/// as an explicit argument, and nothing is read from thread-local state.
namespace moaflat::kernel {

using bat::Bat;

/// Comparison flavor for SelectCmp.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Aggregate function kind shared by scalar and set ({sum}) aggregates.
enum class AggKind { kSum, kCount, kAvg, kMin, kMax };

const char* AggKindName(AggKind k);

/// One bound of a range selection: value + inclusiveness; absent =
/// unbounded. Part of the registered select-family exec signature.
struct Bound {
  bool present = false;
  bool inclusive = true;
  Value value;
};

// ---------------------------------------------------------------------
// Selections: AB.select(T) / AB.select(Tl,Th) of Fig. 4, on the tail.
// Registered variants: binsearch_select (tsorted operands), scan_select.

/// {ab in AB | b == v}.
Result<Bat> Select(const ExecContext& ctx, const Bat& ab, const Value& v);

/// {ab in AB | lo <= b <= hi} (bounds inclusive per Fig. 4). A nil bound
/// (Value()) means unbounded on that side.
Result<Bat> SelectRange(const ExecContext& ctx, const Bat& ab,
                        const Value& lo, const Value& hi);

/// {ab in AB | b <op> v}.
Result<Bat> SelectCmp(const ExecContext& ctx, const Bat& ab, CmpOp op,
                      const Value& v);

/// Selection with an arbitrary predicate over the tail; always a scan.
/// Used for string pattern predicates (LIKE-style).
Result<Bat> SelectLike(const ExecContext& ctx, const Bat& ab,
                       const std::string& pattern);

/// Two-probe selectivity estimate for a range selection: on a tail-sorted
/// operand, two untouched binary searches bracket the qualifying range and
/// the estimate is exact. Returns the qualifying fraction in [0, 1], or a
/// negative value when the tail order admits no cheap estimate (unsorted or
/// void tails) — callers then fall back to kDispatchSelectivity. Feeds both
/// the select dispatch and admission-control plan pricing; never touches
/// pages.
double EstimateSelectivity(const Bat& ab, const Bound& lo, const Bound& hi);

// ---------------------------------------------------------------------
// Joins.

/// Equi-join: {ad | ab in AB, cd in CD, b == c}; projects out the join
/// columns to stay closed in the binary model (Section 4.2).
/// Registered variants: fetch_join (void-aligned operands), merge_join
/// (tsorted x hsorted), hash_join (cached hash accelerator on CD's head).
Result<Bat> Join(const ExecContext& ctx, const Bat& ab, const Bat& cd);

/// Semijoin: {ab | ab in AB, exists cd in CD with a == c} — the fragment
/// reassembly workhorse (Section 5.2). Registered variants: sync_semijoin
/// (operands synced: returns a copy of AB), datavector_semijoin (Section
/// 5.2.1 pseudo-code, with the persistent LOOKUP cache), merge_semijoin,
/// hash_semijoin.
Result<Bat> Semijoin(const ExecContext& ctx, const Bat& ab, const Bat& cd);

/// Anti-semijoin: {ab | a not in heads(CD)} (Monet kdiff).
Result<Bat> Diff(const ExecContext& ctx, const Bat& ab, const Bat& cd);

/// {ab} ++ {cd | c not in heads(AB)} (Monet kunion).
Result<Bat> Union(const ExecContext& ctx, const Bat& ab, const Bat& cd);

/// Semijoin alias for set intersection on heads (Monet kintersect).
Result<Bat> Intersect(const ExecContext& ctx, const Bat& ab, const Bat& cd);

/// Theta-join: {ad | ab in AB, cd in CD, b <op> c} (Section 4.2 mentions
/// the theta-join among the omitted-for-brevity MIL operators). Range
/// comparisons use a sort-based band algorithm when profitable; `=`
/// delegates to the equi-join.
Result<Bat> ThetaJoin(const ExecContext& ctx, const Bat& ab, const Bat& cd,
                      CmpOp op);

// ---------------------------------------------------------------------
// Reshaping.

/// Removes duplicate BUNs: {ab} as a set (Fig. 4 `unique`).
Result<Bat> Unique(const ExecContext& ctx, const Bat& ab);

/// Keeps the first BUN of every distinct head value; the result head is a
/// key. Used to derive group extents from grouping BATs.
Result<Bat> HeadUnique(const ExecContext& ctx, const Bat& ab);

/// [a, new dense oid starting at `base`] (Monet mark); tail becomes void.
Result<Bat> Mark(const ExecContext& ctx, const Bat& ab, Oid base);

/// [head, void]: projects out the tail ("extent" creation, Section 6).
Result<Bat> VoidTail(const ExecContext& ctx, const Bat& ab);

/// Positional sub-range [lo, hi) of the BUNs.
Result<Bat> Slice(const ExecContext& ctx, const Bat& ab, size_t lo,
                  size_t hi);

/// Positional fetch: [p, tail(AB)[p]] for every oid p in positions' tail
/// (Monet `fetch`): random access into the BUN heap by position.
Result<Bat> Fetch(const ExecContext& ctx, const Bat& ab,
                  const Bat& positions);

/// Number of distinct tail values (Monet `tunique().count()` idiom,
/// provided fused because grouped queries use it to size results).
Result<Value> CountDistinctTail(const ExecContext& ctx, const Bat& ab);

/// Value histogram of the tail: [new oid per distinct value, count],
/// plus a companion BAT of representatives via HeadUnique on a grouped
/// mirror. Used by the ablation benches; equivalent to {count} over
/// group(ab).mirror.
Result<Bat> Histogram(const ExecContext& ctx, const Bat& ab);

/// Reorders BUNs ascending by tail value; the basis of the "reordered all
/// tables on tail values" load step (Section 6).
Result<Bat> SortTail(const ExecContext& ctx, const Bat& ab);

/// The `n` BUNs with largest (descending=true) or smallest tail values,
/// emitted in that order. TPC-D top-k queries (Q3, Q10) use this.
Result<Bat> TopN(const ExecContext& ctx, const Bat& ab, size_t n,
                 bool descending);

// ---------------------------------------------------------------------
// Grouping (Fig. 4 `group`): implements SQL GROUP BY / MOA nest.

/// Unary group: [a, o_b] with a fresh dense oid per distinct tail value,
/// assigned in order of first appearance (base 0).
Result<Bat> Group(const ExecContext& ctx, const Bat& ab);

/// Binary refinement: given AB = [a, o_prev] and CD = [a, d], produces
/// [a, o_{prev,d}] with a fresh oid per distinct (o_prev, d) combination.
/// Registered variants: sync_group_refine, hash_group_refine.
Result<Bat> GroupRefine(const ExecContext& ctx, const Bat& ab, const Bat& cd);

// ---------------------------------------------------------------------
// Multiplexed operations: [f](AB, ..., XY) of Fig. 4 — bulk application
// of a scalar function over the natural join on heads (positional when
// the operands are synced, which the kernel detects via sync keys).

/// One multiplex argument: a BAT or a constant.
using MxArg = std::variant<Bat, Value>;

struct ScalarFn;  // defined in scalar_fn.h; resolve one with FindScalarFn

/// [f](args...): at least one argument must be a Bat; Bat arguments must
/// share their head value set (synced fast path, head-join otherwise).
/// Registered variants: multiplex_synced, multiplex_headjoin.
Result<Bat> Multiplex(const ExecContext& ctx, const ScalarFn& fn,
                      const std::vector<MxArg>& args);

// ---------------------------------------------------------------------
// Aggregation.

/// Set-aggregate {g}(AB) of Fig. 4: groups over the head and aggregates
/// the tail values of each group; result is [group, g(tails)] ordered by
/// group oid. Executes nested aggregates "in one go" (Section 4.2).
/// Registered variants: run_set_aggregate (hsorted head), hash.
Result<Bat> SetAggregate(const ExecContext& ctx, AggKind kind, const Bat& ab);

/// Whole-column aggregate over the tail (sum/count/avg/min/max).
Result<Value> ScalarAggregate(const ExecContext& ctx, AggKind kind,
                              const Bat& ab);

// ---------------------------------------------------------------------
// Construction helpers used by loaders and the MIL interpreter.

/// [head(AB), v] — constant tail (Monet `project`).
Result<Bat> ProjectConst(const ExecContext& ctx, const Bat& ab,
                         const Value& v);

/// Appends BUNs to a BAT with *property guarding* (Section 5.1: "Once
/// set, these properties are actively guarded by the kernel. When updates
/// occur, they are rechecked, and switched off if necessary"): sortedness
/// survives iff the inserted run continues the order; key properties are
/// rechecked against the existing values via the hash accelerator.
/// Returns a new BAT (BATs are immutable values); accelerators of the
/// original are not carried over.
Result<Bat> InsertBuns(const ExecContext& ctx, const Bat& ab,
                       const std::vector<Value>& heads,
                       const std::vector<Value>& tails);

/// Concatenation of BUN sequences (no dedup); loader utility.
Result<Bat> Append(const ExecContext& ctx, const Bat& ab, const Bat& cd);

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_OPERATORS_H_
