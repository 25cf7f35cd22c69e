#!/usr/bin/env python3
"""Engine invariant lint: grep-with-parsing checks for the bug classes that
have recurred in this codebase, run over src/ in CI.

Rules
-----
sync-head-only
    A `SetSync(...)` derivation whose only sync-key sources are *head*
    columns (plus constants/salts). Nearly every materializing operator's
    result BUN set depends on tail values somewhere (a select's predicate,
    a join's match column), so deriving the result key from head keys alone
    forges "synced" proofs between results that are not positionally equal
    — the PR-4 theta-join forgery, and the equi-join/select variants fixed
    alongside this lint. Sites where head-only derivation is provably right
    (e.g. a set-aggregate whose group set is a function of the head column
    only) carry `// lint:allow(sync-head-only)` with a justification.

uncharged-kernel
    A kernel that discards its ExecContext (`(void)ctx;`): it performs no
    page accounting, so its work is invisible to fault budgets and
    admission pricing. Only provably zero-copy kernels (no materialization,
    no page touched beyond TouchAll bookkeeping) may do this, and each such
    site carries `// lint:allow(uncharged-kernel)` saying why.

unpolled-plan
    A function that plans a morsel loop (`ctx.Plan(`) but never polls
    `CheckInterrupt(`. RunBlocks skips remaining blocks of a cancelled
    plan, so a kernel that does not re-check the interrupt afterwards will
    happily consume partial shards (null local tables, short scatters) as
    if the loop completed — the cancellation-unsafety class PR 8 closed.
    Every planning function must call `ctx.CheckInterrupt()` after each
    eval phase (or carry `// lint:allow(unpolled-plan)` near the Plan call
    explaining why a stale result is provably safe there).

unsynced-rename
    A `rename(` call in durability code whose enclosing function does not
    fsync both *before* the rename (the temp file's content must be durable
    before the new name can point at it) and *after* it (the directory
    entry itself must reach disk, or a crash can un-publish a checkpoint
    the caller was told is durable). This is the atomic-publish protocol of
    storage/checkpoint.cc: write-temp, fsync, rename, fsync-dir — any
    rename that skips half of it silently weakens crash recovery. A rename
    with no durability contract carries `// lint:allow(unsynced-rename)`
    saying why.

naked-mutex
    A raw std synchronization primitive (std::mutex, std::condition_variable,
    std::lock_guard, std::unique_lock, ...) anywhere outside the annotated
    wrapper itself (common/mutex.h/.cc). Raw primitives are invisible to
    clang's -Wthread-safety analysis and to the Debug-mode lock-rank
    deadlock checker, so every one of them is an unchecked lock site; use
    Mutex/MutexLock/CondVar instead. The same rule enforces annotation
    coverage: in any file that declares a ranked Mutex, a `mutable` member
    that is not itself a Mutex/CondVar/std::atomic must carry
    MOAFLAT_GUARDED_BY — a mutable field next to a lock is almost always
    shared state, and an unannotated one is exactly what the analysis
    cannot see. (Single-threaded classes with mutable caches and no Mutex
    are out of scope on purpose.) Escapes carry
    `// lint:allow(naked-mutex)` with a reason.

thread-local
    A `thread_local` variable. Execution state (the page-fault accountant,
    the tracer) travels as an explicit argument — an ExecContext, or an
    IoStats* at a touch site — never through an ambient per-thread slot:
    such a slot silently reads as "off" on any thread that did not install
    it (a worker running a block, a caller outside any scope), which is how
    faults went uncounted. The few per-thread slots that are genuinely
    per-thread carry `// lint:allow(thread-local)` and, on the same comment
    line, the reason; an allow with no reason text does not count.

op-dispatch
    A comparison of a MIL operator spelling outside the operator table
    (src/mil/ops.cc): `op` or `.op` compared with a string literal, or a
    prefix test such as `.rfind("select.", 0)` (also "thetajoin." and
    "calc."). Every consumer of the vocabulary (interpreter, analyzer,
    lexer, query service) resolves a spelling through mil::ResolveOp and
    reads its OpDecl; a hand-written if-chain is a second copy of the
    vocabulary that drifts from the table. Escapes carry
    `// lint:allow(op-dispatch)` and, on the same comment line, the reason.

fn-dispatch
    A scalar-function name compared with a string literal (`fn == "+"`,
    `"year" != fn`, also through `fn.name` / `fn->name`) in src/kernel/ or
    src/mil/ outside kernel/scalar_fn.cc, where the functions are
    declared. A scalar function is resolved by name once, through
    kernel::FindScalarFn (mil::ResolveOp does it for every `[f]` and
    `calc.f`), and its ScalarFn entry says what it means: `apply` for a
    boxed row, `eval` for the typed row loops. A name compare below that
    is a second copy of the table. A justified exception carries
    `// lint:allow(fn-dispatch)` and the reason on the same line as the
    compare.

unfiltered-touch
    A per-element `Column::TouchAt` call (`.TouchAt(` or `->TouchAt(`).
    Each call is an out-of-line accountant touch plus a heap-cache scan,
    which cost more than the hash probe in a join's match loop. A kernel
    loop touches through a storage::ColdPageFilter per heap instead
    (Column::PageFilter, Column::TouchGather): only each page's first
    touch reaches the accountant, with bit-identical fault accounting.
    Only a binary search, whose touch sequence is a few probes per lookup,
    calls TouchAt; such a site carries `// lint:allow(unfiltered-touch)`
    and, on the same comment line, the reason.

boxed-value
    A per-element boxed value operation — a `NumAt(`, `HashAt(`,
    `EqualAt(`, `CompareAt(` or `CompareValue(` call (`.` or `->`) — in
    src/kernel/ or src/bat/ outside bat/column.{h,cc}, where the methods
    are defined. What a column value is (its numeric view, hash,
    equality and order) is defined once, by the value view in
    bat/column.h; a kernel loop visits the view (Column::VisitValues,
    bat::VisitBound) and calls Num/Hash/Equal/Compare, so every storage
    shape runs the same typed loop. A per-element boxed call is a second,
    slower copy of that definition, and such copies drifted into wrong
    answers. GetValue (boxing one value for output) is not covered. A
    justified exception carries `// lint:allow(boxed-value)` and the
    reason on the same line as the call.

shard-replay
    An `IoStats::ForShard(` or `MergeFrom(` call in src/kernel/ or
    src/bat/ outside the morsel runner (kernel/internal.{h,cc}). How a
    block's touches reach the caller's accountant — the caller's own in a
    one-block plan, a shard replayed in block order otherwise — is decided
    once, by kernel::internal::MorselRun; a kernel that builds or replays
    its own shards is a second copy of that rule, and such copies drifted
    (hash join and hash semijoin replayed a shard even in a serial plan,
    so an LRU pager saw only their first touches). A justified exception
    carries `// lint:allow(shard-replay)` and the reason on the same line
    as the call.

An allow comment counts when it appears inside the flagged statement or on
one of the two lines above it (on the flagged line itself for
fn-dispatch, boxed-value and shard-replay).

Usage
-----
    tools/lint_invariants.py [paths...]      # default: src
    tools/lint_invariants.py --self-test     # run the seeded-broken fixtures

Exit status 0 = clean, 1 = findings, 2 = self-test failure.
"""

import os
import re
import sys

DEFAULT_PATHS = ["src"]
ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")
SYNC_KEY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*(?:\(\))?(?:[.->]+[A-Za-z_][A-Za-z0-9_]*(?:\(\))?)*)\.sync_key\(\)")
VOID_CTX_RE = re.compile(r"\(\s*void\s*\)\s*ctx\b")
PLAN_RE = re.compile(r"\bctx\.Plan\(")
INTERRUPT_RE = re.compile(r"\bCheckInterrupt\(")
# A function definition starts in column 0 (the repo never indents inside
# namespaces) and its closing brace is a column-0 '}'.
FN_START_RE = re.compile(r"^[A-Za-z_]")
FN_START_SKIP = ("namespace", "using", "typedef", "return", "template")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(lines, start_idx, end_idx, rule, need_reason=False):
    """True if a lint:allow(rule) comment covers statement lines
    [start_idx, end_idx] (0-based, inclusive) or the two lines above. With
    `need_reason`, the allow's line must also carry text besides the tag."""
    lo = max(0, start_idx - 2)
    for i in range(lo, min(end_idx + 1, len(lines))):
        for m in ALLOW_RE.finditer(lines[i]):
            if m.group(1) != rule:
                continue
            rest = lines[i][:m.start()] + lines[i][m.end():]
            if not need_reason or re.search(r"[A-Za-z]", rest):
                return True
    return False


def statement_end(lines, start_idx):
    """Index of the line closing the statement that opens at start_idx:
    tracks paren depth from the first '(' and stops at the ';' that follows
    balance."""
    depth = 0
    opened = False
    for i in range(start_idx, len(lines)):
        for ch in lines[i]:
            if ch == "(":
                depth += 1
                opened = True
            elif ch == ")":
                depth -= 1
            elif ch == ";" and opened and depth <= 0:
                return i
    return min(start_idx, len(lines) - 1)


def classify_receiver(recv):
    """head / tail / other source classification of one sync_key() receiver.

    `ab.head()`, `head`, `out->head()` are head sources; the tail analogs
    are tail sources; any other receiver (a mixed variable, an extent
    column, a cached key) is an independent source that already breaks the
    head-only pattern."""
    last = re.split(r"[.>-]+", recv.rstrip("()"))[-1]
    if last == "head":
        return "head"
    if last == "tail":
        return "tail"
    return "other"


def check_sync_head_only(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if "SetSync(" not in line or line.lstrip().startswith("//"):
            continue
        end = statement_end(lines, i)
        stmt = "\n".join(lines[i : end + 1])
        sources = [classify_receiver(m.group(1))
                   for m in SYNC_KEY_RE.finditer(stmt)]
        heads = sources.count("head")
        tails = sources.count("tail")
        others = sources.count("other")
        if heads >= 1 and tails == 0 and others == 0:
            if not allowed(lines, i, end, "sync-head-only"):
                findings.append(Finding(
                    path, i + 1, "sync-head-only",
                    "sync key derived from head column(s) only — if the "
                    "result BUN set depends on tail values this forges "
                    "synced proofs; mix the tail sync key, or annotate "
                    "// lint:allow(sync-head-only) with a justification"))
    return findings


def check_uncharged_kernel(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if line.lstrip().startswith("//"):
            continue
        if VOID_CTX_RE.search(line):
            if not allowed(lines, i, i, "uncharged-kernel"):
                findings.append(Finding(
                    path, i + 1, "uncharged-kernel",
                    "kernel discards its ExecContext: no page accounting, "
                    "invisible to fault budgets and admission pricing; "
                    "charge the context, or annotate "
                    "// lint:allow(uncharged-kernel) for zero-copy kernels"))
    return findings


def enclosing_function(lines, idx):
    """(start, end) line span of the column-0 function (or class) body that
    contains line idx, by the repo's formatting conventions."""
    start = None
    for j in range(idx, -1, -1):
        line = lines[j]
        if FN_START_RE.match(line) and not line.startswith(FN_START_SKIP):
            start = j
            break
    if start is None:
        return None
    end = len(lines) - 1
    for j in range(idx, len(lines)):
        if lines[j].startswith("}"):
            end = j
            break
    return start, end


def check_unpolled_plan(path, lines):
    findings = []
    reported = set()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("//") or not PLAN_RE.search(line):
            continue
        span = enclosing_function(lines, i)
        if span is None or span[0] in reported:
            continue
        body = "\n".join(lines[span[0] : span[1] + 1])
        if INTERRUPT_RE.search(body):
            reported.add(span[0])
            continue
        if allowed(lines, i, i, "unpolled-plan"):
            reported.add(span[0])
            continue
        reported.add(span[0])
        findings.append(Finding(
            path, i + 1, "unpolled-plan",
            "function plans a morsel loop but never polls "
            "CheckInterrupt(): a cancelled plan skips blocks and this "
            "kernel would consume the partial shards; re-check the "
            "interrupt after each eval phase, or annotate "
            "// lint:allow(unpolled-plan) with a proof of safety"))
    return findings


RENAME_RE = re.compile(r"(?:::|\b)rename\s*\(")
FSYNC_RE = re.compile(r"fsync", re.IGNORECASE)


def strip_comments(text):
    return re.sub(r"//[^\n]*", "", text)


def check_unsynced_rename(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if line.lstrip().startswith("//") or not RENAME_RE.search(line):
            continue
        span = enclosing_function(lines, i)
        if span is None:
            continue
        before = strip_comments("\n".join(lines[span[0] : i]))
        after = strip_comments("\n".join(lines[i + 1 : span[1] + 1]))
        if FSYNC_RE.search(before) and FSYNC_RE.search(after):
            continue
        if allowed(lines, i, i, "unsynced-rename"):
            continue
        missing = []
        if not FSYNC_RE.search(before):
            missing.append("no fsync before (temp content may not be "
                           "durable when the new name appears)")
        if not FSYNC_RE.search(after):
            missing.append("no fsync after (the directory entry itself may "
                           "not survive a crash)")
        findings.append(Finding(
            path, i + 1, "unsynced-rename",
            "rename without the full fsync-rename-fsync publish protocol: "
            + "; ".join(missing)
            + " — or annotate // lint:allow(unsynced-rename) if this "
            "rename carries no durability contract"))
    return findings


NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
# The wrapper is the one legitimate home of the raw primitives.
NAKED_MUTEX_EXEMPT = ("common/mutex.h", "common/mutex.cc",
                      "common/thread_annotations.h")
RANKED_MUTEX_DECL_RE = re.compile(r"\bMutex\s+\w+\s*\{\s*LockRank::")
MUTABLE_MEMBER_RE = re.compile(r"^\s+mutable\s+\S")
MUTABLE_EXEMPT_RE = re.compile(r"\b(?:Mutex|CondVar|std::atomic)\b")


def check_naked_mutex(path, lines):
    norm = path.replace(os.sep, "/")
    if norm.endswith(NAKED_MUTEX_EXEMPT):
        return []
    findings = []
    for i, line in enumerate(lines):
        if line.lstrip().startswith("//"):
            continue
        m = NAKED_MUTEX_RE.search(strip_comments(line))
        if m and not allowed(lines, i, i, "naked-mutex"):
            findings.append(Finding(
                path, i + 1, "naked-mutex",
                f"raw std::{m.group(1)} outside common/mutex.h: invisible "
                "to -Wthread-safety and the lock-rank checker; use the "
                "annotated Mutex/MutexLock/CondVar wrapper, or annotate "
                "// lint:allow(naked-mutex) with a reason"))
    # Annotation coverage: files that declare a ranked Mutex must guard
    # their mutable members (the lock is right there; an unannotated
    # mutable field next to it is an unchecked sharing claim).
    if RANKED_MUTEX_DECL_RE.search("\n".join(lines)):
        for i, line in enumerate(lines):
            if line.lstrip().startswith("//"):
                continue
            if not MUTABLE_MEMBER_RE.match(line):
                continue
            end = statement_end(lines, i)
            if ";" not in "".join(lines[i : end + 1]):
                end = i
            stmt = strip_comments("\n".join(lines[i : end + 1]))
            if MUTABLE_EXEMPT_RE.search(stmt):
                continue
            if "MOAFLAT_GUARDED_BY" in stmt or "GUARDED_BY" in stmt:
                continue
            if allowed(lines, i, end, "naked-mutex"):
                continue
            findings.append(Finding(
                path, i + 1, "naked-mutex",
                "mutable member without MOAFLAT_GUARDED_BY in a file that "
                "declares a ranked Mutex: annotate which lock guards it "
                "(or // lint:allow(naked-mutex) if it is provably "
                "single-threaded)"))
    return findings


THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")


def check_thread_local(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if not THREAD_LOCAL_RE.search(strip_comments(line)):
            continue
        if allowed(lines, i, i, "thread-local", need_reason=True):
            continue
        findings.append(Finding(
            path, i + 1, "thread-local",
            "thread_local state: pass execution state explicitly (an "
            "ExecContext, an IoStats* at touch sites) instead of through an "
            "ambient per-thread slot, or annotate "
            "// lint:allow(thread-local) with the reason on the same line"))
    return findings


OP_DISPATCH_EXEMPT = "src/mil/ops.cc"
OP_COMPARE_RE = re.compile(
    r'\bop\s*[!=]=\s*"|"\s*[!=]=\s*(?:[A-Za-z_]\w*(?:\.|->))?op\b')
OP_PREFIX_RE = re.compile(r'\.rfind\(\s*"(?:select|thetajoin|calc)\."\s*,\s*0\s*\)')


def check_op_dispatch(path, lines):
    if path.replace(os.sep, "/").endswith(OP_DISPATCH_EXEMPT):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = strip_comments(line)
        if not (OP_COMPARE_RE.search(code) or OP_PREFIX_RE.search(code)):
            continue
        if allowed(lines, i, i, "op-dispatch", need_reason=True):
            continue
        findings.append(Finding(
            path, i + 1, "op-dispatch",
            "MIL operator spelling compared outside the operator table: "
            "resolve it with mil::ResolveOp and read the OpDecl, or annotate "
            "// lint:allow(op-dispatch) with the reason on the same line"))
    return findings


FN_DISPATCH_DIRS = ("src/kernel/", "src/mil/")
# The scalar-function table itself.
FN_DISPATCH_EXEMPT = "src/kernel/scalar_fn.cc"
FN_COMPARE_RE = re.compile(
    r'\bfn(?:(?:\.|->)name)?\s*[!=]=\s*"|"\s*[!=]=\s*'
    r'(?:[A-Za-z_]\w*(?:\.|->))*fn(?:(?:\.|->)name)?\b')


def check_fn_dispatch(path, lines):
    norm = "/" + path.replace(os.sep, "/")
    if (not any("/" + d in norm for d in FN_DISPATCH_DIRS) or
            norm.endswith(FN_DISPATCH_EXEMPT)):
        return []
    findings = []
    for i, line in enumerate(lines):
        if not FN_COMPARE_RE.search(strip_comments(line)):
            continue
        comment = line[line.find("//"):] if "//" in line else ""
        tag = ALLOW_RE.search(comment)
        if (tag and tag.group(1) == "fn-dispatch" and
                re.search(r"[A-Za-z]", comment[tag.end():])):
            continue
        findings.append(Finding(
            path, i + 1, "fn-dispatch",
            "scalar-function name compared outside the ScalarFn table: "
            "resolve it once with kernel::FindScalarFn and read the entry "
            "(apply, eval), or annotate // lint:allow(fn-dispatch) with the "
            "reason on the same line"))
    return findings


TOUCH_AT_RE = re.compile(r"(?:\.|->)TouchAt\(")


def check_unfiltered_touch(path, lines):
    findings = []
    for i, line in enumerate(lines):
        if not TOUCH_AT_RE.search(strip_comments(line)):
            continue
        if allowed(lines, i, i, "unfiltered-touch", need_reason=True):
            continue
        findings.append(Finding(
            path, i + 1, "unfiltered-touch",
            "per-element TouchAt: touch through a page filter "
            "(Column::PageFilter / Column::TouchGather), or, for a binary "
            "search, annotate // lint:allow(unfiltered-touch) with the "
            "reason on the same line"))
    return findings


BOXED_VALUE_DIRS = ("src/kernel/", "src/bat/")
# The per-element methods' own definitions (one visit each).
BOXED_VALUE_EXEMPT = ("src/bat/column.h", "src/bat/column.cc")
BOXED_VALUE_RE = re.compile(
    r"(?:\.|->)\s*(?:NumAt|HashAt|EqualAt|CompareAt|CompareValue)\(")


def check_boxed_value(path, lines):
    norm = "/" + path.replace(os.sep, "/")
    if (not any("/" + d in norm for d in BOXED_VALUE_DIRS) or
            norm.endswith(BOXED_VALUE_EXEMPT)):
        return []
    findings = []
    for i, line in enumerate(lines):
        if not BOXED_VALUE_RE.search(strip_comments(line)):
            continue
        comment = line[line.find("//"):] if "//" in line else ""
        tag = ALLOW_RE.search(comment)
        if (tag and tag.group(1) == "boxed-value" and
                re.search(r"[A-Za-z]", comment[tag.end():])):
            continue
        findings.append(Finding(
            path, i + 1, "boxed-value",
            "per-element boxed value operation in a kernel: visit the "
            "value view (Column::VisitValues) and use Num/Hash/Equal/"
            "Compare, or annotate // lint:allow(boxed-value) with the "
            "reason on the same line"))
    return findings


SHARD_REPLAY_DIRS = ("src/kernel/", "src/bat/")
# The morsel runner: the one place that builds and replays block shards.
SHARD_REPLAY_EXEMPT = ("src/kernel/internal.h", "src/kernel/internal.cc")
SHARD_REPLAY_RE = re.compile(r"IoStats::ForShard\(|\bMergeFrom\(")


def check_shard_replay(path, lines):
    norm = "/" + path.replace(os.sep, "/")
    if (not any("/" + d in norm for d in SHARD_REPLAY_DIRS) or
            norm.endswith(SHARD_REPLAY_EXEMPT)):
        return []
    findings = []
    for i, line in enumerate(lines):
        if not SHARD_REPLAY_RE.search(strip_comments(line)):
            continue
        comment = line[line.find("//"):] if "//" in line else ""
        tag = ALLOW_RE.search(comment)
        if (tag and tag.group(1) == "shard-replay" and
                re.search(r"[A-Za-z]", comment[tag.end():])):
            continue
        findings.append(Finding(
            path, i + 1, "shard-replay",
            "block shard built or replayed outside the morsel runner: run "
            "the blocks through internal::MorselRun, which gives each block "
            "its accountant, or annotate // lint:allow(shard-replay) with "
            "the reason on the same line"))
    return findings


CHECKS = [check_sync_head_only, check_uncharged_kernel, check_unpolled_plan,
          check_unsynced_rename, check_naked_mutex, check_thread_local,
          check_op_dispatch, check_fn_dispatch, check_unfiltered_touch,
          check_boxed_value, check_shard_replay]


def lint_file(path, text=None):
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    lines = text.split("\n")
    findings = []
    for check in CHECKS:
        findings.extend(check(path, lines))
    return findings


def lint_paths(paths):
    findings = []
    for root in paths:
        if os.path.isfile(root):
            findings.extend(lint_file(root))
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".cc", ".h")):
                    findings.extend(lint_file(os.path.join(dirpath, name)))
    return findings


# ---------------------------------------------------------------- self-test

# Each fixture seeds the bug class the rule exists for (or its allowed /
# correct variant) and states exactly what the lint must report.
FIXTURES = [
    # The forgery class: head keys + a salt, no tail source.
    ("broken_select.cc", """
Result<Bat> FinishSelect(const Bat& ab, ColumnPtr out_head) {
  SetSync(out_head, MixSync(ab.head().sync_key(), BoundSyncHash(lo, hi)));
  return Bat::Make(out_head, nullptr, {});
}
""", {"sync-head-only": 1, "uncharged-kernel": 0}),
    # Two head keys, still no tail source (the equi-join variant),
    # spanning multiple lines.
    ("broken_join.cc", """
Result<Bat> FinishJoin(const Bat& ab, const Bat& cd, ColumnPtr out_head) {
  SetSync(out_head, MixSync(MixSync(ab.head().sync_key(),
                                    cd.head().sync_key()),
                            HashString("join")));
  return Bat::Make(out_head, nullptr, {});
}
""", {"sync-head-only": 1, "uncharged-kernel": 0}),
    # The fix: the tail key joins the derivation.
    ("fixed_join.cc", """
Result<Bat> FinishJoin(const Bat& ab, const Bat& cd, ColumnPtr out_head) {
  SetSync(out_head, MixSync(MixSync(MixSync(ab.head().sync_key(),
                                            ab.tail().sync_key()),
                                    cd.head().sync_key()),
                            HashString("join")));
  return Bat::Make(out_head, nullptr, {});
}
""", {"sync-head-only": 0, "uncharged-kernel": 0}),
    # An independent (non head/tail) source also breaks the pattern.
    ("extent_semijoin.cc", """
Result<Bat> Finish(const Column& extent, const Bat& cd, ColumnPtr out_head) {
  SetSync(out_head, MixSync(MixSync(extent.sync_key(),
                                    cd.head().sync_key()),
                            HashString("dv_semijoin")));
  return Bat::Make(out_head, nullptr, {});
}
""", {"sync-head-only": 0, "uncharged-kernel": 0}),
    # Head-only is provably right here and says so.
    ("allowed_aggregate.cc", """
Result<Bat> FinishSetAggregate(const Bat& ab, ColumnPtr out_head) {
  // The group set is a function of the head column alone.
  // lint:allow(sync-head-only)
  SetSync(out_head,
          MixSync(ab.head().sync_key(), HashString("set_aggregate")));
  return Bat::Make(out_head, nullptr, {});
}
""", {"sync-head-only": 0, "uncharged-kernel": 0}),
    # A kernel that silently ignores its context.
    ("broken_uncharged.cc", """
Result<Bat> CopySemijoin(const ExecContext& ctx, const Bat& ab) {
  (void)ctx;
  Bat res = ab;
  return res;
}
""", {"sync-head-only": 0, "uncharged-kernel": 1}),
    # The acknowledged zero-copy variant.
    ("allowed_uncharged.cc", """
Result<Bat> SyncSemijoin(const ExecContext& ctx, const Bat& ab) {
  (void)ctx;  // zero-copy view, nothing materialized  lint:allow(uncharged-kernel)
  Bat res = ab;
  return res;
}
""", {"sync-head-only": 0, "uncharged-kernel": 0}),
    # The cancellation-unsafety class: plans a morsel loop, consumes the
    # shards without ever re-checking the interrupt.
    ("broken_plan.cc", """
Result<Bat> ScanThing(const ExecContext& ctx, const Bat& ab) {
  const BlockPlan plan = ctx.Plan(ab.size());
  std::vector<Shard> shards(plan.blocks);
  RunBlocks(plan, [&](int b, size_t lo, size_t hi) { Fill(&shards[b]); });
  return Merge(shards);
}
""", {"sync-head-only": 0, "uncharged-kernel": 0, "unpolled-plan": 1}),
    # The fix: the post-phase interrupt poll guards the merge.
    ("fixed_plan.cc", """
Result<Bat> ScanThing(const ExecContext& ctx, const Bat& ab) {
  const BlockPlan plan = ctx.Plan(ab.size());
  std::vector<Shard> shards(plan.blocks);
  RunBlocks(plan, [&](int b, size_t lo, size_t hi) { Fill(&shards[b]); });
  MF_RETURN_NOT_OK(ctx.CheckInterrupt());
  return Merge(shards);
}
""", {"sync-head-only": 0, "uncharged-kernel": 0, "unpolled-plan": 0}),
    # The weakened-publish class: a rename with no fsync on either side.
    ("broken_rename.cc", """
Status PublishCheckpoint(const std::string& tmp, const std::string& final) {
  if (::rename(tmp.c_str(), final.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return Status::OK();
}
""", {"unsynced-rename": 1}),
    # Half the protocol: content fsynced, but the directory entry is not.
    ("broken_rename_after.cc", """
Status PublishCheckpoint(int fd, const std::string& tmp,
                         const std::string& final) {
  if (::fsync(fd) != 0) return Errno("fsync", tmp);
  if (::rename(tmp.c_str(), final.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return Status::OK();
}
""", {"unsynced-rename": 1}),
    # The full write-temp / fsync / rename / fsync-dir publish.
    ("fixed_rename.cc", """
Status PublishCheckpoint(int fd, const std::string& dir,
                         const std::string& tmp, const std::string& final) {
  if (::fsync(fd) != 0) return Errno("fsync", tmp);
  if (::rename(tmp.c_str(), final.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return FsyncDir(dir);
}
""", {"unsynced-rename": 0}),
    # A comment mentioning fsync must not count as evidence.
    ("broken_rename_comment.cc", """
Status PublishCheckpoint(const std::string& tmp, const std::string& final) {
  // fsync is somebody else's job here, before and after.
  if (::rename(tmp.c_str(), final.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return Status::OK();
}
""", {"unsynced-rename": 1}),
    # A rename with no durability contract, and it says so.
    ("allowed_rename.cc", """
Status RotateDebugDump(const std::string& tmp, const std::string& final) {
  // Best-effort debug artifact; losing it in a crash is fine.
  // lint:allow(unsynced-rename)
  if (::rename(tmp.c_str(), final.c_str()) != 0) {
    return Errno("rename", tmp);
  }
  return Status::OK();
}
""", {"unsynced-rename": 0}),
    # Raw primitives outside the wrapper: member and lock site.
    ("broken_naked_mutex.cc", """
class Cache {
 public:
  int Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return v_;
  }

 private:
  std::mutex mu_;
  int v_ = 0;
};
""", {"naked-mutex": 2}),
    # The wrapper in use: annotated, ranked, guarded — nothing to flag.
    ("fixed_wrapped_mutex.cc", """
class Cache {
 private:
  mutable Mutex mu_{LockRank::kSession, "cache"};
  int v_ MOAFLAT_GUARDED_BY(mu_) = 0;
  mutable std::atomic<size_t> hits_{0};
};
""", {"naked-mutex": 0}),
    # A justified raw primitive (e.g. handed to a C API).
    ("allowed_naked_mutex.cc", """
class Bridge {
 private:
  // A C callback needs the native handle; the wrapper cannot expose it.
  std::mutex mu_;  // lint:allow(naked-mutex)
};
""", {"naked-mutex": 0}),
    # Coverage: a mutable member with no GUARDED_BY right next to a ranked
    # Mutex is an unchecked sharing claim.
    ("broken_unguarded_mutable.cc", """
class Cache {
 private:
  mutable Mutex mu_{LockRank::kSession, "cache"};
  mutable size_t hits_ = 0;
};
""", {"naked-mutex": 1}),
    # A single-threaded class with a mutable cache and no Mutex at all is
    # out of scope — the rule keys on the lock being present.
    ("single_threaded_mutable.cc", """
class ResultView {
 private:
  mutable size_t pos_cache_ = 0;
};
""", {"naked-mutex": 0}),
    # Ambient per-thread execution state: the channel explicit contexts
    # replaced.
    ("broken_thread_local.cc", """
namespace {
thread_local IoStats* t_current_io = nullptr;
}  // namespace
""", {"thread-local": 1}),
    # A genuinely per-thread slot that says why.
    ("allowed_thread_local.cc", """
namespace {
// lint:allow(thread-local) the rank checker tracks this thread's locks
thread_local int g_held_n = 0;
}  // namespace
""", {"thread-local": 0}),
    # An allow without a reason does not count.
    ("bare_allow_thread_local.cc", """
// lint:allow(thread-local)
thread_local int g_depth = 0;
""", {"thread-local": 1}),
    # Operator dispatch by hand: a spelling compare and a family prefix
    # test, each a second copy of the operator table.
    ("broken_op_dispatch.cc", """
bool Mutates(const MilStmt& s) { return s.op == "insert"; }
AbstractBinding Analyze(const MilStmt& stmt) {
  const std::string& op = stmt.op;
  if (op.rfind("select.", 0) == 0) return AnalyzeSelect(stmt);
  return Unknown();
}
""", {"op-dispatch": 2}),
    # A site that names a spelling for another reason, and says why.
    ("allowed_op_dispatch.cc", """
// lint:allow(op-dispatch) plan-shape report: counts grouping statements
if (s.op == "group") ++groups;
""", {"op-dispatch": 0}),
    # Scalar-function names are not operator spellings, but a kernel that
    # dispatches on one holds a second copy of the ScalarFn table.
    ("src/kernel/scalar_fn_compare.cc", """
if (fn == "+") return Add(x, y);
const bool conj = "and" == fn;
""", {"op-dispatch": 0, "fn-dispatch": 2}),
    # A site that names a function for another reason, and says why.
    ("src/mil/allowed_fn_dispatch.cc", """
if (s.op.fn->name == "ifthen") hint = "b";  // lint:allow(fn-dispatch) wording
""", {"fn-dispatch": 0}),
    # An allow without a reason does not count.
    ("src/kernel/bare_allow_fn_dispatch.cc", """
if (fn.name == "/") return DivisionByZero();  // lint:allow(fn-dispatch)
""", {"fn-dispatch": 1}),
    # The one name -> entry lookup compares names, not literals.
    ("src/kernel/find_scalar_fn.cc", """
const ScalarFn* FindScalarFn(std::string_view name) {
  for (const ScalarFn& f : kScalarFns) {
    if (f.name == name) return &f;
  }
  return nullptr;
}
""", {"fn-dispatch": 0}),
    # A per-match touch in a hash-probe lambda: the loop the page filter
    # exists for.
    ("broken_unfiltered_touch.cc", """
hash->ForEachMatchRange(b, lo, hi, [&](size_t i, uint32_t pos) {
  c.TouchAt(&mine.io, pos);
  mine.lefts.push_back(static_cast<uint32_t>(i));
});
""", {"unfiltered-touch": 1}),
    # A binary search's probe touch, with the reason.
    ("allowed_unfiltered_touch.cc", """
while (lo < hi) {
  const size_t mid = lo + (hi - lo) / 2;
  // lint:allow(unfiltered-touch) binary search: a few probes per lookup
  col.TouchAt(io, mid);
  lo = col.CompareValue(mid, v) < 0 ? mid + 1 : lo;
}
""", {"unfiltered-touch": 0}),
    # An allow without a reason does not count.
    ("bare_allow_unfiltered_touch.cc", """
// lint:allow(unfiltered-touch)
extent_->TouchAt(io, mid);
""", {"unfiltered-touch": 1}),
    # The definition of Column::TouchAt is not a call.
    ("touch_at_definition.cc", """
  void TouchAt(storage::IoStats* io, size_t i) const {
    if (io != nullptr) {
      io->TouchElement(heap_id_, i, width(), storage::Access::kRandom);
    }
  }
""", {"unfiltered-touch": 0}),
    # A boxed equality per chain element in a hash-probe loop: the copy
    # of the value semantics the view replaces.
    ("src/bat/broken_boxed_probe.h", """
for (size_t j = begin; j < end; ++j) {
  for (uint32_t cur = buckets_[probe.HashAt(j) & mask_]; cur != kEnd;
       cur = next_[cur - 1]) {
    if (col_->EqualAt(cur - 1, probe, j)) fn(j, cur - 1);
  }
}
""", {"boxed-value": 2}),
    # A justified exception, with the reason on the same line.
    ("src/kernel/allowed_boxed_value.cc", """
const int c = tail.CompareValue(0, v);  // lint:allow(boxed-value) one per call
""", {"boxed-value": 0}),
    # An allow without a reason does not count.
    ("src/kernel/bare_allow_boxed_value.cc", """
const double x = tail.NumAt(i);  // lint:allow(boxed-value)
""", {"boxed-value": 1}),
    # The methods' definitions in column.cc are exempt.
    ("src/bat/column.cc", """
int Column::CompareAt(size_t i, const Column& other, size_t j) const {
  return VisitValues([&](const auto& a) {
    return other.VisitValues(
        [&](const auto& b) { return Compare(a, i, b, j); });
  });
}
""", {"boxed-value": 0}),
    # Outside src/kernel/ and src/bat/ (the row-store baseline) the rule
    # does not apply.
    ("src/relational/row_store.cc", """
const int cmp = c.CompareValue(order_[mid], v);
""", {"boxed-value": 0}),
    # A kernel that builds and replays its own probe shards: the plumbing
    # the morsel runner owns.
    ("src/kernel/broken_shard_replay.cc", """
struct alignas(64) Shard {
  std::vector<uint32_t> matches;
  storage::IoStats io = storage::IoStats::ForShard();
};
for (Shard& s : shards) {
  if (ctx.io() != nullptr) ctx.io()->MergeFrom(s.io);
}
""", {"shard-replay": 2}),
    # A justified exception, with the reason on the same line.
    ("src/kernel/allowed_shard_replay.cc", """
ctx.io()->MergeFrom(s.io);  // lint:allow(shard-replay) pinned LOOKUP order
""", {"shard-replay": 0}),
    # An allow without a reason does not count.
    ("src/bat/bare_allow_shard_replay.cc", """
storage::IoStats io = storage::IoStats::ForShard();  // lint:allow(shard-replay)
""", {"shard-replay": 1}),
    # The runner itself replays the shards.
    ("src/kernel/internal.cc", """
Status MorselRun::Replay() {
  if (plan_.blocks > 1 && ctx_.io() != nullptr) {
    for (const Morsel& m : morsels_) ctx_.io()->MergeFrom(m.shard);
  }
  return FirstFailure();
}
""", {"shard-replay": 0}),
    # A justified exception near the Plan call.
    ("allowed_plan.cc", """
Result<Bat> TouchOnly(const ExecContext& ctx, const Bat& ab) {
  // Blocks only touch pages; a short-circuited loop is harmless.
  // lint:allow(unpolled-plan)
  const BlockPlan plan = ctx.Plan(ab.size());
  RunBlocks(plan, [&](int b, size_t lo, size_t hi) { Touch(lo, hi); });
  return ab;
}
""", {"sync-head-only": 0, "uncharged-kernel": 0, "unpolled-plan": 0}),
]


def self_test():
    failures = []
    for name, text, want in FIXTURES:
        got = lint_file(name, text)
        counts = {rule: 0 for rule in want}
        for f in got:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        if counts != want:
            failures.append(f"{name}: expected {want}, got {counts}: "
                            + "; ".join(str(f) for f in got))
    if failures:
        for f in failures:
            print("SELF-TEST FAIL:", f, file=sys.stderr)
        return 2
    print(f"self-test: {len(FIXTURES)} fixtures ok")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    paths = [a for a in argv if not a.startswith("-")] or DEFAULT_PATHS
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariant lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
