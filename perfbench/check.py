"""Correctness checks over the raw samples of the perfbench program.

Every check returns (attempted, failures), where failures is a list of
one-line descriptions. Nothing here measures time; test_bench.py feeds each
check corrupted samples to prove it fails.
"""

# Fig. 9's tolerance: the engines must agree to 1e-6 of the larger checksum.
TOLERANCE = 1e-6


def answers_agree(monet, row):
    """True when a Monet answer matches the row store's in row count and
    checksum."""
    if monet["rows"] != row["rows"]:
        return False
    scale = max(1.0, abs(monet["check"]), abs(row["check"]))
    return abs(monet["check"] - row["check"]) <= TOLERANCE * scale


def check_engine_pairs(pairs, where):
    """`pairs` are dicts with q, monet and row executions (each with rows,
    check and error). Every execution is one attempt; an engine error or a
    disagreement between the engines is a failure."""
    attempted, failures = 0, []
    for p in pairs:
        for engine in ("monet", "row"):
            if engine not in p:
                continue
            attempted += 1
            if p[engine]["error"]:
                failures.append("%s Q%d %s: %s" % (where, p["q"], engine,
                                                   p[engine]["error"]))
        if "monet" in p and "row" in p and not p["monet"]["error"] \
                and not p["row"]["error"] \
                and not answers_agree(p["monet"], p["row"]):
            failures.append(
                "%s Q%d: monet %d rows / %.6f vs row %d rows / %.6f" %
                (where, p["q"], p["monet"]["rows"], p["monet"]["check"],
                 p["row"]["rows"], p["row"]["check"]))
    return attempted, failures


def check_requests(requests, reference, where):
    """Service requests: each is one attempt. A failed, vetoed or cancelled
    request is a failure; so is a read whose result fingerprint differs from
    the direct-interpreter reference of its program."""
    attempted, failures = 0, []
    for i, r in enumerate(requests):
        attempted += 1
        if not r["ok"]:
            failures.append("%s #%d: %s" % (where, i, r["error"]))
        elif r["prog"] >= 0 and r["fp"] != reference[r["prog"]]:
            failures.append("%s #%d: program %d answered %s, expected %s" %
                            (where, i, r["prog"], r["fp"],
                             reference[r["prog"]]))
    return attempted, failures


def check_durability(d):
    """The recovered store must hold the image of the last acknowledged
    write: one attempt, failed on any recovery error or a lost write."""
    if d["error"]:
        return 1, ["recovery: " + d["error"]]
    if d["last_ack"] >= 0 and d["recovered_fp"] != d["last_ack_fp"]:
        return 1, ["recovery lost acknowledged write %d" % d["last_ack"]]
    return 1, []


def check_faults_repeat(faults_by_query, where):
    """Simulated page faults are an exact invariant: every run of one query
    on one data set must count the same faults. One attempt per query."""
    failures = ["%s %s: fault counts differ between runs: %s" %
                (where, q, sorted(set(v)))
                for q, v in sorted(faults_by_query.items())
                if len(set(v)) > 1]
    return len(faults_by_query), failures


# Span ends are written with microsecond digits; each child may round up by
# this much (ms).
SPAN_ROUNDING_MS = 1e-3


def check_children_fit(spans):
    """Traced TPC-D runs: the statement and kernel durations the engine
    measured must fit inside the span that holds them, down to the query
    wall time timed from outside. Children are placed back to back and the
    glue is the remainder, so the self times add up to the wall time
    whenever this holds; what it catches is engine-measured time running
    past the outside timer. One attempt per query span."""
    inside = [0.0] * len(spans)
    count = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            inside[s["parent"]] += s["end"] - s["start"]
            count[s["parent"]] += 1
    attempted, failures = 0, []
    for i, s in enumerate(spans):
        if s["name"].startswith("tpcd.q"):
            attempted += 1
        if not s["name"].startswith(("tpcd.q", "mil.stmt")):
            continue
        over = inside[i] - (s["end"] - s["start"])
        if over > SPAN_ROUNDING_MS * count[i]:
            failures.append("%s (query %d): children run %.3f ms past it" %
                            (s["name"], s["qid"], over))
    return attempted, failures


def check_run(raw):
    """All checks of one run. Returns (attempted, failures)."""
    attempted, failures = 0, []

    def add(result):
        nonlocal attempted
        attempted += result[0]
        failures.extend(result[1])

    setups = raw["setups"]
    faults = {}
    if raw["context"]["workload"] == "tpcd":
        for i, setup in enumerate(setups):
            add(check_engine_pairs(setup["first_round"],
                                   "set-up %d first round" % i))
            for r in setup["rounds"]:
                add(check_engine_pairs(r["queries"], "round %d" % r["round"]))
                if r.get("analyze_error"):
                    failures.append("front end rejected a MOA query: " +
                                    r["analyze_error"])
                for e in r["queries"]:
                    if not e["monet"]["error"]:
                        faults.setdefault("Q%d" % e["q"], []).append(
                            e["monet"]["faults"])
        add(check_faults_repeat(faults, "monet"))
        return attempted, failures

    reference = []
    for i, ref in enumerate(setups[0]["reference"]):
        attempted += 1
        if ref["error"]:
            failures.append("reference %d: %s" % (i, ref["error"]))
        reference.append(ref["fp"])
    for i, setup in enumerate(setups):
        for p in setup["programs"]:
            attempted += 1
            if not p["round_trip"]:
                failures.append("Q%d: MIL text does not round-trip" % p["q"])
            elif p["analyze_error"]:
                failures.append("Q%d: analyzer: %s" % (p["q"],
                                                       p["analyze_error"]))
        add(check_requests(setup["first_pass"], reference,
                           "set-up %d first pass" % i))
        for n, reads in enumerate(setup["readers"]):
            add(check_requests(reads, reference,
                               "set-up %d reader %d" % (i, n)))
            for r in reads:
                if r["ok"]:
                    faults.setdefault("program %d" % r["prog"], []).append(
                        r["faults"])
        add(check_engine_pairs(setup["control"], "set-up %d control" % i))
        add(check_requests(setup["writes"], [], "set-up %d writes" % i))
        add(check_durability(setup["durability"]))
    add(check_faults_repeat(faults, "service"))
    add(check_engine_pairs(setups[-1]["crosscheck"], "cross-check"))
    return attempted, failures
