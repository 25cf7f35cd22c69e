"""Turns the raw samples of the perfbench program into the reported metrics.

End-to-end metrics come from untraced samples; per-layer metrics from the
traced run. Every workload reports every metric: where a layer is not
exercised by a workload its per-layer value is 0 (see README.md).
"""

import re

import stats

MOA_QUERIES = (1, 3, 6, 10, 13)
QUERIES = tuple(range(1, 16))

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("first_round_s", "s", "lower"),
    ("monet_geomean_ms", "ms", "lower"),
    ("monet_tail_ms", "ms", "lower"),
    ("monet_total_ms", "ms", "lower"),
    ("row_geomean_ms", "ms", "lower"),
    ("qppd", "ratio", "higher"),
    ("monet_faults", "faults", "lower"),
    ("mem_peak_mb", "MB", "lower"),
    ("queries_per_s", "1/s", "higher"),
]

# Kernel variants reported by name; every other variant is summed into
# kernel.other.
KERNELS = [
    "datavector_semijoin", "datavector_semijoin_cached", "hash_join",
    "hash_semijoin", "hash_set_aggregate", "hash_unique", "merge_join",
    "merge_semijoin", "scan_select", "binsearch_select",
    "multiplex_headjoin", "multiplex_synced_numeric", "multiplex_synced",
    "hash_head_unique", "hash_group", "sync_group_refine", "other",
]


def _per_layer_spec():
    spec = [("tpcd.generate_s", "s"), ("tpcd.load_s", "s"),
            ("service.start_s", "s")]
    spec += [("tpcd.q%d.monet_ms" % q, "ms") for q in QUERIES]
    spec += [("tpcd.glue_ms", "ms"), ("moa.translate_ms", "ms"),
             ("mil.parse_ms", "ms"), ("mil.analyze_ms", "ms"),
             ("mil.interp_ms", "ms"), ("mil.stmts", "count")]
    for k in KERNELS:
        spec += [("kernel.%s.ms" % k, "ms"), ("kernel.%s.calls" % k, "count"),
                 ("kernel.%s.rows" % k, "count")]
    spec += [("bat.first_extra_ms", "ms")]
    spec += [("storage.faults.q%d" % q, "faults") for q in QUERIES]
    spec += [("storage.alloc_mb", "MB"), ("wal.bytes_per_commit", "bytes"),
             ("wal.commit_ms", "ms")]
    spec += [("service.%s_%s_ms" % (kind, stat), "ms")
             for kind in ("read", "write") for stat in ("p50", "tail")]
    spec += [("relational.q%d.ms" % q, "ms") for q in QUERIES]
    for kind in ("read", "write"):
        for part in ("submit_ms", "queue_ms", "run_ms"):
            for stat in ("p50", "tail"):
                spec.append(("service.%s.%s.%s" % (kind, part, stat), "ms"))
    spec += [("pool.cores_busy", "cores"), ("trace.overhead", "ratio"),
             ("trace.self_sum_ratio", "ratio")]
    return spec


PER_LAYER = _per_layer_spec()
PER_LAYER_UNITS = dict(PER_LAYER)
END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}


def kernel_metric_name(impl):
    """Metric-safe name of a TraceRecord impl: `datavector_semijoin(cached)`
    becomes `datavector_semijoin_cached`; unlisted variants map to other."""
    name = re.sub(r"[^A-Za-z0-9_]+", "_", impl).strip("_")
    return name if name in KERNELS else "other"


def _geomean_of(groups, reduce):
    return stats.geomean([reduce(v) for v in groups.values()])


def _tail(values):
    return stats.tail(values)[0]


# The raw document holds one entry per set-up segment; these gather the
# samples of all segments.

def rounds(raw):
    return [r for s in raw["setups"] for r in s["rounds"]]


def readers(raw):
    """Each reader's requests within each segment, in submission order."""
    return [rs for s in raw["setups"] for rs in s["readers"]]


def writes(raw):
    return [w for s in raw["setups"] for w in s["writes"]]


def control(raw):
    return [c for s in raw["setups"] for c in s["control"]]


def _timed(raw, key):
    return sum(s[key] for s in raw["setups"])


def _by_query(entries, engine):
    out = {}
    for e in entries:
        out.setdefault(e["q"], []).append(e[engine]["ms"])
    return out


# ------------------------------------------------------------ end to end

def tpcd_end_to_end(raw):
    timed = [r for r in rounds(raw) if not r["traced"]]
    queries = [e for r in timed for e in r["queries"]]
    monet = _by_query(queries, "monet")
    row = _by_query(queries, "row")
    monet_geo = _geomean_of(monet, stats.median)
    row_geo = _geomean_of(row, stats.median)
    return {
        "monet_geomean_ms": monet_geo,
        "monet_tail_ms": _geomean_of(monet, _tail),
        "monet_total_ms": stats.median(
            [sum(e["monet"]["ms"] for e in r["queries"]) for r in timed]),
        "row_geomean_ms": row_geo,
        "qppd": row_geo / monet_geo,
        "monet_faults": stats.median(
            [sum(e["monet"]["faults"] for e in r["queries"]) for r in timed]),
        "mem_peak_mb": stats.median([r["mem_peak_mb"] for r in timed]),
        "queries_per_s": 2 * len(queries) / _timed(raw, "timed_wall_s"),
    }, monet


def read_rounds(reads, per_round=len(MOA_QUERIES)):
    """Wall time of each aligned group of `per_round` consecutive reads of
    one client: first Submit to last Wait return."""
    walls = []
    for i in range(0, len(reads) - per_round + 1, per_round):
        group = reads[i:i + per_round]
        end = max(r["submit_at"] + r["latency_ms"] for r in group)
        walls.append(end - group[0]["submit_at"])
    return walls


def service_end_to_end(raw):
    reads = [r for rs in readers(raw) for r in rs if r["ok"]]
    run = {}
    for r in reads:
        if r["queue_ms"] < 0:
            run.setdefault(r["prog"], []).append(r["run_ms"])
    row = _by_query(control(raw), "row")
    monet_geo = _geomean_of(run, stats.median)
    row_geo = _geomean_of(row, stats.median)
    faults = {}
    for r in reads:
        faults.setdefault(r["prog"], r["faults"])
    done = len(reads) + sum(w["ok"] for w in writes(raw))
    return {
        "monet_geomean_ms": monet_geo,
        "monet_tail_ms": _geomean_of(run, _tail),
        "monet_total_ms": stats.median(
            [w for rs in readers(raw) for w in read_rounds(rs)]),
        "row_geomean_ms": row_geo,
        "qppd": row_geo / monet_geo,
        "monet_faults": sum(faults.values()),
        "mem_peak_mb": stats.median([s["mem_peak_mb"]
                                     for s in raw["setups"]]),
        "queries_per_s": done / _timed(raw, "timed_wall_s"),
    }, run


def end_to_end(raw):
    """Returns (metrics, samples): every END_TO_END value plus each query's
    Monet samples, which the printed report states the tails of."""
    if raw["context"]["workload"] == "tpcd":
        m, samples = tpcd_end_to_end(raw)
    else:
        m, samples = service_end_to_end(raw)
    m["setup_s"] = stats.median([s["total_s"] for s in raw["setups"]])
    m["first_round_s"] = stats.median([s["first_round_s"]
                                       for s in raw["setups"]])
    return m, samples


# ------------------------------------------------------------- per layer

def _request_parts(requests, kind, out):
    observed = [r for r in requests if r["ok"] and r["queue_ms"] >= 0]
    if not observed:
        return
    for part in ("submit_ms", "queue_ms", "run_ms"):
        values = [r[part] for r in observed]
        out["service.%s.%s.p50" % (kind, part)] = stats.median(values)
        out["service.%s.%s.tail" % (kind, part)] = _tail(values)


def _service_latencies(reqs, kind, out):
    """Client-observed latency, Submit call to Wait return, of unobserved
    requests (observing one makes its client poll)."""
    lat = [r["latency_ms"] for r in reqs if r["ok"] and r["queue_ms"] < 0]
    if lat:
        out["service.%s_p50_ms" % kind] = stats.median(lat)
        out["service.%s_tail_ms" % kind] = _tail(lat)


def tpcd_per_layer(raw, spans, out):
    all_rounds = rounds(raw)
    traced = [r for r in all_rounds if r["traced"]]
    untraced = [r for r in all_rounds if not r["traced"]]
    first = _by_query([e for s in raw["setups"] for e in s["first_round"]],
                      "monet")
    monet_t = _by_query([e for r in traced for e in r["queries"]], "monet")
    monet_u = _by_query([e for r in untraced for e in r["queries"]], "monet")
    row = _by_query([e for r in all_rounds for e in r["queries"]], "row")
    for q in QUERIES:
        out["tpcd.q%d.monet_ms" % q] = stats.median(monet_t[q])
        out["relational.q%d.ms" % q] = stats.median(row[q])
        out["storage.faults.q%d" % q] = traced[0]["queries"][q - 1][
            "monet"]["faults"]
    out["bat.first_extra_ms"] = sum(
        stats.median(first[q]) - stats.median(monet_u.get(q, monet_t[q]))
        for q in QUERIES)
    if monet_u:
        out["trace.overhead"] = (_geomean_of(monet_t, stats.median) /
                                 _geomean_of(monet_u, stats.median))
    for key, name in (("translate_ms", "moa.translate_ms"),
                      ("parse_ms", "mil.parse_ms"),
                      ("analyze_ms", "mil.analyze_ms")):
        out[name] = stats.median([r[key] for r in traced])
    out["mil.stmts"] = sum(e["stmts"] for e in traced[0]["queries"])
    out["storage.alloc_mb"] = stats.median([r["alloc_mb"] for r in all_rounds])

    # Self times per (layer, round, query), summed within a query and
    # reported as the sum over queries of the median over traced rounds.
    selfs = stats.self_times(spans)
    per_query = {}  # (layer, q) -> {round: ms}
    kernel_calls, kernel_rows = {}, {}
    wall = covered = 0.0
    for s, self_ms in zip(spans, selfs):
        rnd, q = divmod(s["qid"], 100)
        name = s["name"]
        if name.startswith("tpcd.q"):
            layer = "tpcd.glue_ms"
            wall += s["end"] - s["start"]
        elif name == "mil.stmt":
            layer = "mil.interp_ms"
        elif name.startswith("kernel."):
            k = kernel_metric_name(name[len("kernel."):])
            layer = "kernel.%s.ms" % k
            kernel_calls[k] = kernel_calls.get(k, 0) + 1
            kernel_rows[k] = kernel_rows.get(k, 0) + max(s["rows"], 0)
        else:
            continue  # the row-store spans
        covered += self_ms
        slot = per_query.setdefault((layer, q), {})
        slot[rnd] = slot.get(rnd, 0.0) + self_ms
    for (layer, _), by_round in per_query.items():
        out[layer] = out.get(layer, 0.0) + stats.median(
            list(by_round.values()))
    for k in kernel_calls:
        out["kernel.%s.calls" % k] = kernel_calls[k] / len(traced)
        out["kernel.%s.rows" % k] = kernel_rows[k] / len(traced)
    out["trace.self_sum_ratio"] = covered / wall if wall > 0 else 0.0


def other_kernels(raw, spans):
    """Milliseconds per traced round of each variant summed into
    kernel.other, by its TraceRecord impl, so the report can name them."""
    traced = sum(1 for r in rounds(raw) if r["traced"])
    out = {}
    for s in spans:
        impl = s["name"][len("kernel."):]
        if s["name"].startswith("kernel.") and \
                kernel_metric_name(impl) == "other":
            out[impl] = out.get(impl, 0.0) + (s["end"] - s["start"]) / traced
    return out


def service_per_layer(raw, spans, out):
    all_reads = [r for rs in readers(raw) for r in rs]
    reads = [r for r in all_reads if r["ok"]]
    run, run_obs, lat, faults = {}, {}, {}, {}
    for r in reads:
        (run_obs if r["queue_ms"] >= 0 else run).setdefault(
            r["prog"], []).append(r["run_ms"])
        if r["queue_ms"] < 0:
            lat.setdefault(r["prog"], []).append(r["latency_ms"])
        faults.setdefault(r["prog"], r["faults"])
    for i, q in enumerate(MOA_QUERIES):
        out["tpcd.q%d.monet_ms" % q] = stats.median(run[i])
        out["storage.faults.q%d" % q] = faults[i]
    for q, v in _by_query(control(raw), "row").items():
        out["relational.q%d.ms" % q] = stats.median(v)
    if run_obs:
        out["trace.overhead"] = (_geomean_of(run_obs, stats.median) /
                                 _geomean_of(run, stats.median))
    frontend = raw["setups"][-1]["frontend"]
    for key, name in (("translate_ms", "moa.translate_ms"),
                      ("parse_ms", "mil.parse_ms"),
                      ("analyze_ms", "mil.analyze_ms")):
        out[name] = sum(stats.median(f[key]) for f in frontend)
    out["mil.stmts"] = sum(p["stmts"] for p in raw["setups"][-1]["programs"])
    passes = max(1, len(reads) // len(MOA_QUERIES))
    out["storage.alloc_mb"] = _timed(raw, "alloc_mb") / passes
    first = {}
    for s in raw["setups"]:
        for r in s["first_pass"]:
            first.setdefault(r["prog"], []).append(r["latency_ms"])
    out["bat.first_extra_ms"] = sum(
        stats.median(first[i]) - stats.median(lat[i]) for i in lat)
    all_writes = writes(raw)
    _request_parts(all_reads, "read", out)
    _request_parts(all_writes, "write", out)
    _service_latencies(all_reads, "read", out)
    _service_latencies(all_writes, "write", out)
    commits = sum(s["durability"]["commits"] for s in raw["setups"])
    if commits > 0:
        out["wal.bytes_per_commit"] = sum(
            s["durability"]["wal_bytes"] for s in raw["setups"]) / commits
    commit_ms = [w["commit_ms"] for w in all_writes
                 if w["ok"] and w["commit_ms"] >= 0]
    if commit_ms:
        out["wal.commit_ms"] = stats.median(commit_ms)

    selfs = stats.self_times(spans)
    wall = covered = 0.0
    for s, self_ms in zip(spans, selfs):
        if s["name"] == "service.read":
            wall += s["end"] - s["start"]
            covered += self_ms
        elif s["parent"] >= 0 and spans[s["parent"]]["name"] == "service.read":
            covered += self_ms
    out["trace.self_sum_ratio"] = covered / wall if wall > 0 else 0.0


def per_layer(raw, spans):
    out = {name: 0.0 for name, _ in PER_LAYER}
    out["tpcd.generate_s"] = stats.median([s["generate_s"]
                                           for s in raw["setups"]])
    out["tpcd.load_s"] = stats.median([s["load_s"] for s in raw["setups"]])
    out["service.start_s"] = stats.median([s.get("service_s", 0.0)
                                           for s in raw["setups"]])
    if raw["context"]["workload"] == "tpcd":
        tpcd_per_layer(raw, spans, out)
    else:
        service_per_layer(raw, spans, out)
    out["pool.cores_busy"] = (_timed(raw, "timed_cpu_s") /
                              _timed(raw, "timed_wall_s"))
    unknown = set(out) - set(PER_LAYER_UNITS)
    if unknown:
        raise ValueError("unlisted per-layer metrics: %s" % sorted(unknown))
    return out
