#!/usr/bin/env python3
"""The repository's benchmark: Fig. 9 on both engines and the query service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench (Release) from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs one workload with inputs
generated from the seed, checks every answer, prints every metric with its
unit and ends with one JSON line: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1). Exits non-zero on any
failed operation or wrong answer. See README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)

# name -> program parameters. `setups` set-ups are timed and setup_s is their
# median; at SF 0.1 each takes ~2.5 s, so fewer. tpcd-sf0.01-d1 runs by hand
# but is not in BENCHMARK.json: too unsteady on a two-speed host (README.md).
WORKLOADS = {
    "tpcd-sf0.01-d1": {"workload": "tpcd", "sf": 0.01, "degree": 1,
                       "setups": 7},
    "tpcd-sf0.1-d4": {"workload": "tpcd", "sf": 0.1, "degree": 4,
                      "setups": 3},
    "service-mixed": {"workload": "service", "sf": 0.01, "degree": 1,
                      "setups": 11},
}

# The program measures for --seconds; its set-ups, cold first passes and
# checks come on top (about 15 s for tpcd-sf0.1-d4). Past this allowance
# beyond --seconds it is taken to hang.
SETUP_ALLOWANCE_S = 140


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build_program():
    """Configures (once) and builds the program; returns its path or None."""
    build = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(build, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(build, "perfbench")


def source_version():
    """The git commit when the checkout is a repository, else a digest of
    the engine and benchmark sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".cc", ".h", ".py", ".txt")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "sources:" + h.hexdigest()[:16]


def run_program(exe, params, seed, seconds, trace):
    runs = os.path.join(build_root(), "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (params["name"], seed, trace)
    out = os.path.join(runs, tag + ".json")
    spans = os.path.join(runs, tag + "-spans.json")
    work = os.path.join(build_root(), "work", "%s-%d" % (tag, os.getpid()))
    cmd = [exe, "--workload", params["workload"], "--sf", str(params["sf"]),
           "--degree", str(params["degree"]), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--setups", str(params["setups"]),
           "--workdir", work, "--out", out]
    if trace:
        cmd += ["--spans", spans]
    timeout = seconds + SETUP_ALLOWANCE_S
    try:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %g s" % timeout)
        return None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        log("perfbench exited with %d" % rc)
        return None, None
    with open(out) as f:
        raw = json.load(f)
    span_list = []
    if trace:
        with open(spans) as f:
            span_list = json.load(f)
    return raw, span_list


def describe_tail(values):
    _, pct, n = stats.tail(values)
    return "p%.0f/%d" % (pct, n)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        log("seed must be >= 0 and seconds > 0")
        return 2

    exe = build_program()
    if exe is None:
        log("build failed")
        return 1
    params = dict(WORKLOADS[args.workload], name=args.workload)
    raw, spans = run_program(exe, params, args.seed, args.seconds, args.trace)
    if raw is None:
        return 1
    ctx = raw["context"]
    if not ctx["ndebug"]:
        # A build without NDEBUG runs the lock-rank checker on every lock.
        log("refusing to report: perfbench was built without NDEBUG")
        return 1

    attempted, failures = check.check_run(raw)
    if args.trace:
        values = metrics.per_layer(raw, spans)
        if ctx["workload"] == "tpcd":
            n, more = check.check_children_fit(spans)
            attempted += n
            failures += more
        units = metrics.PER_LAYER_UNITS
        names = [n for n, _ in metrics.PER_LAYER]
    else:
        values, samples = metrics.end_to_end(raw)
        units = metrics.END_TO_END_UNITS
        names = [n for n, _, _ in metrics.END_TO_END]

    print("workload %s: nproc=%d block_cap=%d degree=%d sf=%g seed=%d "
          "build=%s version=%s" %
          (args.workload, ctx["nproc"], ctx["block_cap"], ctx["degree"],
           ctx["scale_factor"], ctx["seed"], ctx["build_type"],
           source_version()))
    for name in names:
        print("  %-36s %14.6g %s" % (name, values[name], units[name]))
    if not args.trace:
        print("  monet_tail_ms per query: " + ", ".join(
            describe_tail(v) for v in samples.values()))
    elif ctx["workload"] == "tpcd":
        other = sorted(metrics.other_kernels(raw, spans).items(),
                       key=lambda kv: -kv[1])
        print("  kernel.other.ms per round: " + ", ".join(
            "%s %.3f" % kv for kv in other))
    failed = len(failures)
    print("  %-36s %14.6g fraction (%d of %d operations failed)" %
          ("error_rate", stats.error_rate(attempted, failed), failed,
           attempted))
    for f in failures[:20]:
        print("  FAILED: " + f)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
