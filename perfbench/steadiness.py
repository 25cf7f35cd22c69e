#!/usr/bin/env python3
"""Runs the benchmark on seeds 1-10 for `run_seconds` each and reports each
end-to-end metric's median and inter-quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload NAME
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)

    values = {}
    for seed in SEEDS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, flush=True)

    print("%-18s %12s %8s %8s %s" % ("metric", "median", "spread", "bound",
                                     ""))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        spread = stats.quartile_spread(v)
        flag = "" if spread <= m["bound"] / 3 else (
            "over bound/3" if spread <= m["bound"] else "OVER BOUND")
        print("%-18s %12.6g %8.4f %8.3f %s" %
              (m["name"], stats.median(v), spread, m["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
