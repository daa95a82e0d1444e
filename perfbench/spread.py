#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload table1 --seeds 1-10 [--out runs.json]

For every metric: the median over seeds, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median, set against the metric's bound in BENCHMARK.json.
Run from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    result = lines[-1]
    for extra in lines[:-1]:
        for key in ("info", "stamp"):
            result.setdefault(key, {}).update(extra.get(key, {}))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(a.seeds):
        r = run(a.workload, seed, seconds, a.trace)
        results.append({"seed": seed, **r})
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr, flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "seconds": seconds, "trace": a.trace,
                       "runs": results}, f, indent=1)
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        bound = bounds.get(name)
        print(f"{name:<30} {statistics.median(vals):>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{quartile_spread(vals):>8.3f} {bound if bound is not None else '-':>6}")
    if not all(r["correct"] for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
