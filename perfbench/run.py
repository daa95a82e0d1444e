#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Builds perfbench/bench.exe with dune, runs it, and prints its output
followed by a stamp line (source revision, machine, toolchain) and, last,
the result object: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, without a result line, when the checkout cannot be built
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_EXE = "_build/default/perfbench/bench.exe"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WORKLOADS = ("table1", "long-horizon", "serve-mix")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results stay
    attributable when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD, only when the working directory is itself a git top level."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return rev.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build():
    # No shared dune cache, and temporary files under _build: the build
    # writes nothing outside the checkout.
    tmp = os.path.join("_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    try:
        r = subprocess.run(["dune", "build", "--cache=disabled", "--root", ".",
                            "./perfbench/bench.exe"],
                           env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(BENCH_EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout (dune-project and lib/ not found)")
    build()
    cmd = [BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"bench.exe exited with {r.returncode}", 3)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not a result object", 3)
    for line in lines[:-1]:
        print(line)
    stamp = {"git_rev": git_rev(), "source_digest": source_digest(), "nproc": os.cpu_count()}
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
