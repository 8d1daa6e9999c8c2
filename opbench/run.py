#!/usr/bin/env python3
"""CRES operator benchmark: build opbench from source, run one workload.

Usage (from the root of a checkout):

  python3 opbench/run.py --workload <name> --seed <n> --seconds <s>
                         --trace <0|1>
  python3 opbench/run.py --report [--seed <n>] [--seconds <s>]
  python3 opbench/run.py --selftest

The first form prints opbench's provenance and report lines and, as its
last line, one JSON object {correct, attempted, failed, metrics}. --report
runs every workload untraced and traced and prints every metric with its
unit, the error rate, the exact counts and the tracing overhead. --selftest
runs the determinism self-test. Metric definitions: opbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "opbench"
BUILD = ROOT / ".bench_build" / "opbench"
RESULTS = ROOT / ".bench_build" / "opbench-results"
BINARY = BUILD / "opbench"
WORKLOADS = ("campaign", "estate_idle", "control_busy")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures and builds the Release opbench binary; exits on failure."""
    for cmd in (["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", str(jobs())]):
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout)
            log("opbench: build failed:", " ".join(cmd))
            sys.exit(2)


def commit_id():
    """The git commit, or a digest of the sources when not a git checkout."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "opbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "source-sha256:" + digest.hexdigest()[:16]


def run_opbench(workload, seed, seconds, trace):
    """Runs one workload; returns opbench's stdout lines."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit_id()]
    if trace:
        cmd += ["--trace-out",
                str(RESULTS / f"spans-{workload}-seed{seed}.json")]
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"opbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(3)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(result.stdout)
        log(f"opbench: exited with {result.returncode}")
        sys.exit(result.returncode or 4)
    final = json.loads(lines[-1])
    if sorted(final) != ["attempted", "correct", "failed", "metrics"]:
        log("opbench: malformed result line:", lines[-1])
        sys.exit(5)
    return lines


def report(seed, seconds):
    """Every metric of every workload, untraced then traced."""
    for workload in WORKLOADS:
        untraced = run_opbench(workload, seed, seconds, 0)
        traced = run_opbench(workload, seed, seconds, 1)
        rep = json.loads(untraced[-2])["report"]
        final = json.loads(untraced[-1])
        print(f"\n== {workload}: {rep['devices']} devices, "
              f"{rep['epochs']} epochs of {rep['epoch_cycles']} cycles, "
              f"{rep['episodes']} episode(s), {rep['setup_samples']} set-ups")
        print(f"   checks: {final['attempted']} attempted, "
              f"{final['failed']} failed, correct={final['correct']}")
        for name, m in rep["metrics"].items():
            print(f"   {name:24s} {m['value']:>16.6g} {m['unit']}")
        layers = json.loads(traced[-1])["metrics"]
        for name, m in layers.items():
            print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")
        rate = rep["metrics"]["node_cycles_per_s"]["value"]
        traced_rate = layers["trace.node_cycles_per_s"]["value"]
        print(f"   tracing overhead (untraced/traced node_cycles_per_s): "
              f"{rate / traced_rate:.4f}")
        for name, value in rep["exact"].items():
            print(f"   exact {name:28s} {value}")
        for failure in rep["failures"]:
            print(f"   FAILED CHECK: {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.report or args.selftest or args.workload):
        parser.error("one of --workload, --report or --selftest is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BINARY), "--selftest"], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.report:
        report(args.seed, args.seconds)
        return
    for line in run_opbench(args.workload, args.seed, args.seconds,
                           args.trace):
        print(line, flush=True)


if __name__ == "__main__":
    main()
