#!/usr/bin/env python3
"""The repo benchmark's one command.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src in
Release) into .bench_build/, runs one workload and checks its result line:

    python3 perfbench/run.py --workload kv_ycsb_a --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to .bench_build/spans/). The last line
of standard output is the result: {"correct", "attempted", "failed",
"metrics"}. The exit code is nonzero when any operation failed or
mismatched, when a determinism check failed, or when the result line does
not match BENCHMARK.json.

    python3 perfbench/run.py --workload all --seed 1 --seconds 10

runs every workload, untraced and traced, in one process.

    python3 perfbench/run.py --self-test

runs the benchmark's own unit tests and checks that the metrics the binary
prints are exactly those BENCHMARK.json lists, with the same units.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark (both no-ops when up to date);
    returns the build dir."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "e2bench", "e2bench_test"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            sys.exit(2)
    return BUILD_DIR


def check_result(line, spec, trace):
    """Returns a list of problems with one result line (empty when valid)."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"result line is not JSON: {e}"]
    problems = []
    if not isinstance(res, dict) or set(res) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not exactly correct/attempted/failed/metrics"]
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("attempted is below 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"] if isinstance(res["metrics"], dict) else {}
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} is not {{value, unit}}")
            continue
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            problems.append(f"metric {name} has a non-numeric value {v!r}")
        if name in want and m["unit"] != want[name]:
            problems.append(f"metric {name} unit {m['unit']!r} != "
                            f"{want[name]!r}")
    return problems


def run_one(binary, args, spec):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD_DIR / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        # One file per workload: each traced run replaces the last one's.
        cmd += ["--spans", str(spans / f"{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 and not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"e2bench exited with {proc.returncode} and no result")
        return proc.returncode
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], spec, args.trace)
    for p in problems:
        log(p)
    print(lines[-1], flush=True)
    if problems:
        return 3
    return proc.returncode


def run_all(binary, args, spec):
    cmd = [str(binary), "--workload", "all", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    bad = 0
    for line in proc.stdout.splitlines():
        m = re.match(r"^result (\S+) trace=([01]) (\{.*\})$", line)
        if not m:
            continue
        for p in check_result(m.group(3), spec, int(m.group(2))):
            log(f"{m.group(1)} trace={m.group(2)}: {p}")
            bad += 1
    return proc.returncode or (3 if bad else 0)


def self_test(build_dir, spec):
    failures = 0
    proc = subprocess.run([str(build_dir / "e2bench_test")])
    failures += proc.returncode != 0

    # Every printed metric name appears in BENCHMARK.json, with its unit,
    # and matches the name pattern; BENCHMARK.json lists nothing more.
    out = subprocess.run([str(build_dir / "e2bench"), "--list-metrics"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    printed = {"end_to_end": {}, "per_layer": {}}
    for line in out.splitlines():
        kind, name, unit = line.split()
        printed[kind][name] = unit
    for kind, metrics in printed.items():
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        for name, unit in metrics.items():
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                log(f"{kind} metric {name} [{unit}] breaks the name rules")
                failures += 1
            if listed.get(name) != unit:
                log(f"{kind} metric {name} [{unit}] is not in BENCHMARK.json")
                failures += 1
        for name in set(listed) - set(metrics):
            log(f"BENCHMARK.json lists {kind} metric {name}, never printed")
            failures += 1

    # The result-line checker rejects what it should.
    good = json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                                   for m in spec["end_to_end"]}})
    cases = [(good, True),
             (good.replace('"attempted": 3', '"attempted": 0'), False),
             (good.replace('"value": 1.5', '"value": NaN', 1), False),
             (json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {}}), False)]
    for line, ok in cases:
        if (not check_result(line, spec, 0)) != ok:
            log(f"result checker misjudged: {line[:80]}...")
            failures += 1

    for m in spec["end_to_end"]:
        if m["bound"] > 0.25:
            log(f"bound of {m['name']} exceeds 0.25")
            failures += 1
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        log("BENCHMARK.json has no setup_s")
        failures += 1
    print(f"self-test: {'ok' if failures == 0 else f'{failures} failure(s)'}")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be a whole number >= 0")

    t0 = time.monotonic()
    build_dir = build()
    log(f"build ready in {time.monotonic() - t0:.1f} s")
    if args.self_test:
        return self_test(build_dir, spec)
    if args.workload == "all":
        return run_all(build_dir / "e2bench", args, spec)
    return run_one(build_dir / "e2bench", args, spec)


if __name__ == "__main__":
    sys.exit(main())
