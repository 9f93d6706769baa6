#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload mf-stage2|durable-churn|market-sim \
        --seed N --seconds S --trace 0|1

Builds the C++ program (perfbench/CMakeLists.txt, which compiles ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use, runs the workload, and prints one line per metric followed by
a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set (see stats.py and README.md). Exits non-zero without a
result line when the program cannot be built or run.
"""

import argparse
import fcntl
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import stats  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("mf-stage2", "durable-churn", "market-sim")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the program; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 2)
        if subprocess.call(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                           stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed")
    return out / "perfbench"


def run_binary(binary, args, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("program timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("program exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("program printed nothing")
    return json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Small inputs, for the benchmark's own smoke tests.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Perturb one expected value so the output checks must fail.
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build()
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.corrupt:
        extra.append("--corrupt")
    spans_path = None
    if args.trace:
        spans_dir = build_dir() / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / ("%s-seed%d.tsv" % (args.workload, args.seed))
        extra += ["--spans", str(spans_path)]
    raw = run_binary(binary, args, extra)

    try:
        if args.trace:
            metrics = stats.per_layer(raw, stats.read_spans(spans_path))
            table = stats.PER_LAYER
        else:
            metrics = stats.end_to_end(raw)
            table = stats.END_TO_END
        info = [] if args.trace else stats.informational(args.workload, raw)
    except ValueError as e:
        fail("cannot derive metrics: %s" % e)

    for name, ok in sorted(raw["checks"].items()):
        print("check %-32s %s" % (name, "ok" if ok else "FAILED"))
    for name, value, unit in info:
        print("info  %-32s %16.6f %s" % (name, value, unit))
    for name, unit, _ in table:
        print("%-38s %16.6f %s" % (name, metrics[name], unit))
    result = {
        "correct": raw["failed"] == 0 and all(raw["checks"].values()),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
