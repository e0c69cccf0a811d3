#!/usr/bin/env python3
"""Builds and runs the DELTA simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record --seed N

A run builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), measures the
workload's set-up in SETUP_PROBES fresh processes, runs the workload, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result with provenance is written to .bench_out/NAME-traceT.json
(traced runs also leave .bench_out/NAME-spans.csv).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_digests.txt"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step, forwarding its output to stderr."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "sim" / "chip.hpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "-j", jobs], BUILD_TIMEOUT_S)
    return out / "perfbench"


def source_revision():
    """SHA-256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_binary(exe, args, timeout=RUN_TIMEOUT_S):
    """Runs perfbench and returns its stdout lines; exits on any failure."""
    try:
        proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: perfbench {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"perfbench {' '.join(args)} printed nothing")
    return lines


def measure_setup(exe, workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        line = run_binary(exe, ["--workload", workload, "--seed", str(seed),
                                "--setup-only"])[-1]
        samples.append(json.loads(line)["setup_s"])
    return samples


def run_workload(exe, workload, seed, seconds, trace, extra=()):
    """One benchmark run: (provenance record, result object)."""
    setup = measure_setup(exe, workload, seed) if not trace else []
    lines = run_binary(exe, ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--expected", str(EXPECTED),
                             "--out-dir", str(OUT_DIR), *extra])
    if len(lines) < 2:
        fail("perfbench printed no provenance line")
    record = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record["provenance"]["source_revision"] = source_revision()
    record.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "setup_samples_s": setup, "result": result})
    return record, result


def self_test(exe):
    """A recorded digest that is wrong must be reported as failed operations;
    the true digests must pass."""
    ok = True
    for corrupt in (False, True):
        extra = ["--corrupt-expected"] if corrupt else []
        record, result = run_workload(exe, "w13_64_serial", 1, 1, 0, extra)
        checks = record["recorded_checks"]
        if corrupt:
            good = (not result["correct"] and checks > 0
                    and result["failed"] == result["attempted"])
        else:
            good = result["correct"] and checks > 0 and result["failed"] == 0
        label = "corrupted" if corrupt else "recorded"
        print(f"self-test {label} digests: attempted={result['attempted']} "
              f"failed={result['failed']} recorded_checks={checks} "
              f"-> {'ok' if good else 'WRONG'}")
        ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="print the serial-result digests of --seed")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    exe = build()
    if args.self_test:
        return self_test(exe)
    if args.record:
        print("\n".join(run_binary(exe, ["--record", "--seed", str(args.seed)],
                                   timeout=600)))
        return 0
    if not args.workload:
        fail("--workload is required")

    record, result = run_workload(exe, args.workload, args.seed, args.seconds,
                                  args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
