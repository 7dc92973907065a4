#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the P2Auth libraries and the benchmark driver from source (Release,
into the build directory below), runs one workload in one process, checks
the driver's result against BENCHMARK.json and prints it as the last line
of standard output:

    python3 perfbench/run.py --workload device_mixed --seed 1 \
        --seconds 25 --trace 0

Run from the repository root.  The build directory is $CARGO_TARGET_DIR
when set (relative paths are taken from the repository root), else
.bench_build.  Store files go to <build dir>/tmp under per-process names
and are removed when the run ends.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("device_mixed", "enroll_publish")
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir, jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no P2Auth sources under {ROOT / 'src'}")
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "p2auth_perfbench", "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return out_dir / "p2auth_perfbench"


def build_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def validate(result, spec, trace):
    """Checks one driver result against BENCHMARK.json; returns the
    result reduced to its four reported keys."""
    declared = spec["per_layer" if trace else "end_to_end"]
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise BenchError(f"result lacks '{key}'")
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise BenchError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("nothing was attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise BenchError(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in want.items():
        entry = metrics[name]
        value = entry.get("value")
        if entry.get("unit") != unit:
            raise BenchError(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError(f"{name}: value {value!r} is not a finite number")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in want.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        spec = load_spec()
        out_dir = build_dir()
        binary = build(out_dir, build_jobs())
        # The driver sets its own thread budget and SIMD backend.
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--tmpdir", str(out_dir / "tmp")]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise BenchError(f"driver exited with {done.returncode}")
        raw = json.loads(lines[-1])
        result = validate(raw, spec, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 2
    print("# perfbench " + json.dumps(raw.get("info", {}), sort_keys=True))
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        log(f"outputs are wrong: {raw.get('info', {}).get('mismatches')}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
