#!/usr/bin/env python3
"""Builds the X3 benchmark and runs its workloads, one process each.

    python3 x3bench/run.py --workload serve_warm --seed 1 --seconds 15 --trace 0
    python3 x3bench/run.py --workload all --seed 1

Run it from the root of a checkout. It compiles the library from src/
together with the x3bench binary (x3bench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), then starts x3bench once per
workload with $TMPDIR inside the build directory, so data files and
spill files stay in the checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones, and the Chrome trace and
per-layer table are written under <build>/out/.

Exit status: 0 when every output was correct, 2 when one was wrong, 1
when the benchmark could not be built or run (no result is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["serve_warm", "serve_cold", "ingest_mixed", "cube_full"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A workload process still running after this is stopped; a traced run
# takes about a minute.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else Path.cwd() / path


def build(out):
    """Configures and builds x3bench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("x3bench: no X3 sources next to the benchmark (src/ missing)")
        return None
    tree = out / "x3bench"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (tree / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", str(tree), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("x3bench: build step failed:", " ".join(step))
            return None
    binary = tree / "x3bench"
    return binary if binary.is_file() else None


def run_workload(binary, out, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, result) or None."""
    tmp = out / "tmp" / f"{workload}-{os.getpid()}"
    results = out / "out" / f"{workload}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--tmp-dir={tmp}", f"--out-dir={results}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"x3bench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 2) or not lines:
        log(f"x3bench: {workload} exited with {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"x3bench: {workload} printed no result")
        return None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    binary = build(out)
    if binary is None:
        return 1
    log(f"x3bench: build ready after {time.monotonic() - started:.1f} s")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    outcomes = {}
    for workload in workloads:
        outcome = run_workload(binary, out, workload, args.seed,
                               args.seconds, args.trace)
        if outcome is None:
            return 1
        outcomes[workload] = outcome

    if len(workloads) == 1:
        code, result = outcomes[workloads[0]]
        print(json.dumps(result))
        return code
    combined = {"correct": all(r["correct"] for _, r in outcomes.values()),
                "attempted": sum(r["attempted"] for _, r in outcomes.values()),
                "failed": sum(r["failed"] for _, r in outcomes.values()),
                "metrics": {f"{w}.{name}": m
                            for w, (_, r) in outcomes.items()
                            for name, m in r["metrics"].items()}}
    print(json.dumps(combined))
    return 0 if all(code == 0 for code, _ in outcomes.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
