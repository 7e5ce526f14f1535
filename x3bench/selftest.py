#!/usr/bin/env python3
"""Self-test of the X3 benchmark: identical work per seed, clean outputs.

    python3 x3bench/selftest.py [--seconds 1] [--workload NAME]

For each workload it runs one seed twice with the traced phase on and
requires both runs to print identical machine-independent counts
(registry deltas per phase, answered cells, heap allocations per op) and
replays that agree with the server, then runs a second seed and requires
every output to be correct.
Exit status 0 when every check passed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["serve_warm", "serve_cold", "ingest_mixed", "cube_full"]


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    counts = next((json.loads(line[len("counts "):]) for line in lines
                   if line.startswith("counts ")), None)
    result = json.loads(lines[-1]) if done.returncode in (0, 2) else None
    return done.returncode, counts, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    failures = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        before = len(failures)
        first = run(workload, args.seed, args.seconds, 1)
        second = run(workload, args.seed, args.seconds, 1)
        if first[0] != 0 or second[0] != 0:
            failures.append(f"{workload}: seed {args.seed} did not run clean")
        elif first[1].get("traced.replay_mismatches", 0) != 0:
            failures.append(f"{workload}: replayed layer calls disagree with "
                            "the server's answers")
        elif first[1] != second[1]:
            differing = sorted(k for k in set(first[1]) | set(second[1])
                               if first[1].get(k) != second[1].get(k))
            failures.append(f"{workload}: counts differ between two runs of "
                            f"seed {args.seed}: {', '.join(differing)}")
        other = run(workload, args.seed + 1, args.seconds, 0)
        if other[0] != 0 or not other[2] or not other[2]["correct"]:
            failures.append(f"{workload}: seed {args.seed + 1} did not run "
                            "clean")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}",
              flush=True)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
