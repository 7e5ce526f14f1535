#!/usr/bin/env python3
"""Captures the perf trajectory of the figure benchmarks (ROADMAP item 4).

Runs the fig5/fig6 figure benchmarks in two memory configurations (an
ample budget of 2x the fact table, and a constrained budget of 0.25x
that forces the external-sort spill path), and records wall-clock plus
the machine-independent footprint counters the bench harness exports
(cells, factKB, peakMemKB, spillKB) into a BENCH_<n>.json snapshot.

A snapshot holds up to two sides, `before` and `after`, so a refactor
PR can capture the pre-change tree first and the post-change tree
second and the delta is reviewable in one file (see BENCH_1.json: the
row-major -> columnar FactTable refactor).

Commands:
  capture  --build-dir DIR --out FILE --side {before,after} --label TXT
           [--trees N] [--min-time T]
      Runs the benchmarks and writes/updates one side of the snapshot.
  check    --baseline FILE --build-dir DIR [--tolerance PCT] [--min-time T]
      CI regression gate: re-runs the benchmarks at the scale recorded
      in the baseline's `after` (or only) side and fails if any
      machine-independent counter regressed: cells must match exactly,
      factKB / peakMemKB / spillKB must not exceed the recorded value
      by more than the tolerance (default 10%, plus a small absolute
      slack for near-zero values). Wall-clock is reported but not
      gated: CI machines vary too much for cross-machine time gates,
      and the counters are what the refactor actually promises.
  report   --baseline FILE
      Prints the before/after footprint table (EXPERIMENTS.md source).
  capture-delta  --build-dir DIR --out FILE --label TXT [--trees N]
                 [--min-time T]
      Runs bench_delta (delta cube maintenance vs full rematerialize vs
      budget-constrained TDCUST recompute over a committed small batch)
      and writes a BENCH_<n>.json snapshot with per-batch-size wall
      times, speedups and the spill delta. Cell-exactness of the delta
      path against the rebuild is asserted inside the binary at startup
      (X3_CHECK), so every recorded row compares provably identical
      cells.
  capture-server  --build-dir DIR --out FILE --label TXT [--queries N]
                  [--seed S] [--trees N] [--articles N] [--cache-kb N]
      Runs the bench_server serving-layer driver single-client (so the
      cache outcome of the seeded query mix is deterministic) and
      writes a BENCH_<n>.json snapshot of the machine-independent
      serving counters: queries, cache exact hits / roll-ups / misses /
      served, evictions, stuck queries, and the cube computations the
      misses ran with the cells those produced. --cache-kb sizes the
      server's cuboid cache (a cold lane: --cache-kb=1 makes most
      queries miss) and is stored in the config. Wall-clock and latency
      percentiles are recorded informationally.
  check-server  --baseline FILE --build-dir DIR
      CI regression gate for the serving layer: re-runs bench_server
      with the config recorded in the baseline (scale, seed, cache
      size; a baseline without cache_kb ran at bench_server's default)
      and fails if any counter the baseline gates changed — the
      cache/admission/observability wiring must answer the same seeded
      workload exactly the same way. Wall-clock and percentiles are
      reported but not gated.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FIGURES = ["fig5_sparse", "fig6_dense"]
BINARY = {"fig5_sparse": "bench_fig5_sparse", "fig6_dense": "bench_fig6_dense"}
CONFIGS = {"ample": 2.0, "constrained": 0.25}
COUNTERS = ["cells", "factKB", "peakMemKB", "spillKB"]
DEFAULT_TREES = 5000

DELTA_BINARY = "bench_delta"
DELTA_COUNTERS = COUNTERS + ["facts", "newFacts", "viewsPatched",
                             "viewsRecomputed"]
DELTA_PATHS = ["DeltaMaintain", "FullRematerialize", "FullRecomputeTD"]
DELTA_DEFAULT_TREES = 2000


def run_figure(build_dir, figure, trees, budget_factor, min_time):
    """Runs one figure binary, returns {benchmark_name: metrics dict}."""
    binary = os.path.join(build_dir, "bench", BINARY[figure])
    if not os.path.exists(binary):
        sys.exit(f"bench binary not found: {binary} (build it first)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    env = dict(os.environ)
    env["X3_BENCH_TREES"] = str(trees)
    env["X3_BENCH_BUDGET_FACTOR"] = repr(budget_factor)
    try:
        subprocess.run(
            [binary, f"--benchmark_min_time={min_time}",
             f"--benchmark_out={out_path}", "--benchmark_out_format=json"],
            env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(out_path)
    results = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"]
        entry = {"real_ms": round(bench["real_time"], 3)}
        for counter in COUNTERS:
            if counter in bench:
                entry[counter] = round(bench[counter], 3)
        results[name] = entry
    return results


def summarize(figures):
    """Aggregates one side's per-benchmark metrics for the report table."""
    total_ms = 0.0
    peak_kb = 0.0
    spill_kb = 0.0
    fact_kb = 0.0
    for config_results in figures.values():
        for benchmarks in config_results.values():
            for metrics in benchmarks.values():
                total_ms += metrics["real_ms"]
                peak_kb = max(peak_kb, metrics.get("peakMemKB", 0.0))
                spill_kb += metrics.get("spillKB", 0.0)
                fact_kb = max(fact_kb, metrics.get("factKB", 0.0))
    return {
        "wall_ms_total": round(total_ms, 1),
        "peak_mem_kb_max": round(peak_kb, 1),
        "spill_kb_total": round(spill_kb, 1),
        "fact_kb_max": round(fact_kb, 1),
    }


def git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def capture_side(build_dir, trees, min_time):
    figures = {}
    for figure in FIGURES:
        figures[figure] = {}
        for config, factor in CONFIGS.items():
            print(f"  running {figure} ({config}, factor {factor}, "
                  f"{trees} trees)...", flush=True)
            figures[figure][config] = run_figure(
                build_dir, figure, trees, factor, min_time)
    return figures


def cmd_capture(args):
    snapshot = {"schema": 1, "trees": args.trees, "figures": FIGURES,
                "configs": CONFIGS}
    if os.path.exists(args.out):
        with open(args.out) as f:
            snapshot = json.load(f)
        if snapshot.get("trees") != args.trees:
            sys.exit(f"{args.out} was captured at trees={snapshot.get('trees')},"
                     f" refusing to mix with trees={args.trees}")
    side = {
        "label": args.label,
        "commit": git_commit(),
        "figures": capture_side(args.build_dir, args.trees, args.min_time),
    }
    side["summary"] = summarize(side["figures"])
    snapshot[args.side] = side
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.side} side of {args.out}: {side['summary']}")


def cmd_check(args):
    with open(args.baseline) as f:
        snapshot = json.load(f)
    side = snapshot.get("after") or snapshot.get("before")
    if side is None:
        sys.exit(f"{args.baseline} has no captured side")
    trees = snapshot["trees"]
    tolerance = 1.0 + args.tolerance / 100.0
    slack_kb = 16.0  # absolute slack so near-zero baselines don't gate noise
    print(f"re-running capture at trees={trees} against "
          f"'{side['label']}' ({side['commit']})")
    current = capture_side(args.build_dir, trees, args.min_time)
    failures = []
    wall_base = 0.0
    wall_now = 0.0
    for figure, config_results in side["figures"].items():
        for config, benchmarks in config_results.items():
            for name, base in benchmarks.items():
                now = current.get(figure, {}).get(config, {}).get(name)
                if now is None:
                    failures.append(f"{name} [{config}]: benchmark vanished")
                    continue
                wall_base += base["real_ms"]
                wall_now += now["real_ms"]
                if now.get("cells") != base.get("cells"):
                    failures.append(
                        f"{name} [{config}]: cells {now.get('cells')} != "
                        f"baseline {base.get('cells')}")
                for counter in ("factKB", "peakMemKB", "spillKB"):
                    b = base.get(counter, 0.0)
                    n = now.get(counter, 0.0)
                    if n > b * tolerance + slack_kb:
                        failures.append(
                            f"{name} [{config}]: {counter} {n:.1f} > "
                            f"baseline {b:.1f} (+{args.tolerance}% + "
                            f"{slack_kb}KB slack)")
    print(f"wall-clock (informational): baseline {wall_base:.0f} ms, "
          f"now {wall_now:.0f} ms")
    if failures:
        print(f"REGRESSION: {len(failures)} counter(s) regressed vs "
              f"{args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    print(f"OK: all footprint counters within {args.tolerance}% of "
          f"{args.baseline}")


def run_delta(build_dir, trees, min_time):
    """Runs bench_delta, returns {benchmark_name: metrics dict}."""
    binary = os.path.join(build_dir, "bench", DELTA_BINARY)
    if not os.path.exists(binary):
        sys.exit(f"bench binary not found: {binary} (build it first)")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    env = dict(os.environ)
    env["X3_BENCH_TREES"] = str(trees)
    try:
        subprocess.run(
            [binary, f"--benchmark_min_time={min_time}",
             f"--benchmark_out={out_path}", "--benchmark_out_format=json"],
            env=env, check=True, stdout=subprocess.DEVNULL)
        with open(out_path) as f:
            raw = json.load(f)
    finally:
        os.unlink(out_path)
    results = {}
    for bench in raw.get("benchmarks", []):
        entry = {"real_ms": round(bench["real_time"], 3)}
        for counter in DELTA_COUNTERS:
            if counter in bench:
                entry[counter] = round(bench[counter], 3)
        results[bench["name"]] = entry
    return results


def summarize_delta(results):
    """Per batch size: the three paths' wall times, speedups, spill."""
    per_batch = {}
    for name, metrics in results.items():
        path, _, batch = name.partition("/")
        per_batch.setdefault(batch, {})[path.split("BM_", 1)[-1]] = metrics
    summary = {}
    for batch, paths in sorted(per_batch.items(), key=lambda kv: int(kv[0])):
        if any(p not in paths for p in DELTA_PATHS):
            sys.exit(f"batch size {batch}: missing one of {DELTA_PATHS}")
        delta = paths["DeltaMaintain"]
        remat = paths["FullRematerialize"]
        recompute = paths["FullRecomputeTD"]
        summary[batch] = {
            "delta_ms": delta["real_ms"],
            "rematerialize_ms": remat["real_ms"],
            "recompute_td_ms": recompute["real_ms"],
            "speedup_vs_rematerialize": round(
                remat["real_ms"] / delta["real_ms"], 2),
            "speedup_vs_recompute": round(
                recompute["real_ms"] / delta["real_ms"], 2),
            "spill_kb_saved": round(
                recompute.get("spillKB", 0.0) - delta.get("spillKB", 0.0), 1),
            "cells": delta.get("cells"),
        }
    return summary


def cmd_capture_delta(args):
    print(f"  running {DELTA_BINARY} ({args.trees} trees, "
          f"min_time={args.min_time})...", flush=True)
    results = run_delta(args.build_dir, args.trees, args.min_time)
    snapshot = {
        "schema": 1,
        "benchmark": "delta_maintenance",
        "trees": args.trees,
        "paths": DELTA_PATHS,
        "label": args.label,
        "commit": git_commit(),
        "exactness": "asserted in-binary at startup: delta-maintained "
                     "views answer every cuboid with exactly the cells "
                     "of a from-scratch rebuild",
        "results": results,
        "summary": summarize_delta(results),
    }
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}:")
    for batch, s in snapshot["summary"].items():
        print(f"  batch {batch:>3}: delta {s['delta_ms']:.2f} ms vs "
              f"rematerialize {s['rematerialize_ms']:.2f} ms "
              f"({s['speedup_vs_rematerialize']}x) vs recompute "
              f"{s['recompute_td_ms']:.2f} ms "
              f"({s['speedup_vs_recompute']}x), spill saved "
              f"{s['spill_kb_saved']} KB")


SERVER_BINARY = "bench_server"
# Deterministic under --clients=1 with a fixed seed: gated exactly.
SERVER_GATED = ["queries", "ok", "failed", "exact_hits", "rollup_answers",
                "cache_misses", "cache_served", "evictions", "stuck_queries",
                "cube_computations", "cube_result_cells"]
# Machine/timing dependent: recorded for the report, never gated.
SERVER_INFORMATIONAL = ["wall_seconds", "achieved_qps", "p50_ms", "p95_ms",
                        "p99_ms", "mean_ms", "cache_hit_rate",
                        "slow_queries"]
SERVER_DEFAULTS = {"queries": 200, "seed": 1, "trees": 200, "articles": 300,
                   "cache_kb": 256}


def run_server(build_dir, config):
    """Runs the serving-layer driver once, returns its JSON report."""
    binary = os.path.join(build_dir, "bench", SERVER_BINARY)
    if not os.path.exists(binary):
        sys.exit(f"bench binary not found: {binary} (build it first)")
    cmd = [binary, "--clients=1", "--qps=0", "--threads=1",
           f"--queries={config['queries']}", f"--seed={config['seed']}",
           f"--trees={config['trees']}", f"--articles={config['articles']}",
           "--cache-kb={}".format(
               config.get("cache_kb", SERVER_DEFAULTS["cache_kb"]))]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 2):
        print(proc.stderr, file=sys.stderr)
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(proc.stdout, file=sys.stderr)
        sys.exit(f"unparseable bench_server output: {e}")


def cmd_capture_server(args):
    config = {"queries": args.queries, "seed": args.seed,
              "trees": args.trees, "articles": args.articles,
              "cache_kb": args.cache_kb}
    print(f"  running {SERVER_BINARY} (single client, {config})...",
          flush=True)
    report = run_server(args.build_dir, config)
    snapshot = {
        "schema": 1,
        "benchmark": "server_workload",
        "config": config,
        "label": args.label,
        "commit": git_commit(),
        "gated_counters": {k: report[k] for k in SERVER_GATED},
        "informational": {k: report[k] for k in SERVER_INFORMATIONAL},
    }
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {snapshot['gated_counters']}")


def cmd_check_server(args):
    with open(args.baseline) as f:
        snapshot = json.load(f)
    if snapshot.get("benchmark") != "server_workload":
        sys.exit(f"{args.baseline} is not a capture-server snapshot")
    config = snapshot["config"]
    print(f"re-running {SERVER_BINARY} at {config} against "
          f"'{snapshot['label']}' ({snapshot['commit']})")
    report = run_server(args.build_dir, config)
    failures = []
    for counter, base in sorted(snapshot["gated_counters"].items()):
        now = report.get(counter)
        if now != base:
            failures.append(f"{counter}: {now} != baseline {base}")
    base_wall = snapshot["informational"]["wall_seconds"]
    print(f"wall-clock (informational): baseline {base_wall:.3f} s, "
          f"now {report['wall_seconds']:.3f} s; p99 "
          f"{snapshot['informational']['p99_ms']:.3f} -> "
          f"{report['p99_ms']:.3f} ms")
    if failures:
        print(f"REGRESSION: {len(failures)} serving counter(s) changed vs "
              f"{args.baseline}:")
        for failure in failures:
            print(f"  {failure}")
        sys.exit(1)
    print(f"OK: all deterministic serving counters match {args.baseline}")


def cmd_report(args):
    with open(args.baseline) as f:
        snapshot = json.load(f)
    print(f"| side | label | commit | wall ms | peak mem KB "
          f"| spill KB | fact KB |")
    print("|---|---|---|---|---|---|---|")
    for side_name in ("before", "after"):
        side = snapshot.get(side_name)
        if side is None:
            continue
        s = side["summary"]
        print(f"| {side_name} | {side['label']} | {side['commit']} "
              f"| {s['wall_ms_total']} | {s['peak_mem_kb_max']} "
              f"| {s['spill_kb_total']} | {s['fact_kb_max']} |")


def add_min_time(p):
    p.add_argument("--min-time", default="1x",
                   help="--benchmark_min_time value; the packaged "
                        "library in CI accepts the '1x' iteration form, "
                        "older local builds need a plain double (0 runs "
                        "one iteration)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--out", required=True)
    p.add_argument("--side", choices=["before", "after"], required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--trees", type=int, default=DEFAULT_TREES)
    add_min_time(p)
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("check")
    p.add_argument("--baseline", required=True)
    p.add_argument("--build-dir", default="build")
    p.add_argument("--tolerance", type=float, default=10.0)
    add_min_time(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report")
    p.add_argument("--baseline", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("capture-delta")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--out", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--trees", type=int, default=DELTA_DEFAULT_TREES)
    add_min_time(p)
    p.set_defaults(func=cmd_capture_delta)

    p = sub.add_parser("capture-server")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--out", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--queries", type=int, default=SERVER_DEFAULTS["queries"])
    p.add_argument("--seed", type=int, default=SERVER_DEFAULTS["seed"])
    p.add_argument("--trees", type=int, default=SERVER_DEFAULTS["trees"])
    p.add_argument("--articles", type=int,
                   default=SERVER_DEFAULTS["articles"])
    p.add_argument("--cache-kb", type=int,
                   default=SERVER_DEFAULTS["cache_kb"])
    p.set_defaults(func=cmd_capture_server)

    p = sub.add_parser("check-server")
    p.add_argument("--baseline", required=True)
    p.add_argument("--build-dir", default="build")
    p.set_defaults(func=cmd_check_server)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
