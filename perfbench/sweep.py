#!/usr/bin/env python3
"""Repeat benchmark runs to measure their spread, or compare two hash seeds.

Run from the root of a checkout; each run is a separate ``perfbench/run.py``
process, started only after the previous one has exited.

    python3 perfbench/sweep.py spread --workload referee --seeds 1-10
    python3 perfbench/sweep.py hashseed --workload noncolor-long --seed 1 --hash-seeds 1,2

``spread`` prints, per end-to-end metric, the median of the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound in ``BENCHMARK.json``.  ``hashseed`` runs one
seed under two ``PYTHONHASHSEED`` values and reports whether the partition
digests agree and how far ``oracle_calls`` moved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORTS = os.path.join(ROOT, ".bench_build", "perfbench")


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload, seed, seconds, trace, env=None):
    """One benchmark run in its own process; returns (final JSON line, full report)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(argv)}\n{proc.stderr}")
    with open(os.path.join(REPORTS, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    return json.loads(lines[-1]), report


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    values = {}
    for seed in _seeds(args.seeds):
        final, report = _run(args.workload, seed, args.seconds, 0)
        for name, metric in final["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: hash seed {report['meta']['pythonhashseed']}, "
              f"passes {report['passes']}, failed {final['failed']}/{final['attempted']}, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in final["metrics"].items()), flush=True)
    summary = {}
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        share = (q3 - q1) / median
        summary[name] = {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": share}
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  above a third of the bound"
        print(f"{name:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.2%} {bound!s:>6}{flag}")
    out = os.path.join(REPORTS, f"sweep-{args.workload}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    print(f"written to {out}")


def hashseed(args):
    results = []
    for value in args.hash_seeds.split(","):
        env = dict(os.environ, PYTHONHASHSEED=value)
        final, report = _run(args.workload, args.seed, args.seconds, 0, env=env)
        calls = final["metrics"]["oracle_calls"]["value"]
        results.append((value, report["digest"], calls))
        print(f"PYTHONHASHSEED={value}: digest {report['digest']} oracle_calls {calls}", flush=True)
    digests = {digest for _, digest, _ in results}
    counts = [calls for _, _, calls in results]
    print(f"digests {'identical' if len(digests) == 1 else 'DIFFER'}; "
          f"oracle_calls range {min(counts)}..{max(counts)} "
          f"({(max(counts) - min(counts)) / min(counts):.4%} of the lowest)")
    return 0 if len(digests) == 1 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=30)
    p.set_defaults(func=spread)
    p = sub.add_parser("hashseed")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--hash-seeds", default="1,2")
    p.add_argument("--seconds", type=float, default=1)
    p.set_defaults(func=hashseed)
    args = parser.parse_args()
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
