"""Set-up, timed and traced passes, output checks and the printed result of one run."""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, build_calls

SETUP_ROUNDS = 5
# Timed passes repeat the same calls, and every timing is built from each
# call's median repetition across the passes (see README.md).
MIN_PASSES = 3
# Untimed calls before the first timed pass, so lazy imports and first-call
# costs that users pay once per process stay out of the timed pass.
WARMUP_CALLS = 3
# The machine's speed drifts by up to 2x over tens of seconds, the same for
# every process on it, so the listed timings are scaled to a reference speed
# (see README.md): a fixed pure-Python loop that does not touch the program
# is timed between calls about every PROBE_INTERVAL_S, and its median over
# the run is compared with PROBE_NOMINAL_S, about its median when timed on
# its own on a 2-core Xeon VM.
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 1.5e-3

END_TO_END_UNITS = {
    "scaled_wall_s": "s",
    "scaled_cpu_s": "s",
    "scaled_latency_ms.p50": "ms",
    "scaled_latency_ms.p90": "ms",
    "oracle_calls": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MEASURED_UNITS = {"wall_s": "s", "cpu_s": "s", "latency_ms.p50": "ms", "latency_ms.p90": "ms",
                  "setup_s": "s"}

PER_LAYER_UNITS = {
    "kernels.self_s": "s",
    "kernels.evals": "count",
    "matroids.self_s": "s",
    "matroids.decisions": "count",
    "matroids.distinct_queries": "count",
    "matroids.memo_hit_ratio": "ratio",
    "matroids.useful_ratio": "ratio",
    "solver.self_s": "s",
    "solver.cycle_iterations": "count",
    "solver.restarts": "count",
    "solver.recursion_depth": "count",
    "certify.self_s": "s",
    "certify.total_s": "s",
    "certify.decisions": "count",
    "instances.parse_s": "s",
    "instances.build_s": "s",
    "cli.self_s": "s",
    "bruteforce.self_s": "s",
    "bruteforce.decisions": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class PassResult:
    wall: float
    cpu: float
    latencies: list  # wall seconds, one per call
    cpu_times: list  # process CPU seconds, one per call
    outputs: list  # (exit code or None, stdout, stderr), one per call


def _probe_loop():
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Times the reference loop now and then; the median sample is the machine's speed."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self):
        t = time.perf_counter()
        _probe_loop()
        self._last = time.perf_counter()
        self.samples.append(self._last - t)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def scale(self):
        """The factor that turns a time measured in this run into one at the reference speed."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def _run_pass(calls, call_main, after_call=None):
    """One closed-loop pass: each call starts when the previous one has returned."""
    latencies = []
    cpu_times = []
    outputs = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        c = time.process_time()
        t = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = call_main(list(call.argv))
        except Exception:  # a crash is a failed call and stays in the sample
            code = None
            err.write(traceback.format_exc())
        latencies.append(time.perf_counter() - t)
        cpu_times.append(time.process_time() - c)
        outputs.append((code, out.getvalue(), err.getvalue()))
        if after_call is not None:
            after_call()
    return PassResult(
        time.perf_counter() - t0, time.process_time() - cpu0, latencies, cpu_times, outputs
    )


class Checker:
    """Checks each call's exit code and outcome, and re-verifies every partition."""

    def __init__(self, package):
        self._package = package
        self._instances = {}
        self._verdicts = {}

    def _load(self, path):
        if path not in self._instances:
            with open(path, encoding="utf-8") as handle:
                inst = self._package.parse_instance(handle.read())
            self._instances[path] = (
                inst.build_matroid(),
                inst.build_sequence(),
                inst.build_coloring(),
                inst.r,
            )
        return self._instances[path]

    def _verify(self, path, parts):
        key = (path, tuple(tuple(p) for p in parts))
        if key not in self._verdicts:
            oracle, seq, coloring, r = self._load(path)
            try:
                candidate = [seq.with_indices(p) for p in parts]
                report = self._package.verify_partition(oracle, seq, coloring, r, candidate)
                self._verdicts[key] = None if report.ok else f"{report.failure}: {report.detail}"
            except self._package.MatroidTverbergError as exc:
                self._verdicts[key] = f"parts do not fit the instance: {exc}"
        return self._verdicts[key]

    def check(self, call, code, stdout, stderr):
        """Return (report or None, failure reason or None) for one call's output."""
        if code != call.expect_exit:
            return None, f"exit {code}, expected {call.expect_exit}: {stderr.strip()[-300:]}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return None, "standard output is not one JSON report"
        if report.get("outcome") != call.expect_outcome:
            return report, f"outcome {report.get('outcome')!r}, expected {call.expect_outcome!r}"
        if call.expect_outcome == "partition":
            failure = self._verify(call.path, report.get("parts") or [])
            if failure:
                return report, f"partition fails verify_partition: {failure}"
        return report, None


def _answer(report):
    return (report.get("outcome"), report.get("parts")) if report else (None, None)


def _digest(calls, reports):
    """SHA-256 over each call's outcome and parts, in pass order."""
    h = hashlib.sha256()
    for call, report in zip(calls, reports):
        outcome, parts = _answer(report)
        h.update(f"{call.label} {outcome} {json.dumps(parts)}\n".encode())
    return h.hexdigest()


def _check_passes(checker, calls, passes):
    """Check every call of every pass; returns per-pass reports and the failures.

    A call whose outcome or parts differ from the first pass's also fails.
    """
    failures = []
    reports_by_pass = []
    for n, result in enumerate(passes):
        reports = []
        for i, (call, (code, stdout, stderr)) in enumerate(zip(calls, result.outputs)):
            report, failure = checker.check(call, code, stdout, stderr)
            if not failure and n and _answer(report) != _answer(reports_by_pass[0][i]):
                failure = "returned a different answer than in the first pass"
            reports.append(report)
            if failure:
                failures.append({"pass": n, "call": call.label, "reason": failure})
        reports_by_pass.append(reports)
    return reports_by_pass, failures


def _field_sum(reports, name):
    return sum(int(r.get(name, 0)) for r in reports if r)


def _breakdown(calls, passes, reports, scale):
    """Per (family, mode, m, r): calls, median of the calls' scaled latencies, oracle calls."""
    latencies_ms = [x * scale for x in _median_latencies_ms(passes)]
    rows = {}
    for i, call in enumerate(calls):
        row = rows.setdefault(call.cell, {"calls": 0, "latencies": [], "oracle_calls": 0})
        row["calls"] += 1
        row["latencies"].append(latencies_ms[i])
        if reports[i]:
            row["oracle_calls"] += int(reports[i].get("oracle_calls", 0))
    return [
        {
            "family": cell[0],
            "mode": cell[1],
            "m": cell[2],
            "r": cell[3],
            "calls": row["calls"],
            "scaled_latency_ms.p50": statistics.median(row["latencies"]),
            "oracle_calls": row["oracle_calls"],
        }
        for cell, row in rows.items()
    ]


def _metadata(package, args, cleared):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": package.active_backend(),
        "checks_default": getattr(package.solver, "_CHECKS_DEFAULT", None),
        "call_counting": package.matroids.call_counting_enabled(),
        "settings_cleared": cleared,
        "closed_loop": "one caller, in-process, no threads",
    }


def _setup(workload, seed, inputs, probe):
    """Write the instance files SETUP_ROUNDS times; the median round is the set-up cost."""
    rounds = []
    calls = None
    for _ in range(SETUP_ROUNDS):
        probe.sample()
        t = time.perf_counter()
        calls = build_calls(workload, seed, inputs)
        rounds.append(time.perf_counter() - t)
    probe.sample()
    return calls, rounds


def _timed_passes(calls, call_main, seconds, probe):
    """At least MIN_PASSES passes, then more while the next is predicted to end within ``seconds``."""
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() + passes[-1].wall <= deadline:
        passes.append(_run_pass(calls, call_main, probe.maybe_sample))
    return passes


def _per_call_median(passes, field):
    """Each call's median ``field`` value over the passes."""
    return [statistics.median(values) for values in zip(*(getattr(p, field) for p in passes))]


def _median_latencies_ms(passes):
    return [x * 1000.0 for x in _per_call_median(passes, "latencies")]


def _end_to_end(passes, reports_by_pass, setup_s, peak_rss_mb, scale):
    """The listed metrics, with every time scaled by ``scale``, and the times as measured."""
    latencies_ms = _median_latencies_ms(passes)
    measured = {
        "wall_s": sum(_per_call_median(passes, "latencies")),
        "cpu_s": sum(_per_call_median(passes, "cpu_times")),
        "latency_ms.p50": statistics.median(latencies_ms),
        "latency_ms.p90": statistics.quantiles(latencies_ms, n=10)[8],
        "setup_s": setup_s,
    }
    metrics = {
        "scaled_wall_s": measured["wall_s"] * scale,
        "scaled_cpu_s": measured["cpu_s"] * scale,
        "scaled_latency_ms.p50": measured["latency_ms.p50"] * scale,
        "scaled_latency_ms.p90": measured["latency_ms.p90"] * scale,
        "oracle_calls": statistics.median(_field_sum(r, "oracle_calls") for r in reports_by_pass),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s * scale,
    }
    return metrics, measured


def _per_layer(tracer, traced, untraced, reports):
    times = tracer.layer_times()
    decisions = sum(tracer.decisions)
    self_s = times["self_s"]
    return {
        "kernels.self_s": self_s["kernels"],
        "kernels.evals": tracer.kernel_evals,
        "matroids.self_s": self_s["matroids"],
        "matroids.decisions": decisions,
        "matroids.distinct_queries": tracer.distinct_queries,
        "matroids.memo_hit_ratio": 1.0 - tracer.kernel_evals / decisions if decisions else 0.0,
        "matroids.useful_ratio": tracer.distinct_queries / decisions if decisions else 0.0,
        "solver.self_s": self_s["solver"],
        "solver.cycle_iterations": _field_sum(reports, "cycle_iterations"),
        "solver.restarts": _field_sum(reports, "restarts"),
        "solver.recursion_depth": max((int(r.get("recursion_depth", 0)) for r in reports if r), default=0),
        "certify.self_s": self_s["certify"],
        "certify.total_s": times["certify_total_s"],
        "certify.decisions": tracer.decisions[LAYERS.index("certify")],
        "instances.parse_s": times["parse_s"],
        "instances.build_s": times["build_s"],
        "cli.self_s": self_s["cli"],
        "bruteforce.self_s": self_s["bruteforce"],
        "bruteforce.decisions": tracer.decisions[LAYERS.index("bruteforce")],
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
    }, times


def _print_table(title, values, units):
    print(title)
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}")


def run(package, args, *, import_rounds, cleared, out_dir):
    """One benchmark run; prints the result as the last line and returns the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-{args.seed}-", dir=out_dir)
    probe = SpeedProbe()
    try:
        calls, setup_rounds = _setup(args.workload, args.seed, inputs, probe)
        setup_s = statistics.median(import_rounds) + statistics.median(setup_rounds)
        call_main = package.cli.main
        _run_pass(calls[:WARMUP_CALLS], call_main)

        tracer = None
        if args.trace:
            untraced = _run_pass(calls, call_main)
            tracer = Tracer()
            tracer.install(package)
            try:
                traced = _run_pass(calls, tracer.wrap("cli.main", call_main), tracer.end_call)
            finally:
                tracer.uninstall()
            passes = [untraced, traced]
        else:
            passes = _timed_passes(calls, call_main, args.seconds, probe)
        # Peak RSS of the passes, before the checks build oracles of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reports_by_pass, failures = _check_passes(Checker(package), calls, passes)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = len(calls) * len(passes)
    failed = len(failures)
    digest = _digest(calls, reports_by_pass[0])
    meta = _metadata(package, args, cleared)
    scale = probe.scale()
    result = {
        "meta": meta,
        "calls_per_pass": len(calls),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "latency_samples": len(calls),
        "setup_rounds_s": setup_rounds,
        "import_rounds_s": import_rounds,
        "probe_samples": len(probe.samples),
        "probe_median_s": statistics.median(probe.samples),
        "scale": scale,
        "digest": digest,
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "breakdown": _breakdown(calls, passes, reports_by_pass[0], scale),
    }

    print(f"perfbench {args.workload} seed {args.seed}: {len(calls)} calls x {len(passes)} passes, "
          f"PYTHONHASHSEED={meta['pythonhashseed']}, backend {meta['kernel_backend']}, "
          f"nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}")
    if args.trace:
        metrics, times = _per_layer(tracer, passes[1], passes[0], reports_by_pass[1])
        units = PER_LAYER_UNITS
        result["layer_share"] = {k: v / times["traced_s"] for k, v in times["self_s"].items()}
        result["spans"] = times["spans"]
        trace_path = os.path.join(out_dir, f"trace-{args.workload}.npz")
        tracer.write(trace_path)
        result["trace_file"] = trace_path
        if tracer.missing:
            result["untraced_entry_points"] = tracer.missing
        _print_table("per-layer metrics (traced pass; not for end-to-end numbers)", metrics, units)
        print(f"  spans {times['spans']} written to {trace_path}")
        print("  share of traced time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(result["layer_share"].items(), key=lambda kv: -kv[1])))
    else:
        metrics, measured = _end_to_end(passes, reports_by_pass, setup_s, peak_rss_mb, scale)
        result["measured"] = measured
        units = END_TO_END_UNITS
        _print_table("end-to-end metrics", {**metrics, "error_rate": result["error_rate"]},
                     {**units, "error_rate": "ratio"})
        _print_table(f"as measured, before scaling by {scale:.4f} (reference loop median "
                     f"{result['probe_median_s'] * 1000:.4f} ms over {len(probe.samples)} samples)",
                     measured, MEASURED_UNITS)
        print(f"  latency samples {len(calls)} (median of {len(passes)} passes each); setup rounds "
              + ", ".join(f"{s:.4f}" for s in setup_rounds) + " s; import rounds "
              + ", ".join(f"{s:.4f}" for s in import_rounds) + " s")
        print("  breakdown (family, mode, m, r): calls, scaled_latency_ms.p50, oracle_calls")
        for row in result["breakdown"]:
            print(f"    {row['family']:<16} {row['mode']:<9} m={row['m']:<3} r={row['r']:<3} "
                  f"{row['calls']:>4} {row['scaled_latency_ms.p50']:>10.3f} {row['oracle_calls']:>10}")
    print(f"  digest {digest}  error_rate {result['error_rate']}  failed {failed}/{attempted}")
    for failure in failures[:5]:
        print(f"  FAILED {failure['call']}: {failure['reason']}", file=sys.stderr)

    result["metrics"] = metrics
    report_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(final))
    return 0 if failed == 0 else 1

