"""Command-line entry points.

Subcommands: ``solve`` an instance file, ``verify`` a partition file against
an instance, ``brute`` -force search an instance, ``gen-tight`` and
``gen-random`` instance generators.

Exit codes: 0 success / partition found, 2 precondition violated,
3 no partition exists (brute), 1 anything else, usage errors included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from .bruteforce import brute_force_solve
from .errors import MatroidTverbergError, ParseError, PreconditionViolated
from .instances import (
    GENERATOR_FAMILIES,
    emit_instance,
    emit_partition,
    gen_random_instance,
    gen_tight_instance,
    parse_instance,
    parse_partition,
)
from .solver import (
    SolveStats,
    solve_general,
    solve_noncolor,
    solve_special,
    verify_partition,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PRECONDITION = 2
EXIT_NO_PARTITION = 3


@dataclass
class RunReport:
    """Machine-checkable summary of one solve/brute/verify run."""

    outcome: str  # partition | no-partition | precondition-violated | verified | failed | error
    parts: list | None = None
    message: str | None = None
    oracle_calls: int = 0
    cycle_iterations: int = 0
    restarts: int = 0
    recursion_depth: int = 0
    wall_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_text(self):
        lines = [f"outcome {self.outcome}"]
        if self.message:
            lines.append(f"message {self.message}")
        lines.append(f"oracle_calls {self.oracle_calls}")
        lines.append(f"cycle_iterations {self.cycle_iterations}")
        lines.append(f"restarts {self.restarts}")
        lines.append(f"recursion_depth {self.recursion_depth}")
        lines.append(f"wall_ms {self.wall_ms:.3f}")
        for key, value in self.extra.items():
            lines.append(f"{key} {value}")
        if self.parts is not None:
            for i, indices in enumerate(self.parts):
                lines.append(f"part {i + 1}: " + " ".join(str(j) for j in indices))
        return "\n".join(lines)

    def to_json(self):
        payload = {
            "outcome": self.outcome,
            "message": self.message,
            "parts": self.parts,
            "oracle_calls": self.oracle_calls,
            "cycle_iterations": self.cycle_iterations,
            "restarts": self.restarts,
            "recursion_depth": self.recursion_depth,
            "wall_ms": self.wall_ms,
        }
        payload.update(self.extra)
        return json.dumps(payload)


def _read_text(path):
    """The UTF-8 text of an input file; undecodable bytes raise ParseError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _load(path):
    inst = parse_instance(_read_text(path))
    return inst, inst.oracle, inst.build_sequence(), inst.build_coloring()


def _solve_cost(stats):
    """The report fields a solve's ``SolveStats`` fills, however the solve ended."""
    counts = ("oracle_calls", "cycle_iterations", "restarts", "recursion_depth")
    return {name: getattr(stats, name) for name in counts} | {"wall_ms": stats.wall_time * 1000.0}


def _emit_report(report, as_json):
    print(report.to_json() if as_json else report.to_text())


def _emit_partition(partition, args, **cost):
    """Report a found partition, and write it to ``--out`` if given."""
    report = RunReport(
        outcome="partition",
        parts=[list(p) for p in partition.part_indices()],
        extra={"witness_nonloop": partition.witness_nonloop[0]},
        **cost,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(emit_partition(report.parts))
    _emit_report(report, args.json)
    return EXIT_OK


def _cmd_solve(args):
    inst, oracle, seq, coloring = _load(args.instance)
    stats = SolveStats()
    try:
        if inst.mode == "general":
            partition = solve_general(oracle, seq, coloring, inst.r, stats=stats)
        elif inst.mode == "special":
            partition = solve_special(oracle, seq, coloring, inst.r, stats=stats)
        else:
            partition = solve_noncolor(oracle, seq, inst.r, stats=stats)
    except PreconditionViolated as exc:
        report = RunReport(outcome="precondition-violated", message=str(exc), **_solve_cost(stats))
        _emit_report(report, args.json)
        return EXIT_PRECONDITION
    return _emit_partition(partition, args, **_solve_cost(stats))


def _cmd_verify(args):
    inst, oracle, seq, coloring = _load(args.instance)
    index_lists = parse_partition(_read_text(args.partition))
    known = seq.indices
    for i, indices in enumerate(index_lists):
        stray = [j for j in indices if j not in known]
        if stray:
            message = f"part {i + 1} references unknown index {stray[0]}"
            _emit_report(RunReport(outcome="error", message=message), args.json)
            return EXIT_ERROR
    parts = [seq.with_indices(indices) for indices in index_lists]
    calls0, start = oracle.oracle_calls, time.perf_counter()
    report = verify_partition(oracle, seq, coloring, inst.r, parts)
    cost = {
        "oracle_calls": oracle.oracle_calls - calls0,
        "wall_ms": (time.perf_counter() - start) * 1000.0,
    }
    if report.ok:
        _emit_report(RunReport(outcome="verified", **cost), args.json)
        return EXIT_OK
    message = f"{report.failure}: {report.detail}"
    _emit_report(RunReport(outcome="failed", message=message, **cost), args.json)
    return EXIT_ERROR


def _cmd_brute(args):
    inst, oracle, seq, coloring = _load(args.instance)
    start = time.perf_counter()
    partition = brute_force_solve(oracle, seq, coloring, inst.r)
    wall_ms = (time.perf_counter() - start) * 1000.0
    if partition is None:
        _emit_report(
            RunReport(
                outcome="no-partition",
                message="exhaustive search found no valid partition",
                oracle_calls=oracle.oracle_calls,
                wall_ms=wall_ms,
            ),
            args.json,
        )
        return EXIT_NO_PARTITION
    return _emit_partition(partition, args, oracle_calls=oracle.oracle_calls, wall_ms=wall_ms)


def _write_generated(inst, out):
    text = emit_instance(inst)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_gen_tight(args):
    return _write_generated(gen_tight_instance(args.family, args.rank, args.r), args.out)


def _cmd_gen_random(args):
    inst = gen_random_instance(
        args.family, args.rank, args.r, args.length, args.seed, args.profile
    )
    return _write_generated(inst, args.out)


class _UsageError(Exception):
    """A command line the parser rejects: an unknown command or option, or a missing operand."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that hands usage errors to ``main``.

    argparse itself exits 2 on them, the code that means "precondition
    violated"; ``main`` reports them as errors, with exit code 1.  Subparsers
    are built with the same class, so theirs go the same way.
    """

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and reused by later calls.

    Building it costs about 30 times as much as one ``parse_args``; every
    call of ``parse_args`` returns a fresh namespace, so nothing carries
    over from one ``main`` call to the next.
    """
    parser = _Parser(
        prog="matroid-tverberg",
        description="Tverberg-style partitions of colored sequences in matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--out", help="write the partition to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a partition file against an instance")
    p.add_argument("instance")
    p.add_argument("partition")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("brute", help="exhaustive partition search")
    p.add_argument("instance")
    p.add_argument("--out", help="write a found partition to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("gen-tight", help="emit the worst-case instance of length m(r-1)")
    p.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_tight)

    p = sub.add_parser("gen-random", help="emit a seeded random instance")
    p.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True, choices=("general", "special"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if [] in vars(args).values():  # Python 3.11 reads a second "--" as an empty operand
            raise _UsageError("an operand is missing")
        return args.func(args)
    except (_UsageError, MatroidTverbergError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
