"""Solve the golden rows and record what each one asks.

The rows are those of ``test_cheap_golden.py`` and ``test_rational_golden.py``,
each named as pytest names it.  ``record`` solves each row with
``MatroidOracle.in_closure`` patched at class level, so that every counted
closure question is recorded as ``(x, sorted ys, answer)`` in the order it
is asked.  A padded solve's view of the matroid hands each question it
cannot answer by the axioms to the matroid itself, with the pads dropped,
so the questions behind the padding are recorded as the matroid receives
them.  ``tests/test_engine_questions.py`` pins what this records, and
``tests/repin_report.py`` compares it between two trees.

Run as a script, ``python tests/golden_questions.py OUT.json`` writes every
row's record, with the path of the package it solved with, as JSON.
"""

import json
import sys
from pathlib import Path

import test_cheap_golden
import test_rational_golden

import matroid_tverberg
from matroid_tverberg import (
    MatroidOracle,
    SolveStats,
    gen_random_instance,
    solve_general,
    solve_noncolor,
    solve_special,
)


def cheap_rows():
    """(row id, family, mode, m, r, length) of each ``test_cheap_golden.py`` row."""
    for family, mode, m, r, length, _, _ in test_cheap_golden.GOLDEN:
        yield f"{family}-{mode}-m{m}-r{r}-len{length}", family, mode, m, r, length


def rational_rows():
    """(row id, family, profile, m, r = m, length) of each ``test_rational_golden.py`` row."""
    for family, profile, m, length, _, _ in test_rational_golden.GOLDEN:
        yield f"{family}-{profile}-m{m}-len{length}", family, profile, m, m, length


def row_instance(family, mode, m, r, length):
    """The generated instance of one golden row; a noncolor row takes the general one."""
    profile = "general" if mode == "noncolor" else mode
    return gen_random_instance(family, m, r, length, 1, profile)


def solve_row(family, mode, m, r, length, stats):
    """The partition of one golden row, solved as its golden test solves it."""
    inst = row_instance(family, mode, m, r, length)
    matroid, seq = inst.build_matroid(), inst.build_sequence()
    if mode == "noncolor":
        return solve_noncolor(matroid, seq, r, stats=stats)
    solver = solve_general if mode == "general" else solve_special
    return solver(matroid, seq, inst.build_coloring(), r, stats=stats)


def record(rows):
    """Each row's questions, in order, and the partition and stats of its solve.

    Returns ``{row id: (questions, partition, stats)}``, each question an
    ``(x, sorted ys, answer)`` triple.  The patch is undone on return.
    """
    asked = []
    in_closure = MatroidOracle.in_closure

    def recorded(self, x, ys):
        answer = in_closure(self, x, ys)
        asked.append((x, sorted(ys), answer))
        return answer

    MatroidOracle.in_closure = recorded
    try:
        records = {}
        for row_id, *row in rows:
            asked = []
            stats = SolveStats()
            partition = solve_row(*row, stats)
            records[row_id] = (asked, partition, stats)
        return records
    finally:
        MatroidOracle.in_closure = in_closure


def _dump(path):
    rows = {}
    for name, source in (("cheap", cheap_rows), ("rational", rational_rows)):
        for row_id, (questions, partition, stats) in record(source()).items():
            rows[f"{name}/{row_id}"] = {
                "parts": [list(part) for part in partition.part_indices()],
                "oracle_calls": stats.oracle_calls,
                "cycle_iterations": stats.cycle_iterations,
                "restarts": stats.restarts,
                "recursion_depth": stats.recursion_depth,
                "invariant_checks": stats.invariant_checks,
                "events": [f"{depth} {label}" for depth, label, _ in stats.events],
                "questions": [repr(question) for question in questions],
            }
    report = {"package": str(Path(matroid_tverberg.__file__).resolve()), "rows": rows}
    Path(path).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    _dump(sys.argv[1])
