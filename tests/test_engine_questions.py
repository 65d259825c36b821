"""The closure questions every golden solve asks, in order.

Each row of ``test_cheap_golden.py`` and ``test_rational_golden.py`` is
solved again by ``golden_questions.record``, which records every counted
closure question as ``(x, sorted ys, answer)``.  One sha256 over the
``(x, sorted ys)`` of all rows of a file, in row order, pins what is asked
and in which order.  Each row also pins the engine's counters and its
``(depth, label)`` events, written ``depth`` plus the label's first letter
(``s``panning, case ``a``, ``b``, ``c``).  A change to the engine's data
that keeps its logic must leave all of it as recorded here.
"""

import hashlib

import pytest
from golden_questions import cheap_rows, rational_rows, record


_LETTER = {"spanning": "s", "case_a": "a", "case_b": "b", "case_c": "c"}


def _pins(rows):
    """sha256 of every row's questions, and each row's counters and events."""
    digest = hashlib.sha256()
    pins = {}
    for row_id, (questions, _, stats) in record(rows).items():
        asked = [(x, ys) for x, ys, _ in questions]
        digest.update(repr((row_id, asked)).encode())
        counters = (stats.cycle_iterations, stats.restarts, stats.recursion_depth,
                    stats.invariant_checks)
        events = " ".join(f"{depth}{_LETTER[label]}" for depth, label, _ in stats.events)
        pins[row_id] = " ".join(map(str, counters)) + " | " + events
    return digest.hexdigest(), pins


# Per row: "cycle_iterations restarts recursion_depth invariant_checks | events".
CHEAP = {
    "uniform-general-m3-r3-len7": "0 0 3 0 | 1s 2s",
    "uniform-general-m3-r3-len13": "0 0 3 0 | 1s 2s",
    "uniform-general-m5-r5-len21": "4 2 5 4 | 1s 2c 2b 2s 3c 3b 3s 4s",
    "uniform-general-m5-r5-len31": "8 4 5 8 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s",
    "uniform-general-m7-r7-len43": "6 1 8 6 | 1s 2s 3s 4c 4b 4s 5c 5c 5c 5a 6s 7s",
    "uniform-general-m7-r7-len57": "9 3 7 9 | 1c 1b 1s 2s 3c 3b 3s 4s 5c 5c 5b 5s 6c 6a",
    "uniform-general-m9-r9-len73": "14 7 9 14 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s 8s",
    "uniform-general-m9-r9-len91": "15 5 10 15 | 1s 2s 3c 3b 3s 4c 4b 4c 4b 4c 4b 4s 5c 5c 5b 5s 6c 6c 6c 6a 7s 8s 9s",
    "uniform-special-m3-r3-len7": "0 0 3 0 | 1s 2s",
    "uniform-special-m3-r3-len13": "2 1 3 2 | 1s 2c 2b 2s",
    "uniform-special-m5-r5-len21": "4 2 5 4 | 1s 2c 2b 2s 3c 3b 3s 4s",
    "uniform-special-m5-r5-len31": "0 0 5 0 | 1s 2s 3s 4s",
    "uniform-special-m7-r7-len43": "6 1 8 6 | 1s 2s 3s 4c 4b 4s 5c 5c 5c 5a 6s 7s",
    "uniform-special-m7-r7-len57": "8 4 7 8 | 1s 2c 2b 2s 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s",
    "uniform-special-m9-r9-len73": "14 7 9 14 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s 8s",
    "uniform-special-m9-r9-len91": "20 8 9 20 | 1s 2c 2b 2s 3s 4c 4b 4s 5s 6c 6b 6c 6b 6s 7c 7b 7c 7c 7b 7s 8c 8b 8c 8c 8b 8c 8a",
    "uniform-noncolor-m2-r5-len9": "9 3 5 9 | 1c 1b 1s 2c 2c 2b 2s 3c 3b 3s 4c 4a",
    "uniform-noncolor-m2-r5-len13": "8 4 5 8 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s",
    "uniform-noncolor-m2-r8-len15": "14 7 8 14 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s",
    "uniform-noncolor-m2-r8-len19": "17 6 8 17 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5c 5b 5s 6c 6c 6c 6b 6s 7c 7a",
    "uniform-noncolor-m3-r4-len10": "10 5 4 10 | 1c 1b 1c 1b 1s 2c 2b 2c 2b 2s 3c 3b 3s",
    "uniform-noncolor-m3-r4-len16": "6 3 4 6 | 1c 1b 1s 2c 2b 2s 3c 3b 3s",
    "uniform-noncolor-m4-r3-len9": "7 3 3 7 | 1c 1b 1c 1c 1b 1s 2c 2b 2s",
    "uniform-noncolor-m4-r3-len17": "5 1 4 5 | 1c 1b 1c 1c 1a 2s 3s",
    "graphic-general-m3-r3-len7": "2 1 3 2 | 1c 1b 1s 2s",
    "graphic-general-m3-r3-len13": "4 2 3 4 | 1c 1b 1s 2c 2b 2s",
    "graphic-general-m5-r5-len21": "2 0 5 2 | 1s 2s 3c 3a 4s",
    "graphic-general-m5-r5-len31": "8 2 6 8 | 1c 1b 1s 2c 2b 2s 3c 3c 3c 3a 4s 5s",
    "graphic-general-m7-r7-len43": "7 3 7 7 | 1s 2s 3s 4c 4b 4s 5c 5b 5c 5c 5b 5s 6s",
    "graphic-general-m7-r7-len57": "8 4 7 8 | 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6s",
    "graphic-general-m9-r9-len73": "13 5 10 13 | 1s 2c 2b 2s 3s 4c 4b 4s 5c 5b 5s 6c 6b 6c 6b 6s 7c 7c 7a 8s 9s",
    "graphic-general-m9-r9-len91": "11 5 9 11 | 1s 2c 2b 2s 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7c 7b 7s 8s",
    "graphic-special-m3-r3-len7": "2 1 3 2 | 1c 1b 1s 2s",
    "graphic-special-m3-r3-len13": "0 0 3 0 | 1s 2s",
    "graphic-special-m5-r5-len21": "2 0 5 2 | 1s 2s 3c 3a 4s",
    "graphic-special-m5-r5-len31": "0 0 5 0 | 1s 2s 3s 4s",
    "graphic-special-m7-r7-len43": "7 3 7 7 | 1s 2s 3s 4c 4b 4s 5c 5b 5c 5c 5b 5s 6s",
    "graphic-special-m7-r7-len57": "4 2 7 4 | 1s 2s 3s 4c 4b 4s 5s 6c 6b 6s",
    "graphic-special-m9-r9-len73": "13 5 10 13 | 1s 2c 2b 2s 3s 4c 4b 4s 5c 5b 5s 6c 6b 6c 6b 6s 7c 7c 7a 8s 9s",
    "graphic-special-m9-r9-len91": "16 8 9 16 | 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5s 6c 6b 6s 7c 7b 7s 8c 8b 8c 8b 8c 8b 8s",
    "graphic-noncolor-m2-r5-len9": "12 3 5 12 | 1c 1b 1s 2c 2b 2s 3c 3c 3c 3c 3c 3b 3s 4c 4a",
    "graphic-noncolor-m2-r5-len13": "9 4 5 9 | 1c 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s",
    "graphic-noncolor-m2-r8-len15": "21 6 8 21 | 1c 1c 1b 1s 2c 2b 2s 3c 3c 3b 3s 4c 4c 4c 4b 4s 5c 5c 5b 5s 6c 6c 6c 6b 6s 7c 7a",
    "graphic-noncolor-m2-r8-len19": "14 7 8 14 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s",
    "graphic-noncolor-m3-r4-len10": "6 3 4 6 | 1c 1b 1s 2c 2b 2s 3c 3b 3s",
    "graphic-noncolor-m3-r4-len16": "8 3 4 8 | 1c 1c 1b 1s 2c 2c 2b 2s 3c 3b 3s",
    "graphic-noncolor-m4-r3-len9": "5 1 4 5 | 1c 1b 1c 1c 1a 2s 3s",
    "graphic-noncolor-m4-r3-len17": "4 1 3 4 | 1c 1b 1s 2c 2a",
    "vector_gf2-general-m3-r3-len7": "2 1 3 2 | 1s 2c 2b 2s",
    "vector_gf2-general-m3-r3-len13": "2 1 3 2 | 1c 1b 1s 2s",
    "vector_gf2-general-m5-r5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_gf2-general-m5-r5-len31": "6 3 5 6 | 1s 2c 2b 2s 3c 3b 3c 3b 3s 4s",
    "vector_gf2-general-m7-r7-len43": "2 1 7 2 | 1s 2s 3s 4s 5c 5b 5s 6s",
    "vector_gf2-general-m7-r7-len57": "8 4 7 8 | 1c 1b 1s 2c 2b 2c 2b 2s 3s 4s 5c 5b 5s 6s",
    "vector_gf2-general-m9-r9-len73": "2 1 9 2 | 1s 2s 3s 4s 5s 6s 7s 8c 8b 8s",
    "vector_gf2-general-m9-r9-len91": "10 4 10 10 | 1s 2s 3s 4s 5c 5b 5s 6c 6b 6c 6b 6s 7c 7b 7s 8c 8a 9s",
    "vector_gf2-special-m3-r3-len7": "2 1 3 2 | 1s 2c 2b 2s",
    "vector_gf2-special-m3-r3-len13": "2 1 3 2 | 1s 2c 2b 2s",
    "vector_gf2-special-m5-r5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_gf2-special-m5-r5-len31": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_gf2-special-m7-r7-len43": "2 1 7 2 | 1s 2s 3s 4s 5c 5b 5s 6s",
    "vector_gf2-special-m7-r7-len57": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "vector_gf2-special-m9-r9-len73": "2 1 9 2 | 1s 2s 3s 4s 5s 6s 7s 8c 8b 8s",
    "vector_gf2-special-m9-r9-len91": "0 0 9 0 | 1s 2s 3s 4s 5s 6s 7s 8s",
    "vector_gf2-noncolor-m2-r5-len9": "11 4 5 11 | 1c 1b 1s 2c 2c 2b 2s 3c 3c 3c 3b 3s 4c 4b 4s",
    "vector_gf2-noncolor-m2-r5-len13": "11 4 5 11 | 1c 1b 1s 2c 2c 2b 2s 3c 3c 3c 3b 3s 4c 4b 4s",
    "vector_gf2-noncolor-m2-r8-len15": "16 7 8 16 | 1c 1b 1s 2c 2c 2b 2s 3c 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s",
    "vector_gf2-noncolor-m2-r8-len19": "14 7 8 14 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7c 7b 7s",
    "vector_gf2-noncolor-m3-r4-len10": "7 3 4 7 | 1c 1c 1b 1s 2c 2b 2s 3c 3b 3s",
    "vector_gf2-noncolor-m3-r4-len16": "8 2 5 8 | 1c 1c 1c 1b 1s 2c 2b 2s 3c 3a 4s",
    "vector_gf2-noncolor-m4-r3-len9": "7 2 4 7 | 1c 1b 1c 1c 1b 1s 2c 2a 3s",
    "vector_gf2-noncolor-m4-r3-len17": "6 3 3 6 | 1c 1b 1c 1b 1s 2c 2b 2s",
}

RATIONAL = {
    "vector_rational-general-m3-len7": "0 0 3 0 | 1s 2s",
    "vector_rational-general-m3-len13": "0 0 3 0 | 1s 2s",
    "vector_rational-general-m4-len13": "0 0 4 0 | 1s 2s 3s",
    "vector_rational-general-m4-len21": "4 2 4 4 | 1s 2c 2b 2s 3c 3b 3s",
    "vector_rational-general-m5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_rational-general-m5-len31": "6 3 5 6 | 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s",
    "vector_rational-general-m6-len31": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "vector_rational-general-m6-len43": "6 3 6 6 | 1c 1b 1s 2s 3c 3b 3s 4c 4b 4s 5s",
    "vector_rational-general-m7-len43": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "vector_rational-general-m7-len57": "6 3 7 6 | 1c 1b 1s 2c 2b 2s 3s 4c 4b 4s 5s 6s",
    "vector_rational-general-m8-len57": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
    "vector_rational-general-m8-len73": "12 6 8 12 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7s",
    "vector_rational-special-m3-len7": "0 0 3 0 | 1s 2s",
    "vector_rational-special-m3-len13": "0 0 3 0 | 1s 2s",
    "vector_rational-special-m4-len13": "0 0 4 0 | 1s 2s 3s",
    "vector_rational-special-m4-len21": "0 0 4 0 | 1s 2s 3s",
    "vector_rational-special-m5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_rational-special-m5-len31": "0 0 5 0 | 1s 2s 3s 4s",
    "vector_rational-special-m6-len31": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "vector_rational-special-m6-len43": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "vector_rational-special-m7-len43": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "vector_rational-special-m7-len57": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "vector_rational-special-m8-len57": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
    "vector_rational-special-m8-len73": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
    "affine_rational-general-m3-len7": "0 0 3 0 | 1s 2s",
    "affine_rational-general-m3-len13": "0 0 3 0 | 1s 2s",
    "affine_rational-general-m4-len13": "0 0 4 0 | 1s 2s 3s",
    "affine_rational-general-m4-len21": "4 2 4 4 | 1s 2c 2b 2s 3c 3b 3s",
    "affine_rational-general-m5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "affine_rational-general-m5-len31": "6 3 5 6 | 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s",
    "affine_rational-general-m6-len31": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "affine_rational-general-m6-len43": "6 3 6 6 | 1c 1b 1s 2s 3c 3b 3s 4c 4b 4s 5s",
    "affine_rational-general-m7-len43": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "affine_rational-general-m7-len57": "6 3 7 6 | 1c 1b 1s 2c 2b 2s 3s 4c 4b 4s 5s 6s",
    "affine_rational-general-m8-len57": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
    "affine_rational-general-m8-len73": "12 6 8 12 | 1c 1b 1s 2c 2b 2s 3c 3b 3s 4c 4b 4s 5c 5b 5s 6c 6b 6s 7s",
    "affine_rational-special-m3-len7": "0 0 3 0 | 1s 2s",
    "affine_rational-special-m3-len13": "0 0 3 0 | 1s 2s",
    "affine_rational-special-m4-len13": "0 0 4 0 | 1s 2s 3s",
    "affine_rational-special-m4-len21": "0 0 4 0 | 1s 2s 3s",
    "affine_rational-special-m5-len21": "0 0 5 0 | 1s 2s 3s 4s",
    "affine_rational-special-m5-len31": "0 0 5 0 | 1s 2s 3s 4s",
    "affine_rational-special-m6-len31": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "affine_rational-special-m6-len43": "0 0 6 0 | 1s 2s 3s 4s 5s",
    "affine_rational-special-m7-len43": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "affine_rational-special-m7-len57": "0 0 7 0 | 1s 2s 3s 4s 5s 6s",
    "affine_rational-special-m8-len57": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
    "affine_rational-special-m8-len73": "0 0 8 0 | 1s 2s 3s 4s 5s 6s 7s",
}


@pytest.mark.parametrize(
    "rows, digest, pinned",
    [
        (cheap_rows, "19a8a211f20a0021fe52e175d0b837b32e35ac647ee06361a83d86dd8f4f8f88", CHEAP),
        (rational_rows, "224406952bdd5ed8c5ae0688aee68e497c1882c6245de5c368a627c933b6554b", RATIONAL),
    ],
    ids=["cheap", "rational"],
)
def test_golden_solves_ask_the_pinned_questions(rows, digest, pinned):
    recorded_digest, pins = _pins(rows())
    assert pins == pinned
    assert recorded_digest == digest
