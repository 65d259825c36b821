"""Property: on any mutation of a valid file, the CLI keeps its exit-code contract.

Small seeded instance files of every generator family, in all three modes,
plus one direct sum, and the partition files their solutions give, are
mutated up to three times: a line is dropped, repeated or swapped, a
number is replaced by a small integer, or any token by a small integer, a
fraction, an element id, a keyword or junk.  ``solve --json`` on the
mutated instance and ``verify --json`` on a mutated instance and
partition pair must return 0, 1, 2 or 3 without raising, and whatever they
print to standard output must be JSON.  Values stay small, so no mutated
file asks for a large matroid or a long search.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from matroid_tverberg import gen_random_instance, solve_general, solve_noncolor, solve_special
from matroid_tverberg.cli import main
from matroid_tverberg.instances import (
    FAMILIES,
    GENERATOR_FAMILIES,
    MODES,
    emit_instance,
    emit_partition,
    parse_instance,
)

DIRECT_SUM = (
    "mode noncolor\nr 2\nmatroid direct_sum {\n left uniform {\n  k 1\n  n 2\n }\n"
    " right graphic {\n  vertices 3\n  edge g1 0 1\n  edge g2 1 2\n }\n}\n"
    "sequence e0 e1 g1 g2\n"
)


def _seed_files():
    """(instance text, partition text) pairs, each partition solved from its instance."""
    texts = [DIRECT_SUM]
    for k, family in enumerate(GENERATOR_FAMILIES):
        for mode in MODES:
            profile = "general" if mode == "noncolor" else mode
            inst = gen_random_instance(family, 2, 3, 7 if profile == "special" else 5, k, profile)
            text = emit_instance(inst)
            if mode == "noncolor":
                text = text.replace("mode general", "mode noncolor")
                text = "\n".join(line for line in text.splitlines() if not line.startswith("colors"))
            texts.append(text)
    pairs = []
    for text in texts:
        inst = parse_instance(text)
        matroid, seq = inst.build_matroid(), inst.build_sequence()
        if inst.mode == "noncolor":
            partition = solve_noncolor(matroid, seq, inst.r)
        else:
            solver = solve_general if inst.mode == "general" else solve_special
            partition = solver(matroid, seq, inst.build_coloring(), inst.r)
        pairs.append((text, emit_partition([list(p) for p in partition.part_indices()])))
    return pairs


SEEDS = _seed_files()
WORDS = ("a", "b1", "e0", "e1", "g1", "t1", "x1", "{", "}", "#", "-", "1/0", "3/4", "-5/7")
WORDS += ("parts", "part", "rational", "gfp") + tuple(FAMILIES) + MODES
fraction = st.fractions(-3, 3, max_denominator=4).map(str)
token = st.integers(-3, 12).map(str) | st.sampled_from(WORDS) | fraction


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "swap", "token", "number", "number")))
        tokens = lines[i].split() or [""]
        numeric = [k for k, t in enumerate(tokens) if t.lstrip("-").isdigit()]
        if action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "repeat":
            lines.insert(j, lines[i])
        elif action == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif action == "number" and numeric:
            tokens[draw(st.sampled_from(numeric))] = str(draw(st.integers(-1, 9)))
            lines[i] = " ".join(tokens)
        else:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(token)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def cases(draw, targets):
    text, part = draw(st.sampled_from(SEEDS))
    target = draw(st.sampled_from(targets))
    if target in ("instance", "both"):
        text = draw(mutated(text))
    if target in ("partition", "both"):
        part = draw(mutated(part))
    return text, part


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    if out.getvalue().strip():
        json.loads(out.getvalue())
    return code


def _with_files(instance, partition, command):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.txt")
        part_path = os.path.join(tmp, "part.txt")
        with open(inst_path, "w", encoding="utf-8") as handle:
            handle.write(instance)
        with open(part_path, "w", encoding="utf-8") as handle:
            handle.write(partition)
        argv = [command, inst_path] + ([part_path] if command == "verify" else []) + ["--json"]
        return _run(argv)


def test_seed_files_solve_and_verify():
    for text, part in SEEDS:
        assert _with_files(text, part, "solve") == 0
        assert _with_files(text, part, "verify") == 0


@settings(max_examples=300, deadline=None)
@given(cases(("instance",)))
def test_solve_on_mutated_instances_keeps_exit_codes(case):
    _with_files(*case, "solve")


@settings(max_examples=300, deadline=None)
@given(cases(("instance", "partition", "both")))
def test_verify_on_mutated_files_keeps_exit_codes(case):
    _with_files(*case, "verify")
