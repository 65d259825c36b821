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

Drawn command lines hold the same contract: any of the five subcommands,
or none, with existing, missing and extra operands, known and unknown
options, and flag values in and out of range.  Exit code 2 must come with
a ``precondition-violated`` report, and no traceback may reach standard
error.  Ranks and r stay below 5 and lengths below 13, so every run is
quick.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, example, given, settings, strategies as st

from matroid_tverberg import gen_random_instance, solve_general, solve_noncolor, solve_special
from matroid_tverberg.cli import main
from matroid_tverberg.instances import (
    FAMILIES,
    GENERATOR_FAMILIES,
    MODES,
    emit_instance,
    emit_partition,
    gen_tight_instance,
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


COMMANDS = ("solve", "verify", "brute", "gen-tight", "gen-random")
# The operands: a solvable instance, a tight one (solve exits 2, brute 3),
# its partition, a file that does not parse, a directory and a missing path.
# ``--budget`` is no option of the CLI; it is drawn with a value.
OPERANDS = ("inst.txt", "tight.txt", "part.txt", "junk.txt", "subdir", "missing.txt")
small = st.integers(-1, 4).map(str)
FLAG_VALUES = {
    "--family": st.sampled_from(GENERATOR_FAMILIES + ("nope",)),
    "--rank": small,
    "--r": small,
    "--length": st.integers(-1, 12).map(str),
    "--seed": st.integers(-2, 5).map(str),
    "--profile": st.sampled_from(("general", "special", "noncolor")),
    "--out": st.sampled_from(("out.txt", "subdir", "missing/out.txt")),
    "--budget": small,
}
GEN_FLAGS = ("--family", "--rank", "--r", "--length", "--seed", "--profile")
OPTIONS = tuple(FLAG_VALUES) + ("--json", "--bogus", "-x", "-h", "--help", "--")


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv")
    text, part = SEEDS[1]
    (path / "inst.txt").write_text(text, encoding="utf-8")
    (path / "part.txt").write_text(part, encoding="utf-8")
    (path / "tight.txt").write_text(emit_instance(gen_tight_instance("uniform", 2, 3)), encoding="utf-8")
    (path / "junk.txt").write_text("mode sideways\n", encoding="utf-8")
    (path / "subdir").mkdir()
    return path


@st.composite
def argvs(draw):
    """A command (or none), then operands, required gen flags and options."""
    command = draw(st.sampled_from(COMMANDS * 2 + ("nope", "")))
    argv = [command] if command else []
    count = draw(st.sampled_from((0, 1, 1, 2, 2, 3)))
    argv += [draw(st.sampled_from(OPERANDS + ("tight.txt",))) for _ in range(count)]
    if command.startswith("gen-"):
        # Most gen command lines carry each required flag, so that some run.
        for flag in GEN_FLAGS:
            if draw(st.integers(0, 9)):
                argv += [flag, draw(FLAG_VALUES[flag])]
    for option in draw(st.lists(st.sampled_from(OPTIONS), max_size=2)):
        argv.append(option)
        if option in FLAG_VALUES and draw(st.integers(0, 4)):
            argv.append(draw(FLAG_VALUES[option]))
    return argv


def _outcome(out):
    """The outcome of a JSON or text report, or None for other output."""
    text = out.strip()
    if text.startswith("{"):
        return json.loads(text)["outcome"]
    first = text.splitlines()[0] if text else ""
    return first[len("outcome "):] if first.startswith("outcome ") else None


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(argv=["verify", "inst.txt", "--", "--"])  # a second "--" once raised TypeError
def test_drawn_command_lines_keep_the_exit_code_contract(argv_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(argv_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help, and only --help, exits through argparse
                assert "-h" in argv or "--help" in argv, argv
                code = exc.code
    finally:
        os.chdir(cwd)
    event(f"{argv[0] if argv and argv[0] in COMMANDS else 'no command'} exits {code}")
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 2:
        assert _outcome(out.getvalue()) == "precondition-violated", (argv, out.getvalue())
