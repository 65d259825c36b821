"""The command-line interface, run in-process."""

import json
from pathlib import Path

import pytest

from matroid_tverberg import VectorMatroidGFp, cli, instances, solver
from matroid_tverberg.cli import main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def special_instance(tmp_path):
    return write(
        tmp_path,
        "inst.txt",
        "mode special\nr 2\nmatroid vector_gfp {\n p 3\n dim 2\n element a 1 0\n"
        " element b 2 0\n element c 0 1\n}\nsequence a b c\ncolors c1 c1 c2\n",
    )


def test_solve_writes_partition_and_verifies(tmp_path, special_instance, capsys):
    part_file = str(tmp_path / "part.txt")
    code = main(["solve", special_instance, "--out", part_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome partition" in out
    code = main(["verify", special_instance, part_file])
    assert code == 0
    assert "outcome verified" in capsys.readouterr().out


def test_solve_json_output(special_instance, capsys):
    code = main(["solve", special_instance, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "partition"
    assert payload["parts"] == [[1], [0, 2]]
    assert payload["oracle_calls"] > 0
    assert payload["witness_nonloop"] == 1
    assert "chain_spanning_subsets" not in payload


def test_solve_json_is_one_line(special_instance, capsys):
    assert main(["solve", special_instance, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["parts"] == [[1], [0, 2]]


def test_a_violated_precondition_reports_what_the_solve_cost(tmp_path, capsys):
    # Four entries over rank 2 and r = 3: the special profile fails after
    # normalization.  Its rank is a kernel pass, not a closure question, so
    # the solve asks none, and its wall time is still reported.
    inst = write(
        tmp_path,
        "short.txt",
        "mode special\nr 3\nmatroid vector_gfp {\n p 3\n dim 2\n element a 1 0\n"
        " element b 2 0\n element c 0 1\n}\nsequence a b c a\ncolors c1 c1 c2 c1\n",
    )
    assert main(["solve", inst, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "precondition-violated"
    assert payload["oracle_calls"] == 0
    assert payload["wall_ms"] > 0


def test_solve_tight_instance_exits_2(tmp_path, capsys):
    inst = write(
        tmp_path,
        "tight.txt",
        "mode noncolor\nr 3\nmatroid uniform {\n k 2\n n 4\n}\nsequence e0 e0 e1 e1\n",
    )
    assert main(["solve", inst]) == 2
    assert "precondition-violated" in capsys.readouterr().out


def test_brute_no_partition_exits_3(tmp_path, capsys):
    inst = write(
        tmp_path,
        "line.txt",
        "mode general\nr 3\nmatroid affine {\n field rational\n dim 1\n point p1 1\n"
        " point p2 2\n point p3 3\n point p4 4\n point p5 5\n}\n"
        "sequence p1 p2 p3 p4 p5\ncolors red red red red blue\n",
    )
    assert main(["brute", inst]) == 3
    assert "no-partition" in capsys.readouterr().out


def test_brute_past_the_entry_cap_exits_1(tmp_path, capsys):
    ids = " ".join(f"e{i}" for i in range(13))
    inst = write(tmp_path, "long.txt", f"mode noncolor\nr 2\nmatroid uniform {{\n k 2\n n 13\n}}\nsequence {ids}\n")
    assert main(["brute", inst]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |S| = 13 exceeds the budget of 12\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["brute", "INSTANCE", "--budget", "5"], "error: unrecognized arguments: --budget 5\n"),
        (["bruteforce", "INSTANCE"], "error: argument command: invalid choice: 'bruteforce'"),
        (["solve"], "error: the following arguments are required: instance\n"),
    ],
)
def test_a_usage_error_exits_1_not_2(special_instance, capsys, argv, message):
    # Exit code 2 means a violated precondition, so a typo must not return it.
    argv = [special_instance if a == "INSTANCE" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err


def test_a_second_double_dash_exits_1(special_instance, capsys):
    # Python 3.11's argparse reads a "--" after the first as an empty list
    # for the next operand; the command must still end in a usage error.
    assert main(["verify", special_instance, "--", "--"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_gen_tight_then_brute_exits_3(tmp_path, capsys):
    out_file = str(tmp_path / "tight.txt")
    assert main(["gen-tight", "--family", "uniform", "--rank", "2", "--r", "3", "--out", out_file]) == 0
    assert main(["brute", out_file]) == 3


def test_gen_tight_then_solve_exits_2(tmp_path):
    out_file = str(tmp_path / "tight.txt")
    assert main(["gen-tight", "--family", "vector_gf2", "--rank", "3", "--r", "2", "--out", out_file]) == 0
    assert main(["solve", out_file]) == 2


def test_gen_random_solve_brute_agree(tmp_path, capsys):
    out_file = str(tmp_path / "rand.txt")
    assert (
        main(
            [
                "gen-random", "--family", "graphic", "--rank", "3", "--r", "2",
                "--length", "8", "--seed", "11", "--profile", "general", "--out", out_file,
            ]
        )
        == 0
    )
    assert main(["solve", out_file]) == 0
    capsys.readouterr()
    assert main(["brute", out_file]) == 0


@pytest.mark.parametrize(
    "command, message",
    [
        (["gen-tight", "--family", "uniform", "--rank", "100001", "--r", "2"], "n 100003 exceeds"),
        (
            [
                "gen-random", "--family", "vector_gf2", "--rank", "1001", "--r", "2",
                "--length", "1002", "--seed", "1", "--profile", "general",
            ],
            "dim 1001 exceeds",
        ),
        (["gen-tight", "--family", "uniform", "--rank", "1", "--r", "100002"], "r 100002 exceeds"),
    ],
)
def test_generators_refuse_sizes_the_parser_rejects(tmp_path, capsys, command, message):
    # Each of these once wrote a file that solve and brute reject with a
    # ParseError; the caps are now checked before anything is built.
    out_file = tmp_path / "big.txt"
    assert main(command + ["--out", str(out_file)]) == 1
    assert message in capsys.readouterr().err
    assert not out_file.exists()


def test_gen_random_deterministic(tmp_path):
    args = [
        "gen-random", "--family", "uniform", "--rank", "2", "--r", "2",
        "--length", "5", "--seed", "9", "--profile", "special",
    ]
    f1 = str(tmp_path / "a.txt")
    f2 = str(tmp_path / "b.txt")
    assert main(args + ["--out", f1]) == 0
    assert main(args + ["--out", f2]) == 0
    assert Path(f1).read_text(encoding="utf-8") == Path(f2).read_text(encoding="utf-8")


def test_verify_rejects_bad_partition(tmp_path, special_instance, capsys):
    part = write(tmp_path, "bad.txt", "parts 2\npart 0 1\npart 2\n")
    code = main(["verify", special_instance, part])
    assert code == 1
    assert "rainbow" in capsys.readouterr().out


def test_verify_unknown_index_errors(tmp_path, special_instance, capsys):
    part = write(tmp_path, "bad.txt", "parts 2\npart 9\npart 2\n")
    assert main(["verify", special_instance, part]) == 1


def test_verify_unknown_index_json(tmp_path, special_instance, capsys):
    part = write(tmp_path, "bad.txt", "parts 2\npart 9\npart 2\n")
    assert main(["verify", special_instance, part, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "error"
    assert payload["message"] == "part 1 references unknown index 9"


def test_verify_json_names_the_entry_outside_the_next_closure(tmp_path, special_instance, capsys):
    part = write(tmp_path, "chain.txt", "parts 2\npart 2\npart 0\n")
    assert main(["verify", special_instance, part, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "failed"
    assert payload["message"] == "chain: entry (2, c) of part 1 is outside cl(part 2)"


def test_verify_and_brute_report_what_they_cost(tmp_path, capsys):
    inst = str(tmp_path / "inst.txt")
    part = str(tmp_path / "part.txt")
    argv = [
        "gen-random", "--family", "uniform", "--rank", "3", "--r", "3",
        "--length", "9", "--seed", "1", "--profile", "general", "--out", inst,
    ]
    assert main(argv) == 0
    assert main(["solve", inst, "--out", part]) == 0
    capsys.readouterr()
    assert main(["verify", inst, part, "--json"]) == 0
    verified = json.loads(capsys.readouterr().out)
    # The same check, asked directly of a fresh oracle built from the same files.
    loaded = instances.parse_instance(Path(inst).read_text(encoding="utf-8"))
    seq = loaded.build_sequence()
    parts = [seq.with_indices(p) for p in instances.parse_partition(Path(part).read_text(encoding="utf-8"))]
    oracle = loaded.oracle
    assert solver.verify_partition(oracle, seq, loaded.build_coloring(), loaded.r, parts)
    assert verified["outcome"] == "verified"
    assert verified["oracle_calls"] == oracle.oracle_calls > 0
    assert verified["wall_ms"] > 0
    assert main(["brute", inst, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["wall_ms"] > 0


def test_solve_direct_sum_instance(tmp_path, capsys):
    inst = write(
        tmp_path,
        "ds.txt",
        "mode noncolor\nr 2\nmatroid direct_sum {\n left uniform {\n  k 1\n  n 2\n }\n"
        " right graphic {\n  vertices 3\n  edge g1 0 1\n  edge g2 1 2\n }\n}\n"
        "sequence e0 e1 g1 g2\n",
    )
    assert main(["solve", inst]) == 0
    assert "outcome partition" in capsys.readouterr().out


def test_each_solve_is_verified_once(monkeypatch, special_instance, capsys):
    calls = []
    verify = solver.verify_partition

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(solver, "verify_partition", counted)
    monkeypatch.setattr(cli, "verify_partition", counted)
    assert main(["solve", special_instance, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "partition"
    assert len(calls) == 1


def test_a_broken_partition_from_the_solver_exits_1(monkeypatch, special_instance, capsys):
    # Reversed, the parts still pass every predicate but the chain: the
    # solver's own verification rejects them, and nothing is printed.
    special_parts = solver._special_parts

    def reversed_parts(*args):
        return special_parts(*args)[::-1]

    monkeypatch.setattr(solver, "_special_parts", reversed_parts)
    assert main(["solve", special_instance, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output failed verification: chain" in captured.err


def test_missing_file_errors(capsys):
    assert main(["solve", "/nonexistent/path.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_1(tmp_path, capsys):
    inst = write(tmp_path, "broken.txt", "mode special\nr 2\n")
    assert main(["solve", inst]) == 1


@pytest.mark.parametrize("prime", ["0", str(2**31 + 11)])
def test_bad_prime_exits_1_without_traceback(tmp_path, capsys, prime):
    inst = write(
        tmp_path,
        "bad_prime.txt",
        f"mode special\nr 2\nmatroid vector_gfp {{\n p {prime}\n dim 2\n element a 1 0\n"
        " element b 0 1\n}\nsequence a b\ncolors c1 c2\n",
    )
    assert main(["solve", inst]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "block",
    ["vector_gfp {\n p 2\n dim -1\n element\n}", "affine {\n field gfp 2\n dim -1\n point\n}"],
    ids=["vector_gfp", "affine"],
)
def test_negative_dim_exits_1_without_traceback(tmp_path, capsys, block):
    inst = write(tmp_path, "negative_dim.txt", f"mode noncolor\nr 1\nmatroid {block}\nsequence a\n")
    assert main(["solve", inst]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 3:")
    assert "Traceback" not in captured.err + captured.out


def test_a_size_past_the_limits_exits_1_before_anything_is_built(monkeypatch, tmp_path, capsys):
    # A file of about 70 bytes that asks for 400 million ground elements.
    built = []
    monkeypatch.setattr(instances.UniformSpec, "build", built.append)
    text = "mode noncolor\nr 2\nmatroid uniform {\n k 2\n n 400000000\n}\nsequence e0 e1\n"
    inst = write(tmp_path, "huge.txt", text)
    assert main(["solve", inst]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: uniform: n 400000000 exceeds the limit of 100000\n"
    assert built == []


def test_consecutive_calls_share_no_options(tmp_path, special_instance, capsys):
    part_file = tmp_path / "part.txt"
    assert main(["solve", special_instance, "--json", "--out", str(part_file)]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "partition"
    part_file.unlink()
    # The parser is reused; neither --json nor --out may stick.
    assert main(["solve", special_instance]) == 0
    assert capsys.readouterr().out.startswith("outcome partition\n")
    assert not part_file.exists()


UNDECODABLE = b"mode special\n\xff\xfe\nr 2\n"


@pytest.mark.parametrize("command", ["solve", "brute", "verify"])
def test_undecodable_instance_exits_1(tmp_path, capsys, command):
    inst = tmp_path / "binary.txt"
    inst.write_bytes(UNDECODABLE)
    argv = [command, str(inst)] + ([str(inst)] if command == "verify" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "UTF-8" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_undecodable_partition_exits_1(tmp_path, special_instance, capsys):
    part = tmp_path / "binary_part.txt"
    part.write_bytes(b"parts 1\npart \xff\n")
    assert main(["verify", special_instance, str(part)]) == 1
    assert capsys.readouterr().err.startswith("error:")


GF2 = (
    "mode noncolor\nr 2\nmatroid vector_gfp {\n p 2\n dim 2\n element a 1 0\n"
    " element b 0 1\n element c 1 1\n}\nsequence a b c\n"
)
GFP_SUM = (
    "mode noncolor\nr 2\nmatroid direct_sum {\n left vector_gfp {\n  p 2\n  dim 1\n"
    "  element a 1\n }\n right vector_gfp {\n  p 3\n  dim 1\n  element b 1\n }\n}\n"
    "sequence a b a\n"
)


@pytest.mark.parametrize("text, expected", [(GF2, 1), (GFP_SUM, 2)], ids=["gf2", "direct_sum_of_two"])
def test_solve_builds_each_matroid_once(monkeypatch, tmp_path, capsys, text, expected):
    builds = []
    init = VectorMatroidGFp.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VectorMatroidGFp, "__init__", counted)
    assert main(["solve", write(tmp_path, "inst.txt", text), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "partition"
    assert len(builds) == expected
