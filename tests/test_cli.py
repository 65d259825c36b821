"""The command-line interface, run in-process."""

import json

import pytest

from matroid_tverberg import cli, solver
from matroid_tverberg.cli import main
from matroid_tverberg.solver import Partition


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
    assert "verified_by solver" in out
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
    assert payload["chain_spanning_subsets"]


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


def test_gen_random_deterministic(tmp_path):
    args = [
        "gen-random", "--family", "uniform", "--rank", "2", "--r", "2",
        "--length", "5", "--seed", "9", "--profile", "special",
    ]
    f1 = str(tmp_path / "a.txt")
    f2 = str(tmp_path / "b.txt")
    assert main(args + ["--out", f1]) == 0
    assert main(args + ["--out", f2]) == 0
    assert open(f1).read() == open(f2).read()


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


@pytest.mark.parametrize("flags, verifier", [([], "solver"), (["--no-check"], "cli")])
def test_each_solve_is_verified_once(monkeypatch, special_instance, capsys, flags, verifier):
    calls = []
    verify = solver.verify_partition

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(solver, "verify_partition", counted)
    monkeypatch.setattr(cli, "verify_partition", counted)
    assert main(["solve", special_instance, "--json"] + flags) == 0
    assert json.loads(capsys.readouterr().out)["verified_by"] == verifier
    assert len(calls) == 1


def test_no_check_still_rejects_a_broken_partition(monkeypatch, special_instance, capsys):
    solve = cli.solve_special

    def reversed_parts(*args, **kwargs):
        partition = solve(*args, **kwargs)
        return Partition(partition.parts[::-1], partition.certificate)

    monkeypatch.setattr(cli, "solve_special", reversed_parts)
    assert main(["solve", special_instance, "--json", "--no-check"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "error"
    assert "chain" in payload["message"]


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
