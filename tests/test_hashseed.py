"""``oracle_calls`` must not depend on the string hash seed.

Each instance in ``CASES`` is one on which a scan over frozenset order
once made the count differ between ``PYTHONHASHSEED=1`` and ``=2``; the
partitions never differed.  ``PADDED`` runs the paths that pad coloops: a
general instance with five colors over rank 3 (two coloops), and a
noncolor file, where every entry has its own color.  ``REFEREE`` runs
``brute`` on a length-10 special row of ``test_brute_golden.py`` and on the
tight graphic instance ``gen-tight`` emits for (m, r) = (4, 3).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matroid_tverberg
from matroid_tverberg.cli import EXIT_NO_PARTITION, EXIT_OK, main

SRC = str(Path(matroid_tverberg.__file__).resolve().parent.parent)

CASES = [
    # (command, family, rank, r, length, seed)
    ("solve", "vector_gf2", 3, 3, 7, 2),
    ("solve", "graphic", 4, 4, 13, 0),
    ("brute", "vector_gf2", 2, 3, 5, 0),
    ("brute", "graphic", 3, 3, 7, 1),
]

REFEREE = [
    # (family, rank, r, length, seed, profile); "tight" is ``gen-tight``
    ("vector_rational", 2, 3, 10, 1, "special"),
    ("graphic", 4, 3, 8, 1, "tight"),
]

PADDED = [
    # (family, rank, r, length, seed, mode)
    ("graphic", 3, 4, 14, 1, "general"),
    ("vector_gf2", 2, 6, 12, 1, "noncolor"),
]


def _run(command, path, hash_seed, exit_code=EXIT_OK):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "matroid_tverberg.cli", command, str(path), "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == exit_code, done.stderr
    return json.loads(done.stdout)


def _instance(tmp_path, family, rank, r, length, seed, mode="general", profile="general"):
    path = tmp_path / "inst.txt"
    args = ["--family", family, "--rank", str(rank), "--r", str(r)]
    if profile == "tight":
        args = ["gen-tight"] + args
    else:
        args = ["gen-random"] + args
        args += ["--length", str(length), "--seed", str(seed), "--profile", profile]
    assert main(args + ["--out", str(path)]) == 0
    if mode == "noncolor":
        lines = path.read_text(encoding="utf-8").replace("mode general", "mode noncolor").splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("colors")) + "\n")
    return path


def _assert_same_under_hash_seeds_1_and_2(command, path, exit_code=EXIT_OK):
    first = _run(command, path, 1, exit_code)
    second = _run(command, path, 2, exit_code)
    assert first["parts"] == second["parts"]
    assert first["oracle_calls"] == second["oracle_calls"]


@pytest.mark.parametrize("command, family, rank, r, length, seed", CASES)
def test_oracle_calls_ignore_hash_seed(tmp_path, command, family, rank, r, length, seed):
    path = _instance(tmp_path, family, rank, r, length, seed)
    _assert_same_under_hash_seeds_1_and_2(command, path)


@pytest.mark.parametrize("family, rank, r, length, seed, mode", PADDED)
def test_padded_solves_ignore_hash_seed(tmp_path, family, rank, r, length, seed, mode):
    path = _instance(tmp_path, family, rank, r, length, seed, mode)
    _assert_same_under_hash_seeds_1_and_2("solve", path)


@pytest.mark.parametrize("family, rank, r, length, seed, profile", REFEREE)
def test_referee_rows_ignore_hash_seed(tmp_path, family, rank, r, length, seed, profile):
    path = _instance(tmp_path, family, rank, r, length, seed, profile=profile)
    # The tight instance has no partition, which ``brute`` reports by its exit code.
    exit_code = EXIT_NO_PARTITION if profile == "tight" else EXIT_OK
    _assert_same_under_hash_seeds_1_and_2("brute", path, exit_code)
