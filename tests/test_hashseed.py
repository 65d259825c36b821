"""``oracle_calls`` must not depend on the string hash seed.

Each instance in ``CASES`` is one on which a scan over frozenset order
once made the count differ between ``PYTHONHASHSEED=1`` and ``=2``; the
partitions never differed.  ``PADDED`` runs the paths that pad coloops: a
general instance with five colors over rank 3 (two coloops), and a
noncolor file, where every entry has its own color.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matroid_tverberg
from matroid_tverberg.cli import main

SRC = str(Path(matroid_tverberg.__file__).resolve().parent.parent)

CASES = [
    # (command, family, rank, r, length, seed)
    ("solve", "vector_gf2", 3, 3, 7, 2),
    ("solve", "graphic", 4, 4, 13, 0),
    ("brute", "vector_gf2", 2, 3, 5, 0),
    ("brute", "graphic", 3, 3, 7, 1),
]

PADDED = [
    # (family, rank, r, length, seed, mode)
    ("graphic", 3, 4, 14, 1, "general"),
    ("vector_gf2", 2, 6, 12, 1, "noncolor"),
]


def _run(command, path, hash_seed):
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
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _instance(tmp_path, family, rank, r, length, seed, mode="general"):
    path = tmp_path / "inst.txt"
    args = ["gen-random", "--family", family, "--rank", str(rank), "--r", str(r)]
    args += ["--length", str(length), "--seed", str(seed), "--profile", "general"]
    assert main(args + ["--out", str(path)]) == 0
    if mode == "noncolor":
        lines = path.read_text(encoding="utf-8").replace("mode general", "mode noncolor").splitlines()
        path.write_text("\n".join(line for line in lines if not line.startswith("colors")) + "\n")
    return path


def _assert_same_under_hash_seeds_1_and_2(command, path):
    first = _run(command, path, 1)
    second = _run(command, path, 2)
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
