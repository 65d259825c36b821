"""``oracle_calls`` must not depend on the string hash seed.

Each instance below is one on which a scan over frozenset order once made
the count differ between ``PYTHONHASHSEED=1`` and ``=2``; the partitions
never differed.
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


@pytest.mark.parametrize("command, family, rank, r, length, seed", CASES)
def test_oracle_calls_ignore_hash_seed(tmp_path, command, family, rank, r, length, seed):
    path = tmp_path / "inst.txt"
    args = ["gen-random", "--family", family, "--rank", str(rank), "--r", str(r)]
    args += ["--length", str(length), "--seed", str(seed), "--profile", "general"]
    assert main(args + ["--out", str(path)]) == 0
    first = _run(command, path, 1)
    second = _run(command, path, 2)
    assert first["parts"] == second["parts"]
    assert first["oracle_calls"] == second["oracle_calls"]
