"""A fresh process loads numpy only when it builds a GF(p) matroid.

numpy is most of the package's import time, and four of the six families
never use it, so ``import matroid_tverberg.cli``, parsing, and solving or
generating a non-GF(p) instance must leave it unloaded.  Each check runs in
a new interpreter, since the test process has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import matroid_tverberg

SRC = str(Path(matroid_tverberg.__file__).resolve().parent.parent)

SCRIPT = """
import sys

import matroid_tverberg
import matroid_tverberg.cli as cli

assert "numpy" not in sys.modules, "importing the package loaded numpy"
uniform, graphic, gf2 = sys.argv[1:]
assert cli.main(["solve", uniform, "--json"]) == 0
args = ["--rank", "3", "--r", "3", "--length", "7", "--seed", "1", "--profile", "general"]
assert cli.main(["gen-random", "--family", "graphic", *args, "--out", graphic]) == 0
assert cli.main(["solve", graphic, "--json"]) == 0
assert matroid_tverberg.matroids.check_prime(2**31 - 1) == 2**31 - 1
assert matroid_tverberg.active_backend() == "numpy"
assert "numpy" not in sys.modules, "a uniform or graphic call, check_prime or active_backend loaded numpy"
matroid_tverberg.VectorMatroidGFp(2, 1, {"a": (1,)})
assert "numpy" in sys.modules, "a GF(p) matroid was built without numpy"
assert cli.main(["solve", gf2, "--json"]) == 0
print("cold start ok")
"""

UNIFORM = """mode noncolor
r 2
matroid uniform {
    k 2
    n 4
}
sequence e0 e1 e2 e3
"""

GF2 = """mode special
r 2
matroid vector_gfp {
    p 2
    dim 2
    element a 1 0
    element b 0 1
    element c 1 1
}
sequence a a b c
colors red red blue blue
"""


def test_numpy_loads_with_the_first_gfp_matroid(tmp_path):
    uniform, gf2 = tmp_path / "uniform.txt", tmp_path / "gf2.txt"
    uniform.write_text(UNIFORM, encoding="utf-8")
    gf2.write_text(GF2, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(uniform), str(tmp_path / "graphic.txt"), str(gf2)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("cold start ok\n")
