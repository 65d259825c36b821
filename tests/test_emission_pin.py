"""The exact bytes the generators emit, error messages included.

One sha256 covers ``gen-random`` over every generator family, both
profiles, m in {1, 2, 3, 5}, r in {1, .., 4}, lengths {1, 4, 9, 17, 30}
and seeds 1-3, and ``gen-tight`` over every family, m in {1, 2, 3, 6} and
r in {1, 2, 3, 5}: 2,976 documents.  For each call the digest takes the
argument list, the exit code, standard output and standard error, so it
pins fraction rendering, the 12-token line wrapping, the RNG draw order
and the text of every refusal.  The golden tests pin solver answers, not
these bytes.
"""

import contextlib
import hashlib
import io
from itertools import product

from matroid_tverberg.cli import main
from matroid_tverberg.instances import GENERATOR_FAMILIES

DIGEST = "0ca024407308ec1e7112892ee366221084df7949c0de24e79e83d60df2d12be8"


def _calls():
    for family, profile, m, r, length, seed in product(
        GENERATOR_FAMILIES, ("general", "special"), (1, 2, 3, 5), (1, 2, 3, 4), (1, 4, 9, 17, 30), (1, 2, 3)
    ):
        yield [
            "gen-random", "--family", family, "--rank", str(m), "--r", str(r),
            "--length", str(length), "--seed", str(seed), "--profile", profile,
        ]
    for family, m, r in product(GENERATOR_FAMILIES, (1, 2, 3, 6), (1, 2, 3, 5)):
        yield ["gen-tight", "--family", family, "--rank", str(m), "--r", str(r)]


def test_generated_documents_are_byte_identical():
    digest = hashlib.sha256()
    count = 0
    for argv in _calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}{err.getvalue()}\n".encode())
        count += 1
    assert count == 2976
    assert digest.hexdigest() == DIGEST
