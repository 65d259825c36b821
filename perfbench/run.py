#!/usr/bin/env python3
"""The repository benchmark: seeded CLI workloads, timed end to end, checked, and traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vector-exact --seed 1 --seconds 30 --trace 0

Each run writes the workload's instance files for ``--seed``, then calls
``matroid_tverberg.cli.main`` on them in-process, one call after the other
(a closed loop with one caller, no threads).  With ``--trace 0`` it repeats
timed passes over the same calls while they fit in ``--seconds`` and prints
the end-to-end metrics; with ``--trace 1`` it makes one untimed pass and one
traced pass and prints the per-layer split.  Every output is checked.  The
last line of standard output is one JSON object; a full report goes to
``.bench_build/perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXIT_USAGE = 2
# Fresh interpreters that import the package, timed for ``setup_s``.
IMPORT_ROUNDS = 5

# The benchmark measures the settings users get: checks on, counting on.
_SETTING_VARS = ("MATROID_TVERBERG_CHECKS", "MATROID_TVERBERG_COUNT", "MATROID_TVERBERG_NUMBA")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ensure_hash_seed():
    """Re-execute under an explicit, random PYTHONHASHSEED so each run can record it.

    The seed is drawn at random, as users get it, never pinned: oracle call
    counts depend on set iteration order (a known defect, see README.md).
    """
    if os.environ.get("PYTHONHASHSEED", "").isdigit():
        return
    env = dict(os.environ, PYTHONHASHSEED=str(random.SystemRandom().randrange(1, 2**32)))
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def _clear_settings():
    """Drop the package's environment switches; returns the names that were set."""
    return [name for name in _SETTING_VARS if os.environ.pop(name, None) is not None]


def _import_program():
    """Import the package from this checkout's ``src``; exit if it is not there."""
    if not os.path.isdir(os.path.join(SRC, "matroid_tverberg")):
        print(f"error: no program at {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    sys.path.insert(0, SRC)
    import matroid_tverberg
    import matroid_tverberg.cli

    return matroid_tverberg


def _import_rounds():
    """Wall time of IMPORT_ROUNDS fresh interpreters importing the package, one after another."""
    env = dict(os.environ, PYTHONPATH=SRC)
    rounds = []
    for _ in range(IMPORT_ROUNDS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import matroid_tverberg.cli"],
                       cwd=ROOT, env=env, check=True, timeout=60)
        rounds.append(time.perf_counter() - t)
    return rounds


def main(argv=None):
    args = _parse_args(argv)
    _ensure_hash_seed()
    cleared = _clear_settings()
    package = _import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}",
              file=sys.stderr)
        return EXIT_USAGE
    return harness.run(package, args, import_rounds=_import_rounds(), cleared=cleared, out_dir=OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
