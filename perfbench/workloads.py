"""The benchmark's four workloads: seeded instance files plus the CLI calls on them.

Each workload writes its instance files into a directory and returns the
list of calls one timed pass makes, in order.  Every call carries the exit
code and outcome it must produce, so each output can be checked.  The
program sees only the files: the seed decides their contents, and the same
seed always writes the same files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from matroid_tverberg.cli import main as cli_main
from matroid_tverberg.instances import InstanceFile, emit_instance, gen_random_instance

PROFILES = ("general", "special")


@dataclass(frozen=True)
class Call:
    """One ``matroid-tverberg`` invocation of a pass and what it must return."""

    label: str
    argv: tuple
    path: str
    expect_exit: int
    expect_outcome: str
    cell: tuple  # (family, mode, m, r): the row of the breakdown table


def _length(profile, m, r):
    """Shortest sequence the profile allows (the solver's hardest case)."""
    if profile == "general":
        return m * (r - 1) + 1
    return r + (m - 1) * max(r - 1, 1)


def _instance_seed(seed, k):
    return seed * 1_000_003 + k


def _write(path, inst):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_instance(inst))


def _solve_calls(seed, outdir, cells, per_cell, noncolor=False):
    """``solve --json`` on ``per_cell`` seeded instances of each (family, profile, m, r).

    With ``noncolor`` the general instance is re-emitted without its colors.
    """
    calls = []
    k = 0
    for family, profile, m, r in cells:
        for j in range(per_cell):
            inst = gen_random_instance(
                family, m, r, _length(profile, m, r), _instance_seed(seed, k), profile
            )
            k += 1
            mode = profile
            if noncolor:
                if len(inst.sequence) <= m * (r - 1):
                    raise ValueError("noncolor instance is too short to have a partition")
                inst = InstanceFile(
                    matroid=inst.matroid, sequence=inst.sequence, colors=None, r=r, mode="noncolor"
                )
                mode = "noncolor"
            label = f"{family}/{mode}/m{m}/r{r}/{j}"
            path = os.path.join(outdir, label.replace("/", "_") + ".txt")
            _write(path, inst)
            calls.append(
                Call(label, ("solve", path, "--json"), path, 0, "partition", (family, mode, m, r))
            )
    return calls


# vector-exact: elimination over GF(2), GF(3) and Q dominates (ROADMAP item 2).
# Rationals are several times dearer per query, so they run smaller sizes.
VECTOR_EXACT_CELLS = [
    (family, profile, m, m)
    for family, sizes in (
        ("vector_gf2", (4, 5, 6)),
        ("vector_gf3", (4, 5, 6)),
        ("vector_rational", (3, 4)),
        ("affine_rational", (3, 4)),
    )
    for profile in PROFILES
    for m in sizes
]

# combinatorial-wide: cheap kernels, so the oracle wrapper and the solver's
# bookkeeping carry the cost.  Sizes stop at m = r = 12 so that a pass takes
# about 4 s on a 2-core machine and a run holds several passes.  Three sizes,
# so the median call falls inside one size rather than in the gap between two.
COMBINATORIAL_WIDE_CELLS = [
    (family, profile, m, m)
    for family in ("uniform", "graphic")
    for profile in PROFILES
    for m in (8, 10, 12)
]

# noncolor-long: every entry gets its own color, so the general reduction
# pads |S| - m coloops r - 1 times each; decisions per call grow fast in r,
# and r = 11 is as long as a 7 s pass allows on a 2-core machine.
NONCOLOR_LONG_CELLS = [
    (family, "general", m, r)
    for family in ("uniform", "graphic", "vector_gf2")
    for m, r in ((2, 8), (2, 11), (3, 5))
]

# referee: small seeded instances as in acceptance criterion 2 (all have a
# witness, so the search stops early).  Random (2, 4) and (3, 3) are left
# out: where the first witness lies varies so much between instances that,
# with two of them per family, profile and length, the seed alone moved the
# pass's oracle calls by 12% ...
REFEREE_RANDOM_CELLS = [(2, 2), (2, 3), (3, 2), (4, 2)]
REFEREE_RANDOM_LENGTH_CAP = 10
# ... and tight instances of length m(r-1), which have none, so the whole
# tree is searched.  These do not depend on the seed, and they are more
# than a tenth of the calls, so scaled_latency_ms.p90 falls among them.
REFEREE_TIGHT_CELLS = [(2, 4), (3, 3), (4, 3)]
REFEREE_FAMILIES = (
    "vector_gf2",
    "vector_gf3",
    "vector_rational",
    "affine_rational",
    "uniform",
    "graphic",
)


def _referee_calls(seed, outdir):
    calls = []
    k = 0
    for family in REFEREE_FAMILIES:
        for profile in PROFILES:
            for m, r in REFEREE_RANDOM_CELLS:
                for length in (_length(profile, m, r), REFEREE_RANDOM_LENGTH_CAP):
                    inst = gen_random_instance(family, m, r, length, _instance_seed(seed, k), profile)
                    k += 1
                    label = f"{family}/{profile}/m{m}/r{r}/len{length}"
                    path = os.path.join(outdir, label.replace("/", "_") + ".txt")
                    _write(path, inst)
                    calls.append(
                        Call(
                            label,
                            ("brute", path, "--json"),
                            path,
                            0,
                            "partition",
                            (family, profile, m, r),
                        )
                    )
        for m, r in REFEREE_TIGHT_CELLS:
            label = f"{family}/tight/m{m}/r{r}"
            path = os.path.join(outdir, label.replace("/", "_") + ".txt")
            argv = ["gen-tight", "--family", family, "--rank", str(m), "--r", str(r), "--out", path]
            if cli_main(argv) != 0:
                raise RuntimeError(f"gen-tight failed for {label}")
            calls.append(
                Call(label, ("brute", path, "--json"), path, 3, "no-partition", (family, "tight", m, r))
            )
    return calls


def build_calls(workload, seed, outdir):
    """Write ``workload``'s instance files for ``seed`` into ``outdir``; return its calls."""
    if workload == "vector-exact":
        return _solve_calls(seed, outdir, VECTOR_EXACT_CELLS, per_cell=8)
    if workload == "combinatorial-wide":
        return _solve_calls(seed, outdir, COMBINATORIAL_WIDE_CELLS, per_cell=14)
    if workload == "noncolor-long":
        return _solve_calls(seed, outdir, NONCOLOR_LONG_CELLS, per_cell=24, noncolor=True)
    if workload == "referee":
        return _referee_calls(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("vector-exact", "combinatorial-wide", "noncolor-long", "referee")
