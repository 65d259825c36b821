"""Spans around the calls into each layer of ``matroid_tverberg``, for the traced pass.

The tracer patches the layers' public entry points from outside the package
and restores them afterwards; nothing in the package changes.  Each span
records its kind, start, end and parent in flat arrays held in memory.
Self time is a span's duration minus the durations of its child spans,
summed per layer.

Layers and the entry points that open their spans:

* ``cli``: ``cli.main`` (the benchmark's own call).
* ``instances``: ``parse_instance`` as the CLI calls it, and
  ``InstanceFile.build_matroid/build_sequence/build_coloring``.
* ``solver``: ``solve_general/solve_special/solve_noncolor`` as the CLI calls
  them; ``sequences`` work runs inside these spans.
* ``certify``: ``build_partition`` and ``verify_partition``, wherever the
  cli, solver and bruteforce modules call them.
* ``bruteforce``: ``brute_force_solve`` as the CLI calls it.
* ``matroids``: ``MatroidOracle.in_closure`` (validation, counting, memo,
  and the delegation of direct sums and restriction views).
* ``kernels``: the ``_members`` hook of the families that compute an answer
  (GF(p) and rational elimination, uniform counting, union-find).

The in-memory spans are written to an ``.npz`` file when the pass ends.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import numpy as np

KINDS = (
    "cli.main",
    "instances.parse",
    "instances.build",
    "solver.solve",
    "certify.build",
    "certify.verify",
    "bruteforce.solve",
    "matroids.in_closure",
    "kernels.members",
)
LAYERS = ("cli", "instances", "solver", "certify", "bruteforce", "matroids", "kernels")
_KIND = {name: i for i, name in enumerate(KINDS)}
_LAYER_OF_KIND = [LAYERS.index(name.split(".")[0]) for name in KINDS]
_MATROIDS = _KIND["matroids.in_closure"]
_KERNELS = _KIND["kernels.members"]

# The families whose ``_members`` computes an answer.  Affine matroids
# forward to their inner vector matroid, direct sums and restriction views
# to ``in_closure`` of another oracle, so they open no kernel span.
KERNEL_CLASSES = ("VectorMatroidGFp", "VectorMatroidRational", "UniformMatroid", "GraphicMatroid")


class Tracer:
    """Spans of one traced pass plus the counts taken at the same boundaries."""

    def __init__(self):
        self.kind = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Layer of the innermost non-oracle span: the caller a decision is charged to.
        self._callers = [LAYERS.index("cli")]
        self.decisions = [0] * len(LAYERS)
        self.kernel_evals = 0
        self.distinct_queries = 0
        self._seen = set()
        self._patches = []
        self.missing = []

    # -- span factories ---------------------------------------------------

    def _open(self, kind):
        i = len(self.start)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, kind_name, fn):
        """``fn`` inside a span of ``kind_name``; decisions below it are charged to its layer."""
        kind = _KIND[kind_name]
        layer = _LAYER_OF_KIND[kind]
        callers = self._callers

        def traced(*args, **kwargs):
            i = self._open(kind)
            callers.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                callers.pop()
                self._close(i)

        return traced

    def _wrap_in_closure(self, fn):
        seen = self._seen
        decisions = self.decisions
        callers = self._callers

        def in_closure(oracle, x, ys):
            i = self._open(_MATROIDS)
            try:
                fs = ys if isinstance(ys, frozenset) else frozenset(ys)
                if getattr(oracle, "_counts_queries", True):
                    decisions[callers[-1]] += 1
                    seen.add((id(oracle), x, fs))
                return fn(oracle, x, fs)
            finally:
                self._close(i)

        return in_closure

    def _wrap_members(self, fn):
        def members(oracle, x, ys):
            i = self._open(_KERNELS)
            try:
                self.kernel_evals += 1
                return fn(oracle, x, ys)
            finally:
                self._close(i)

        return members

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self, package):
        """Patch the layer entry points of the imported ``package`` modules."""
        cli, solver, bruteforce = package.cli, package.solver, package.bruteforce
        matroids, instances = package.matroids, package.instances
        self._patch(cli, "parse_instance", lambda f: self.wrap("instances.parse", f))
        for attr in ("build_matroid", "build_sequence", "build_coloring"):
            self._patch(instances.InstanceFile, attr, lambda f: self.wrap("instances.build", f))
        for attr in ("solve_general", "solve_special", "solve_noncolor"):
            self._patch(cli, attr, lambda f: self.wrap("solver.solve", f))
        for module in (cli, solver, bruteforce):
            self._patch(module, "build_partition", lambda f: self.wrap("certify.build", f))
            self._patch(module, "verify_partition", lambda f: self.wrap("certify.verify", f))
        self._patch(cli, "brute_force_solve", lambda f: self.wrap("bruteforce.solve", f))
        self._patch(matroids.MatroidOracle, "in_closure", self._wrap_in_closure)
        for name in KERNEL_CLASSES:
            self._patch(getattr(matroids, name), "_members", self._wrap_members)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def end_call(self):
        """Close the books on one CLI call; distinct queries are counted per call."""
        self.distinct_queries += len(self._seen)
        self._seen.clear()

    # -- results ----------------------------------------------------------

    def _arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.uint8).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return kind, parent, dur

    def layer_times(self):
        """Per-layer self time, the certify layer's inclusive time, and the traced wall."""
        kind, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_by_kind = np.bincount(kind, weights=dur - child, minlength=len(KINDS))
        incl_by_kind = np.bincount(kind, weights=dur, minlength=len(KINDS))
        self_s = {layer: 0.0 for layer in LAYERS}
        for k, name in enumerate(KINDS):
            self_s[name.split(".")[0]] += float(self_by_kind[k])
        certify = [_KIND["certify.build"], _KIND["certify.verify"]]
        is_certify = np.isin(kind, certify)
        # Inclusive certify time, counting only spans with no certify ancestor.
        outermost = 0.0
        for i in np.flatnonzero(is_certify):
            p = parent[i]
            while p >= 0 and not is_certify[p]:
                p = parent[p]
            if p < 0:
                outermost += float(dur[i])
        return {
            "self_s": self_s,
            "certify_total_s": outermost,
            "parse_s": float(incl_by_kind[_KIND["instances.parse"]]),
            "build_s": float(incl_by_kind[_KIND["instances.build"]]),
            "traced_s": float(incl_by_kind[_KIND["cli.main"]]),
            "spans": int(len(dur)),
        }

    def write(self, path):
        """Write every span (kind, parent, start, end) to ``path`` as ``.npz``."""
        with open(path, "wb") as handle:
            np.savez(
                handle,
                kinds=np.array(json.dumps(KINDS)),
                kind=np.frombuffer(self.kind, dtype=np.uint8),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )
