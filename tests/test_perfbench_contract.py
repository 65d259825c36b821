"""What the benchmark under ``perfbench/`` needs from the package.

The harness reads run metadata from the package and the tracer patches the
layers' entry points by name.  A deletion in ``src/`` that removes one of
them would otherwise only show when the benchmark runs.
"""

import os
import sys
from types import SimpleNamespace

import pytest

import matroid_tverberg
import matroid_tverberg.cli  # noqa: F401  (the tracer patches it)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        import harness
        import tracing

        yield SimpleNamespace(harness=harness, tracing=tracing)
    finally:
        sys.path.remove(PERFBENCH)


def test_harness_reads_its_metadata(perfbench):
    args = SimpleNamespace(workload="referee", seed=1, seconds=1, trace=0)
    perfbench.harness._metadata(matroid_tverberg, args, [])


def test_tracer_finds_every_entry_point(perfbench):
    tracer = perfbench.tracing.Tracer()
    try:
        tracer.install(matroid_tverberg)
        # The CLI has never called build_partition itself.
        assert set(tracer.missing) <= {"matroid_tverberg.cli.build_partition"}
    finally:
        tracer.uninstall()
