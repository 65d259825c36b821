"""The graphic and rational kernels reuse the structure of the last target.

Each kernel keeps the last target it answered for with its union-find
forest or echelon basis.  It answers from that structure when the target
repeats, grows a copy by one edge or row when the target gains one
element, and builds it anew otherwise.  These tests call ``_members``
directly, past the memo, on query streams whose targets repeat, grow by
one, shrink by one or jump, and check every answer against a reference
computed here: connectivity for graphs, ``Fraction`` elimination for
vectors.
"""

import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_tverberg import AffineMatroid, GraphicMatroid, VectorMatroidRational
from matroid_tverberg import matroids
from test_rational_kernel import matrices, reference_members

KINDS = ("graphic", "rational", "affine_rational")
STEPS = ("repeat", "grow", "shrink", "jump")


def connected(edges, x, ys):
    """Reference: are the endpoints of edge x joined by a path of edges in ys?"""
    u, v = edges[x]
    reached, frontier = {u}, [u]
    while frontier:
        a = frontier.pop()
        for y in ys:
            for s, t in (edges[y], edges[y][::-1]):
                if s == a and t not in reached:
                    reached.add(t)
                    frontier.append(t)
    return v in reached


@dataclass
class Case:
    """A matroid given by its data: a fresh oracle on demand and the reference answers."""

    make: object
    expected: object
    ground: tuple


@st.composite
def cases(draw, kind):
    if kind == "graphic":
        n = draw(st.integers(min_value=1, max_value=5))
        vertex = st.integers(min_value=0, max_value=n - 1)
        # Few vertices and up to eight edges: parallel edges and self-loops are common.
        pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=8))
        edges = {f"g{i}": pair for i, pair in enumerate(pairs)}
        return Case(
            lambda: GraphicMatroid(n, edges),
            lambda x, ys: connected(edges, x, ys),
            tuple(edges),
        )
    rows = draw(matrices(max_rows=6, max_cols=3).filter(bool))
    dim = len(rows[0])
    points = {f"v{i}": tuple(r) for i, r in enumerate(rows)}
    if kind == "rational":
        return Case(
            lambda: VectorMatroidRational(dim, points),
            lambda x, ys: reference_members(points, x, ys),
            tuple(points),
        )
    lifted = {eid: p + (Fraction(1),) for eid, p in points.items()}
    return Case(
        lambda: AffineMatroid("rational", dim, points),
        lambda x, ys: reference_members(lifted, x, ys),
        tuple(points),
    )


@st.composite
def streams(draw, ground, max_size=16):
    """(x, target) queries; each target repeats, grows by one, shrinks by one or jumps."""
    target = frozenset()
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_size))):
        step = draw(st.sampled_from(STEPS))
        outside = [e for e in ground if e not in target]
        if step == "grow" and outside:
            target = target | {draw(st.sampled_from(outside))}
        elif step == "shrink" and target:
            target = target - {draw(st.sampled_from(sorted(target)))}
        elif step == "jump":
            target = frozenset(draw(st.sets(st.sampled_from(ground))))
        queries.append((draw(st.sampled_from(ground)), target))
    return queries


def _case_and_stream(data, kind):
    case = data.draw(cases(kind))
    return case, data.draw(streams(case.ground))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_kernel_matches_reference_on_a_stream(kind, data):
    case, stream = _case_and_stream(data, kind)
    oracle = case.make()
    kernel = getattr(oracle, "_inner", oracle)  # an affine matroid keeps its pair in the lift
    published = []
    for x, ys in stream:
        assert oracle._members(x, ys) == case.expected(x, ys), (x, sorted(ys))
        published.append(kernel._kept)
    # A thread may still hold any pair that was published: each must still
    # answer for its own target after all the growth that followed it.
    for target, structure in published:
        kernel._kept = (target, structure)
        for x in case.ground:
            assert oracle._members(x, target) == case.expected(x, target), (x, sorted(target))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_interleaved_oracles_answer_as_each_does_alone(kind, data):
    (one, stream_one), (two, stream_two) = _case_and_stream(data, kind), _case_and_stream(data, kind)
    oracles = (one.make(), two.make())
    order = data.draw(st.permutations([0] * len(stream_one) + [1] * len(stream_two)))
    pending = [iter(stream_one), iter(stream_two)]
    for i in order:
        x, ys = next(pending[i])
        case = (one, two)[i]
        assert oracles[i]._members(x, ys) == case.expected(x, ys), (i, x, sorted(ys))


def _switch_on_each_line(frame, event, arg):
    """Trace hook: release the GIL on each line run in ``matroids``.

    The interpreter's own switch interval lets a thread run whole queries
    between switches.  Sleeping on every kernel line hands the GIL to
    another thread in the middle of a query instead.
    """
    if frame.f_code.co_filename != matroids.__file__:
        return None
    if event == "line":
        time.sleep(0)
    return _switch_on_each_line


def _in_four_threads(work):
    """Run ``work(i)`` for i = 0..3, each in its own thread, switching inside the kernels."""

    def run(i):
        sys.settrace(_switch_on_each_line)
        work(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(KINDS), st.data())
def test_four_threads_sharing_one_oracle_match_the_reference(kind, data):
    case = data.draw(cases(kind))
    jobs = [data.draw(streams(case.ground)) for _ in range(4)]
    expected = [[case.expected(x, ys) for x, ys in stream] for stream in jobs]
    oracle = case.make()
    answers = [[] for _ in jobs]

    def work(i):
        for _ in range(5):
            answers[i].append([oracle._members(x, ys) for x, ys in jobs[i]])

    _in_four_threads(work)
    for i, runs in enumerate(answers):
        assert runs == [expected[i]] * 5, i


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(matroids, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(matroids, name, counted)
    return calls


def test_graphic_kernel_grows_the_kept_forest(monkeypatch):
    """Only a jump builds a forest; a repeat or a one-edge growth reuses the kept one."""
    oracle = GraphicMatroid(4, {"a": (0, 1), "b": (1, 2), "c": (2, 3), "d": (0, 3)})
    builds = _count_calls(monkeypatch, "_spanning_forest")
    assert oracle._members("c", frozenset()) is False
    assert oracle._members("c", frozenset("a")) is False
    assert oracle._members("d", frozenset("ab")) is False
    assert oracle._members("d", frozenset("abc")) is True
    assert oracle._members("a", frozenset("abc")) is True
    assert builds == []
    assert oracle._members("d", frozenset("bc")) is False
    assert len(builds) == 1


def test_rational_kernel_grows_the_kept_basis(monkeypatch):
    """Only a jump eliminates the whole target; a one-row growth inserts one row."""
    oracle = VectorMatroidRational(
        3, {"a": (1, 0, 0), "b": (0, 1, 0), "c": (1, 1, 0), "d": (0, 0, 1)}
    )
    inserts = _count_calls(monkeypatch, "_insert")
    assert oracle._members("c", frozenset("a")) is False
    assert oracle._members("c", frozenset("ab")) is True
    assert oracle._members("d", frozenset("ab")) is False
    assert len(inserts) == 2
    assert oracle._members("c", frozenset("bd")) is False
    assert len(inserts) == 4

