"""Property: any text either parses to an ``InstanceFile`` or raises ``ParseError``.

Documents are drawn from the instance grammar (every field, every family,
nested ``direct_sum`` blocks) with mostly valid values, so that many reach
the later checks, and with integers from the whole integer range in the
numeric fields.  Each document is then mutated up to three times: a line
is dropped, repeated or swapped, or one token is replaced by any integer,
fraction, identifier or keyword.  Arbitrary text is tried as well.  The
sizes that the parser caps (uniform ``n``, graphic ``vertices``, ``dim``
and ``r``) are also drawn just past their limits and from the whole
integer range: the parser must reject them before it builds anything.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from matroid_tverberg import ParseError, instances, parse_instance
from matroid_tverberg.instances import FAMILY_NAMES, MODES, InstanceFile

IDS = ("a", "b", "c", "e0", "e1", "x1", "t1", "g0")
JUNK = ("{", "}", "#", "-", "1/0", "3/4", "-5/7", "0x1f", "1e3", "rational", "gfp", "=")

integer = st.integers().map(str)
number = integer | st.sampled_from(JUNK) | st.fractions().map(str)
ident = st.sampled_from(IDS) | st.text("abcxyz019_{}#", min_size=1, max_size=3)
word = ident | number | st.sampled_from(FAMILY_NAMES + MODES)


mostly_small = st.integers(0, 3) | st.integers()


def near(cap):
    """Integers at and just past ``cap``."""
    return st.integers(cap - 1, cap + 2)

prime = st.sampled_from((2, 3, 5, 2147483647)) | st.integers()


@st.composite
def family_block(draw, ids, keyword="matroid", depth=0):
    """Lines of one well-formed family block; ``ids`` collects its element ids."""
    family = draw(st.sampled_from(FAMILY_NAMES if depth < 2 else FAMILY_NAMES[:-1]))
    lines = [f"{keyword} {family} {{"]
    fresh = [f"{keyword[0]}{depth}{i}" for i in range(draw(st.integers(0, 4)))]
    if family in ("vector_gfp", "vector_rational", "affine"):
        dim = draw(st.integers(0, 3) | st.integers(-1, 5) | near(instances.MAX_DIM))
        width = max(dim, 0) if dim <= 5 else draw(st.integers(0, 5))
        coord = st.integers() if family == "vector_gfp" else st.integers() | st.fractions()
        if family == "vector_gfp":
            lines.append(f"p {draw(prime)}")
        elif family == "affine":
            lines.append(draw(st.just("field rational") | prime.map(lambda q: f"field gfp {q}")))
        lines.append(f"dim {dim}")
        keyword = "point" if family == "affine" else "element"
        for eid in fresh:
            coords = draw(st.lists(coord, min_size=width, max_size=width))
            lines.append(" ".join([keyword, eid, *map(str, coords)]))
    elif family == "uniform":
        n = draw(st.integers(-1, 6) | near(instances.MAX_N) | st.integers())
        lines += [f"k {draw(mostly_small)}", f"n {n}"]
        fresh = [f"e{i}" for i in range(min(max(n, 0), 8))]
    elif family == "graphic":
        vertices = st.integers(4, 5) | mostly_small | near(instances.MAX_VERTICES)
        lines.append(f"vertices {draw(vertices)}")
        vertex = st.integers(0, 3) | mostly_small
        for eid in fresh:
            lines.append(f"edge {eid} {draw(vertex)} {draw(vertex)}")
    else:
        fresh = []
        lines += draw(family_block(ids, "left", depth + 1))
        lines += draw(family_block(ids, "right", depth + 1))
    ids.extend(fresh)
    lines.append("}")
    return lines


@st.composite
def documents(draw):
    ids = []
    mode = draw(st.sampled_from(MODES))
    r = draw(st.integers(1, 3) | mostly_small | near(instances.MAX_R))
    lines = [f"mode {mode}", f"r {r}"]
    lines += draw(family_block(ids))
    refs = draw(st.lists(st.sampled_from(ids or ["a"]), min_size=1, max_size=6))
    lines.append(" ".join(["sequence", *refs]))
    if mode != "noncolor":
        colors = draw(st.lists(ident, min_size=len(refs), max_size=len(refs)))
        lines.append(" ".join(["colors", *colors]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "swap", "token")))
        if action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "repeat":
            lines.insert(j, lines[i])
        elif action == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(word)
            lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _parses_or_parse_error(text):
    try:
        result = parse_instance(text)
    except ParseError:
        return
    assert isinstance(result, InstanceFile)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(documents())
def test_grammar_documents_parse_or_raise_parse_error(text):
    _parses_or_parse_error(text)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_arbitrary_text_parses_or_raises_parse_error(text):
    _parses_or_parse_error(text)



def _document(block, r=2, refs=("e0",)):
    return "\n".join(["mode noncolor", f"r {r}", *block, "sequence " + " ".join(refs)])


UNIFORM = ["matroid uniform {", "k 1", "n 3", "}"]
LIMITED = {
    "n": (lambda v: _document(["matroid uniform {", "k 2", f"n {v}", "}"]), "MAX_N"),
    "vertices": (
        lambda v: _document(["matroid graphic {", f"vertices {v}", "edge a 0 1", "}"], refs=("a",)),
        "MAX_VERTICES",
    ),
    "dim": (
        lambda v: _document(
            ["matroid vector_rational {", f"dim {v}", "element a " + " ".join("1" * v), "}"],
            refs=("a",),
        ),
        "MAX_DIM",
    ),
    "summand dim": (
        lambda v: _document([
            "matroid direct_sum {", "left uniform {", "k 1", "n 2", "}",
            "right affine {", "field gfp 3", f"dim {v}", "}", "}",
        ]),
        "MAX_DIM",
    ),
    "r": (lambda v: _document(UNIFORM, r=v), "MAX_R"),
    "sequence": (lambda v: _document(UNIFORM, refs=("e0",) * v), "MAX_SEQUENCE"),
    "vector_gfp p": (
        lambda v: _document(["matroid vector_gfp {", f"p {v}", "dim 1", "element a 1", "}"], refs=("a",)),
        "MAX_P",
    ),
    "affine gfp p": (
        lambda v: _document(["matroid affine {", f"field gfp {v}", "dim 1", "point a 1", "}"], refs=("a",)),
        "MAX_P",
    ),
}
# The value just past each cap is cap + 1, except for the prime: the cap
# 2**31 - 1 is prime, and the next prime is 2**31 + 11.
PAST = {"MAX_P": (2**31 - 1, 2**31 + 11)}


@pytest.mark.parametrize("name", sorted(LIMITED))
def test_each_limit_admits_its_cap_and_rejects_one_more(monkeypatch, name):
    document, constant = LIMITED[name]
    if name == "sequence":
        # A million-entry document is slow to build; the check reads the
        # module constant, so a small cap exercises the same code.
        monkeypatch.setattr(instances, constant, 3)
    cap = getattr(instances, constant)
    admitted, past = PAST.get(constant, (cap, cap + 1))
    assert admitted == cap
    assert isinstance(parse_instance(document(cap)), InstanceFile)
    with pytest.raises(ParseError, match="limit"):
        parse_instance(document(past))
