"""Instance text format, partition files, and the random generator."""

from fractions import Fraction

import pytest

from matroid_tverberg import (
    InfeasibleRequest,
    ParseError,
    check_general_profile,
    check_special_profile,
    emit_instance,
    emit_partition,
    gen_random_instance,
    parse_instance,
    parse_partition,
    special_precondition,
)
from matroid_tverberg.instances import GENERATOR_FAMILIES, gen_tight_instance
from matroid_tverberg.matroids import VectorMatroidGFp

SAMPLE = """
# sample instance
mode special
r 2
matroid vector_gfp {
    p 3
    dim 2
    element a 1 0
    element b 2 0
    element c 0 1
}
sequence a b c
colors red red blue
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.mode == "special"
    assert inst.r == 2
    assert inst.sequence == ("a", "b", "c")
    assert inst.colors == ("red", "red", "blue")
    assert inst.matroid.p == 3
    oracle = inst.build_matroid()
    assert oracle.rank_bound == 2


def test_round_trip_identity():
    inst = parse_instance(SAMPLE)
    text = emit_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert emit_instance(again) == text  # canonical form is a fixpoint


def test_round_trip_every_family():
    texts = {
        "uniform": "mode noncolor\nr 2\nmatroid uniform {\n k 2\n n 4\n}\nsequence e0 e1 e2\n",
        "graphic": (
            "mode general\nr 2\nmatroid graphic {\n vertices 3\n edge a 0 1\n edge b 1 2\n"
            "}\nsequence a b a\ncolors x y z\n"
        ),
        "vector_rational": (
            "mode general\nr 2\nmatroid vector_rational {\n dim 2\n element a 1/2 0\n"
            " element b 2/4 1\n}\nsequence a b\ncolors u v\n"
        ),
        "affine": (
            "mode special\nr 2\nmatroid affine {\n field rational\n dim 1\n point p 0\n"
            " point q 1\n point s 1/2\n}\nsequence p q s\ncolors u u v\n"
        ),
        "affine_gfp": (
            "mode noncolor\nr 2\nmatroid affine {\n field gfp 2\n dim 1\n point p 0\n"
            " point q 1\n}\nsequence p q p\n"
        ),
        "direct_sum": (
            "mode noncolor\nr 2\nmatroid direct_sum {\n left uniform {\n  k 1\n  n 2\n }\n"
            " right graphic {\n  vertices 2\n  edge g 0 1\n }\n}\nsequence e0 g e1\n"
        ),
    }
    for name, text in texts.items():
        inst = parse_instance(text)
        assert parse_instance(emit_instance(inst)) == inst, name


def test_rational_normalization_on_emit():
    text = (
        "mode general\nr 2\nmatroid vector_rational {\n dim 1\n element a 2/4\n}\n"
        "sequence a\ncolors u\n"
    )
    emitted = emit_instance(parse_instance(text))
    assert "1/2" in emitted and "2/4" not in emitted


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance(SAMPLE.replace("colors red red blue", ""))  # colors required
    with pytest.raises(ParseError):
        parse_instance(SAMPLE.replace("mode special", "mode sideways"))
    with pytest.raises(ParseError):
        parse_instance(SAMPLE.replace("sequence a b c", "sequence a b zz"))
    with pytest.raises(ParseError):
        parse_instance(SAMPLE.replace("r 2", "r 0"))
    with pytest.raises(ParseError):
        parse_instance(SAMPLE.replace("colors red red blue", "colors red red"))
    with pytest.raises(ParseError):
        parse_instance(SAMPLE + "\nunknownfield 3\n")
    with pytest.raises(ParseError):
        parse_instance("mode noncolor\nr 1\nmatroid uniform {\n k 1\n n 1\n")  # unclosed
    with pytest.raises(ParseError) as err:
        parse_instance(SAMPLE.replace("p 3", "p 4"))
    assert "prime" in str(err.value)


AFFINE_GFP = """
mode noncolor
r 2
matroid affine {
    field gfp 3
    dim 1
    point a 1
    point b 0
}
sequence a b
"""


@pytest.mark.parametrize(
    "text",
    [
        SAMPLE.replace("p 3", "p 0"),
        SAMPLE.replace("p 3", "p -3"),
        SAMPLE.replace("p 3", "p 1"),
        SAMPLE.replace("p 3", f"p {2**31 + 11}"),
        AFFINE_GFP.replace("gfp 3", "gfp 0"),
        AFFINE_GFP.replace("gfp 3", "gfp 4"),
        AFFINE_GFP.replace("gfp 3", f"gfp {2**31 + 11}"),
    ],
    ids=["p0", "negative", "p1", "p_too_large", "affine_p0", "affine_composite", "affine_too_large"],
)
def test_bad_prime_is_a_parse_error(text):
    # 2**31 + 11 is prime but beyond the int64 kernels; it must fail here,
    # not later inside a solve.
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line is not None


@pytest.mark.parametrize(
    "text",
    [
        "mode noncolor\nr 1\nmatroid vector_rational {\n dim -1\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid graphic {\n vertices -1\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid vector_gfp {\n p 2\n dim -1\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid vector_gfp {\n p 2\n dim -1\n element\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid vector_rational {\n dim -1\n element\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid affine {\n field gfp 2\n dim -1\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid affine {\n field gfp 2\n dim -1\n point\n}\nsequence a\n",
        "mode noncolor\nr 1\nmatroid affine {\n field rational\n dim -1\n point\n}\nsequence a\n",
    ],
    ids=[
        "rational_negative_dim",
        "graphic_negative_vertices",
        "gfp_negative_dim",
        "gfp_negative_dim_bare_element",
        "rational_negative_dim_bare_element",
        "affine_gfp_negative_dim",
        "affine_gfp_negative_dim_bare_point",
        "affine_rational_negative_dim_bare_point",
    ],
)
def test_negative_size_is_a_parse_error(text):
    # A negative size once escaped as ValueError from the matroid
    # constructor, or as IndexError when a bare element line followed.
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3


RATIONAL_COORD = "mode noncolor\nr 1\nmatroid vector_rational {\n dim 1\n element a 1\n}\nsequence a\n"
AFFINE_COORD = "mode noncolor\nr 1\nmatroid affine {\n field rational\n dim 1\n point a 1\n}\nsequence a\n"


@pytest.mark.parametrize("token", ["1e3", "0.5"])
@pytest.mark.parametrize("text, line", [(RATIONAL_COORD, 5), (AFFINE_COORD, 6)], ids=["vector", "affine"])
def test_a_rational_is_an_integer_or_a_fraction(text, line, token):
    # Fraction() alone also reads exponent and decimal forms, and expanding
    # an exponent as short as 1e10000000 takes seconds.
    assert parse_instance(text.replace(" 1\n}", " -5/7\n}")).oracle is not None
    with pytest.raises(ParseError, match="expected a rational") as err:
        parse_instance(text.replace(" 1\n}", f" {token}\n}}"))
    assert err.value.line == line


GRAPHIC = "mode noncolor\nr 1\nmatroid graphic {\n vertices 2\n edge g1 0 1\n}\nsequence g1\n"


@pytest.mark.parametrize(
    "text",
    [
        SAMPLE.replace("mode special", "mode special {\n mode general\n}"),
        SAMPLE.replace("r 2", "r 2 {\n r 3\n}"),
        AFFINE_GFP.replace("field gfp 3", "field gfp 3 {\n dim 4\n}"),
        SAMPLE.replace("element a 1 0", "element a 1 0 {\n element z 1 1\n}"),
        AFFINE_GFP.replace("point a 1", "point a 1 {\n point z 2\n}"),
        GRAPHIC.replace("edge g1 0 1", "edge g1 0 1 {\n edge g2 0 1\n}"),
    ],
    ids=["mode", "r", "field", "element", "point", "edge"],
)
def test_a_block_on_a_field_line_is_a_parse_error(text):
    # Only matroid, left and right lines open a block; a block on a field
    # line would otherwise be read as the line alone, its contents dropped.
    with pytest.raises(ParseError, match="must not open a block") as err:
        parse_instance(text)
    assert err.value.line is not None


@pytest.mark.parametrize("token", ["0_1", "\u0661"], ids=["underscore", "arabic_indic_one"])
@pytest.mark.parametrize(
    "parse, text, what, line",
    [
        (parse_instance, SAMPLE.replace("r 2", "r @"), "r", 4),
        (parse_instance, SAMPLE.replace("element a 1 0", "element a @ 0"), "coordinate", 8),
        (parse_instance, GRAPHIC.replace("edge g1 0 1", "edge g1 0 @"), "vertex", 5),
        (parse_partition, "parts 1\npart @\n", "index", 2),
    ],
    ids=["r", "coordinate", "vertex", "index"],
)
def test_an_integer_is_ascii_digits(parse, text, what, line, token):
    # int() alone also reads underscores and other scripts' digits; each
    # token here would read as 1, which the plain digit shows is valid.
    parse(text.replace("@", "1"))
    with pytest.raises(ParseError, match=f"{what}: expected an integer") as err:
        parse(text.replace("@", token))
    assert err.value.line == line


GFP_SUM = """mode noncolor
r 2
matroid direct_sum {
    left vector_gfp {
        p 2
        dim 1
        element a 1
    }
    right vector_gfp {
        p 3
        dim 1
        element b 1
    }
}
sequence a b
"""


@pytest.mark.parametrize(
    "text, expected",
    [(SAMPLE, 1), (AFFINE_GFP, 1), (GFP_SUM, 2)],
    ids=["vector_gfp", "affine_gfp", "direct_sum_of_two"],
)
def test_parse_builds_the_matroid_once(monkeypatch, text, expected):
    builds = []
    init = VectorMatroidGFp.__init__

    def counted(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VectorMatroidGFp, "__init__", counted)
    parse_instance(text)
    assert len(builds) == expected


def test_direct_sum_with_a_shared_id_is_a_parse_error():
    text = GFP_SUM.replace("element b 1", "element a 1")
    with pytest.raises(ParseError, match="disjoint") as err:
        parse_instance(text)
    assert err.value.line == 3


def test_parse_error_carries_line():
    bad = "mode special\nr x\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert err.value.line == 2


def test_noncolor_rejects_colors():
    text = "mode noncolor\nr 2\nmatroid uniform {\n k 2\n n 4\n}\nsequence e0 e1\ncolors u v\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_partition_round_trip():
    text = emit_partition([[0, 2], [1]])
    assert parse_partition(text) == [[0, 2], [1]]
    empty_part = emit_partition([[], [1]])
    assert parse_partition(empty_part) == [[], [1]]
    with pytest.raises(ParseError):
        parse_partition("parts 2\npart 0\n")
    with pytest.raises(ParseError):
        parse_partition("part 0\n")
    with pytest.raises(ParseError):
        parse_partition("parts 1\npart 0 0\n")


def test_generator_deterministic():
    a = gen_random_instance("vector_gf2", 3, 2, 6, 42, "special")
    b = gen_random_instance("vector_gf2", 3, 2, 6, 42, "special")
    assert a == b
    c = gen_random_instance("vector_gf2", 3, 2, 6, 43, "special")
    assert a != c


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("profile", ["general", "special"])
def test_generator_satisfies_profile(family, profile):
    m, r, length = 3, 2, 7
    inst = gen_random_instance(family, m, r, length, 7, profile)
    oracle = inst.build_matroid()
    seq = inst.build_sequence()
    coloring = inst.build_coloring()
    assert oracle.rank_bound == m
    assert len(seq) == length
    if profile == "general":
        assert check_general_profile(seq, coloring, r, m)
    else:
        assert special_precondition(oracle, seq, coloring, r)
        assert check_special_profile(seq, coloring, r, m)
    # generated instances are loopless
    assert all(not oracle.in_closure(e, ()) for _, e in seq)


def test_generator_round_trips_through_text():
    for family in GENERATOR_FAMILIES:
        inst = gen_random_instance(family, 2, 2, 5, 3, "general")
        assert parse_instance(emit_instance(inst)) == inst


def test_generator_infeasible_requests():
    with pytest.raises(InfeasibleRequest):
        gen_random_instance("uniform", 2, 3, 4, 1, "general")  # needs > m(r-1) = 4
    with pytest.raises(InfeasibleRequest):
        gen_random_instance("uniform", 3, 2, 3, 1, "special")  # needs >= 4
    with pytest.raises(InfeasibleRequest):
        gen_random_instance("nosuch", 2, 2, 5, 1, "general")


def test_tight_generator_round_trips_through_text():
    for family in GENERATOR_FAMILIES:
        inst = gen_tight_instance(family, 3, 2)
        assert len(inst.sequence) == 3
        assert parse_instance(emit_instance(inst)) == inst


@pytest.mark.parametrize(
    "args",
    [("nosuch", 2, 2), ("uniform", 2, 1), ("uniform", 0, 2), ("vector_gf2", 10**9, 2)],
    ids=["family", "r", "rank", "dim"],
)
def test_tight_generator_refuses_before_building(args):
    # A rank of 10**9 would need a 10**9 x 10**9 anchor; the caps refuse it first.
    with pytest.raises(InfeasibleRequest):
        gen_tight_instance(*args)


def test_random_generator_refuses_a_rank_past_the_caps_before_building():
    with pytest.raises(InfeasibleRequest, match="dim 1000000000 exceeds the file limit of 1000"):
        gen_random_instance("vector_rational", 10**9, 2, 5, 1, "general")
