"""Instance files, partition files, and seeded random instance generation.

The instance format is a single canonical line-oriented text document::

    # comments run to the end of the line
    mode special            # general | special | noncolor
    r 2
    matroid vector_gfp {
        p 3
        dim 2
        element a 1 0
        element b 2 0
        element c 0 1
    }
    sequence a b c
    colors red red blue     # omitted when mode is noncolor

Tokens are whitespace-separated; a line ending in ``{`` opens a block and a
bare ``}`` closes it.  ``sequence`` and ``colors`` lines may repeat and
concatenate.  Integers are arbitrary precision; rationals are written
``numerator/denominator`` and are normalized on emission.

Matroid blocks:

    vector_gfp       { p P  dim D  element ID c1 .. cD ... }
    vector_rational  { dim D  element ID q1 .. qD ... }
    affine           { field rational | field gfp P  dim D  point ID .. }
    uniform          { k K  n N }            # elements are named e0..e{N-1}
    graphic          { vertices N  edge ID U V ... }
    direct_sum       { left FAMILY { .. }  right FAMILY { .. } }

The sizes a file may declare are capped by the ``MAX_*`` constants, checked
before the matroid is built.

A partition file lists one ``part`` line of entry indices per part::

    parts 2
    part 0
    part 1 2
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfeasibleRequest, InternalInvariantBroken, ParseError
from .matroids import (
    AffineMatroid,
    DirectSumMatroid,
    GraphicMatroid,
    UniformMatroid,
    VectorMatroidGFp,
    VectorMatroidRational,
    check_prime,
)
from .sequences import Coloring, IndexedSequence

MODES = ("general", "special", "noncolor")

FAMILY_NAMES = (
    "vector_gfp",
    "vector_rational",
    "affine",
    "uniform",
    "graphic",
    "direct_sum",
)


# Caps on the sizes an instance file may declare.  ``parse_instance`` checks
# them before it builds the matroid, so a short file cannot ask for more
# memory than the host has: ``uniform { k 2 n 400000000 }`` would
# materialize 400 million ground elements.  They admit every instance the
# tests and the benchmark use.  ``MAX_P``, the largest prime below 2**31,
# keeps the int64 GF(p) kernel exact; ``matroids.check_prime`` enforces it
# for every GF(p) matroid, read from a file or built in code.
MAX_N = 100_000
MAX_VERTICES = 100_000
MAX_DIM = 1_000
MAX_R = 100_000
MAX_SEQUENCE = 1_000_000
MAX_P = 2**31 - 1


# ---------------------------------------------------------------------------
# Family specs.


@dataclass
class VectorGFpSpec:
    p: int
    dim: int
    elements: dict

    family = "vector_gfp"

    def build(self):
        return VectorMatroidGFp(self.p, self.dim, self.elements)


@dataclass
class VectorRationalSpec:
    dim: int
    elements: dict

    family = "vector_rational"

    def build(self):
        return VectorMatroidRational(self.dim, self.elements)


@dataclass
class AffineSpec:
    field: object  # "rational" or a prime
    dim: int
    points: dict

    family = "affine"

    def build(self):
        return AffineMatroid(self.field, self.dim, self.points)


@dataclass
class UniformSpec:
    k: int
    n: int

    family = "uniform"

    def build(self):
        return UniformMatroid(self.k, self.n)


@dataclass
class GraphicSpec:
    vertices: int
    edges: dict

    family = "graphic"

    def build(self):
        return GraphicMatroid(self.vertices, self.edges)


@dataclass
class DirectSumSpec:
    left: object
    right: object

    family = "direct_sum"

    def build(self):
        return DirectSumMatroid(self.left.build(), self.right.build())


@dataclass
class InstanceFile:
    """A parsed instance: matroid spec, sequence of element ids, colors, r, mode.

    ``oracle`` is the matroid ``parse_instance`` built to check the sequence's
    references, or None for an instance made in code; it takes no part in
    equality.  ``build_matroid`` always builds a fresh one.
    """

    matroid: object
    sequence: tuple
    colors: tuple | None
    r: int
    mode: str
    oracle: object = field(default=None, compare=False, repr=False)

    def build_matroid(self):
        return self.matroid.build()

    def build_sequence(self):
        return IndexedSequence.from_elements(self.sequence)

    def build_coloring(self):
        if self.colors is None:
            return None
        return Coloring({i: c for i, c in enumerate(self.colors)})


# ---------------------------------------------------------------------------
# Tokenizing and the block tree.


@dataclass
class _Node:
    tokens: list
    line: int
    children: list | None = None  # None for plain fields


def _tokenize(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            yield lineno, tokens


def _parse_tree(text):
    root = []
    stack = [root]
    depth_lines = []
    for lineno, tokens in _tokenize(text):
        if tokens == ["}"]:
            if len(stack) == 1:
                raise ParseError("unmatched '}'", lineno)
            stack.pop()
            depth_lines.pop()
        elif tokens[-1] == "{":
            if len(tokens) == 1:
                raise ParseError("'{' needs a preceding keyword", lineno)
            node = _Node(tokens[:-1], lineno, children=[])
            stack[-1].append(node)
            stack.append(node.children)
            depth_lines.append(lineno)
        else:
            stack[-1].append(_Node(tokens, lineno))
    if len(stack) != 1:
        raise ParseError("unclosed '{'", depth_lines[-1])
    return root


def _int(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {token!r}", line) from None


def _prime(token, line, what):
    """A prime checked before any coordinate is reduced modulo it."""
    try:
        return check_prime(_int(token, line, what))
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line) from None


def _fraction(token, line):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational like 3 or -5/7, got {token!r}", line) from None


def _check_token(token, line, what):
    if any(ch.isspace() for ch in token) or "#" in token or token in ("{", "}"):
        raise ParseError(f"{what} {token!r} contains reserved characters", line)
    return token


# ---------------------------------------------------------------------------
# Matroid block readers / writers.


def _read_matroid(node):
    if len(node.tokens) != 2 or node.tokens[0] != "matroid":
        raise ParseError("expected 'matroid <family> {'", node.line)
    return _read_family(node.tokens[1], node.children, node.line)


def _read_family(family, children, line):
    if family not in FAMILY_NAMES:
        raise ParseError(f"unknown matroid family {family!r}", line)
    reader = {
        "vector_gfp": _read_vector_gfp,
        "vector_rational": _read_vector_rational,
        "affine": _read_affine,
        "uniform": _read_uniform,
        "graphic": _read_graphic,
        "direct_sum": _read_direct_sum,
    }[family]
    return reader(children, line)


def _scalar_fields(children, wanted, family):
    values = {}
    rest = []
    for node in children:
        key = node.tokens[0]
        if key in wanted:
            if node.children is not None:
                raise ParseError(f"field {key!r} must not open a block", node.line)
            if key in values:
                raise ParseError(f"duplicate field {key!r}", node.line)
            if len(node.tokens) != 2:
                raise ParseError(f"field {key!r} takes exactly one value", node.line)
            values[key] = (node.tokens[1], node.line)
        else:
            rest.append(node)
    for key in wanted:
        if key not in values:
            raise ParseError(f"{family}: missing field {key!r}", rest[0].line if rest else 0)
    return values, rest


def _read_vectors(children, dim, keyword):
    table = {}
    for node in children:
        if node.tokens[0] != keyword:
            raise ParseError(f"unexpected field {node.tokens[0]!r}", node.line)
        if len(node.tokens) != 2 + dim:
            raise ParseError(
                f"{keyword} needs an id and {dim} coordinates", node.line
            )
        eid = _check_token(node.tokens[1], node.line, "element id")
        if eid in table:
            raise ParseError(f"duplicate element id {eid!r}", node.line)
        table[eid] = (node.tokens[2:], node.line)
    return table


def _dim(values, line):
    """The block's ``dim`` field, checked before any row is read."""
    dim = _int(*values["dim"], "dim")
    if dim < 0:
        raise ParseError("dim must be nonnegative", line)
    return dim


def _read_vector_gfp(children, line):
    values, rest = _scalar_fields(children, ("p", "dim"), "vector_gfp")
    p = _prime(*values["p"], "p")
    dim = _dim(values, line)
    raw = _read_vectors(rest, dim, "element")
    elements = {
        eid: tuple(_int(tok, ln, "coordinate") % p for tok in toks)
        for eid, (toks, ln) in raw.items()
    }
    return VectorGFpSpec(p, dim, elements)


def _read_vector_rational(children, line):
    values, rest = _scalar_fields(children, ("dim",), "vector_rational")
    dim = _dim(values, line)
    raw = _read_vectors(rest, dim, "element")
    elements = {
        eid: tuple(_fraction(tok, ln) for tok in toks) for eid, (toks, ln) in raw.items()
    }
    return VectorRationalSpec(dim, elements)


def _read_affine(children, line):
    field_nodes = [n for n in children if n.tokens[0] == "field"]
    if len(field_nodes) != 1:
        raise ParseError("affine needs exactly one 'field' line", line)
    fnode = field_nodes[0]
    if fnode.tokens[1:] == ["rational"]:
        field = "rational"
    elif len(fnode.tokens) == 3 and fnode.tokens[1] == "gfp":
        field = _prime(fnode.tokens[2], fnode.line, "field prime")
    else:
        raise ParseError("field must be 'rational' or 'gfp <prime>'", fnode.line)
    rest = [n for n in children if n.tokens[0] != "field"]
    values, rest = _scalar_fields(rest, ("dim",), "affine")
    dim = _dim(values, line)
    raw = _read_vectors(rest, dim, "point")
    if field == "rational":
        points = {
            eid: tuple(_fraction(tok, ln) for tok in toks)
            for eid, (toks, ln) in raw.items()
        }
    else:
        points = {
            eid: tuple(_int(tok, ln, "coordinate") % field for tok in toks)
            for eid, (toks, ln) in raw.items()
        }
    return AffineSpec(field, dim, points)


def _read_uniform(children, line):
    values, rest = _scalar_fields(children, ("k", "n"), "uniform")
    if rest:
        raise ParseError(f"unexpected field {rest[0].tokens[0]!r}", rest[0].line)
    k = _int(*values["k"], "k")
    n = _int(*values["n"], "n")
    if k < 0 or n < 0:
        raise ParseError("k and n must be nonnegative", line)
    return UniformSpec(k, n)


def _read_graphic(children, line):
    values, rest = _scalar_fields(children, ("vertices",), "graphic")
    vertices = _int(*values["vertices"], "vertices")
    if vertices < 0:
        raise ParseError("vertices must be nonnegative", line)
    edges = {}
    for node in rest:
        if node.tokens[0] != "edge":
            raise ParseError(f"unexpected field {node.tokens[0]!r}", node.line)
        if len(node.tokens) != 4:
            raise ParseError("edge needs an id and two vertex numbers", node.line)
        eid = _check_token(node.tokens[1], node.line, "edge id")
        if eid in edges:
            raise ParseError(f"duplicate edge id {eid!r}", node.line)
        u = _int(node.tokens[2], node.line, "vertex")
        v = _int(node.tokens[3], node.line, "vertex")
        if not (0 <= u < vertices and 0 <= v < vertices):
            raise ParseError(f"edge {eid!r} references a vertex outside 0..{vertices - 1}", node.line)
        edges[eid] = (u, v)
    return GraphicSpec(vertices, edges)


def _read_direct_sum(children, line):
    sides = {}
    for node in children:
        key = node.tokens[0]
        if key not in ("left", "right"):
            raise ParseError(f"unexpected field {key!r} in direct_sum", node.line)
        if node.children is None or len(node.tokens) != 2:
            raise ParseError(f"expected '{key} <family> {{'", node.line)
        if key in sides:
            raise ParseError(f"duplicate {key!r} block", node.line)
        sides[key] = _read_family(node.tokens[1], node.children, node.line)
    if set(sides) != {"left", "right"}:
        raise ParseError("direct_sum needs one left and one right block", line)
    return DirectSumSpec(sides["left"], sides["right"])


def _check_limits(spec, line):
    """Raise ParseError if the spec, or a summand of it, declares more than the caps allow."""
    if spec.family == "direct_sum":
        _check_limits(spec.left, line)
        _check_limits(spec.right, line)
        return
    if spec.family == "uniform":
        what, value, cap = "n", spec.n, MAX_N
    elif spec.family == "graphic":
        what, value, cap = "vertices", spec.vertices, MAX_VERTICES
    else:
        what, value, cap = "dim", spec.dim, MAX_DIM
    if value > cap:
        raise ParseError(f"{spec.family}: {what} {value} exceeds the limit of {cap}", line)


def _emit_family(spec, indent):
    pad = "    " * indent
    inner = "    " * (indent + 1)
    lines = []
    if spec.family == "vector_gfp":
        lines.append(f"{inner}p {spec.p}")
        lines.append(f"{inner}dim {spec.dim}")
        for eid, coords in spec.elements.items():
            lines.append(f"{inner}element {eid} " + " ".join(str(c) for c in coords))
    elif spec.family == "vector_rational":
        lines.append(f"{inner}dim {spec.dim}")
        for eid, coords in spec.elements.items():
            lines.append(f"{inner}element {eid} " + " ".join(str(Fraction(c)) for c in coords))
    elif spec.family == "affine":
        field = "rational" if spec.field == "rational" else f"gfp {spec.field}"
        lines.append(f"{inner}field {field}")
        lines.append(f"{inner}dim {spec.dim}")
        for eid, coords in spec.points.items():
            if spec.field == "rational":
                rendered = " ".join(str(Fraction(c)) for c in coords)
            else:
                rendered = " ".join(str(c) for c in coords)
            lines.append(f"{inner}point {eid} {rendered}".rstrip())
    elif spec.family == "uniform":
        lines.append(f"{inner}k {spec.k}")
        lines.append(f"{inner}n {spec.n}")
    elif spec.family == "graphic":
        lines.append(f"{inner}vertices {spec.vertices}")
        for eid, (u, v) in spec.edges.items():
            lines.append(f"{inner}edge {eid} {u} {v}")
    elif spec.family == "direct_sum":
        lines.append(f"{inner}left {spec.left.family} {{")
        lines.extend(_emit_family(spec.left, indent + 1))
        lines.append(f"{inner}}}")
        lines.append(f"{inner}right {spec.right.family} {{")
        lines.extend(_emit_family(spec.right, indent + 1))
        lines.append(f"{inner}}}")
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    return lines


# ---------------------------------------------------------------------------
# Instance parse / emit.


def parse_instance(text):
    """Parse an instance document into an InstanceFile (references validated).

    Sizes beyond the ``MAX_*`` caps raise ParseError before the matroid is built.
    """
    tree = _parse_tree(text)
    mode = None
    r = None
    matroid = None
    sequence = []
    colors = []
    seen_colors = False
    for node in tree:
        key = node.tokens[0]
        if key == "mode":
            if mode is not None:
                raise ParseError("duplicate mode", node.line)
            if len(node.tokens) != 2 or node.tokens[1] not in MODES:
                raise ParseError(f"mode must be one of {', '.join(MODES)}", node.line)
            mode = node.tokens[1]
        elif key == "r":
            if r is not None:
                raise ParseError("duplicate r", node.line)
            r = _int(node.tokens[1] if len(node.tokens) == 2 else "?", node.line, "r")
            if r < 1:
                raise ParseError("r must be at least 1", node.line)
            if r > MAX_R:
                raise ParseError(f"r {r} exceeds the limit of {MAX_R}", node.line)
        elif key == "matroid":
            if matroid is not None:
                raise ParseError("duplicate matroid block", node.line)
            if node.children is None:
                raise ParseError("expected 'matroid <family> {'", node.line)
            matroid = _read_matroid(node)
            matroid_line = node.line
        elif key == "sequence":
            if node.children is not None:
                raise ParseError("sequence is not a block", node.line)
            sequence.extend(_check_token(t, node.line, "element reference") for t in node.tokens[1:])
        elif key == "colors":
            if node.children is not None:
                raise ParseError("colors is not a block", node.line)
            seen_colors = True
            colors.extend(_check_token(t, node.line, "color") for t in node.tokens[1:])
        else:
            raise ParseError(f"unknown field {key!r}", node.line)
    if mode is None:
        raise ParseError("missing mode")
    if r is None:
        raise ParseError("missing r")
    if matroid is None:
        raise ParseError("missing matroid block")
    if not sequence:
        raise ParseError("missing or empty sequence")
    if len(sequence) > MAX_SEQUENCE:
        raise ParseError(f"sequence has {len(sequence)} entries, beyond the limit of {MAX_SEQUENCE}")
    if mode == "noncolor":
        if seen_colors:
            raise ParseError("mode noncolor does not take colors")
        color_tuple = None
    else:
        if not seen_colors or not colors:
            raise ParseError(f"mode {mode} requires a colors field")
        if len(colors) != len(sequence):
            raise ParseError(
                f"sequence has {len(sequence)} entries but colors lists {len(colors)}"
            )
        color_tuple = tuple(colors)
    _check_limits(matroid, matroid_line)
    try:
        oracle = matroid.build()
    except ValueError as exc:
        raise ParseError(str(exc), matroid_line) from None
    for ref in sequence:
        if ref not in oracle.ground_set:
            raise ParseError(f"sequence references unknown element {ref!r}")
    return InstanceFile(
        matroid=matroid,
        sequence=tuple(sequence),
        colors=color_tuple,
        r=r,
        mode=mode,
        oracle=oracle,
    )


def _wrap_tokens(keyword, tokens, per_line=12):
    lines = []
    for i in range(0, len(tokens), per_line):
        lines.append(f"{keyword} " + " ".join(str(t) for t in tokens[i : i + per_line]))
    return lines


def emit_instance(inst):
    """Render an InstanceFile canonically; parse(emit(x)) == x."""
    lines = [f"mode {inst.mode}", f"r {inst.r}"]
    lines.append(f"matroid {inst.matroid.family} {{")
    lines.extend(_emit_family(inst.matroid, 0))
    lines.append("}")
    lines.extend(_wrap_tokens("sequence", inst.sequence))
    if inst.colors is not None:
        lines.extend(_wrap_tokens("colors", inst.colors))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Partition files.


def parse_partition(text):
    """Parse a partition file into a list of index lists."""
    declared = None
    parts = []
    for lineno, tokens in _tokenize(text):
        if tokens[0] == "parts":
            if declared is not None:
                raise ParseError("duplicate parts line", lineno)
            declared = _int(tokens[1] if len(tokens) == 2 else "?", lineno, "parts")
        elif tokens[0] == "part":
            indices = [_int(t, lineno, "index") for t in tokens[1:]]
            if len(set(indices)) != len(indices):
                raise ParseError("repeated index inside a part", lineno)
            parts.append(sorted(indices))
        else:
            raise ParseError(f"unknown field {tokens[0]!r}", lineno)
    if declared is None:
        raise ParseError("missing parts line")
    if declared != len(parts):
        raise ParseError(f"declared {declared} parts but found {len(parts)}")
    return parts


def emit_partition(index_lists):
    lines = [f"parts {len(index_lists)}"]
    for indices in index_lists:
        lines.append(("part " + " ".join(str(i) for i in sorted(indices))).rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded random instances.

GENERATOR_FAMILIES = (
    "vector_gf2",
    "vector_gf3",
    "vector_rational",
    "affine_rational",
    "uniform",
    "graphic",
)


def _color_plan(profile, m, r, length, rng):
    if profile == "general":
        if length <= m * (r - 1):
            raise InfeasibleRequest(
                f"general profile needs length > m(r-1) = {m * (r - 1)}"
            )
        if r == 1:
            counts = [length]  # count caps are vacuous when only one part is needed
        else:
            counts = [min(r, length)]
            rest = length - counts[0]
            while rest > 0:
                take = min(r - 1, rest)
                counts.append(take)
                rest -= take
    elif profile == "special":
        floor_other = max(r - 1, 1)
        minimum = r + (m - 1) * floor_other
        if length < minimum:
            raise InfeasibleRequest(
                f"special profile with m = {m}, r = {r} needs length >= {minimum}"
            )
        counts = [r] + [floor_other] * (m - 1)
        for _ in range(length - minimum):
            counts[rng.randrange(m)] += 1
    else:
        raise InfeasibleRequest(f"unknown profile {profile!r}")
    multiset = []
    for i, count in enumerate(counts):
        multiset.extend([f"c{i + 1}"] * count)
    rng.shuffle(multiset)
    return tuple(multiset)


def _gen_vector_gfp(p, m, length, rng):
    elements = {}
    for i in range(m):
        elements[f"b{i + 1}"] = tuple(1 if j == i else 0 for j in range(m))
    refs = []
    for i in range(length):
        while True:
            coords = tuple(rng.randrange(p) for _ in range(m))
            if any(coords):
                break
        eid = f"g{i}"
        elements[eid] = coords
        refs.append(eid)
    return VectorGFpSpec(p, m, elements), refs


def _random_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _gen_vector_rational(m, length, rng):
    elements = {}
    for i in range(m):
        elements[f"b{i + 1}"] = tuple(Fraction(1 if j == i else 0) for j in range(m))
    refs = []
    for i in range(length):
        while True:
            coords = tuple(_random_fraction(rng) for _ in range(m))
            if any(coords):
                break
        eid = f"g{i}"
        elements[eid] = coords
        refs.append(eid)
    return VectorRationalSpec(m, elements), refs


def _gen_affine_rational(m, length, rng):
    dim = m - 1
    points = {}
    for i in range(m):
        points[f"a{i + 1}"] = tuple(
            Fraction(1 if j == i - 1 else 0) for j in range(dim)
        )
    refs = []
    for i in range(length):
        eid = f"g{i}"
        points[eid] = tuple(_random_fraction(rng) for _ in range(dim))
        refs.append(eid)
    return AffineSpec("rational", dim, points), refs


def _gen_uniform(m, length, rng):
    n = max(m + 1, min(8, length))
    refs = [f"e{rng.randrange(n)}" for _ in range(length)]
    return UniformSpec(m, n), refs


def _gen_graphic(m, length, rng):
    vertices = m + 1
    edges = {}
    for i in range(m):
        edges[f"t{i + 1}"] = (i, i + 1)
    extra = max(2, length // 2)
    for i in range(extra):
        while True:
            u = rng.randrange(vertices)
            v = rng.randrange(vertices)
            if u != v:
                break
        edges[f"g{i}"] = (u, v)
    pool = list(edges)
    refs = [pool[rng.randrange(len(pool))] for _ in range(length)]
    return GraphicSpec(vertices, edges), refs


def gen_random_instance(family, m, r, length, seed, profile):
    """A seeded instance of the requested family satisfying the profile.

    The matroid always has rank exactly m (a basis is anchored into the
    ground set), sequences never contain loops, and color counts are built
    to meet the requested profile; the result is validated before returning.
    """
    if family not in GENERATOR_FAMILIES:
        raise InfeasibleRequest(
            f"unknown family {family!r}; choose from {', '.join(GENERATOR_FAMILIES)}"
        )
    if m < 1:
        raise InfeasibleRequest("m must be at least 1")
    if r < 1:
        raise InfeasibleRequest("r must be at least 1")
    if length < 1:
        raise InfeasibleRequest("length must be at least 1")
    rng = random.Random(seed)
    colors = _color_plan(profile, m, r, length, rng)
    if family == "vector_gf2":
        spec, refs = _gen_vector_gfp(2, m, length, rng)
    elif family == "vector_gf3":
        spec, refs = _gen_vector_gfp(3, m, length, rng)
    elif family == "vector_rational":
        spec, refs = _gen_vector_rational(m, length, rng)
    elif family == "affine_rational":
        spec, refs = _gen_affine_rational(m, length, rng)
    elif family == "uniform":
        spec, refs = _gen_uniform(m, length, rng)
    else:
        spec, refs = _gen_graphic(m, length, rng)
    inst = InstanceFile(
        matroid=spec,
        sequence=tuple(refs),
        colors=colors,
        r=r,
        mode=profile,
    )
    _validate_generated(inst)
    return inst


def _validate_generated(inst):
    from .solver import general_precondition, special_precondition

    oracle = inst.build_matroid()
    seq = inst.build_sequence()
    coloring = inst.build_coloring()
    if inst.mode == "general":
        ok = general_precondition(oracle, seq, coloring, inst.r)
    else:
        ok = special_precondition(oracle, seq, coloring, inst.r)
    if not ok:
        raise InternalInvariantBroken(f"generated instance fails its profile: {ok.reason}")
