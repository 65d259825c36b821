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
``[+-]digits`` or ``[+-]digits/digits`` and are normalized on emission.
Only a ``matroid`` line, and ``left``/``right`` inside a direct sum, may
open a block.

Matroid blocks:

    vector_gfp       { p P  dim D  element ID c1 .. cD ... }
    vector_rational  { dim D  element ID q1 .. qD ... }
    affine           { field rational | field gfp P  dim D  point ID .. }
    uniform          { k K  n N }            # elements are named e0..e{N-1}
    graphic          { vertices N  edge ID U V ... }
    direct_sum       { left FAMILY { .. }  right FAMILY { .. } }

The sizes a file may declare are capped by the ``MAX_*`` constants, checked
before the matroid is built.

Each family is declared in one place, its spec class (``VectorGFpSpec`` ..
``DirectSumSpec``): how its block reads and writes, which sizes it declares
against the caps, and how its matroid is built.  ``FAMILIES`` maps the
family names of the format to those classes.  The generator families are
anchored in one place too, ``_anchor``, which both generators extend.

A partition file lists one ``part`` line of entry indices per part::

    parts 2
    part 0
    part 1 2
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

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
from .sequences import Coloring, IndexedSequence, quota

MODES = ("general", "special", "noncolor")


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


_BLOCK_KEYWORDS = ("matroid", "left", "right")


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
            if tokens[0] not in _BLOCK_KEYWORDS:
                raise ParseError(f"field {tokens[0]!r} must not open a block", lineno)
            node = _Node(tokens[:-1], lineno, children=[])
            stack[-1].append(node)
            stack.append(node.children)
            depth_lines.append(lineno)
        else:
            stack[-1].append(_Node(tokens, lineno))
    if len(stack) != 1:
        raise ParseError("unclosed '{'", depth_lines[-1])
    return root


_INT = re.compile(r"[+-]?[0-9]+")


def _int(token, line, what):
    """An integer written ``[+-]digits`` in ASCII digits.

    ``int`` alone also reads underscores and other scripts' digits; it
    still refuses a token longer than the interpreter's digit limit.
    """
    if _INT.fullmatch(token):
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(f"{what}: expected an integer, got {token!r}", line)


def _prime(token, line, what):
    """A prime checked before any coordinate is reduced modulo it."""
    try:
        return check_prime(_int(token, line, what))
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line) from None


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _fraction(token, line):
    """A rational written ``[+-]digits`` or ``[+-]digits/digits``.

    ``Fraction`` alone also reads exponent and decimal forms, and expanding
    an exponent such as ``1e10000000`` takes seconds.
    """
    if _RATIONAL.fullmatch(token):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"expected a rational like 3 or -5/7, got {token!r}", line)


def _check_token(token, line, what):
    if any(ch.isspace() for ch in token) or "#" in token or token in ("{", "}"):
        raise ParseError(f"{what} {token!r} contains reserved characters", line)
    return token


# ---------------------------------------------------------------------------
# Block fields and coordinate rows.


def _scalar_fields(children, wanted, family):
    values = {}
    rest = []
    for node in children:
        key = node.tokens[0]
        if key in wanted:
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


def _dim(values, line):
    """The block's ``dim`` field, checked before any row is read."""
    dim = _int(*values["dim"], "dim")
    if dim < 0:
        raise ParseError("dim must be nonnegative", line)
    return dim


def _read_rows(children, dim, keyword, field):
    """The ``keyword ID c1 .. cD`` rows of a block, coordinates in ``field``.

    ``field`` is ``"rational"`` or a prime, and coordinates over a prime are
    reduced modulo it.  Every row's id and length is checked before any
    coordinate is read.
    """
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
    if field == "rational":
        return {eid: tuple(_fraction(tok, ln) for tok in toks) for eid, (toks, ln) in table.items()}
    return {
        eid: tuple(_int(tok, ln, "coordinate") % field for tok in toks)
        for eid, (toks, ln) in table.items()
    }


def _write_rows(indent, keyword, field, rows):
    """One ``keyword ID c1 .. cD`` line per row; rational coordinates are normalized."""
    text = (lambda c: str(Fraction(c))) if field == "rational" else str
    return [" ".join([indent + keyword, eid, *map(text, coords)]) for eid, coords in rows.items()]


# ---------------------------------------------------------------------------
# Family specs.  Each class is one family of the instance format: ``read``
# parses its block's fields, ``emit`` writes them as lines that start with
# the string ``indent``, ``declared`` yields ``(family, field, value, cap)``
# for each size the ``MAX_*`` caps bound, and ``build`` makes the matroid.


@dataclass
class VectorGFpSpec:
    p: int
    dim: int
    elements: dict

    family = "vector_gfp"

    @classmethod
    def read(cls, children, line):
        values, rest = _scalar_fields(children, ("p", "dim"), cls.family)
        p = _prime(*values["p"], "p")
        dim = _dim(values, line)
        return cls(p, dim, _read_rows(rest, dim, "element", p))

    def emit(self, indent):
        rows = _write_rows(indent, "element", self.p, self.elements)
        return [f"{indent}p {self.p}", f"{indent}dim {self.dim}", *rows]

    def declared(self):
        yield self.family, "dim", self.dim, MAX_DIM

    def build(self):
        return VectorMatroidGFp(self.p, self.dim, self.elements)


@dataclass
class VectorRationalSpec:
    dim: int
    elements: dict

    family = "vector_rational"

    @classmethod
    def read(cls, children, line):
        values, rest = _scalar_fields(children, ("dim",), cls.family)
        dim = _dim(values, line)
        return cls(dim, _read_rows(rest, dim, "element", "rational"))

    def emit(self, indent):
        rows = _write_rows(indent, "element", "rational", self.elements)
        return [f"{indent}dim {self.dim}", *rows]

    def declared(self):
        yield self.family, "dim", self.dim, MAX_DIM

    def build(self):
        return VectorMatroidRational(self.dim, self.elements)


@dataclass
class AffineSpec:
    field: object  # "rational" or a prime
    dim: int
    points: dict

    family = "affine"

    @classmethod
    def read(cls, children, line):
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
        values, rest = _scalar_fields(rest, ("dim",), cls.family)
        dim = _dim(values, line)
        return cls(field, dim, _read_rows(rest, dim, "point", field))

    def emit(self, indent):
        field = "rational" if self.field == "rational" else f"gfp {self.field}"
        rows = _write_rows(indent, "point", self.field, self.points)
        return [f"{indent}field {field}", f"{indent}dim {self.dim}", *rows]

    def declared(self):
        yield self.family, "dim", self.dim, MAX_DIM

    def build(self):
        return AffineMatroid(self.field, self.dim, self.points)


@dataclass
class UniformSpec:
    k: int
    n: int

    family = "uniform"

    @classmethod
    def read(cls, children, line):
        values, rest = _scalar_fields(children, ("k", "n"), cls.family)
        if rest:
            raise ParseError(f"unexpected field {rest[0].tokens[0]!r}", rest[0].line)
        k = _int(*values["k"], "k")
        n = _int(*values["n"], "n")
        if k < 0 or n < 0:
            raise ParseError("k and n must be nonnegative", line)
        return cls(k, n)

    def emit(self, indent):
        return [f"{indent}k {self.k}", f"{indent}n {self.n}"]

    def declared(self):
        yield self.family, "n", self.n, MAX_N

    def build(self):
        return UniformMatroid(self.k, self.n)


@dataclass
class GraphicSpec:
    vertices: int
    edges: dict

    family = "graphic"

    @classmethod
    def read(cls, children, line):
        values, rest = _scalar_fields(children, ("vertices",), cls.family)
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
                raise ParseError(
                    f"edge {eid!r} references a vertex outside 0..{vertices - 1}", node.line
                )
            edges[eid] = (u, v)
        return cls(vertices, edges)

    def emit(self, indent):
        return [f"{indent}vertices {self.vertices}"] + [
            f"{indent}edge {eid} {u} {v}" for eid, (u, v) in self.edges.items()
        ]

    def declared(self):
        yield self.family, "vertices", self.vertices, MAX_VERTICES

    def build(self):
        return GraphicMatroid(self.vertices, self.edges)


@dataclass
class DirectSumSpec:
    left: object
    right: object

    family = "direct_sum"

    @classmethod
    def read(cls, children, line):
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
        return cls(sides["left"], sides["right"])

    def emit(self, indent):
        lines = []
        for key, side in (("left", self.left), ("right", self.right)):
            lines += [f"{indent}{key} {side.family} {{", *side.emit(indent + "    "), f"{indent}}}"]
        return lines

    def declared(self):
        yield from self.left.declared()
        yield from self.right.declared()

    def build(self):
        return DirectSumMatroid(self.left.build(), self.right.build())


FAMILIES = {
    spec.family: spec
    for spec in (
        VectorGFpSpec, VectorRationalSpec, AffineSpec, UniformSpec, GraphicSpec, DirectSumSpec
    )
}


def _read_family(family, children, line):
    if family not in FAMILIES:
        raise ParseError(f"unknown matroid family {family!r}", line)
    return FAMILIES[family].read(children, line)


def _check_limits(spec, line):
    """Raise ParseError if the spec, or a summand of it, declares more than the caps allow."""
    for family, what, value, cap in spec.declared():
        if value > cap:
            raise ParseError(f"{family}: {what} {value} exceeds the limit of {cap}", line)


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
            if node.children is None or len(node.tokens) != 2:
                raise ParseError("expected 'matroid <family> {'", node.line)
            matroid = _read_family(node.tokens[1], node.children, node.line)
            matroid_line = node.line
        elif key == "sequence":
            sequence.extend(_check_token(t, node.line, "element reference") for t in node.tokens[1:])
        elif key == "colors":
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
    lines = [f"mode {inst.mode}", f"r {inst.r}", f"matroid {inst.matroid.family} {{"]
    lines += [*inst.matroid.emit("    "), "}"]
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
            counts, rest = [], length
            while rest > 0:
                counts.append(min(quota(len(counts), r), rest))
                rest -= counts[-1]
    elif profile == "special":
        # Each of the m colors carries an entry, even where r = 1 asks none.
        counts = [max(quota(pos, r), 1) for pos in range(m)]
        minimum = sum(counts)
        if length < minimum:
            raise InfeasibleRequest(
                f"special profile with m = {m}, r = {r} needs length >= {minimum}"
            )
        for _ in range(length - minimum):
            counts[rng.randrange(m)] += 1
    else:
        raise InfeasibleRequest(f"unknown profile {profile!r}")
    multiset = []
    for i, count in enumerate(counts):
        multiset.extend([f"c{i + 1}"] * count)
    rng.shuffle(multiset)
    return tuple(multiset)


_PRIMES = {"vector_gf2": 2, "vector_gf3": 3}


def _unit(i, dim):
    return tuple(int(j == i) for j in range(dim))


def _anchor(family, m, n, r, length):
    """A generator family's rank-m spec before any other element, and its basis ids.

    The spec is first made with its sizes and no element, and those sizes
    are checked through its own ``declared``, the rule ``parse_instance``
    applies; then r and the sequence length are checked.  So a request
    beyond the ``MAX_*`` caps raises InfeasibleRequest before the basis is
    built.  The vector families hold the unit vectors b1..bm,
    ``affine_rational`` the origin a1 and the unit points a2..am of
    dimension m - 1, ``graphic`` the path t1..tm on m + 1 vertices, and
    ``uniform`` is U(m, n) with basis e0..e{m-1}.
    """
    rows = {}
    if family == "uniform":
        spec = UniformSpec(m, n)
    elif family == "graphic":
        spec = GraphicSpec(m + 1, rows)
    elif family == "affine_rational":
        spec = AffineSpec("rational", m - 1, rows)
    elif family == "vector_rational":
        spec = VectorRationalSpec(m, rows)
    else:
        spec = VectorGFpSpec(_PRIMES[family], m, rows)
    sizes = [(what, value, cap) for _, what, value, cap in spec.declared()]
    for what, value, cap in sizes + [("r", r, MAX_R), ("sequence length", length, MAX_SEQUENCE)]:
        if value > cap:
            raise InfeasibleRequest(f"{family}: {what} {value} exceeds the file limit of {cap}")
    if family == "uniform":
        return spec, [f"e{i}" for i in range(m)]
    if family == "graphic":
        rows.update((f"t{i + 1}", (i, i + 1)) for i in range(m))
    elif family == "affine_rational":
        rows.update((f"a{i + 1}", _unit(i - 1, m - 1)) for i in range(m))
    else:
        rows.update((f"b{i + 1}", _unit(i, m)) for i in range(m))
    return spec, list(rows)


def _random_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


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
    uniform_n = max(m + 1, min(8, length))
    spec, _ = _anchor(family, m, uniform_n, r, length)
    rng = random.Random(seed)
    colors = _color_plan(profile, m, r, length, rng)
    if family == "uniform":
        refs = [f"e{rng.randrange(uniform_n)}" for _ in range(length)]
    elif family == "graphic":
        for i in range(max(2, length // 2)):
            u = v = 0
            while u == v:
                u, v = rng.randrange(m + 1), rng.randrange(m + 1)
            spec.edges[f"g{i}"] = (u, v)
        pool = list(spec.edges)
        refs = [pool[rng.randrange(len(pool))] for _ in range(length)]
    else:
        # Every affine point is a nonloop; a vector is one when it is nonzero.
        affine = family == "affine_rational"
        rows = spec.points if affine else spec.elements
        draw = (
            partial(rng.randrange, spec.p) if family in _PRIMES else partial(_random_fraction, rng)
        )
        refs = [f"g{i}" for i in range(length)]
        for eid in refs:
            coords = tuple(draw() for _ in range(spec.dim))
            while not (affine or any(coords)):
                coords = tuple(draw() for _ in range(spec.dim))
            rows[eid] = coords
    inst = InstanceFile(
        matroid=spec,
        sequence=tuple(refs),
        colors=colors,
        r=r,
        mode=profile,
    )
    _validate_generated(inst)
    return inst


def gen_tight_instance(family, m, r):
    """The noncolor instance of rank m whose m(r-1) entries admit no partition.

    The sequence holds r - 1 copies of each basis element of the family's
    anchor; the matroid holds one more element off the sequence: the sum
    of the unit vectors, the barycentre of the affine simplex, an edge
    parallel to t1 (m = 1) or closing the triangle t1 t2, or, for
    ``uniform``, two more ground elements.
    """
    if family not in GENERATOR_FAMILIES:
        raise InfeasibleRequest(f"unknown family {family!r}")
    if r < 2:
        raise InfeasibleRequest("r must be at least 2 (r = 1 would yield an empty sequence)")
    if m < 1:
        raise InfeasibleRequest("rank must be at least 1")
    spec, basis = _anchor(family, m, m + 2, r, m * (r - 1))
    if family == "graphic":
        spec.edges["g0"] = (0, 1) if m == 1 else (0, 2)
    elif family == "affine_rational":
        spec.points["s"] = (Fraction(1, m),) * (m - 1)
    elif family != "uniform":
        spec.elements["s"] = (1,) * m
    refs = [eid for eid in basis for _ in range(r - 1)]
    return InstanceFile(matroid=spec, sequence=tuple(refs), colors=None, r=r, mode="noncolor")


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
