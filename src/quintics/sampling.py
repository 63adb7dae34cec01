"""Deterministic generic sampling of the 42 configuration types.

Every sampler is a pure function of (type_id, field, seed): one SplitMix64
stream is derived per call and rejection sampling enforces the genericity
predicates of the type (distinctness, no unintended collinear triples, no
unintended six-on-a-conic, conic nondegeneracy, avoidance of intersection
points).  Types whose points must lie on a conic are built by pushing the
rational parametrization (s^2, s t, t^2) of a reference conic through a random
invertible change of coordinates, so sampling works verbatim over the
rationals, where finding points on an arbitrary conic would not be possible.

Every construction draws through one guarded helper, ``_Draw.distinct``,
which makes a bounded number of draws, and runs inside one bounded retry,
``_retry``; the quartic contact sampler of ``lsys`` uses the same two.

A type that needs more points on one line than a line over the field has, a
type whose points cannot exist over a small field (types 18, 26 and 36), or a
conic over GF(2), is refused before any draw, and so is the quartic contact
system over GF(2).  Sampling that keeps failing its predicates gives up after
``MAX_ATTEMPTS`` rejections; over a very small prime field this can still be
the outcome.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Callable, Sequence

from .errors import InputError, SamplingError
from .exactalg import Field, PrimeField
from .projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _det3,
    _index_groups,
    _line_basis,
    _line_key,
    _modulus,
    _no_collinear_triple,
    _odd_characteristic,
    collinear,
    conic_line_second_point,
    conic_through,
    incident,
    line_intersection,
    line_through,
    on_common_conic,
)
from .rng import SplitMix64, derive_seed

MAX_ATTEMPTS = 1000

# Bound for rational coordinate draws; small values keep the exact linear
# algebra downstream fast.
_QQ_COORD_BOUND = 9


class _Draw:
    """Field-aware random draws from one SplitMix64 stream."""

    def __init__(self, field: Field, rng: SplitMix64):
        self.field = field
        self.rng = rng
        self._p = _modulus(field)
        self._line_bases: dict = {}

    def coord(self) -> int:
        """A plain int: a residue over GF(p), a bounded integer over QQ."""
        if self._p is not None:
            return self.rng.below(self._p)
        return self.rng.int_in(-_QQ_COORD_BOUND, _QQ_COORD_BOUND)

    def coords(self, n: int) -> list:
        return [self.coord() for _ in range(n)]

    def _redraw(self, n: int, make: Callable[[list], object]) -> object:
        """``make(c)`` for the first ``n`` fresh coordinates ``c`` for which it
        is not None."""
        while True:
            value = make(self.coords(n))
            if value is not None:
                return value

    def _nonzero(self, c: list) -> list | None:
        return c if any(not self.field.is_zero(v) for v in c) else None

    def point(self) -> ProjPoint:
        return ProjPoint(self.field, self._redraw(3, self._nonzero))

    def line(self) -> ProjLine:
        return ProjLine(self.field, self._redraw(3, self._nonzero))

    def two_lines(self) -> tuple[ProjLine, ProjLine, ProjPoint]:
        """Two distinct lines and their meet."""
        l1 = self.line()
        l2 = self.line()
        if l1 == l2:
            raise _Reject
        return l1, l2, line_intersection(l1, l2)

    def matrix(self) -> list:
        """The rows of an invertible 3x3 matrix, unreduced over GF(p)."""
        def invertible(c: list) -> list | None:
            rows = [c[0:3], c[3:6], c[6:9]]
            return None if self.field.is_zero(_det3(rows)) else rows

        return self._redraw(9, invertible)

    def point_on(self, ln: ProjLine) -> ProjPoint:
        """s u + t v for a random nonzero (s, t), with u, v the integer basis
        vectors of the line; both are the echelon kernel basis times one
        common factor, so the projective point does not depend on it."""
        basis = self._line_bases.get(ln)
        if basis is None:
            basis = self._line_bases[ln] = _line_basis(ln)
        u, v = basis
        return ProjPoint(self.field, self._redraw(
            2, lambda st: self._nonzero([st[0] * a + st[1] * b for a, b in zip(u, v)])))

    def distinct(self, n: int, make: Callable[[], object], avoid: Sequence = (),
                 skip: Callable[[object], bool] | None = None, limit: int = 200) -> list:
        """``n`` distinct values of ``make()``, none in ``avoid`` and none that
        ``skip`` accepts.  Each draw is counted before it is made, and the
        draw that would exceed ``limit`` raises ``_Reject`` instead."""
        got: list = []
        drawn = 0
        while len(got) < n:
            if drawn == limit:
                raise _Reject
            drawn += 1
            value = make()
            if value not in got and value not in avoid and not (skip is not None and skip(value)):
                got.append(value)
        return got

    def distinct_points_on(self, ln: ProjLine, n: int, avoid: Sequence[ProjPoint] = ()) -> list:
        got: list[ProjPoint] = []
        banned = set(avoid)
        # Each draw is counted after it is made, one more than ``distinct``
        # allows; folding this loop into it would shift the stream after a
        # line runs out of points.
        for drawn in count(1):
            if len(got) == n:
                return got
            p = self.point_on(ln)
            if p not in banned:
                got.append(p)
                banned.add(p)
            if drawn > 64 * n + 64:
                raise _Reject


class _Reject(Exception):
    """Internal signal: this attempt violated a genericity predicate."""


def _retry(build: Callable[[_Draw], object], field: Field, seed: int, failure: str):
    """``build`` on one draw stream seeded by ``seed``, run again after each
    ``_Reject``; after ``MAX_ATTEMPTS`` rejections ``SamplingError`` says
    ``failure``."""
    draw = _Draw(field, SplitMix64(seed))
    for _ in range(MAX_ATTEMPTS):
        try:
            return build(draw)
        except _Reject:
            pass
    raise SamplingError(f"{failure} within {MAX_ATTEMPTS} attempts; the field may be too small")


def _line_capacity(field: Field, need: int, what: str) -> None:
    """Refuse ``what``, before any draw, when it needs more distinct points on
    one line than a line over ``field`` has."""
    if isinstance(field, PrimeField) and need > field.p + 1:
        raise SamplingError(
            f"{what} needs {need} distinct points on one line, but a "
            f"line over {field} has only {field.p + 1}")


def _only_allowed_collinear(points: Sequence[ProjPoint], allowed: Sequence[ProjLine]) -> bool:
    """Every line through three or more of the points must be an allowed line."""
    keys = {_line_key(ln) for ln in allowed}
    return all(key in keys for key, on in _index_groups(points).items() if len(on) >= 3)


def _reference_conic_points(draw: _Draw, n: int) -> tuple[Conic, list[ProjPoint]]:
    """A nondegenerate conic with ``n`` rational points on it.

    Applies a random invertible coordinate change T to the parametrized conic
    x z = y^2; the image conic has coefficients (r0 . x)(r2 . x) - (r1 . x)^2
    where r0, r1, r2 are the rows of T^{-1}.
    """
    f = draw.field
    t_rows = draw.matrix()
    inv = _adjugate3(t_rows)  # rows of T^{-1} up to the harmless factor det
    conic = _conic_from_forms(f, inv[0], inv[2], inv[1])
    params = draw.distinct(n, draw.coord, limit=64 * n + 64)
    points = [ProjPoint(f, tuple(r0 + r1 * t + r2 * t * t for r0, r1, r2 in t_rows))
              for t in params]
    return conic, points


def _adjugate3(m) -> list:
    """Adjugate of a 3x3 matrix, unreduced over GF(p)."""
    def co(i, j):
        sub = [[m[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
        det2 = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        return det2 if (i + j) % 2 == 0 else -det2

    return [[co(j, i) for j in range(3)] for i in range(3)]


def _sym(a, b) -> tuple:
    """The product of linear forms (a.x)(b.x) in the package conic ordering,
    unreduced over GF(p)."""
    return (
        a[0] * b[0],
        a[1] * b[1],
        a[2] * b[2],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[2] * b[0],
        a[1] * b[2] + a[2] * b[1],
    )


def _conic_from_forms(f: Field, u, v, w) -> Conic:
    """Conic (u.x)(v.x) - (w.x)^2 in the package coefficient ordering."""
    return Conic(f, tuple(a - b for a, b in zip(_sym(u, v), _sym(w, w))))


def conic_from_line_pair(l1: ProjLine, l2: ProjLine) -> Conic:
    """The degenerate conic that is the union of two lines."""
    return Conic(l1.field, _sym(l1.coeffs, l2.coeffs))


# ---------------------------------------------------------------------------
# per-type constructions


def _points_config(f: Field, pts: Sequence[ProjPoint], tid: int) -> Config:
    return Config(f, points=tuple(pts), type_id=tid)


def _k_on_line(draw: _Draw, k: int, tid: int) -> Config:
    ln = draw.line()
    pts = draw.distinct_points_on(ln, k)
    return _points_config(draw.field, pts, tid)


def _k_on_line_plus_off(draw: _Draw, k: int, off: int, tid: int) -> Config:
    ln = draw.line()
    pts = draw.distinct_points_on(ln, k)
    pts += draw.distinct(off, draw.point, skip=lambda p: incident(p, ln))
    if not _only_allowed_collinear(pts, [ln]):
        raise _Reject
    return _points_config(draw.field, pts, tid)


def _two_line_trios(draw: _Draw, include_intersection: bool, extra_off: int, tid: int) -> Config:
    l1, l2, p12 = draw.two_lines()
    a = draw.distinct_points_on(l1, 3, avoid=[p12])
    b = draw.distinct_points_on(l2, 3, avoid=[p12] + a)
    pts = a + b
    if include_intersection:
        pts.append(p12)
    pts += draw.distinct(extra_off, draw.point, avoid=pts,
                         skip=lambda q: incident(q, l1) or incident(q, l2))
    if not _only_allowed_collinear(pts, [l1, l2]):
        raise _Reject
    return _points_config(draw.field, pts, tid)


def _two_lines_points(draw: _Draw, k1: int, k2: int, tid: int) -> Config:
    l1, l2, p12 = draw.two_lines()
    a = draw.distinct_points_on(l1, k1, avoid=[p12])
    b = draw.distinct_points_on(l2, k2, avoid=[p12] + a)
    return _points_config(draw.field, a + b, tid)


def _conic_points(draw: _Draw, n: int, extra_off: int, tid: int) -> Config:
    conic, pts = _reference_conic_points(draw, n)
    if conic.is_degenerate():
        raise _Reject
    pts += draw.distinct(extra_off, draw.point, avoid=pts,
                         skip=lambda q: conic.contains(q) or not _no_collinear_triple(pts + [q]))
    return _points_config(draw.field, pts, tid)


def _line_component(draw: _Draw, off: int, tid: int, *, off_collinear: bool | None = None) -> Config:
    if off_collinear:
        comp, other, p12 = draw.two_lines()
        pts = draw.distinct_points_on(other, off, avoid=[p12])
    else:
        comp = draw.line()
        pts = draw.distinct(off, draw.point, skip=lambda q: incident(q, comp))
        if off_collinear is False and len(pts) == 3 and collinear(*pts):
            raise _Reject
    return Config(draw.field, points=tuple(pts), lines=(comp,), type_id=tid)


def _pencil_quadruple(draw: _Draw, tid: int) -> Config:
    """Four generic base points plus the four cuts of a line by two conics
    through the base points."""
    base = draw.distinct(4, draw.point)
    if not _no_collinear_triple(base):
        raise _Reject
    ln = draw.line()
    if any(incident(p, ln) for p in base):
        raise _Reject

    def cut_pair(avoid: set) -> tuple[ProjPoint, ProjPoint, Conic]:
        for _ in range(64):
            p = draw.point_on(ln)
            if p in avoid:
                continue
            q = conic_through(base + [p])
            if q is None or q.is_degenerate():
                continue
            other = conic_line_second_point(q, ln, p)
            if other is None or other == p or other in avoid:
                continue
            return p, other, q
        raise _Reject

    p1, p1x, q1 = cut_pair(set())
    p2, p2x, q2 = cut_pair({p1, p1x})
    if q2 == q1:
        raise _Reject
    pts = base + [p1, p1x, p2, p2x]
    if len(set(pts)) != 8:
        raise _Reject
    if not _only_allowed_collinear(pts, [ln]):
        raise _Reject
    return _points_config(draw.field, pts, tid)


def _triangle_conic(draw: _Draw, tid: int) -> Config:
    """Three generic vertices plus the six cuts of the triangle sides by a
    conic avoiding the vertices."""
    verts = draw.distinct(3, draw.point)
    a, b, c = verts
    if collinear(a, b, c):
        raise _Reject
    ab, bc, ca = line_through(a, b), line_through(b, c), line_through(c, a)
    q12 = draw.distinct_points_on(ab, 2, avoid=[a, b])
    q34 = draw.distinct_points_on(bc, 2, avoid=[b, c] + q12)
    (q5,) = draw.distinct_points_on(ca, 1, avoid=[c, a] + q12 + q34)
    quad = conic_through(q12 + q34 + [q5])
    if quad is None or quad.is_degenerate():
        raise _Reject
    if any(quad.contains(v) for v in verts):
        raise _Reject
    q6 = conic_line_second_point(quad, ca, q5)
    if q6 is None or q6 in verts + q12 + q34 + [q5]:
        raise _Reject
    pts = verts + q12 + q34 + [q5, q6]
    if not _only_allowed_collinear(pts, [ab, bc, ca]):
        raise _Reject
    return _points_config(draw.field, pts, tid)


def _five_lines(draw: _Draw, tid: int) -> Config:
    lines = draw.distinct(5, draw.line)
    pts = []
    for l1, l2 in combinations(lines, 2):
        p = line_intersection(l1, l2)
        if p in pts:
            raise _Reject
        pts.append(p)
    if not _only_allowed_collinear(pts, lines):
        raise _Reject
    return _points_config(draw.field, pts, tid)


def _generic_points(draw: _Draw, k: int, tid: int | str) -> Config:
    pts = draw.distinct(k, draw.point, limit=400)
    if not _no_collinear_triple(pts):
        raise _Reject
    if k >= 6:
        for six in combinations(pts, 6):
            if on_common_conic(six):
                raise _Reject
    return _points_config(draw.field, pts, tid)


def _two_line_components(draw: _Draw) -> Config:
    l1, l2, _ = draw.two_lines()
    return Config(draw.field, lines=(l1, l2), type_id=31)


def _conic_component(draw: _Draw) -> Config:
    conic = Conic(draw.field, draw._redraw(6, draw._nonzero))
    if conic.is_degenerate():
        raise _Reject
    return Config(draw.field, conics=(conic,), type_id=33)


_BUILDERS: dict[int, Callable[[_Draw], Config]] = {
    1: lambda d: _points_config(d.field, [d.point()], 1),
    2: lambda d: _generic_points(d, 2, 2),
    3: lambda d: _generic_points(d, 3, 3),
    4: lambda d: _k_on_line(d, 4, 4),
    5: lambda d: _k_on_line(d, 5, 5),
    6: lambda d: _k_on_line(d, 6, 6),
    7: lambda d: _k_on_line(d, 7, 7),
    8: lambda d: _k_on_line(d, 8, 8),
    9: lambda d: _k_on_line(d, 9, 9),
    10: lambda d: _k_on_line(d, 10, 10),
    11: lambda d: _line_component(d, 0, 11),
    12: lambda d: _generic_points(d, 4, 12),
    13: lambda d: _k_on_line_plus_off(d, 4, 1, 13),
    14: lambda d: _k_on_line_plus_off(d, 5, 1, 14),
    15: lambda d: _k_on_line_plus_off(d, 6, 1, 15),
    16: lambda d: _k_on_line_plus_off(d, 7, 1, 16),
    17: lambda d: _line_component(d, 1, 17),
    18: lambda d: _generic_points(d, 5, 18),
    19: lambda d: _k_on_line_plus_off(d, 4, 2, 19),
    20: lambda d: _k_on_line_plus_off(d, 5, 2, 20),
    21: lambda d: _k_on_line_plus_off(d, 6, 2, 21),
    22: lambda d: _line_component(d, 2, 22),
    23: lambda d: _two_line_trios(d, False, 0, 23),
    24: lambda d: _conic_points(d, 6, 0, 24),
    25: lambda d: _two_line_trios(d, True, 0, 25),
    26: lambda d: _generic_points(d, 6, 26),
    27: lambda d: _two_lines_points(d, 4, 3, 27),
    28: lambda d: _two_lines_points(d, 5, 3, 28),
    29: lambda d: _line_component(d, 3, 29, off_collinear=True),
    30: lambda d: _two_lines_points(d, 4, 4, 30),
    31: _two_line_components,
    32: lambda d: _conic_points(d, 7, 0, 32),
    33: _conic_component,
    34: lambda d: _k_on_line_plus_off(d, 4, 3, 34),
    35: lambda d: _two_line_trios(d, False, 1, 35),
    36: lambda d: _conic_points(d, 6, 1, 36),
    37: lambda d: _two_line_trios(d, True, 1, 37),
    38: lambda d: _pencil_quadruple(d, 38),
    39: lambda d: _triangle_conic(d, 39),
    40: lambda d: _five_lines(d, 40),
    41: lambda d: _line_component(d, 3, 41, off_collinear=False),
    42: lambda d: Config(d.field, type_id=42, whole_plane=True),
}


# The most distinct points of one line that the construction of a type uses,
# counting the intersection points it must avoid there.  A line over GF(p)
# has p + 1 points, so a larger count can never be met.
_POINTS_ON_ONE_LINE = {
    4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10,
    13: 4, 14: 5, 15: 6, 16: 7, 19: 4, 20: 5, 21: 6,
    23: 4, 25: 4, 27: 5, 28: 6, 29: 4, 30: 5, 34: 4,
    35: 4, 37: 4, 38: 4, 39: 4, 40: 4,
}


# The least prime over which each of these types has a configuration at all:
# - 18 needs a 5-arc (five points, no three collinear).  An arc over GF(q)
#   has at most q + 2 points, q + 1 for odd q, so GF(2) and GF(3) have none.
# - 26 needs a 6-arc on no conic.  GF(2) and GF(3) have no 6-arc, and over
#   GF(5) a 6-arc has q + 1 points, so it lies on a conic by Segre's theorem.
# - 36 needs a seventh point off a nondegenerate conic and off the 15 secants
#   of six points on it.  Over GF(p), p <= 7, no six points of the conic
#   xz = y^2 leave such a point; every nondegenerate conic is projectively
#   equivalent to it and the condition is projectively invariant, so no
#   conic over these fields does.
_MIN_PRIME = {18: 5, 26: 7, 36: 11}
_MIN_PRIME_NEEDS = {
    18: "five points with no three collinear, and no such points exist",
    26: "six points with no three collinear and not on one conic, "
        "and no such points exist",
    36: "a point off a conic and off every secant of six points on it, "
        "and no such point exists",
}


# Types whose construction tests a conic for degeneracy, which the package
# decides in odd characteristic only.  Types 36, 38 and 39 are built on conics
# too, but the checks above already refuse them over GF(2).
_CONIC_TYPES = frozenset({24, 32, 33})


def sample_generic(type_id: int, field: Field, seed: int) -> Config:
    """Deterministically sample a generic configuration of the given type.

    A type whose construction needs more points on one line than a line over
    the field has, type 18, 26 or 36 over a field too small for it, or a type
    built on a conic over GF(2), fails at once, before any draw.
    """
    if not 1 <= type_id <= 42:
        raise InputError(f"type_id {type_id} out of range 1..42")
    _line_capacity(field, _POINTS_ON_ONE_LINE.get(type_id, 0), f"type {type_id}")
    if isinstance(field, PrimeField) and field.p < _MIN_PRIME.get(type_id, 0):
        raise SamplingError(f"type {type_id} needs {_MIN_PRIME_NEEDS[type_id]} over {field}")
    if type_id in _CONIC_TYPES:
        _odd_characteristic(field)
    return _retry(_BUILDERS[type_id], field, derive_seed(seed, type_id),
                  f"could not satisfy genericity for type {type_id} over {field}")


def sample_generic_points(k: int, field: Field, seed: int) -> Config:
    """Sample k points in general position: no 3 collinear, no 6 on a conic."""
    return _retry(lambda draw: _generic_points(draw, k, "untyped"), field,
                  derive_seed(seed, 100 + k),
                  f"could not place {k} generic points over {field}")


def random_projective_transform(field: Field, seed: int) -> list:
    """A random invertible 3x3 matrix, for projective-invariance tests."""
    rows = _Draw(field, SplitMix64(derive_seed(seed, 777))).matrix()
    return [[field.coerce(v) for v in row] for row in rows]


def apply_transform_to_point(m: list, pt: ProjPoint) -> ProjPoint:
    x, y, z = pt.coords
    return ProjPoint(pt.field, tuple(r0 * x + r1 * y + r2 * z for r0, r1, r2 in m))


def apply_transform_to_line(m: list, ln: ProjLine) -> ProjLine:
    # Lines transform by the inverse transpose; the adjugate differs from it
    # by a nonzero determinant factor, which projective normalization kills.
    a, b, c = ln.coeffs
    return ProjLine(ln.field, tuple(a * c0 + b * c1 + c * c2
                                    for c0, c1, c2 in zip(*_adjugate3(m))))


def apply_transform_to_config(m: list, cfg: Config) -> Config:
    pts = tuple(apply_transform_to_point(m, p) for p in cfg.points)
    lines = tuple(apply_transform_to_line(m, ln) for ln in cfg.lines)
    conics = tuple(_transform_conic(m, c) for c in cfg.conics)
    return Config(cfg.field, points=pts, lines=lines, conics=conics,
                  type_id=cfg.type_id, whole_plane=cfg.whole_plane)


def _transform_conic(m: list, c: Conic) -> Conic:
    # Pull back the quadratic form along the adjugate (inverse up to scale):
    # q'(x) = q(Ax) with A = adjugate(m), expanded through the Veronese map.
    r0, r1, r2 = _adjugate3(m)
    acc = [0] * 6
    for coef, (u, v) in zip(c.coeffs, ((r0, r0), (r1, r1), (r2, r2), (r0, r1), (r0, r2), (r1, r2))):
        for i, val in enumerate(_sym(u, v)):
            acc[i] += coef * val
    return Conic(c.field, tuple(acc))
