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
which makes a bounded number of draws (a ``make`` that returns None spends
one), and runs inside one bounded retry, ``_retry``; the quartic contact
sampler uses the same two.  Only the redraw of nonzero coordinates is
unbounded.  ``_plan`` reads each type's construction off its structure in
``taxonomy``: ``_on_lines`` draws the 28 types of one line or two, with
their points, meet, components and points off them, ``_conic_points`` points
on a conic and ``_generic_points`` points on no declared line or conic; a
conic component and types 38, 39 and 40 have their own code.

Draws, dedupes and skip tests run on normalized integer keys, the idiom of
``projgeom``: a point or a line is drawn as its key, ``_Draw.distinct``
dedupes keys, and a skip test reads them (``projgeom._pairing`` for
incidence, ``projgeom._conic_value`` for a conic).  One loop draws every key
over GF(p) and QQ alike; the fields differ only in the coordinate draw and
the normalizer, and no construction branches on the field.  Each
construction returns the keys of its configuration's parts, and
``sample_generic`` builds each part once with ``projgeom._from_key``, then
the ``Config``, and stamps the type once.
Every change of coordinates, of a reference conic or of a configuration,
pulls forms back along the adjugate with ``projgeom._adjugate`` and
``projgeom._pullback``.

A type that needs more points on one line than a line over the field has
(its largest declared line, with the meets its draws avoid), a type whose
points cannot exist over a small field (types 18, 21, 26 and 36;
nine more over GF(3), and five of them, 32, 34, 35, 37 and 38, over GF(5)
too), a type that needs more points of one conic than the parametrization
reaches (drawn at s = 1, it reaches p of the conic's p + 1 points over GF(p),
so type 24 over GF(5)), or a conic over GF(2), is refused before any draw,
and so is the quartic contact system over GF(2).  Sampling that keeps
failing its predicates gives up after ``MAX_ATTEMPTS`` rejections; over a
very small prime field this can still be the outcome.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Sequence

from .errors import InputError, SamplingError
from .exactalg import Field
from .lsys import _monomial_values, _point_rows
from .projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _adjugate,
    _conic_value,
    _det3,
    _from_key,
    _int_key,
    _join_key,
    _line_basis,
    _odd_characteristic,
    _on_one_conic,
    _only_allowed_collinear,
    _pairing,
    _pullback,
    conic_line_second_point,
    conic_through,
)
from .rng import SplitMix64, derive_seed
from .taxonomy import TYPE_TABLE, _Structure

MAX_ATTEMPTS = 1000

# Bound for rational coordinate draws; small values keep the exact linear
# algebra downstream fast.
_QQ_COORD_BOUND = 9


class _Draw:
    """Random draws from one SplitMix64 stream, as keys.

    A coordinate is a residue over GF(p) and a bounded integer over QQ, and
    the coordinates of one draw come from one ``SplitMix64.below_n`` call.
    A point or a line is drawn as its key: fresh coordinates, drawn again
    while they all vanish (``nonzero``), then normalized by
    ``projgeom._int_key``, the normalizer of ``_join_key``.  Candidates,
    dedupes and skip tests all run on these keys; ``_config`` builds each
    part of an accepted configuration from its key once.
    """

    def __init__(self, field: Field, rng: SplitMix64):
        self.field = field
        self.p = field.p
        self.rng = rng
        # over QQ a coordinate is a draw below 2B + 1 shifted down by B
        if field.p is not None:
            self._bound, self._shift = field.p, 0
        else:
            self._bound, self._shift = 2 * _QQ_COORD_BOUND + 1, _QQ_COORD_BOUND
        self._line_bases: dict = {}

    def coord(self) -> int:
        """A plain int: a residue over GF(p), a bounded integer over QQ."""
        return self.rng.below(self._bound) - self._shift

    def coords(self, n: int) -> list:
        vals = self.rng.below_n(self._bound, n)
        shift = self._shift
        return [v - shift for v in vals] if shift else vals

    def nonzero(self, n: int) -> list:
        """``n`` fresh coordinates, drawn again while they all vanish."""
        while True:
            c = self.coords(n)
            if any(c):
                return c

    def point(self) -> tuple:
        """The key of a random point."""
        return _int_key(self.p, self.nonzero(3))

    # a line's key is drawn as a point's
    line = point

    def two_lines(self) -> tuple[tuple, tuple, tuple]:
        """The keys of two distinct lines and of their meet."""
        l1 = self.line()
        l2 = self.line()
        if l1 == l2:
            raise _Reject
        return l1, l2, _join_key(self.p, l1, l2)

    def matrix(self) -> list:
        """The rows of an invertible 3x3 matrix, unreduced over GF(p)."""
        while True:
            c = self.coords(9)
            rows = [c[0:3], c[3:6], c[6:9]]
            if not self.field.is_zero(_det3(rows)):
                return rows

    def point_on(self, ln: tuple) -> tuple:
        """The key of s u + t v for a random nonzero (s, t), with u, v the
        integer basis vectors of the line with key ``ln``.  Both are the
        echelon kernel basis times one common factor, so the point does not
        depend on it, and they are independent over the field, so s u + t v
        vanishes only when (s, t) does."""
        basis = self._line_bases.get(ln)
        if basis is None:
            basis = self._line_bases[ln] = _line_basis(ln)
        (a, b, c), (d, e, g) = basis
        s, t = self.nonzero(2)
        return _int_key(self.p, (s * a + t * d, s * b + t * e, s * c + t * g))

    def distinct(self, n: int, make: Callable[[], object], avoid: Sequence = (),
                 skip: Callable[[object], bool] | None = None, limit: int = 200) -> list:
        """``n`` distinct values of ``make()``, none in ``avoid`` and none that
        ``skip`` accepts.  Each call of ``make`` is one draw, counted before it
        is made, and a None it returns is a rejected draw; the draw that would
        exceed ``limit`` raises ``_Reject`` instead."""
        got: list = []
        seen = set(avoid)
        drawn = 0
        while len(got) < n:
            if drawn == limit:
                raise _Reject
            drawn += 1
            value = make()
            if value is not None and value not in seen and not (skip is not None and skip(value)):
                got.append(value)
                seen.add(value)
        return got

    def distinct_points_on(self, ln: tuple, n: int, avoid: Sequence[tuple] = ()) -> list:
        """The keys of ``n`` distinct points of the line with key ``ln``, none
        in ``avoid``."""
        return self.distinct(n, partial(self.point_on, ln), avoid=avoid, limit=64 * n + 64)


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


_PART_CLASSES = (("points", ProjPoint), ("lines", ProjLine), ("conics", Conic))


def _config(field: Field, parts: dict, type_id: int | str = "untyped") -> Config:
    """The configuration whose parts ``parts`` gives by their keys, each part
    built once."""
    built = {name: [_from_key(cls, field, key) for key in parts.get(name, ())]
             for name, cls in _PART_CLASSES}
    return Config(field, type_id=type_id, whole_plane=parts.get("whole_plane", False), **built)


def _line_capacity(field: Field, need: int, what: str) -> None:
    """Refuse ``what``, before any draw, when it needs more distinct points on
    one line than a line over ``field`` has."""
    if field.p is not None and need > field.p + 1:
        raise SamplingError(
            f"{what} needs {need} distinct points on one line, but a "
            f"line over {field} has only {field.p + 1}")


def _reference_conic_points(draw: _Draw, n: int) -> tuple[Conic, list[tuple]]:
    """A nondegenerate conic and the keys of ``n`` rational points on it.

    Applies a random invertible coordinate change T to the parametrized conic
    x z = y^2; the image conic is the pull-back of x z - y^2 along the
    adjugate of T, which is T^{-1} up to the harmless factor det T.  The image
    of (1, t, t^2) under the invertible T does not vanish.
    """
    t_rows = draw.matrix()
    conic = Conic(draw.field, _pullback((0, -1, 0, 0, 1, 0), _adjugate(t_rows)))
    params = draw.distinct(n, draw.coord, limit=64 * n + 64)
    points = [_int_key(draw.p, [r0 + r1 * t + r2 * t * t for r0, r1, r2 in t_rows])
              for t in params]
    return conic, points


# ---------------------------------------------------------------------------
# per-type constructions: each returns its configuration's parts, as keyword
# arguments of ``Config`` that give the keys of the points, lines and conics


def _on_lines(draw: _Draw, counts: Sequence[int], meet: bool = False, off: int = 0,
              components: int = 0) -> dict:
    """``counts[i]`` points on the i-th of one random line or two, off their
    meet, then the meet when ``meet``, then ``off`` points on no drawn line;
    the first ``components`` lines are line components.  A count of 0 draws
    nothing.

    Only the off points can put three points on another line: such a line
    meets each drawn line in at most one point of the set, so only the joins
    through an off point are tested (``_off_joins_clear``).
    """
    p = draw.p
    if len(counts) == 1:
        lines, meets = [draw.line()], []
    else:
        l1, l2, p12 = draw.two_lines()
        lines, meets = [l1, l2], [p12]
    pts: list[tuple] = []
    for ln, k in zip(lines, counts):
        pts += draw.distinct_points_on(ln, k, avoid=meets + pts)
    if meet:
        pts += meets
    if off:
        away = draw.distinct(off, draw.point,
                             skip=lambda q: any(not _pairing(p, ln, q) for ln in lines))
        if not _off_joins_clear(p, pts, away):
            raise _Reject
        pts += away
    return {"points": pts, "lines": lines[:components]}


def _off_joins_clear(p: int | None, on: Sequence[tuple], off: Sequence[tuple]) -> bool:
    """No line through a point with a key in ``off`` passes through two more
    of the points with keys in ``on`` and ``off``, over GF(p), or over QQ
    when ``p`` is None.

    When ``on`` lie on one drawn line or two and ``off`` on none, this is
    ``_only_allowed_collinear(p, on + off, lines)``.  A line through three of
    the points that is not drawn meets each drawn line in one point, so it
    holds at most two points of ``on`` and at least one off point; its joins
    from its first off point to two of its other points coincide.  So each
    off point is joined to the points of ``on`` and to the off points after
    it, and a repeated join is such a line.  The same holds when ``on`` lie
    on a nondegenerate conic, which meets a line in at most two points.
    """
    for i, q in enumerate(off):
        joins = [_join_key(p, q, r) for r in [*on, *off[i + 1:]]]
        if len(set(joins)) < len(joins):
            return False
    return True


def _conic_points(draw: _Draw, n: int, extra_off: int) -> dict:
    """``n`` points on a nondegenerate conic, then ``extra_off`` points off
    it, none on a line through two of the conic's points."""
    f = draw.field
    conic, pts = _reference_conic_points(draw, n)
    if conic.is_degenerate():
        raise _Reject

    def skip(q: tuple) -> bool:
        return f.is_zero(_conic_value(conic.key, q)) or not _off_joins_clear(f.p, pts, [q])

    pts += draw.distinct(extra_off, draw.point, avoid=pts, skip=skip)
    return {"points": pts}


def _pencil_quadruple(draw: _Draw) -> dict:
    """Four generic base points plus the four cuts of a line by two conics
    through the base points."""
    p, f = draw.p, draw.field
    base = draw.distinct(4, draw.point)
    if not _only_allowed_collinear(p, base):
        raise _Reject
    ln = draw.line()
    if any(not _pairing(p, ln, b) for b in base):
        raise _Reject
    base_pts = [_from_key(ProjPoint, f, b) for b in base]
    line = _from_key(ProjLine, f, ln)

    def cut(avoid: Sequence[tuple]) -> tuple[tuple, tuple, Conic] | None:
        """The key of a random point x of the line, of the second point
        where the conic q through the base and x cuts it, and q; None when
        q is degenerate or tangent at x, or x or the second point is in
        ``avoid``."""
        x = draw.point_on(ln)
        if x in avoid:
            return None
        pt = _from_key(ProjPoint, f, x)
        q = conic_through(base_pts + [pt])
        if q is None or q.is_degenerate():
            return None
        other = conic_line_second_point(q, line, pt)
        if other is None or other.key == x or other.key in avoid:
            return None
        return x, other.key, q

    p1, p1x, q1 = draw.distinct(1, partial(cut, ()), limit=64)[0]
    p2, p2x, q2 = draw.distinct(1, partial(cut, (p1, p1x)), limit=64)[0]
    if q2 == q1:
        raise _Reject
    pts = base + [p1, p1x, p2, p2x]
    if len(set(pts)) != 8:
        raise _Reject
    if not _only_allowed_collinear(p, pts, [ln]):
        raise _Reject
    return {"points": pts}


def _triangle_conic(draw: _Draw) -> dict:
    """Three generic vertices plus the six cuts of the triangle sides by a
    conic avoiding the vertices."""
    p, f = draw.p, draw.field
    verts = draw.distinct(3, draw.point)
    if f.is_zero(_det3(verts)):
        raise _Reject
    a, b, c = verts
    ab, bc, ca = _join_key(p, a, b), _join_key(p, b, c), _join_key(p, c, a)
    q12 = draw.distinct_points_on(ab, 2, avoid=[a, b])
    q34 = draw.distinct_points_on(bc, 2, avoid=[b, c] + q12)
    (q5,) = draw.distinct_points_on(ca, 1, avoid=[c, a] + q12 + q34)
    five = [_from_key(ProjPoint, f, q) for q in q12 + q34 + [q5]]
    quad = conic_through(five)
    if quad is None or quad.is_degenerate():
        raise _Reject
    if any(f.is_zero(_conic_value(quad.key, v)) for v in verts):
        raise _Reject
    q6 = conic_line_second_point(quad, _from_key(ProjLine, f, ca), five[-1])
    if q6 is None or q6.key in verts + q12 + q34 + [q5]:
        raise _Reject
    pts = verts + q12 + q34 + [q5, q6.key]
    if not _only_allowed_collinear(p, pts, [ab, bc, ca]):
        raise _Reject
    return {"points": pts}


def _five_lines(draw: _Draw) -> dict:
    p = draw.p
    lines = draw.distinct(5, draw.line)
    pts = []
    for l1, l2 in combinations(lines, 2):
        meet = _join_key(p, l1, l2)
        if meet in pts:
            raise _Reject
        pts.append(meet)
    if not _only_allowed_collinear(p, pts, lines):
        raise _Reject
    return {"points": pts}


def _generic_points(draw: _Draw, k: int) -> dict:
    p = draw.p
    pts = draw.distinct(k, draw.point, limit=400)
    if not _only_allowed_collinear(p, pts):
        raise _Reject
    if k >= 6:
        for six in combinations(pts, 6):
            if _on_one_conic(p, six):
                raise _Reject
    return {"points": pts}


def _conic_component(draw: _Draw) -> dict:
    conic = Conic(draw.field, draw.nonzero(6))
    if conic.is_degenerate():
        raise _Reject
    return {"conics": [conic.key]}


# Types 38, 39 and 40 keep their own code; their structure is data too.
_SPECIAL = {38: _pencil_quadruple, 39: _triangle_conic, 40: _five_lines}


def _plan(type_id: int, s: _Structure) -> tuple[Callable[[_Draw], dict], int, int]:
    """The construction of a type of structure ``s``, the most distinct points
    of one line it uses (a line's points, and its meet with each other
    declared line it shares none with, which the draws avoid) and the points
    of one conic it draws at parameters (``_conic_points`` only)."""
    lines = [set(ln) for ln in s.lines]
    on_line = max((len(a) + sum(not a & b for j, b in enumerate(lines) if j != i)
                   for i, a in enumerate(lines) if a), default=0)
    if type_id in _SPECIAL:
        return _SPECIAL[type_id], on_line, 0
    if s.whole_plane:
        return (lambda draw: {"whole_plane": True}), 0, 0
    if s.conics:
        if s.components:
            return _conic_component, 0, 0
        n = len(s.conics[0])
        return partial(_conic_points, n=n, extra_off=s.points - n), 0, n
    if lines:
        meet = len(lines) == 2 and bool(lines[0] & lines[1])
        return partial(_on_lines, counts=tuple(len(a) - meet for a in lines), meet=meet,
                       off=s.points - len(set().union(*lines)),
                       components=s.components), on_line, 0
    return partial(_generic_points, k=s.points), 0, 0


_PLANS = {rec.type_id: _plan(rec.type_id, rec.structure) for rec in TYPE_TABLE}


# Each of these types is refused over the primes below its least prime, where
# no point set passes its checks; the entry gives that prime and what the
# type needs.  For 18, 21, 26, 32, 34, 35, 36, 37 and 38 the least prime is
# the least with a configuration at all; the others are refused over GF(3)
# only:
# - 18 needs a 5-arc (five points, no three collinear).  An arc over GF(q)
#   has at most q + 2 points, q + 1 for odd q, so GF(2) and GF(3) have none.
# - 26 needs a 6-arc on no conic.  GF(2) and GF(3) have no 6-arc, and over
#   GF(5) a 6-arc has q + 1 points, so it lies on a conic by Segre's theorem.
# - 36 needs a seventh point off a nondegenerate conic and off the 15 secants
#   of six points on it.  Over GF(p), p <= 7, no six points of the conic
#   xz = y^2 leave such a point; every nondegenerate conic is projectively
#   equivalent to it and the condition is projectively invariant, so no
#   conic over these fields does.
# - 19, 21 and 34 need four, six and four points on a line and two, two and
#   three off it with no other line through three of them.  A line over
#   GF(3) has four points, so the line through two points off it meets it in
#   one of them.  Over GF(5) a line has six points: for 21 all of them are
#   taken, so the join of the two off points meets the line in one of them;
#   for 34 the three joins of the off points meet the line in its two free
#   points, so two of the joins coincide and the off points are collinear.
# - 35 and 37 need three points on each of two lines, off their meet, and a
#   point off both with no other line through three of them.  So each line
#   through the extra point carries at most one point of the trios, and the
#   one through a trio point misses the meet.  Over GF(p) p of the p + 1
#   lines through the extra point miss the meet, and 3 + 3 > p for p = 3, 5.
# - 24, 32, 38 and 39 need a nondegenerate conic through at least five given
#   points: six or seven points on it, four base points and a point of a
#   line, or five of the points where it cuts a triangle's sides.  Over
#   GF(3) such a conic has only four points; over GF(5) it has six, too few
#   for 32.  For 38 over GF(5) a search with the standard frame as base
#   finds no two cut pairs from distinct conics and no other 3-point line.
# - 40 needs five lines with no three through one point, dually a 5-arc,
#   which GF(3) does not have (as for 18).
_MIN_PRIME = {
    18: (5, "five points with no three collinear, and no such points exist"),
    19: (5, "four points on a line and two off it with no other three collinear, "
            "and no such points exist"),
    21: (7, "six points on a line and two off it with no other three collinear, "
            "and no such points exist"),
    24: (5, "six points on a nondegenerate conic, and such a conic has fewer points"),
    26: (7, "six points with no three collinear and not on one conic, "
            "and no such points exist"),
    32: (7, "seven points on a nondegenerate conic, and such a conic has fewer points"),
    34: (7, "four points on a line and three off it with no other three collinear, "
            "and no such points exist"),
    35: (7, "three points on each of two lines, off their meet, and a point off "
            "both with no other three collinear, and no such points exist"),
    36: (11, "a point off a conic and off every secant of six points on it, "
             "and no such point exists"),
    37: (7, "three points on each of two lines, their meet, and a point off both "
            "with no other three collinear, and no such points exist"),
    38: (7, "four points and the two cuts of a line by each of two nondegenerate "
            "conics through them with no other three collinear, "
            "and no such points exist"),
    39: (5, "the six points where a nondegenerate conic cuts a triangle's sides, "
            "and such a conic has fewer points"),
    40: (5, "five lines with no three through one point, and no such lines exist"),
}


# Types whose construction tests a conic for degeneracy, which the package
# decides in odd characteristic only.  Types 36, 38 and 39 are built on conics
# too, but the other checks already refuse them over GF(2).
_CONIC_TYPES = frozenset({24, 32, 33})


def sample_generic(type_id: int, field: Field, seed: int) -> Config:
    """Deterministically sample a generic configuration of the given type.

    A type whose construction needs more points on one line than a line over
    the field has, a type built on a conic over GF(2), a type of
    ``_MIN_PRIME`` over a field too small for it, or a type that draws more
    points of one conic than its construction reaches, fails at once, before
    any draw.
    """
    plan = _PLANS.get(type_id)
    if plan is None:
        raise InputError(f"type_id {type_id} out of range 1..42")
    build, on_line, on_conic = plan
    _line_capacity(field, on_line, f"type {type_id}")
    if type_id in _CONIC_TYPES:
        _odd_characteristic(field)
    least, needs = _MIN_PRIME.get(type_id, (0, ""))
    if field.p is not None and field.p < least:
        raise SamplingError(f"type {type_id} needs {needs} over {field}")
    if field.p is not None and on_conic > field.p:
        raise SamplingError(
            f"type {type_id} needs {on_conic} points of one conic; such configurations "
            f"exist over {field}, but the construction draws the points at parameters "
            f"in {field}, which reach only {field.p} of the conic's {field.p + 1}")
    parts = _retry(build, field, derive_seed(seed, type_id),
                   f"could not satisfy genericity for type {type_id} over {field}")
    return _config(field, parts, type_id)


def sample_generic_points(k: int, field: Field, seed: int) -> Config:
    """Sample k points in general position: no 3 collinear, no 6 on a conic."""
    return _config(field, _retry(partial(_generic_points, k=k), field, derive_seed(seed, 100 + k),
                                 f"could not place {k} generic points over {field}"))


def sample_quartic_contact_system(field: Field, seed: int) -> list:
    """The 13 rows of width 15 of the quartic system: 4 vanishing rows on a
    line, 9 derivative rows.

    Four points on a line contribute one evaluation row each; three further
    points in general position (not collinear, off the line) contribute their
    three derivative rows.  For generic data the 13 rows are independent, so
    the kernel is 2-dimensional.  A field whose lines have fewer than four
    points (GF(2)) is refused before any draw.
    """
    _line_capacity(field, 4, "the quartic contact system")

    p = field.p

    def build(draw: _Draw) -> tuple[list, list]:
        ln = draw.line()
        on_line = draw.distinct_points_on(ln, 4)
        off = draw.distinct(3, draw.point, skip=lambda q: not _pairing(p, ln, q))
        if field.is_zero(_det3(off)):
            raise _Reject
        return on_line, off

    on_line, off = _retry(build, field, derive_seed(seed, 13),
                          f"could not sample the quartic contact system over {field}")
    rows = [_monomial_values(_from_key(ProjPoint, field, key).coords, 4, p) for key in on_line]
    for key in off:
        rows.extend(_point_rows(_from_key(ProjPoint, field, key).coords, 4, p))
    return rows


def random_projective_transform(field: Field, seed: int) -> list:
    """A random invertible 3x3 matrix, for projective-invariance tests."""
    rows = _Draw(field, SplitMix64(derive_seed(seed, 777))).matrix()
    return [[field.coerce(v) for v in row] for row in rows]


def apply_transform_to_point(m: list, pt: ProjPoint) -> ProjPoint:
    x, y, z = pt.key
    return ProjPoint(pt.field, tuple(r0 * x + r1 * y + r2 * z for r0, r1, r2 in m))


def apply_transform_to_line(m: list, ln: ProjLine) -> ProjLine:
    # Lines transform by the inverse transpose; the adjugate differs from it
    # by a nonzero determinant factor, which projective normalization kills.
    a, b, c = ln.key
    return ProjLine(ln.field, tuple(a * c0 + b * c1 + c * c2
                                    for c0, c1, c2 in zip(*_adjugate(m))))


def apply_transform_to_config(m: list, cfg: Config) -> Config:
    pts = tuple(apply_transform_to_point(m, p) for p in cfg.points)
    lines = tuple(apply_transform_to_line(m, ln) for ln in cfg.lines)
    # Conics pull their forms back along the adjugate (the inverse up to scale).
    adj = _adjugate(m)
    conics = tuple(Conic(c.field, _pullback(c.key, adj)) for c in cfg.conics)
    return Config(cfg.field, points=pts, lines=lines, conics=conics,
                  type_id=cfg.type_id, whole_plane=cfg.whole_plane)
