"""Projective plane geometry over an exact field.

Points, lines and conics are stored as normalized homogeneous coordinate
tuples (first nonzero coordinate scaled to 1), which makes equality testing
and hashing canonical.  The incidence and genericity predicates here are the
primitives the configuration samplers and the classifier are built on.

Joins, intersections and determinants are taken on integer representatives:
the residues over GF(p), and over QQ the coordinates times the lcm of their
denominators, so no Fraction arithmetic happens inside them.  The line
through two points then has a canonical integer key, its coefficients scaled
to a leading 1 over GF(p) and made primitive with a positive leading entry
over QQ.  :func:`_index_groups`, which groups a point set by the keys of the
lines through its pairs, is the one place that decides which points of a set
are collinear; :func:`line_groups` is its public form with ``ProjLine`` keys.
:func:`hausdorff` is the exact metric on finite point sets used by the metric
axiom tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, InputError
from .exactalg import (
    QQ,
    DenseMatrix,
    Field,
    PrimeField,
    RationalField,
    Scalar,
    _integer_row,
    kernel,
)


def _normalize(field: Field, coords: Sequence) -> tuple:
    if isinstance(field, RationalField):
        ints = _integer_row([v if type(v) is int else field.coerce(v) for v in coords])
        lead = next((v for v in ints if v), None)
        if lead is None:
            raise InputError("homogeneous coordinates must not all vanish")
        return tuple(Fraction(v, lead) for v in ints)
    vals = [field.coerce(v) for v in coords]
    lead = next((v for v in vals if v), None)
    if lead is None:
        raise InputError("homogeneous coordinates must not all vanish")
    inv = field.inv(lead)
    return tuple(inv * v % field.p for v in vals)


def _int_rep(field: Field, coords: tuple):
    """Integer coordinates of the same projective object: the residues over
    GF(p), the coordinates times the lcm of their denominators over QQ."""
    return coords if isinstance(field, PrimeField) else _integer_row(coords)


def _modulus(field: Field) -> Optional[int]:
    return field.p if isinstance(field, PrimeField) else None


def _join_key(p: Optional[int], u: Sequence[int], v: Sequence[int]) -> Optional[tuple]:
    """Canonical key of the cross product of two integer triples, or None when
    it vanishes (the two represent one projective object).

    Over GF(p) the key is scaled to a leading 1; over QQ (``p`` None) it is
    primitive with a positive leading entry.
    """
    (a, b, c), (d, e, g) = u, v
    x, y, z = b * g - c * e, c * d - a * g, a * e - b * d
    if p is None:
        s = gcd(x, y, z)
        if not s:
            return None
        if (x or y or z) < 0:
            s = -s
        return (x // s, y // s, z // s)
    x, y, z = x % p, y % p, z % p
    if x:
        inv = pow(x, -1, p)
        return (1, y * inv % p, z * inv % p)
    if y:
        return (0, 1, z * pow(y, -1, p) % p)
    return (0, 0, 1) if z else None


def _from_key(cls, field: Field, key: tuple):
    """The point or line with integer key ``key``, normalized directly from it
    without a second pass through ``__post_init__``."""
    if isinstance(field, RationalField):
        lead = next(v for v in key if v)
        key = tuple(Fraction(v, lead) for v in key)
    obj = object.__new__(cls)
    object.__setattr__(obj, "field", field)
    object.__setattr__(obj, "coords" if cls is ProjPoint else "coeffs", key)
    object.__setattr__(obj, "_hash", hash((field.name, key)))
    return obj


# ProjPoint and ProjLine hash their (field, triple) pair once, when built: the
# value the dataclass hash would compute on every lookup, which for Fraction
# coordinates costs a modular inverse per coordinate.  A Field hashes as its
# name, so hashing (field.name, triple) gives that value without a call to
# Field.__hash__, which a line made once and hashed once would notice.
@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective plane in normalized homogeneous coordinates."""

    field: Field
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 3:
            raise InputError("a projective point needs 3 coordinates")
        object.__setattr__(self, "coords", _normalize(self.field, self.coords))
        object.__setattr__(self, "_hash", hash((self.field.name, self.coords)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class ProjLine:
    """A line, stored by its normalized coefficient triple."""

    field: Field
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 3:
            raise InputError("a line needs 3 coefficients")
        object.__setattr__(self, "coeffs", _normalize(self.field, self.coeffs))
        object.__setattr__(self, "_hash", hash((self.field.name, self.coeffs)))

    def __hash__(self) -> int:
        return self._hash


# Coefficient order for conics throughout the package.
CONIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class Conic:
    """A conic with coefficients ordered (x^2, y^2, z^2, xy, xz, yz)."""

    field: Field
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 6:
            raise InputError("a conic needs 6 coefficients")
        object.__setattr__(self, "coeffs", _normalize(self.field, self.coeffs))

    def evaluate(self, pt: ProjPoint):
        _same_field(self.field, pt.field)
        a, b, c, d, e, g = self.coeffs
        x, y, z = pt.coords
        return self.field.coerce(a * x * x + b * y * y + c * z * z
                                 + d * x * y + e * x * z + g * y * z)

    def is_degenerate(self) -> bool:
        # Determinant of the doubled symmetric matrix; zero iff the conic
        # splits into lines (valid in any odd characteristic).
        _odd_characteristic(self.field)
        a, b, c, d, e, g = self.coeffs
        return self.field.is_zero(_det3(((2 * a, d, e), (d, 2 * b, g), (e, g, 2 * c))))

    def contains(self, pt: ProjPoint) -> bool:
        return self.field.is_zero(self.evaluate(pt))


@dataclass(frozen=True)
class Config:
    """A typed configuration: finite points plus full line/conic components."""

    field: Field
    points: tuple = ()
    lines: tuple = ()
    conics: tuple = ()
    type_id: int | str = "untyped"
    whole_plane: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "conics", tuple(self.conics))
        for obj in self.points + self.lines + self.conics:
            _same_field(self.field, obj.field)
        if len(set(self.points)) != len(self.points):
            raise InputError("configuration points must be pairwise distinct")

    @property
    def k_points(self) -> int:
        return len(self.points)

    def is_finite(self) -> bool:
        return not (self.lines or self.conics or self.whole_plane)


def _same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed fields {a} and {b}")


def _odd_characteristic(field: Field) -> None:
    """Refuse GF(2), where the conic predicates' factors of 2 vanish."""
    if isinstance(field, PrimeField) and field.p == 2:
        raise InputError("conic degeneracy and tangency assume odd characteristic; "
                         f"{field} has characteristic 2")


# ---------------------------------------------------------------------------
# incidence predicates


def incident(pt: ProjPoint, ln: ProjLine) -> bool:
    """True iff the point lies on the line."""
    _same_field(pt.field, ln.field)
    (x, y, z), (a, b, c) = pt.coords, ln.coeffs
    return pt.field.is_zero(a * x + b * y + c * z)


def _det3(rows) -> object:
    """Determinant of a 3x3 matrix, unreduced over GF(p)."""
    (a, b, c), (d, e, g), (h, i, j) = rows
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)


def collinear(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> bool:
    """True iff three distinct points lie on one line."""
    f = p1.field
    _same_field(f, p2.field)
    _same_field(f, p3.field)
    if len({p1, p2, p3}) != 3:
        raise InputError("collinearity is only defined for distinct points")
    return f.is_zero(_det3([_int_rep(f, q.coords) for q in (p1, p2, p3)]))


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    f = p1.field
    _same_field(f, p2.field)
    key = _join_key(_modulus(f), _int_rep(f, p1.coords), _int_rep(f, p2.coords))
    if key is None:
        raise InputError("two coincident points do not span a line")
    return _from_key(ProjLine, f, key)


def _line_key(ln: ProjLine) -> tuple:
    """The integer key of a line, as :func:`_join_key` gives it for two of
    its points (a normalized rational triple, cleared of denominators, is
    already primitive with a positive lead)."""
    return tuple(_int_rep(ln.field, ln.coeffs))


def _index_groups(points: Sequence[ProjPoint]) -> dict:
    """Map the integer key of each line through at least two of the points to
    the indices of the points on it.

    The indices of each line are increasing, and the lines come in the order
    their first pair is met.  Only the key of each pair's join is computed,
    with pairs in lexicographic index order: a line's first pair joins its
    two first points, and the pairs joining the first point to the others
    follow in increasing index order, so appending along them lists the
    points in input order.  Repeated points raise :class:`InputError`, points
    over different fields :class:`FieldMismatchError`.
    """
    pts = tuple(points)
    if not pts:
        return {}
    f = pts[0].field
    for q in pts[1:]:
        _same_field(f, q.field)
    p = _modulus(f)
    reps = [_int_rep(f, q.coords) for q in pts]
    groups: dict = {}
    for i, j in combinations(range(len(pts)), 2):
        key = _join_key(p, reps[i], reps[j])
        if key is None:
            raise InputError("two coincident points do not span a line")
        members = groups.get(key)
        if members is None:
            groups[key] = [i, j]
        elif members[0] == i:
            members.append(j)
    return groups


def line_groups(points: Sequence[ProjPoint]) -> dict:
    """Map each line through at least two of the points to the points on it.

    The points of each line are listed in input order, and the lines in the
    order their first pair is met.  The grouping is :func:`_index_groups` on
    integer line keys; one ``ProjLine`` is made per distinct key.  Repeated
    points raise :class:`InputError`.
    """
    pts = tuple(points)
    groups = _index_groups(pts)
    if not groups:
        return {}
    f = pts[0].field
    return {_from_key(ProjLine, f, key): tuple(pts[i] for i in members)
            for key, members in groups.items()}


def _no_collinear_triple(points: Sequence[ProjPoint]) -> bool:
    return all(len(on) < 3 for on in _index_groups(points).values())


def line_intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    f = l1.field
    _same_field(f, l2.field)
    key = _join_key(_modulus(f), _int_rep(f, l1.coeffs), _int_rep(f, l2.coeffs))
    if key is None:
        raise InputError("coincident lines have no unique intersection")
    return _from_key(ProjPoint, f, key)


def _line_basis(ln: ProjLine) -> tuple[list, list]:
    """Two integer vectors spanning the line: with l_f its last nonzero
    coefficient, ``l_f e_q - l_q e_f`` for each other column q in increasing
    order.  They are the echelon basis of the line's kernel, both scaled by
    l_f."""
    coeffs = _int_rep(ln.field, ln.coeffs)
    f = 2 if coeffs[2] else 1 if coeffs[1] else 0
    basis = []
    for q in range(3):
        if q != f:
            vec = [0, 0, 0]
            vec[q], vec[f] = coeffs[f], -coeffs[q]
            basis.append(vec)
    return basis[0], basis[1]


def points_on_line_basis(ln: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning the line: the points of the echelon
    basis of its kernel."""
    u, v = _line_basis(ln)
    return ProjPoint(ln.field, u), ProjPoint(ln.field, v)


def veronese(pt: ProjPoint) -> tuple:
    """Degree-2 Veronese coordinates in the package conic ordering."""
    x, y, z = pt.coords
    return tuple(map(pt.field.coerce, (x * x, y * y, z * z, x * y, x * z, y * z)))


def on_common_conic(pts: Sequence[ProjPoint]) -> bool:
    """True iff six distinct points lie on some conic, degenerate ones included."""
    pts = tuple(pts)
    if len(pts) != 6:
        raise InputError("the common-conic test takes exactly six points")
    if len(set(pts)) != 6:
        raise InputError("the six points must be distinct")
    for p in pts[1:]:
        _same_field(pts[0].field, p.field)
    m = DenseMatrix(pts[0].field, [veronese(p) for p in pts], 6)
    return kernel(m).dim > 0


def conic_through(pts: Sequence[ProjPoint]) -> Conic | None:
    """The unique conic through five points, or None when it is not unique."""
    pts = tuple(pts)
    if len(pts) != 5 or len(set(pts)) != 5:
        raise InputError("conic_through takes five distinct points")
    for p in pts[1:]:
        _same_field(pts[0].field, p.field)
    basis = kernel(DenseMatrix(pts[0].field, [veronese(p) for p in pts], 6)).basis
    if len(basis) != 1:
        return None
    return Conic(pts[0].field, basis[0])


def restrict_conic_to_line(c: Conic, ln: ProjLine) -> tuple:
    """Binary quadratic form (A, B, C) of the conic on a parametrized line.

    The line is parametrized as s*P + t*Q through the canonical basis points
    of its kernel; the restriction is A s^2 + B s t + C t^2.
    """
    _same_field(c.field, ln.field)
    p, q = points_on_line_basis(ln)
    return _binary_form(c, p, q), (p, q)


def _binary_form(c: Conic, p: ProjPoint, q: ProjPoint) -> tuple:
    a, b, cc, d, e, g = c.coeffs
    (x1, y1, z1), (x2, y2, z2) = p.coords, q.coords

    def val(x, y, z):
        return a * x * x + b * y * y + cc * z * z + d * x * y + e * x * z + g * y * z

    A = val(x1, y1, z1)
    C = val(x2, y2, z2)
    # B = c(p+q) - c(p) - c(q), the polarization of the quadratic form.
    B = val(x1 + x2, y1 + y2, z1 + z2) - A - C
    return tuple(map(c.field.coerce, (A, B, C)))


def tangent(c: Conic, ln: ProjLine) -> bool:
    """True iff the line is tangent to the conic.

    Tangency means the restriction of the conic to the line is a binary
    quadratic with vanishing discriminant B^2 - 4AC.  A line contained in the
    conic makes the restriction identically zero and is rejected, and so is
    characteristic 2, where the discriminant is B^2 for every line.
    """
    _odd_characteristic(c.field)
    (A, B, C), _ = restrict_conic_to_line(c, ln)
    f = c.field
    if f.is_zero(A) and f.is_zero(B) and f.is_zero(C):
        raise InputError("line is a component of the conic; restriction is not reduced")
    return f.is_zero(B * B - 4 * A * C)


def conic_line_second_point(c: Conic, ln: ProjLine, known: ProjPoint) -> ProjPoint | None:
    """Second intersection of a conic with a line through a known conic point.

    Returns None when the line is tangent at ``known`` (double root).  Raises
    when the line lies inside the conic or ``known`` is not on both.
    """
    _same_field(c.field, ln.field)
    if not incident(known, ln):
        raise InputError("known point is not on the line")
    if not c.contains(known):
        raise InputError("known point is not on the conic")
    f = c.field
    p, q = points_on_line_basis(ln)
    # Re-parametrize so the known point is the s-axis point: form becomes
    # B s t + C t^2 with roots t=0 (known) and B s + C t = 0.
    if q == known:
        p, q = q, p
    elif p != known:
        p = known
    A, B, C = _binary_form(c, p, q)
    if not f.is_zero(A):
        raise InputError("known point is not a root of the restriction")
    if f.is_zero(B):
        if f.is_zero(C):
            raise InputError("line is a component of the conic")
        return None
    return ProjPoint(f, tuple(C * pc - B * qc for pc, qc in zip(p.coords, q.coords)))


# ---------------------------------------------------------------------------
# Hausdorff metric on finite point sets


def _chart_coords(obj) -> tuple[Fraction, ...]:
    if isinstance(obj, ProjPoint):
        if not isinstance(obj.field, RationalField):
            raise InputError("the metric needs rational coordinates")
        x, y, z = obj.coords
        if z == 0:
            raise InputError("point outside the affine chart z != 0")
        return (Fraction(x) / z, Fraction(y) / z)
    coords = tuple(QQ.coerce(v) for v in obj)
    if not coords:
        raise InputError("points need at least one coordinate")
    return coords


def _point_distance(a: tuple, b: tuple) -> Fraction:
    # Chebyshev distance keeps every value rational.
    return max(abs(x - y) for x, y in zip(a, b))


def hausdorff(k: Iterable, l: Iterable) -> Scalar:
    """Exact Hausdorff-style distance between finite sets of chart points.

    Both directional deviations are computed and *summed*:

        max over x in K of dist(x, L)  +  max over y in L of dist(y, K)

    with the Chebyshev metric on affine coordinates.  Inputs are iterables of
    coordinate tuples with rational entries, or rational projective points
    (read in the chart z = 1).
    """
    ks = [_chart_coords(p) for p in k]
    ls = [_chart_coords(p) for p in l]
    if not ks or not ls:
        raise InputError("the metric is defined for nonempty sets only")
    dims = {len(p) for p in ks + ls}
    if len(dims) != 1:
        raise InputError("all points must live in one chart")
    forward = max(min(_point_distance(x, y) for y in ls) for x in ks)
    backward = max(min(_point_distance(y, x) for x in ks) for y in ls)
    return Scalar(QQ, forward + backward)
