"""Projective plane geometry over an exact field.

Points, lines and conics are stored as normalized homogeneous coordinate
tuples (first nonzero coordinate scaled to 1), which makes equality testing
and hashing canonical.  The incidence and genericity predicates here are the
primitives the configuration samplers and the classifier are built on;
:func:`line_groups`, which groups a point set by the lines through its pairs,
is the one place that decides which points of a set are collinear.
:func:`hausdorff` is the exact metric on finite point sets used by the metric
axiom tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import FieldMismatchError, InputError
from .exactalg import QQ, DenseMatrix, Field, PrimeField, RationalField, Scalar, kernel


def _normalize(field: Field, coords: Sequence) -> tuple:
    vals = [field.coerce(v) for v in coords]
    lead = next((v for v in vals if not field.is_zero(v)), None)
    if lead is None:
        raise InputError("homogeneous coordinates must not all vanish")
    inv = field.inv(lead)
    return tuple(field.coerce(inv * v) for v in vals)


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective plane in normalized homogeneous coordinates."""

    field: Field
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 3:
            raise InputError("a projective point needs 3 coordinates")
        object.__setattr__(self, "coords", _normalize(self.field, self.coords))


@dataclass(frozen=True)
class ProjLine:
    """A line, stored by its normalized coefficient triple."""

    field: Field
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != 3:
            raise InputError("a line needs 3 coefficients")
        object.__setattr__(self, "coeffs", _normalize(self.field, self.coeffs))


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
    _same_field(p1.field, p2.field)
    _same_field(p1.field, p3.field)
    if len({p1, p2, p3}) != 3:
        raise InputError("collinearity is only defined for distinct points")
    return p1.field.is_zero(_det3((p1.coords, p2.coords, p3.coords)))


def _cross(u: tuple, v: tuple) -> tuple:
    """Cross product, unreduced over GF(p); callers normalize it."""
    (a, b, c), (d, e, g) = u, v
    return (b * g - c * e, c * d - a * g, a * e - b * d)


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    _same_field(p1.field, p2.field)
    if p1 == p2:
        raise InputError("two coincident points do not span a line")
    return ProjLine(p1.field, _cross(p1.coords, p2.coords))


def line_groups(points: Sequence[ProjPoint]) -> dict:
    """Map each line through at least two of the points to the points on it.

    The points of each line are listed in input order, and the lines in the
    order their first pair is met.  Only the line through each pair is
    computed, with pairs in lexicographic index order: a line's first pair
    joins its two first points, and the pairs joining the first point to the
    others follow in increasing index order, so appending along them lists
    the points in input order.  Repeated points raise :class:`InputError`.
    """
    pts = tuple(points)
    groups: dict = {}
    for i, j in combinations(range(len(pts)), 2):
        ln = line_through(pts[i], pts[j])
        members = groups.get(ln)
        if members is None:
            groups[ln] = [i, j]
        elif members[0] == i:
            members.append(j)
    return {ln: tuple(pts[i] for i in members) for ln, members in groups.items()}


def _no_collinear_triple(points: Sequence[ProjPoint]) -> bool:
    return all(len(on) < 3 for on in line_groups(points).values())


def line_intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    _same_field(l1.field, l2.field)
    if l1 == l2:
        raise InputError("coincident lines have no unique intersection")
    return ProjPoint(l1.field, _cross(l1.coeffs, l2.coeffs))


def points_on_line_basis(ln: ProjLine) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning the line."""
    basis = kernel(DenseMatrix(ln.field, [ln.coeffs], 3)).basis
    return ProjPoint(ln.field, basis[0]), ProjPoint(ln.field, basis[1])


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
