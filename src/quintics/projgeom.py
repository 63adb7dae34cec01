"""Projective plane geometry over an exact field.

A point, line or conic stores one canonical integer key, its homogeneous
coordinate tuple scaled into a normal form: over GF(p) the residues scaled to
a leading 1, over QQ the primitive integer vector with a positive leading
entry.  Equality and hashing compare keys, and joins, intersections,
determinants and the incidence and genericity predicates the configuration
samplers and the classifier are built on all compute on them, so no Fraction
arithmetic happens inside them.  The public ``coords`` and ``coeffs`` are
views that rebuild the normalized values (leading entry 1, Fractions over QQ)
for writers and for callers that need the values themselves.

The line through two points has the key :func:`_join_key` gives the cross
product of theirs: :func:`_int_key`, the one normalizer of an int triple,
applied to it; the sampler normalizes its draws with it too.
:func:`_groups_of`, which groups the keys of a point set by the keys of the
lines through their pairs, is the one place that decides which points of a
set are collinear, and :func:`_conic_key` the one place that finds the conic
through them.  :func:`_frame` picks a frame of a point set and the change of
coordinates that moves it to the coordinate points, so that up to three of
its points become coordinate points; :func:`_framed_conditions` finds the
conics through a point set in the frame of three of its points, in closed
form, without elimination, and ``lsys.linear_system_dim`` counts a point
system in the frame of its points.  :func:`hausdorff` is the exact metric on
finite point sets used by the metric axiom tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Optional, Sequence

from ._value import _setattr, _Value
from .errors import FieldMismatchError, InputError
from .exactalg import QQ, Field, _integer_row


def _normalize(field: Field, coords: Sequence) -> tuple:
    """The key of nonzero homogeneous coordinates (ints, Fractions or numeric
    strings): residues scaled to a leading 1 over GF(p), the primitive
    integer vector with a positive leading entry over QQ.  Over GF(p) an
    int is reduced in the same pass that coerces any other value."""
    p = field.p
    if p is None:
        vals = _integer_row([v if type(v) is int else field.coerce(v) for v in coords])
    else:
        vals = [v % p if type(v) is int else field.coerce(v) for v in coords]
    for lead in vals:
        if lead:
            break
    else:
        raise InputError("homogeneous coordinates must not all vanish")
    if p is None:
        s = gcd(*vals) if lead > 0 else -gcd(*vals)
        return tuple([v // s for v in vals])
    inv = pow(lead, -1, p)
    return tuple([inv * v % p for v in vals])


def _cross(u: Sequence, v: Sequence) -> tuple:
    """The cross product of two integer triples, unreduced."""
    (a, b, c), (d, e, g) = u, v
    return (b * g - c * e, c * d - a * g, a * e - b * d)


def _adjugate(rows: Sequence) -> tuple:
    """The adjugate of the 3x3 matrix with rows ``rows``, unreduced: its row
    i is the cross product of columns i + 1 and i + 2 (indices mod 3), so
    ``_adjugate(m) m = det(m) I``."""
    c0, c1, c2 = zip(*rows)
    return _cross(c1, c2), _cross(c2, c0), _cross(c0, c1)


def _int_key(p: Optional[int], vals: Sequence[int]) -> Optional[tuple]:
    """The key of the int triple ``vals`` over GF(p), or over QQ when ``p``
    is None: :func:`_normalize` on ints, for a point or a line; None when
    the triple vanishes."""
    x, y, z = vals
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


def _join_key(p: Optional[int], u: Sequence[int], v: Sequence[int]) -> Optional[tuple]:
    """Key of the cross product of two keys over GF(p), or over QQ when ``p``
    is None; None when it vanishes (the two are one projective object)."""
    return _int_key(p, _cross(u, v))


def _from_key(cls, field: Field, key: tuple):
    """The ``cls`` object with key ``key``, built without a second pass
    through the constructor's normalization."""
    obj = object.__new__(cls)
    _setattr(obj, "field", field)
    _setattr(obj, "key", key)
    _setattr(obj, "_hash", hash((field.name, key)))
    return obj


# A projective object hashes its (field, key) pair once, when built: the
# value the field-tuple hash would compute on every lookup.  A Field hashes
# as its name, so hashing (field.name, key) gives that value without a call
# to Field.__hash__, which a line made once and hashed once would notice.
class _Keyed(_Value):
    """A point, line or conic, stored by its key; the subclass fixes the
    key's length."""

    __slots__ = ("field", "key", "_hash")

    def __init__(self, field: Field, key: tuple):
        if len(key) != self._length:
            raise InputError(self._wrong_length)
        key = _normalize(field, key)
        _setattr(self, "field", field)
        _setattr(self, "key", key)
        _setattr(self, "_hash", hash((field.name, key)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def _normalized(self) -> tuple:
        """The key over GF(p); over QQ its Fractions with a leading 1."""
        if self.field.p is not None:
            return self.key
        lead = next(v for v in self.key if v)
        return tuple(Fraction(v, lead) for v in self.key)


class ProjPoint(_Keyed):
    """A point of the projective plane, built from any nonzero homogeneous
    coordinates; ``coords`` are the normalized ones."""

    __slots__ = ()
    _length, _wrong_length = 3, "a projective point needs 3 coordinates"
    coords = _Keyed._normalized


class ProjLine(_Keyed):
    """A line, built from any nonzero coefficient triple; ``coeffs`` are the
    normalized coefficients."""

    __slots__ = ()
    _length, _wrong_length = 3, "a line needs 3 coefficients"
    coeffs = _Keyed._normalized


# Coefficient order for conics throughout the package.
CONIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def _conic_value(coeffs: Sequence, pt: Sequence):
    """The quadratic form with coefficients ``coeffs`` at ``pt``, unreduced."""
    a, b, c, d, e, g = coeffs
    x, y, z = pt
    return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + g * y * z


def _pullback(coeffs: Sequence, rows: Sequence) -> tuple:
    """The coefficients of q(R x), unreduced, for the quadratic form q with
    coefficients ``coeffs`` and the matrix R with rows r0, r1, r2: each
    monomial x_i x_j of q with a nonzero coefficient becomes
    (r_i . x)(r_j . x)."""
    x2 = y2 = z2 = xy = xz = yz = 0
    # the monomials of CONIC_MONOMIALS as index pairs (i, j)
    for coef, (i, j) in zip(coeffs, ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
        if coef:
            (a, b, c), (d, e, g) = rows[i], rows[j]
            x2 += coef * a * d
            y2 += coef * b * e
            z2 += coef * c * g
            xy += coef * (a * e + b * d)
            xz += coef * (a * g + c * d)
            yz += coef * (b * g + c * e)
    return x2, y2, z2, xy, xz, yz


class Conic(_Keyed):
    """A conic, built from any nonzero coefficients ordered
    (x^2, y^2, z^2, xy, xz, yz); ``coeffs`` are the normalized ones."""

    __slots__ = ()
    _length, _wrong_length = 6, "a conic needs 6 coefficients"
    coeffs = _Keyed._normalized

    def is_degenerate(self) -> bool:
        return _degenerate(self.field, self.key)

    def contains(self, pt: ProjPoint) -> bool:
        _same_field(self.field, pt.field)
        return self.field.is_zero(_conic_value(self.key, pt.key))


def _degenerate(field: Field, coeffs: Sequence) -> bool:
    """Whether the conic with key ``coeffs`` splits into lines: the
    determinant of its doubled symmetric matrix vanishes, which is valid in
    any odd characteristic."""
    _odd_characteristic(field)
    a, b, c, d, e, g = coeffs
    return field.is_zero(_det3(((2 * a, d, e), (d, 2 * b, g), (e, g, 2 * c))))


class Config(_Value):
    """A typed configuration: finite points plus full line/conic components."""

    __slots__ = ("field", "points", "lines", "conics", "type_id", "whole_plane")

    def __init__(self, field: Field, points: tuple = (), lines: tuple = (), conics: tuple = (),
                 type_id: int | str = "untyped", whole_plane: bool = False):
        points, lines, conics = tuple(points), tuple(lines), tuple(conics)
        for obj in points + lines + conics:
            _same_field(field, obj.field)
        if len(set(points)) != len(points):
            raise InputError("configuration points must be pairwise distinct")
        _setattr(self, "field", field)
        _setattr(self, "points", points)
        _setattr(self, "lines", lines)
        _setattr(self, "conics", conics)
        _setattr(self, "type_id", type_id)
        _setattr(self, "whole_plane", whole_plane)

    def is_finite(self) -> bool:
        return not (self.lines or self.conics or self.whole_plane)


def _same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise FieldMismatchError(f"mixed fields {a} and {b}")


def _odd_characteristic(field: Field) -> None:
    """Refuse GF(2), where the conic degeneracy test's factors of 2 vanish."""
    if field.p == 2:
        raise InputError("conic degeneracy assumes odd characteristic; "
                         f"{field} has characteristic 2")


# ---------------------------------------------------------------------------
# incidence predicates


def incident(pt: ProjPoint, ln: ProjLine) -> bool:
    """True iff the point lies on the line."""
    _same_field(pt.field, ln.field)
    (x, y, z), (a, b, c) = pt.key, ln.key
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
    return f.is_zero(_det3([p1.key, p2.key, p3.key]))


def line_through(p1: ProjPoint, p2: ProjPoint) -> ProjLine:
    f = p1.field
    _same_field(f, p2.field)
    key = _join_key(f.p, p1.key, p2.key)
    if key is None:
        raise InputError("two coincident points do not span a line")
    return _from_key(ProjLine, f, key)


def _groups_of(p: Optional[int], reps: Sequence) -> dict:
    """Map the key of each line through at least two of the points with keys
    ``reps`` over GF(p), or over QQ when ``p`` is None, to the indices of the
    points on it.

    The indices of each line are increasing, and the lines come in the order
    their first pair is met.  Only the key of each pair's join is computed,
    with pairs in lexicographic index order: a line's first pair joins its
    two first points, and the pairs joining the first point to the others
    follow in increasing index order, so appending along them lists the
    points in input order.  Over GF(p) the leading entries of all the cross
    products are inverted together, with one ``pow`` (Montgomery's trick:
    invert the product of all of them, then peel one factor off at a time
    along the prefix products); over QQ each key is :func:`_join_key`'s.
    Repeated points raise :class:`InputError`.
    """
    pairs = combinations(reps, 2)
    if p is None:
        keys = [_join_key(None, u, v) for u, v in pairs]
        if None in keys:
            raise InputError("two coincident points do not span a line")
    else:
        crosses = []
        prefix = []
        acc = 1
        for (a, b, c), (d, e, g) in pairs:
            x, y, z = (b * g - c * e) % p, (c * d - a * g) % p, (a * e - b * d) % p
            lead = x or y or z
            if not lead:
                raise InputError("two coincident points do not span a line")
            prefix.append(acc)
            acc = acc * lead % p
            crosses.append((x, y, z))
        inv = pow(acc, -1, p)
        keys = [None] * len(crosses)
        for t in range(len(crosses) - 1, -1, -1):
            x, y, z = crosses[t]
            # inv is 1 / (lead_0 ... lead_t); prefix[t] cancels all but lead_t
            s = inv * prefix[t] % p
            inv = inv * (x or y or z) % p
            keys[t] = (1, y * s % p, z * s % p) if x else (0, 1, z * s % p) if y else (0, 0, 1)
    groups: dict = {}
    for (i, j), key in zip(combinations(range(len(reps)), 2), keys):
        members = groups.get(key)
        if members is None:
            groups[key] = [i, j]
        elif members[0] == i:
            members.append(j)
    return groups


def _only_allowed_collinear(p: Optional[int], keys: Sequence[tuple],
                            allowed: Sequence[tuple] = ()) -> bool:
    """No line but one with a key in ``allowed`` passes through three or more
    of the points with keys ``keys``, over GF(p), or over QQ when ``p`` is
    None.  Repeated points raise :class:`InputError`."""
    lines = set(allowed)
    return all(key in lines for key, on in _groups_of(p, keys).items() if len(on) >= 3)


def line_intersection(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    f = l1.field
    _same_field(f, l2.field)
    key = _join_key(f.p, l1.key, l2.key)
    if key is None:
        raise InputError("coincident lines have no unique intersection")
    return _from_key(ProjPoint, f, key)


def _line_basis(coeffs: Sequence[int]) -> tuple[list, list]:
    """Two integer vectors spanning the line with the key ``coeffs``: with
    l_f its last nonzero entry, ``l_f e_q - l_q e_f`` for each other column q
    in increasing order.  They are the echelon basis of the line's kernel,
    both scaled by l_f."""
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
    u, v = _line_basis(ln.key)
    return ProjPoint(ln.field, u), ProjPoint(ln.field, v)


def veronese(pt: ProjPoint) -> tuple:
    """Degree-2 Veronese coordinates of the point's key in the package conic
    ordering: residues over GF(p), ints over QQ."""
    x, y, z = pt.key
    vals = (x * x, y * y, z * z, x * y, x * z, y * z)
    p = pt.field.p
    return tuple(v % p for v in vals) if p else vals


def on_common_conic(pts: Sequence[ProjPoint]) -> bool:
    """True iff six distinct points lie on some conic, degenerate ones included."""
    pts = tuple(pts)
    if len(pts) != 6:
        raise InputError("the common-conic test takes exactly six points")
    if len(set(pts)) != 6:
        raise InputError("the six points must be distinct")
    for p in pts[1:]:
        _same_field(pts[0].field, p.field)
    return _on_one_conic(pts[0].field.p, [q.key for q in pts])


def _on_one_conic(p: Optional[int], keys: Sequence[tuple]) -> bool:
    """:func:`on_common_conic` on the keys of six distinct points over GF(p),
    or over QQ when ``p`` is None."""
    framed = _framed_conditions(p, keys)
    # Six points on one line lie on every line pair through it; otherwise
    # the three points off the frame leave three conditions, which have a
    # common solution exactly when their determinant vanishes.
    if framed is None:
        return True
    det = _det3(framed[1])
    return not (det % p if p else det)


def conic_through(pts: Sequence[ProjPoint]) -> Conic | None:
    """The unique conic through five points, or None when it is not unique."""
    pts = tuple(pts)
    if len(pts) != 5 or len(set(pts)) != 5:
        raise InputError("conic_through takes five distinct points")
    field = pts[0].field
    for p in pts[1:]:
        _same_field(field, p.field)
    key = _conic_key(field, [q.key for q in pts])
    return None if key is None else _from_key(Conic, field, key)


def _reduced(p: Optional[int], vals: tuple) -> tuple:
    """Residues of the int triple ``vals`` over GF(p); over QQ (``p`` None)
    the ints."""
    if not p:
        return vals
    a, b, c = vals
    return a % p, b % p, c % p


# The coordinate points (1:0:0), (0:1:0), (0:0:1).
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _pairing(p: Optional[int], u: Sequence[int], v: Sequence[int]) -> int:
    """u . v for two integer triples, reduced mod p over GF(p): zero exactly
    when the point with key v lies on the line with key u."""
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return dot % p if p else dot


def _frame(p: Optional[int], keys: Sequence[tuple]) -> tuple:
    """A frame A, B, C for the points with keys ``keys`` over GF(p), or over
    QQ when ``p`` is None, and the change of coordinates that moves it to
    the coordinate points.

    The frame is chosen so that as many of the points as possible become
    coordinate points: A the first point, B the first point other than A,
    and C the first point off the line AB, or when the points lie on one
    line the first coordinate point off AB; a single point A takes for B
    and C the two coordinate points other than e_k, a_k its leading entry,
    so that det M = +-a_k is not zero; no points at all take the identity.

    The adjugate of the matrix M with columns A, B, C has the rows
    r0 = B x C, r1 = C x A and r2 = A x B (:func:`_adjugate`):
    r0 . A = r1 . B = r2 . C = det M, and r_i . P = 0 for the two other
    frame points P.  So X -> adj X is a projective change of coordinates
    that moves A, B, C to the coordinate points (1:0:0), (0:1:0) and
    (0:0:1), with inverse Y -> M Y.  A form f becomes f'(Y) = f(M Y), and
    f'(adj X) = f((det M) X), so f' vanishes, or is singular, at adj P
    exactly when f is at P.

    Returns ``(corners, adj)``: ``corners[i]`` is the index in ``keys`` of
    the point moved to the i-th coordinate point, or None when that frame
    point is not one of them; ``adj`` are the adjugate rows, as residues
    over GF(p) and ints over QQ.
    """
    if not keys:
        return (None, None, None), _IDENTITY
    a = keys[0]
    j = next((j for j, key in enumerate(keys) if key != a), None)
    if j is None:
        lead = next(k for k, v in enumerate(a) if v)
        b, c = (e for k, e in enumerate(_IDENTITY) if k != lead)
        corners = (0, None, None)
    else:
        b = keys[j]
        ab = _cross(a, b)
        for i in range(j + 1, len(keys)):
            c = keys[i]
            if _pairing(p, ab, c):
                corners = (0, j, i)
                break
        else:
            c = next(e for e in _IDENTITY if _pairing(p, ab, e))
            corners = (0, j, None)
    adj = _reduced(p, _cross(b, c)), _reduced(p, _cross(c, a)), _reduced(p, _cross(a, b))
    return corners, adj


def _framed_conditions(p: Optional[int], keys: Sequence[tuple]) -> Optional[tuple]:
    """The conics through the points with keys ``keys`` over GF(p), or over
    QQ when ``p`` is None, as linear conditions in the :func:`_frame` of
    three of the points; None when the points lie on one line.

    A change of coordinates is an isomorphism of the spaces of conics:
    q'(Y) = q(M Y) has q'(adj X) = (det M)^2 q(X), so q' passes through
    adj P exactly when q passes through P.  So whether the conic through the
    points is unique, and the conic itself, can be read off in the new
    frame.  There the conics through the three coordinate points are
    q' = a yz + b xz + c xy, and every other point P, moved to
    (u, v, w) = (r0 . P, r1 . P, r2 . P), gives one condition
    (vw, uw, uv) . (a, b, c) = 0.

    Returns the adjugate rows and the nonzero conditions, one per point off
    the frame in order (only a repeated frame point gives a zero one), as
    residues over GF(p) and ints over QQ.
    """
    (_, j, i), adj = _frame(p, keys)
    if i is None:
        return None
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = adj
    conditions = []
    for x, y, z in keys[j + 1:i] + keys[i + 1:]:
        u = r00 * x + r01 * y + r02 * z
        v = r10 * x + r11 * y + r12 * z
        w = r20 * x + r21 * y + r22 * z
        row = _reduced(p, (v * w, u * w, u * v))
        if any(row):
            conditions.append(row)
    return adj, conditions


def _conic_key(field: Field, keys: Sequence[tuple]) -> Optional[tuple]:
    """The key of the conic through the points with keys ``keys`` when it
    exists and is unique, else None.

    In the frame of :func:`_framed_conditions` the conic is unique exactly
    when the conditions have rank 2.  It is then q' = a yz + b xz + c xy with
    (a, b, c) the cross product of two independent conditions, which every
    other condition must annul.  q(X) = q'(adj X) is its pull-back along
    the adjugate (:func:`_pullback`).  No matrix is eliminated; the result
    is scaled to its key.
    """
    framed = _framed_conditions(field.p, keys)
    if framed is None:
        return None
    adj, conditions = framed
    for n, row in enumerate(conditions):
        abc = _reduced(field.p, _cross(conditions[0], row))
        if any(abc):
            break
    else:
        # rank at most 1: every condition is a multiple of the first
        return None
    a, b, c = abc
    for s, t, r in conditions[n + 1:]:
        if not field.is_zero(s * a + t * b + r * c):
            return None
    return _normalize(field, _pullback((0, 0, 0, c, b, a), adj))


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
    key = _second_point_key(c.field, c.key, ln.key, known.key)
    return None if key is None else _from_key(ProjPoint, c.field, key)


def _second_point_key(field: Field, conic: tuple, line: tuple, known: tuple) -> Optional[tuple]:
    """:func:`conic_line_second_point` on keys, for a point ``known`` on
    both the conic and the line: the key of the second point, None when the
    line is tangent there; raises when the line lies inside the conic.

    With q a point of the line's :func:`_line_basis` other than ``known``,
    the conic restricted to s known + t q is B s t + C t^2, since it vanishes
    at ``known``; its other root is s : t = C : -B.  That point, and whether
    B or C vanishes, do not depend on which q is taken.
    """
    u, v = _line_basis(line)
    q = u if any(_reduced(field.p, _cross(u, known))) else v
    C = _conic_value(conic, q)
    # B = c(known + q) - c(q), the polarization of the quadratic form
    B = _conic_value(conic, [a + b for a, b in zip(known, q)]) - C
    if field.is_zero(B):
        if field.is_zero(C):
            raise InputError("line is a component of the conic")
        return None
    return _normalize(field, [C * a - B * b for a, b in zip(known, q)])


# ---------------------------------------------------------------------------
# Hausdorff metric on finite point sets


def _chart_coords(obj) -> tuple[Fraction, ...]:
    if isinstance(obj, ProjPoint):
        if obj.field.p is not None:
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


def hausdorff(k: Iterable, l: Iterable) -> Fraction:
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
    return forward + backward
