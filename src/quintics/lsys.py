"""Linear systems of plane curves with prescribed singularities.

The dimension count at the center of the package works entirely in the
coordinate space of degree-d forms in x, y, z: a configuration imposes three
derivative rows per marked point, while a full line or conic component g
forces divisibility by g^2, which is imposed by the rows of the remainder map
f -> f mod g^2.  All of these rows are assembled once per configuration as
plain int rows, so the space of degree-5 curves singular along the
configuration is their kernel, and its dimension is 21 - rank, computed
exactly over the chosen field without building a matrix object.

The module also provides the inverse direction used as an oracle: exhaustive
enumeration of singular points of a form over a small prime field, grouping
of full line/conic components, and classification of the resulting incidence
pattern against the 42-entry configuration taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .errors import FieldMismatchError, InputError, TaxonomyError
from .exactalg import (
    DenseMatrix,
    Field,
    PrimeField,
    SubspaceBasis,
    _integer_row,
    _kernel_rows,
    kernel,
    rank_rows,
    row_space,
)
from .projgeom import (
    CONIC_MONOMIALS,
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _modulus,
    _no_collinear_triple,
    collinear,
    conic_line_second_point,
    conic_through,
    incident,
    line_groups,
    veronese,
)
from .rng import SplitMix64, derive_seed
from .sampling import _Draw, _Reject, _line_capacity, _retry


# ---------------------------------------------------------------------------
# monomials and homogeneous polynomials


@lru_cache(maxsize=None)
def monomial_basis(d: int) -> tuple:
    """All exponent triples of total degree d in graded-lex order, x > y > z."""
    if d < 0:
        raise InputError("degree must be nonnegative")
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return tuple(out)


def space_dim(d: int) -> int:
    return (d + 1) * (d + 2) // 2


class HomogeneousPoly:
    """A homogeneous polynomial in x, y, z with exact coefficients.

    Terms map exponent triples summing to the degree to nonzero coefficients;
    the graded-lex monomial order fixes the embedding into coordinate vectors.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field: Field, degree: int, terms: dict):
        if degree < 0:
            raise InputError("degree must be nonnegative")
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != 3 or any(e < 0 for e in exps) or sum(exps) != degree:
                raise InputError(f"exponent triple {exps} does not have degree {degree}")
            val = field.coerce(coeff)
            if not field.is_zero(val):
                clean[tuple(exps)] = val
        self.field = field
        self.degree = degree
        self.terms = clean

    @classmethod
    def from_vector(cls, field: Field, degree: int, vec: Sequence) -> "HomogeneousPoly":
        basis = monomial_basis(degree)
        if len(vec) != len(basis):
            raise InputError("coefficient vector has the wrong length")
        return cls(field, degree, dict(zip(basis, vec)))

    def to_vector(self) -> tuple:
        basis = monomial_basis(self.degree)
        zero = self.field.zero()
        return tuple(self.terms.get(e, zero) for e in basis)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousPoly) and self.field == other.field
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.field, self.degree, tuple(sorted(self.terms.items()))))

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if self.field != other.field:
            raise FieldMismatchError("cannot multiply over different fields")
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                acc[key] = acc.get(key, 0) + c1 * c2
        return HomogeneousPoly(self.field, self.degree + other.degree, acc)

    def __pow__(self, n: int) -> "HomogeneousPoly":
        if n < 0:
            raise InputError("negative powers are not polynomials")
        out = HomogeneousPoly(self.field, 0, {(0, 0, 0): self.field.one()})
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c) -> "HomogeneousPoly":
        cc = self.field.coerce(c)
        return HomogeneousPoly(self.field, self.degree,
                               {e: cc * v for e, v in self.terms.items()})

    def add(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        if self.degree != other.degree:
            raise InputError("cannot add forms of different degrees")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return HomogeneousPoly(self.field, self.degree, acc)

    def reduce_to(self, field: Field) -> "HomogeneousPoly":
        """The same form with every coefficient coerced into ``field``."""
        return HomogeneousPoly(field, self.degree,
                               {e: field.coerce(c) for e, c in self.terms.items()})

    def partial(self, var: int) -> "HomogeneousPoly":
        """Formal partial derivative with respect to variable 0, 1 or 2."""
        acc: dict = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = list(exps)
            key[var] = e - 1
            acc[tuple(key)] = coeff * e
        return HomogeneousPoly(self.field, max(self.degree - 1, 0), acc)

    def evaluate(self, coords: Sequence):
        f = self.field
        pows = []
        for v in map(f.coerce, coords):
            col = [f.one()]
            for _ in range(self.degree):
                col.append(f.coerce(col[-1] * v))
            pows.append(col)
        px, py, pz = pows
        return f.coerce(sum(coeff * px[a] * py[b] * pz[c]
                            for (a, b, c), coeff in self.terms.items()))

    def gradient_at(self, pt: ProjPoint) -> tuple:
        return tuple(self.partial(v).evaluate(pt.coords) for v in range(3))

    def __repr__(self) -> str:
        return f"HomogeneousPoly(deg={self.degree}, {len(self.terms)} terms)"


def line_poly(ln: ProjLine) -> HomogeneousPoly:
    a, b, c = ln.coeffs
    return HomogeneousPoly(ln.field, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})


def conic_poly(c: Conic) -> HomogeneousPoly:
    return HomogeneousPoly(c.field, 2, dict(zip(CONIC_MONOMIALS, c.coeffs)))


def random_poly(field: Field, degree: int, seed: int) -> HomogeneousPoly:
    """A deterministic pseudo-random form, used by the oracle test sweeps."""
    rng = SplitMix64(derive_seed(seed, degree))
    coeffs = {}
    for exps in monomial_basis(degree):
        if isinstance(field, PrimeField):
            coeffs[exps] = rng.below(field.p)
        else:
            coeffs[exps] = rng.int_in(-9, 9)
    return HomogeneousPoly(field, degree, coeffs)


# ---------------------------------------------------------------------------
# constraint rows


@lru_cache(maxsize=None)
def _derivative_table(d: int) -> tuple:
    """Per variable, the (column, exponent e, index k) triples of its partial
    derivative on degree-d forms: the monomial in column j, with exponent e in
    that variable, differentiates to e times monomial k of degree d - 1."""
    lower = {exps: k for k, exps in enumerate(monomial_basis(d - 1))} if d else {}
    table = []
    for var in range(3):
        entries = []
        for j, exps in enumerate(monomial_basis(d)):
            e = exps[var]
            if e:
                shifted = list(exps)
                shifted[var] = e - 1
                entries.append((j, e, lower[tuple(shifted)]))
        table.append(tuple(entries))
    return tuple(table)


def _monomial_values(coords: Sequence, m: int, p: Optional[int]) -> list:
    """The degree-m monomials at ``coords`` in ``monomial_basis(m)`` order,
    as residues mod p, or exactly when p is None."""
    pows = []
    for v in coords:
        col = [1]
        for _ in range(m):
            col.append(col[-1] * v % p if p else col[-1] * v)
        pows.append(col)
    px, py, pz = pows
    vals = [px[a] * py[b] * pz[c] for a, b, c in monomial_basis(m)]
    return [v % p for v in vals] if p else vals


def _point_rows(coords: Sequence, d: int, p: Optional[int]) -> list:
    """The three derivative rows at ``coords`` on degree-d forms, as residues
    mod p, or exactly when p is None."""
    mon = _monomial_values(coords, d - 1, p) if d else []
    n = space_dim(d)
    rows = []
    for entries in _derivative_table(d):
        row = [0] * n
        for j, e, k in entries:
            row[j] = e * mon[k]
        rows.append([v % p for v in row] if p else row)
    return rows


def vanishing_row(a: ProjPoint, d: int) -> DenseMatrix:
    """The single row expressing f(a) = 0 on degree-d coefficient vectors."""
    row = _monomial_values(a.coords, d, _modulus(a.field))
    return DenseMatrix(a.field, [row], space_dim(d))


def singularity_rows(a: ProjPoint, d: int) -> DenseMatrix:
    """Three rows expressing that all partials of f vanish at the point a.

    The rows depend on the projective representative only up to scaling, so
    their row space, which is all downstream code uses, is well defined.
    """
    return DenseMatrix(a.field, _point_rows(a.coords, d, _modulus(a.field)), space_dim(d))


def divisibility_subspace(g: HomogeneousPoly, m: int, d: int) -> SubspaceBasis:
    """Basis of the forms of degree d divisible by g^m."""
    if m < 0:
        raise InputError("multiplicity must be nonnegative")
    rest = d - m * g.degree
    if rest < 0:
        raise InputError("multiplicity times degree exceeds the ambient degree")
    if g.is_zero():
        raise InputError("cannot divide by the zero form")
    power = g ** m
    rows = []
    f = g.field
    for exps in monomial_basis(rest):
        mono = HomogeneousPoly(f, rest, {exps: f.one()})
        rows.append((power * mono).to_vector())
    return row_space(DenseMatrix(f, rows, space_dim(d)))


def _remainder_rows(g: HomogeneousPoly, d: int) -> list:
    """Integer rows whose kernel is the space of degree-d forms divisible by g^2.

    They are the rows of the remainder map f -> f mod g^2 in graded-lex
    order, one per monomial not divisible by the leading monomial L of
    G = g^2.  {G} is a Groebner basis of the ideal it generates, so a form
    is divisible by G exactly when its remainder is zero, in every
    characteristic.  The remainder of each monomial is found in one sweep in
    increasing order: a monomial q * L reduces to the remainder of
    q * (L - G / c), where c is the leading coefficient, whose monomials are
    all smaller and already reduced.

    Over GF(p) the entries are residues and G is made monic.  Over QQ, G is
    squared from an integer multiple of g, and the remainder of a monomial
    reached after h reductions is kept as c^h times itself, so no fraction
    appears; the rows are then scaled by c^H, H the largest h.
    """
    if d < 2 * g.degree:
        raise InputError("multiplicity times degree exceeds the ambient degree")
    if g.is_zero():
        raise InputError("cannot divide by the zero form")
    p = _modulus(g.field)
    if p is None:
        g = HomogeneousPoly(g.field, g.degree,
                            dict(zip(g.terms, _integer_row(g.terms.values()))))
    square = {e: v.numerator for e, v in (g * g).terms.items()}
    lead = max(square)
    c = square.pop(lead)
    if p:
        inv = pow(c, -1, p)
        tail = [(e, -v * inv % p) for e, v in square.items()]
        c = 1
    else:
        tail = [(e, -v) for e, v in square.items()]
    basis = monomial_basis(d)
    index = {e: j for j, e in enumerate(basis)}
    n = len(basis)
    std = [j for j, e in enumerate(basis)
           if e[0] < lead[0] or e[1] < lead[1] or e[2] < lead[2]]
    reduced: list = [None] * n
    depth = [0] * n
    for i, j in enumerate(std):
        unit = [0] * len(std)
        unit[i] = 1
        reduced[j] = unit
    for j in range(n - 1, -1, -1):
        if reduced[j] is not None:
            continue
        q = tuple(a - b for a, b in zip(basis[j], lead))
        parts = [(v, index[(q[0] + e[0], q[1] + e[1], q[2] + e[2])]) for e, v in tail]
        h = 1 + max((depth[k] for _, k in parts), default=0)
        acc = [0] * len(std)
        for v, k in parts:
            s = v * c ** (h - 1 - depth[k])
            acc = [a + s * b for a, b in zip(acc, reduced[k])]
        reduced[j] = [a % p for a in acc] if p else acc
        depth[j] = h
    if c != 1:
        top = max(depth)
        reduced = [[v * c ** (top - h) for v in col] for col, h in zip(reduced, depth)]
    return [list(row) for row in zip(*reduced)]


def constraint_matrix(cfg: Config, d: int = 5) -> DenseMatrix:
    """Stacked singularity rows of all marked points of a configuration."""
    p = _modulus(cfg.field)
    rows: list = []
    for pt in cfg.points:
        rows.extend(_point_rows(pt.coords, d, p))
    return DenseMatrix(cfg.field, rows, space_dim(d))


def _system_rows(cfg: Config, d: int) -> list:
    """Rows whose kernel is the space of degree-d forms singular along ``cfg``.

    The derivative rows of the marked points are stacked with the remainder
    rows of each line or conic component.  Over GF(p) the entries are
    residues; over QQ they are ints, the point rows taken at an integer
    representative of each point (the row span does not depend on it).
    """
    p = _modulus(cfg.field)
    rows: list = []
    for pt in cfg.points:
        rows.extend(_point_rows(pt.coords if p else _integer_row(pt.coords), d, p))
    for ln in cfg.lines:
        rows.extend(_remainder_rows(line_poly(ln), d))
    for qc in cfg.conics:
        rows.extend(_remainder_rows(conic_poly(qc), d))
    return rows


def _euler_relation(field: Field, d: int) -> None:
    """Refuse a characteristic that divides ``d``: Euler's relation
    x f_x + y f_y + z f_z = d f then vanishes, so the derivative rows of a
    point no longer imply f = 0 there and the count is not the singular one."""
    p = _modulus(field)
    if p is not None and d % p == 0:
        raise InputError(f"{field} has characteristic {p}, which divides the degree {d}; "
                         "the Euler relation degenerates")


def linear_system_dim(cfg: Config, d: int = 5) -> int:
    """Dimension of the space of degree-d forms singular along ``cfg``.

    Marked points contribute their three derivative rows; a full line or
    conic component g contributes the rows of the remainder map modulo g^2,
    whose kernel is the forms divisible by g^2.  Both kinds of rows are
    assembled once as plain int rows S, and the dimension is
    ``space_dim(d) - rank(S)`` (21 - rank for quintics), ranked by Bareiss
    elimination over QQ and by elimination mod p over GF(p).  The
    whole-plane configuration is the one case with no matrix: only the zero
    form is singular everywhere.  A field whose characteristic divides ``d``
    raises ``InputError``.
    """
    _euler_relation(cfg.field, d)
    if cfg.whole_plane:
        return 0
    return space_dim(d) - rank_rows(cfg.field, _system_rows(cfg, d))


def linear_system_basis(cfg: Config, d: int = 5) -> SubspaceBasis:
    """Echelonized basis of the same space ``linear_system_dim`` measures."""
    _euler_relation(cfg.field, d)
    if cfg.whole_plane:
        return SubspaceBasis(cfg.field, space_dim(d), ())
    return _kernel_rows(cfg.field, _system_rows(cfg, d), space_dim(d))


def sample_quartic_contact_system(field: Field, seed: int) -> DenseMatrix:
    """The 13 x 15 quartic system: 4 vanishing rows on a line, 9 derivative rows.

    Four points on a line contribute one evaluation row each; three further
    points in general position (not collinear, off the line) contribute their
    three derivative rows.  For generic data the 13 rows are independent, so
    the kernel is 2-dimensional.  A field whose lines have fewer than four
    points (GF(2)) is refused before any draw.
    """
    _line_capacity(field, 4, "the quartic contact system")

    def build(draw: _Draw) -> tuple[list, list]:
        ln = draw.line()
        on_line = draw.distinct_points_on(ln, 4)
        off = draw.distinct(3, draw.point, skip=lambda q: incident(q, ln))
        if collinear(*off):
            raise _Reject
        return on_line, off

    on_line, off = _retry(build, field, derive_seed(seed, 13),
                          f"could not sample the quartic contact system over {field}")
    rows: list = []
    for pt in on_line:
        rows.extend(vanishing_row(pt, 4).rows)
    for pt in off:
        rows.extend(singularity_rows(pt, 4).rows)
    return DenseMatrix(field, rows, space_dim(4))


# ---------------------------------------------------------------------------
# brute-force singular sets over a prime field


@dataclass(frozen=True)
class SingularSet:
    """The singular locus of a form: isolated points plus full components."""

    field: Field
    isolated_points: tuple = ()
    line_components: tuple = ()
    conic_components: tuple = ()
    whole_plane: bool = False

    def is_empty(self) -> bool:
        return not (self.isolated_points or self.line_components
                    or self.conic_components or self.whole_plane)

    def as_config(self) -> Config:
        return Config(self.field, points=self.isolated_points,
                      lines=self.line_components, conics=self.conic_components,
                      whole_plane=self.whole_plane)


@lru_cache(maxsize=8)
def plane_points(p: int) -> tuple:
    """All p^2 + p + 1 normalized points of the projective plane over GF(p)."""
    field = PrimeField(p)
    pts = [ProjPoint(field, (1, y, z)) for y in range(p) for z in range(p)]
    pts.extend(ProjPoint(field, (0, 1, z)) for z in range(p))
    pts.append(ProjPoint(field, (0, 0, 1)))
    return tuple(pts)


# The sieve runs Horner's rule over all p values of z only on a row whose gcd
# has degree >= 3; the cap keeps that work, and the tables of squares and
# inverses, small.
MAX_BRUTEFORCE_PRIME = 251


def singular_points_bruteforce(f: HomogeneousPoly, p: int) -> list:
    """All projective points over GF(p) where every partial of f vanishes.

    The plane is sieved row by row in ``plane_points`` order: x = 1 with y
    fixed, then x = 0, y = 1, then (0, 0, 1).  On a row each partial is a
    polynomial in z.  Its coefficients are built column-wise before any row
    is visited: the coefficient of each power of z in each partial is a
    polynomial in y, evaluated at every y at once by Horner's rule, so row y
    reads its three z-polynomials off the columns.  On x = 0 each
    coefficient is the leading one of its polynomial in y, and at (0:0:1)
    each partial is its coefficient of the highest power of z.  Both kinds
    of row go through one gcd fold: the singular z values are the roots in
    GF(p) of the gcd of the nonzero partials, folded in one at a time until
    it is constant.  A gcd of degree 1 or 2 is solved in closed form, a
    higher one by Horner's rule over every z; a row on which all three
    partials vanish is kept whole.  Only found points are built: no table
    of the plane is made unless f = 0.
    """
    field = PrimeField(p)
    if f.field != field:
        raise FieldMismatchError(f"form is not over GF({p})")
    _euler_relation(field, f.degree)
    if p < 5:
        raise InputError("brute force needs p >= 5")
    if p > MAX_BRUTEFORCE_PRIME:
        raise InputError(f"brute force enumerates p^2+p+1 points; use p <= "
                         f"{MAX_BRUTEFORCE_PRIME}")
    if f.is_zero():
        return list(plane_points(p))
    m = f.degree - 1
    # per partial, the coefficient of z^(m - k) as a polynomial in y of
    # degree <= k, highest power first: the term x^a y^b z^c sits at [m - c][a]
    partials = [[[0] * (k + 1) for k in range(m + 1)] for _ in range(3)]
    for v, polys in enumerate(partials):
        for (a, _, c), coeff in f.partial(v).terms.items():
            polys[m - c][a] = coeff
    columns = [zip(*[[u % p for u in _horner(poly, range(p))] for poly in polys])
               for polys in partials]
    out = []
    for y, row in enumerate(zip(*columns)):
        out.extend(ProjPoint(field, (1, y, z)) for z in _row_zeros(row, p))
    x_free = [[poly[0] for poly in polys] for polys in partials]
    out.extend(ProjPoint(field, (0, 1, z)) for z in _row_zeros(x_free, p))
    if not any(polys[0][0] for polys in partials):
        out.append(ProjPoint(field, (0, 0, 1)))
    return out


def _row_zeros(polys: Sequence, p: int):
    """The z in GF(p), ascending, where the partials, given on one row as
    residue coefficients in z (highest power first), all vanish."""
    gcd = None
    for poly in polys:
        poly = list(poly)
        while poly and not poly[0]:
            poly.pop(0)
        if poly:
            gcd = poly if gcd is None else _gcd_mod(gcd, poly, p)
            if len(gcd) == 1:
                return ()
    if gcd is None:
        return range(p)
    inverse = _inverses(p)
    if len(gcd) == 2:
        return (-gcd[1] * inverse[gcd[0]] % p,)
    if len(gcd) == 3:
        a, b, c = gcd
        root = _square_roots(p).get((b * b - 4 * a * c) % p)
        if root is None:
            return ()
        inv = inverse[2 * a % p]
        return sorted({(root - b) * inv % p, (-root - b) * inv % p})
    return [z for z, v in enumerate(_horner(gcd, range(p))) if v % p == 0]


def _gcd_mod(u: list, v: list, p: int) -> list:
    """A gcd of two nonzero polynomials over GF(p), highest power first."""
    inverse = _inverses(p)
    while len(v) > 1:
        inv = inverse[v[0]]
        n = len(v)
        while len(u) >= n:
            q = u[0] * inv
            u = [(a - q * b) % p for a, b in zip(u[1:n], v[1:])] + u[n:]
            while u and not u[0]:
                u.pop(0)
        if not u:
            return v
        u, v = v, u
    return v


@lru_cache(maxsize=8)
def _square_roots(p: int) -> dict:
    """A square root mod p of every square mod p."""
    return {v * v % p: v for v in range(p)}


@lru_cache(maxsize=8)
def _inverses(p: int) -> tuple:
    """The inverse mod p of every residue, with 0 at index 0."""
    return (0,) + tuple(pow(v, -1, p) for v in range(1, p))


def _horner(coeffs: Sequence, xs: Sequence) -> list:
    """The polynomial (highest power first) at every x in ``xs``, unreduced,
    by Horner's rule run on all of them at once."""
    acc = [coeffs[0]] * len(xs)
    for c in coeffs[1:]:
        acc = [v * x + c for v, x in zip(acc, xs)]
    return acc


def _peel_line_components(points: list, p: int) -> tuple[list, list]:
    """Split off every full line (all p + 1 points present) of the point set.

    Each pivot is a point not yet on a found line; the other points are
    grouped by their line through the pivot, keyed on its normalized
    coefficient triple, and a group of p points closes a full line.  Pivoting
    on uncovered points only is exact: another full line meets a full line L
    in one point, and a nonzero form of degree d < p is singular along at
    most d/2 full lines (each one's square divides it), fewer than the p + 1
    points of L, so some point of L stays uncovered until L is found.
    A pivot stops grouping once no group can still reach p points.
    """
    inverse = _inverses(p)
    coords = [q.coords for q in points]
    n = len(coords)
    covered: set = set()
    found: dict = {}
    for i, (x1, y1, z1) in enumerate(coords):
        if i in covered:
            continue
        groups: dict = {}
        largest = 0
        for j, (x2, y2, z2) in enumerate(coords):
            if j == i:
                continue
            if largest + (n - j) < p:
                break
            a = (y1 * z2 - z1 * y2) % p
            b = (z1 * x2 - x1 * z2) % p
            c = (x1 * y2 - y1 * x2) % p
            s = inverse[a or b or c]
            key = (a * s % p, b * s % p, c * s % p)
            members = groups.setdefault(key, [])
            members.append(j)
            largest = max(largest, len(members))
        for key, members in groups.items():
            if len(members) == p:
                found[key] = ProjLine(points[i].field, key)
                covered.add(i)
                covered.update(members)
    lines = [found[key] for key in sorted(found)]
    remaining = [q for k, q in enumerate(points) if k not in covered]
    return lines, remaining


def _peel_conic_component(points: list, p: int) -> tuple[list, list]:
    """Detect one full nondegenerate conic inside the point set, if any.

    A quintic form can carry at most one doubled conic, and its leftover
    isolated singularities number at most four, so scanning five-subsets of
    the first twelve points always sees five points of the conic.  A
    nondegenerate conic over GF(p), p odd, has exactly p + 1 points (it is
    isomorphic to the projective line), so it is full when all of them are in
    the set.
    """
    if len(points) < p + 1:
        return [], points
    head = points[: min(len(points), 12)]
    for five in combinations(head, 5):
        if len(set(five)) != 5:
            continue
        conic = conic_through(list(five))
        if conic is None or conic.is_degenerate():
            continue
        on = {q for q in points if conic.contains(q)}
        if len(on) == p + 1:
            return [conic], [q for q in points if q not in on]
    return [], points


def singular_set_bruteforce(f: HomogeneousPoly, p: int) -> SingularSet:
    """Exhaustive singular locus of f over GF(p), grouped into components.

    A line or conic is reported as a component only when every one of its
    p + 1 rational points is singular; everything else stays isolated.
    Grouping is attempted only above the counting thresholds where it is
    forced: a fully singular line needs p + 1 > deg f roots of the restricted
    form, a fully singular conic needs p + 1 > 2 deg f.
    """
    if f.is_zero():
        return SingularSet(PrimeField(p), whole_plane=True)
    pts = singular_points_bruteforce(f, p)
    lines: list = []
    rest = pts
    if len(pts) >= p + 1 and p + 1 > f.degree:
        lines, rest = _peel_line_components(pts, p)
    conics: list = []
    if p + 1 > 2 * f.degree:
        conics, rest = _peel_conic_component(rest, p)
    rest_sorted = tuple(sorted(rest, key=lambda q: q.coords))
    return SingularSet(PrimeField(p), isolated_points=rest_sorted,
                       line_components=tuple(lines), conic_components=tuple(conics))


# ---------------------------------------------------------------------------
# the 42-entry taxonomy


@dataclass(frozen=True)
class ConfigTypeRecord:
    type_id: int
    k_points: Union[int, str]  # point count, or "nondiscrete"
    expected_dim: int
    description: str


TYPE_TABLE: tuple = (
    ConfigTypeRecord(1, 1, 18, "one point"),
    ConfigTypeRecord(2, 2, 15, "two points"),
    ConfigTypeRecord(3, 3, 12, "three points"),
    ConfigTypeRecord(4, 4, 11, "four points on a line"),
    ConfigTypeRecord(5, 5, 10, "five points on a line"),
    ConfigTypeRecord(6, 6, 10, "six points on a line"),
    ConfigTypeRecord(7, 7, 10, "seven points on a line"),
    ConfigTypeRecord(8, 8, 10, "eight points on a line"),
    ConfigTypeRecord(9, 9, 10, "nine points on a line"),
    ConfigTypeRecord(10, 10, 10, "ten points on a line"),
    ConfigTypeRecord(11, "nondiscrete", 10, "a full line"),
    ConfigTypeRecord(12, 4, 9, "four points not all on a line"),
    ConfigTypeRecord(13, 5, 8, "four points on a line plus one off it"),
    ConfigTypeRecord(14, 6, 7, "five points on a line plus one off it"),
    ConfigTypeRecord(15, 7, 7, "six points on a line plus one off it"),
    ConfigTypeRecord(16, 8, 7, "seven points on a line plus one off it"),
    ConfigTypeRecord(17, "nondiscrete", 7, "a full line plus one point off it"),
    ConfigTypeRecord(18, 5, 6, "five points, no four on a line"),
    ConfigTypeRecord(19, 6, 5, "four points on a line plus two off it"),
    ConfigTypeRecord(20, 7, 4, "five points on a line plus two off it"),
    ConfigTypeRecord(21, 8, 4, "six points on a line plus two off it"),
    ConfigTypeRecord(22, "nondiscrete", 4, "a full line plus two points off it"),
    ConfigTypeRecord(23, 6, 4, "three points on each of two lines, intersection free"),
    ConfigTypeRecord(24, 6, 4, "six points on a nondegenerate conic"),
    ConfigTypeRecord(25, 7, 4, "two three-point lines plus their intersection point"),
    ConfigTypeRecord(26, 6, 3, "six points on no conic, no four on a line"),
    ConfigTypeRecord(27, 7, 3, "four points on one line, three on another, intersection free"),
    ConfigTypeRecord(28, 8, 3, "five points on one line plus three on another line off it"),
    ConfigTypeRecord(29, "nondiscrete", 3, "a full line plus three collinear points off it"),
    ConfigTypeRecord(30, 8, 3, "four points on each of two lines, intersection free"),
    ConfigTypeRecord(31, "nondiscrete", 3, "a pair of full lines"),
    ConfigTypeRecord(32, 7, 3, "seven points on a nondegenerate conic"),
    ConfigTypeRecord(33, "nondiscrete", 3, "a full nondegenerate conic"),
    ConfigTypeRecord(34, 7, 2, "four points on a line plus three generic points off it"),
    ConfigTypeRecord(35, 7, 1, "two three-point lines plus a point off both"),
    ConfigTypeRecord(36, 7, 1, "six points on a nondegenerate conic plus a point off it"),
    ConfigTypeRecord(37, 8, 1, "two three-point lines, their intersection, and a free point"),
    ConfigTypeRecord(38, 8, 1, "four generic base points plus four cuts of a line by two conics through them"),
    ConfigTypeRecord(39, 9, 1, "a triangle of three generic points plus six cuts of its sides by a conic"),
    ConfigTypeRecord(40, 10, 1, "the ten pairwise intersections of five generic lines"),
    ConfigTypeRecord(41, "nondiscrete", 1, "a full line plus three generic points off it"),
    ConfigTypeRecord(42, "nondiscrete", 0, "the whole plane"),
)

GOLDEN_DIMS = {rec.type_id: rec.expected_dim for rec in TYPE_TABLE}
K_POINTS = {rec.type_id: rec.k_points for rec in TYPE_TABLE}


def type_record(type_id: int) -> ConfigTypeRecord:
    if not 1 <= type_id <= 42:
        raise InputError(f"type_id {type_id} out of range 1..42")
    return TYPE_TABLE[type_id - 1]


# ---------------------------------------------------------------------------
# classification


def _conic_containing(points: Sequence[ProjPoint]) -> Optional[Conic]:
    """The conic through six points when it exists and is unique."""
    m = DenseMatrix(points[0].field, [veronese(q) for q in points], 6)
    basis = kernel(m).basis
    if len(basis) != 1:
        return None
    return Conic(points[0].field, basis[0])


def _pencil_partner(base: Sequence[ProjPoint], ln: ProjLine, pt: ProjPoint) -> Optional[ProjPoint]:
    """Second cut of the line by the conic through the four base points and pt."""
    q = conic_through(list(base) + [pt])
    if q is None:
        return None
    try:
        return conic_line_second_point(q, ln, pt)
    except InputError:
        return None


def _classify_pencil_quadruple(on_line: Sequence[ProjPoint], rest: Sequence[ProjPoint],
                               ln: ProjLine) -> Optional[int]:
    if not _no_collinear_triple(rest):
        return None
    partner = {}
    for pt in on_line:
        mate = _pencil_partner(rest, ln, pt)
        if mate is None or mate == pt or mate not in on_line:
            return None
        partner[pt] = mate
    pairs = {frozenset((a, b)) for a, b in partner.items()}
    if len(pairs) == 2 and all(partner[partner[p]] == p for p in on_line):
        return 38
    return None


def _classify_triangle_conic(points: Sequence[ProjPoint], groups: dict) -> Optional[int]:
    four_lines = {ln: pts for ln, pts in groups.items() if len(pts) == 4}
    if len(four_lines) != 3 or any(len(pts) > 4 for pts in groups.values()):
        return None
    (la, sa), (lb, sb), (lc, sc) = sorted(four_lines.items(), key=lambda kv: kv[0].coeffs)
    sets = [set(sa), set(sb), set(sc)]
    shared = []
    for i, j in combinations(range(3), 2):
        inter = sets[i] & sets[j]
        if len(inter) != 1:
            return None
        shared.append(next(iter(inter)))
    if len(set(shared)) != 3:
        return None
    vertices = set(shared)
    others = [q for q in points if q not in vertices]
    if len(others) != 6 or sets[0] | sets[1] | sets[2] != set(points):
        return None
    conic = _conic_containing(others)
    if conic is None:
        return None
    if any(conic.contains(v) for v in vertices):
        return None
    return 39


def _classify_five_lines(points: Sequence[ProjPoint], groups: dict) -> Optional[int]:
    four_lines = [ln for ln, pts in groups.items() if len(pts) == 4]
    if len(four_lines) != 5 or any(len(pts) > 4 for pts in groups.values()):
        return None
    for q in points:
        if sum(1 for ln in four_lines if q in groups[ln]) != 2:
            return None
    return 40


def classify_points(points: Sequence[ProjPoint]) -> Optional[int]:
    """Classify a finite point set against the taxonomy; None when no type fits."""
    pts = tuple(points)
    k = len(pts)
    if k == 0 or k > 10:
        return None
    if k == 1:
        return 1
    if k == 2:
        return 2
    groups = line_groups(pts)
    sized = {ln: p for ln, p in groups.items() if len(p) >= 3}
    m = max((len(p) for p in sized.values()), default=2)
    if k == 3:
        return 3
    if m == k:
        # all points on one line: types 4..10 are 4..10 collinear points
        return k
    if k == 4:
        return 12
    if k == 5:
        return 13 if m == 4 else 18
    if k == 6:
        if m == 5:
            return 14
        if m == 4:
            return 19
        if _disjoint_trios(sized):
            return 23
        # No four of the six points are collinear, so at most one conic
        # passes through them: two conics meeting in more than four points
        # share a line L, and the points off L lie on both residual lines,
        # which have one common point, so five points would lie on L.
        conic = _conic_containing(pts)
        if conic is None:
            return 26
        return None if conic.is_degenerate() else 24
    if k == 7:
        return _classify_seven(pts, sized, m)
    if k == 8:
        return _classify_eight(pts, sized, m)
    if k == 9:
        return _classify_triangle_conic(pts, sized)
    return _classify_five_lines(pts, sized)


def _disjoint_trios(sized: dict) -> bool:
    """True iff two of the three-point lines share no point."""
    trios = [set(p) for p in sized.values() if len(p) == 3]
    return any(not (s1 & s2) for s1, s2 in combinations(trios, 2))


def _on_one_line(sized: dict, pts: set) -> bool:
    """True iff the three or more points ``pts`` lie on one line of ``sized``."""
    return any(pts <= set(on) for on in sized.values())


def _classify_seven(pts, sized, m) -> Optional[int]:
    if m == 6:
        return 15
    if m == 5:
        return 20
    if m == 4:
        four = [set(p) for p in sized.values() if len(p) == 4]
        if len(four) == 2:
            # two four-point lines among seven points meet in one of them
            return 25
        if len(four) == 1:
            # A line through the other three cannot meet the four-point line
            # in a point of the set: that line would then carry four points.
            return 27 if _on_one_line(sized, set(pts) - four[0]) else 34
        return None
    # m <= 3
    conic = conic_through(list(pts[:5])) if _no_collinear_triple(pts[:5]) else None
    if conic is not None and not conic.is_degenerate() \
            and all(conic.contains(q) for q in pts):
        return 32
    if _disjoint_trios(sized):
        return 35
    for skip in range(7):
        conic = _conic_containing([q for i, q in enumerate(pts) if i != skip])
        if conic is not None and not conic.is_degenerate() \
                and not conic.contains(pts[skip]):
            return 36
    return None


def _classify_eight(pts, sized, m) -> Optional[int]:
    if m == 7:
        return 16
    if m == 6:
        return 21
    if m == 5:
        (on_line,) = (set(p) for p in sized.values() if len(p) == 5)
        return 28 if _on_one_line(sized, set(pts) - on_line) else None
    if m == 4:
        four = {ln: set(p) for ln, p in sized.items() if len(p) == 4}
        if len(four) == 2:
            # Two lines share at most one point; when they share one, the
            # eighth point is on neither, since each group holds every point
            # of its line.
            s1, s2 = four.values()
            return 37 if s1 & s2 else 30
        if len(four) == 1:
            (ln, on_line), = four.items()
            rest = [q for q in pts if q not in on_line]
            return _classify_pencil_quadruple(sorted(on_line, key=lambda q: q.coords),
                                              sorted(rest, key=lambda q: q.coords), ln)
        return None
    return None


def classify(obj: Union[Config, SingularSet]) -> Optional[int]:
    """Match a configuration or singular set against the 42-type taxonomy.

    Returns the unique matching type id, or None when no pattern fits.  The
    decision tree checks full components first, then maximal collinear
    subsets, then conic membership, then intersection-point membership.  A
    conic component over GF(2) raises ``InputError``, as ``is_degenerate`` does.
    """
    if isinstance(obj, SingularSet):
        cfg = obj.as_config()
    else:
        cfg = obj
    if cfg.whole_plane:
        return 42
    if cfg.conics:
        if len(cfg.conics) == 1 and not cfg.lines and not cfg.points \
                and not cfg.conics[0].is_degenerate():
            return 33
        return None
    if cfg.lines:
        return _classify_with_lines(cfg)
    return classify_points(cfg.points)


def _classify_with_lines(cfg: Config) -> Optional[int]:
    if len(cfg.lines) == 2 and not cfg.points:
        return 31 if cfg.lines[0] != cfg.lines[1] else None
    if len(cfg.lines) != 1:
        return None
    comp = cfg.lines[0]
    pts = cfg.points
    if any(incident(q, comp) for q in pts):
        return None
    n = len(pts)
    if n == 0:
        return 11
    if n == 1:
        return 17
    if n == 2:
        return 22
    if n == 3:
        # the points are off the component, so their line meets it off the set
        return 29 if collinear(*pts) else 41
    return None


# ---------------------------------------------------------------------------
# structural condition checks on sampled taxonomies


@dataclass
class ConditionReport:
    checked: int
    subset_checks: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_conditions(samples: Iterable[Config]) -> ConditionReport:
    """Check the taxonomy ordering conditions on sampled configurations.

    For every finite sample K of type i: K itself must classify back to i
    (the patterns are mutually exclusive and exhaustive on their strata), and
    every proper subset that matches any type at all must match one with a
    strictly smaller index.
    """
    checked = 0
    subset_checks = 0
    violations = []
    for cfg in samples:
        if not cfg.is_finite():
            continue
        if not isinstance(cfg.type_id, int):
            raise InputError("condition checks need typed configurations")
        checked += 1
        own = classify(cfg)
        if own != cfg.type_id:
            violations.append((cfg.type_id, "self", own))
            continue
        pts = cfg.points
        for r in range(1, len(pts)):
            for subset in combinations(pts, r):
                subset_checks += 1
                sub_type = classify_points(subset)
                if sub_type is not None and sub_type >= cfg.type_id:
                    violations.append((cfg.type_id, subset, sub_type))
    return ConditionReport(checked, subset_checks, violations)


def verify_taxonomy_table() -> None:
    """Internal invariants of the golden table."""
    if len(TYPE_TABLE) != 42:
        raise TaxonomyError("taxonomy table must have 42 entries")
    dims = [rec.expected_dim for rec in TYPE_TABLE]
    if dims[0] != 18 or dims[-1] != 0:
        raise TaxonomyError("taxonomy table endpoints are wrong")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise TaxonomyError("expected dimensions must be nonincreasing")
