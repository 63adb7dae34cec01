"""Linear systems of plane curves with prescribed singularities.

The dimension count at the center of the package works entirely in the
coordinate space of forms in x, y, z.  A full line or conic component g asks
for divisibility by g^2, so the forms of degree d singular along a
configuration are L^2 h, L the product of its distinct components and h a
form of degree e = d - 2 deg L singular at the marked points off them.  Only
that point system is ever assembled: three derivative rows per point, and
the point's value row where the characteristic divides e, as plain int rows
over QQ and as packed ints over GF(p), so its space is their kernel,
computed exactly over the chosen field without building a matrix object.
The dimension is counted in a frame of the points: up to three of them moved
to the coordinate points, where their rows are unit vectors and delete
columns instead of adding rows (9 of the 21 at e = 5).  The other points'
rows are built on the columns left, from their degree-(e - 1) monomial
values.  The basis is L^2 times the basis of the point system, reduced once.

The module also provides the inverse direction used as an oracle: exhaustive
enumeration of singular points of a form over a small prime field (the sieve
itself is in ``sieve``) and grouping of full line/conic components.  Its two
typing entry points, ``classify`` of a configuration or singular set and
``check_conditions`` over every subset of a sample, hand every decision to
``classifier``; the table of the 42 types is in ``taxonomy``.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from ._value import _setattr, _Value
from .classifier import _classify_config, _typed_subsets
from .errors import FieldMismatchError, InputError
from .exactalg import (
    Field,
    PrimeField,
    SubspaceBasis,
    _fp_forward,
    _fp_kernel,
    _fp_pack,
    _kernel_rows,
    _row_basis,
    _slot_width,
    rank_rows,
)
from .projgeom import (
    CONIC_MONOMIALS,
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _frame,
    _from_key,
    _pairing,
)
from .rng import SplitMix64, derive_seed
from .sieve import _peel_conic_component, _peel_line_components, _singular_keys


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
        if field.p is not None:
            coeffs[exps] = rng.below(field.p)
        else:
            coeffs[exps] = rng.int_in(-9, 9)
    return HomogeneousPoly(field, degree, coeffs)


# ---------------------------------------------------------------------------
# constraint rows


@lru_cache(maxsize=None)
def _derivative_table(d: int, columns: Optional[tuple]) -> tuple:
    """Per variable, one (e, i) per column of degree-d forms in ``columns``,
    every column when None: the monomial in that column, with exponent e in
    that variable, differentiates to e times the monomial i of
    ``monomial_basis(d - 1)``.  A monomial free of the variable
    differentiates to 0 and gets (0, 0), as does every column at d = 0.

    This is the Veronese view of differentiation: every partial of a
    degree-d monomial is a multiple of one degree-(d - 1) monomial, so the
    derivative rows at a point are the multipliers e spread over the values
    of the degree-(d - 1) monomials there (the 15 quartic ones at d = 5).
    ``_point_rows`` reads the table into plain rows and
    ``_packed_derivatives`` into packed constants.
    """
    basis = monomial_basis(d)
    index = {exps: i for i, exps in enumerate(monomial_basis(d - 1))} if d else {}
    table = []
    for var in range(3):
        entries = []
        for j in range(len(basis)) if columns is None else columns:
            exps = list(basis[j])
            e = exps[var]
            if e:
                exps[var] = e - 1
                entries.append((e, index[tuple(exps)]))
            else:
                entries.append((0, 0))
        table.append(tuple(entries))
    return tuple(table)


@lru_cache(maxsize=None)
def _packed_derivatives(d: int, columns: Optional[tuple], w: int, reverse: bool) -> tuple:
    """The constants E_0, E_1, ... of ``_derivative_table(d, columns)``, one
    per degree-(d - 1) monomial, for rows of L = ``len(columns)`` w-bit
    slots: E_i holds, in the block of L slots of each variable (x lowest),
    the multiplier e of the column whose partial in that variable is e
    times the monomial i, in that column's slot (``exactalg._fp_pack``'s
    order, reversed with ``reverse``).  Multiplying a monomial of degree
    d - 1 by a variable gives one monomial of degree d, so each block of
    E_i has at most one nonzero slot.
    """
    table = _derivative_table(d, columns)
    ncols = len(table[0])
    consts = [0] * (space_dim(d - 1) if d else 1)
    for var, entries in enumerate(table):
        for k, (e, i) in enumerate(entries):
            if e:
                consts[i] += e << (w * (var * ncols + (ncols - 1 - k if reverse else k)))
    return tuple(consts)


def _monomial_values(coords: Sequence, m: int, p: Optional[int]) -> list:
    """The degree-m monomials at ``coords`` in ``monomial_basis(m)`` order,
    as residues mod p, or exactly when p is None; [1] at m <= 0."""
    x, y, z = coords
    px, py, pz = [1], [1], [1]
    for _ in range(m):
        if p:
            px.append(px[-1] * x % p)
            py.append(py[-1] * y % p)
            pz.append(pz[-1] * z % p)
        else:
            px.append(px[-1] * x)
            py.append(py[-1] * y)
            pz.append(pz[-1] * z)
    if p:
        return [px[a] * py[b] * pz[c] % p for a, b, c in monomial_basis(m)]
    return [px[a] * py[b] * pz[c] for a, b, c in monomial_basis(m)]


def _point_rows(coords: Sequence, d: int, p: Optional[int],
                columns: Optional[tuple] = None) -> list:
    """The three derivative rows at ``coords`` on degree-d forms, as residues
    mod p, or exactly when p is None, on the columns ``columns`` (increasing
    indices into ``monomial_basis(d)``), every column when None.

    The entry of the row of a variable in a column is the partial in that
    variable of the column's monomial at ``coords``: by
    ``_derivative_table(d, columns)`` that is e times the value of one
    degree-(d - 1) monomial there.  So the values of those monomials are
    taken once, and a row is built on the columns alone; at d = 0 every
    entry is 0.
    """
    vals = _monomial_values(coords, max(d - 1, 0), p)
    table = _derivative_table(d, columns)
    if p:
        return [[e * vals[i] % p for e, i in entries] for entries in table]
    return [[e * vals[i] for e, i in entries] for entries in table]


def _packed_point_rows(points: Sequence, d: int, p: int, columns: Optional[tuple],
                       w: int, reverse: bool) -> list:
    """``_point_rows`` over GF(p) of every point in ``points``, three rows
    after three, packed in w-bit slots as ``exactalg._fp_pack`` would pack
    them (columns reversed with ``reverse``), but straight from the values
    v_i of the degree-(d - 1) monomials at each point: sum_i v_i E_i, with
    the constants E_i of ``_packed_derivatives``, holds the point's three
    rows side by side, and they are cut apart.  The slots of each row are
    distinct for distinct i, so a slot holds e * v_i unreduced, e <= d and
    v_i < p: below d * p, which is the ``top`` of ``exactalg._slot_width``
    for these rows.
    """
    consts = _packed_derivatives(d, columns, w, reverse)
    block = (space_dim(d) if columns is None else len(columns)) * w
    mask = (1 << block) - 1
    m = max(d - 1, 0)
    rows = []
    for coords in points:
        three = sum(map(mul, _monomial_values(coords, m, p), consts))
        rows += (three & mask, three >> block & mask, three >> 2 * block)
    return rows


def singularity_rows(a: ProjPoint, d: int) -> list:
    """Three rows expressing that all partials of f vanish at the point a,
    as residues over GF(p) and exactly over QQ.

    The rows depend on the projective representative only up to scaling, so
    their row space, which is all downstream code uses, is well defined.
    """
    return _point_rows(a.coords, d, a.field.p)


def _products(g: HomogeneousPoly, m: int, rest: int,
              vectors: Optional[Sequence] = None) -> SubspaceBasis:
    """The reduced echelon basis of the forms g^m h of degree
    rest + m deg g, h in the span of the coefficient vectors ``vectors`` of
    degree-rest forms, every degree-rest form when None.

    g^m times a monomial is the terms of g^m shifted by the monomial's
    exponents, and g^m h is the sum of those shifts scaled by the
    coefficients of h.  Multiplication by g^m is injective, so the products
    of independent vectors are independent, and their reduced echelon form
    has no zero rows.
    """
    f = g.field
    power = g ** m
    index = {e: j for j, e in enumerate(monomial_basis(rest + power.degree))}
    shifts = [[(index[x + a, y + b, z + c], v) for (x, y, z), v in power.terms.items()]
              for a, b, c in monomial_basis(rest)]
    if vectors is None:
        vectors = [[int(i == j) for j in range(len(shifts))] for i in range(len(shifts))]
    rows = []
    for vec in vectors:
        row = [0] * len(index)
        for c, shift in zip(vec, shifts):
            if c:
                for j, v in shift:
                    row[j] += c * v
        rows.append([v % f.p for v in row] if f.p else row)
    return _row_basis(f, rows, len(index))


def divisibility_subspace(g: HomogeneousPoly, m: int, d: int) -> SubspaceBasis:
    """Basis of the forms of degree d divisible by g^m: ``_products`` of g^m
    with every form of degree d - m deg g."""
    if m < 0:
        raise InputError("multiplicity must be nonnegative")
    rest = d - m * g.degree
    if rest < 0:
        raise InputError("multiplicity times degree exceeds the ambient degree")
    if g.is_zero():
        raise InputError("cannot divide by the zero form")
    return _products(g, m, rest)


def _division(cfg: Config, d: int) -> tuple[tuple, int, list]:
    """The distinct components of ``cfg``, lines then conics, the degree
    e = d - 2 deg L of the quotient by the square of their product L, and
    the keys of the configuration points off every component.

    A repeated component counts once.  Distinct lines and nondegenerate
    conics are pairwise coprime, so L is their least common multiple and a
    form is divisible by every square exactly when L^2 divides it.  A
    degenerate conic component, which may share a line with another
    component, is refused, and over GF(2), where degeneracy is not decided,
    every conic component is.  A line at d < 2 or a conic at d < 4 is
    refused too; several components may still leave e < 0.
    """
    lines = tuple(dict.fromkeys(cfg.lines))
    conics = tuple(dict.fromkeys(cfg.conics))
    if any(q.is_degenerate() for q in conics):
        raise InputError("a conic component must be nondegenerate")
    if lines and d < 2 or conics and d < 4:
        raise InputError("multiplicity times degree exceeds the ambient degree")
    p = cfg.field.p
    keys = [pt.key for pt in cfg.points
            if all(_pairing(p, ln.key, pt.key) for ln in lines)
            and not any(q.contains(pt) for q in conics)]
    return lines + conics, d - 2 * len(lines) - 4 * len(conics), keys


def _value_rows(points: Sequence, e: int, p: Optional[int], live: Optional[tuple]) -> list:
    """The rows h(P) = 0 at the keys ``points`` on the columns ``live`` of
    degree-e forms, every column when None, over GF(p) where p divides e,
    and none elsewhere: there Euler's relation x h_x + y h_y + z h_z = e h
    makes them follow from the derivative rows.  (Both routes settle e = 0
    before they build rows.)"""
    if not p or e % p:
        return []
    rows = (_monomial_values(key, e, p) for key in points)
    return list(rows) if live is None else [[row[j] for j in live] for row in rows]


def _moved(p: Optional[int], vals: Sequence[int]) -> list:
    """Residues of the ints ``vals`` over GF(p); over QQ (``p`` None) the
    ints divided by their content."""
    if p:
        return [v % p for v in vals]
    g = gcd(*vals)
    return [v // g for v in vals]


def _system_rows(points: Sequence, e: int, p: Optional[int], live: Optional[tuple] = None) -> list:
    """Rows whose kernel is the space of degree-e forms singular at the
    points with keys ``points``, on the columns ``live``, every column when
    None: three derivative rows per point, then ``_value_rows``.  Over GF(p)
    the entries are residues; over QQ (``p`` None) they are ints.
    """
    rows = [row for key in points for row in _point_rows(key, e, p, live)]
    return rows + _value_rows(points, e, p, live)


def _packed_system_rows(points: Sequence, e: int, p: int, live: Optional[tuple],
                        reverse: bool = False) -> tuple[list, int]:
    """``_system_rows`` over GF(p), packed for ``exactalg``'s elimination
    core, with their columns reversed when ``reverse``; returns the packed
    rows and their slot width w.

    Each point's three rows come straight from its degree-(e - 1) monomial
    values (``_packed_point_rows``), their slots below e * p; the value rows
    are residues, packed by ``exactalg._fp_pack``.  So w is ``_slot_width``
    with top = max(e, 1) for all of them.
    """
    values = _value_rows(points, e, p, live)
    w = _slot_width(p, 3 * len(points) + len(values), max(e, 1))
    return _packed_point_rows(points, e, p, live, w, reverse) + _fp_pack(values, w, reverse), w


@lru_cache(maxsize=None)
def _live_columns(d: int, points: tuple) -> tuple:
    """The columns of degree-d forms, d >= 1, that a frame leaves free,
    when ``points[i]`` says whether the coordinate point e_i is a
    configuration point: the monomials of x_i-degree below d - 1 for every
    such i.

    At (1:0:0) a form's partials are d a_(d,0,0), a_(d-1,1,0) and
    a_(d-1,0,1), and its value is a_(d,0,0); likewise at (0:1:0) and
    (0:0:1).  Each of those rows has one nonzero entry, so a form meets
    them exactly when those coefficients vanish: the x^d column needs the
    value row where the characteristic divides d, and ``_value_rows`` adds
    it exactly there.  A point deletes 3 columns, all of them at d = 1.
    """
    return tuple(j for j, exps in enumerate(monomial_basis(d))
                 if not any(on and exps[i] >= d - 1 for i, on in enumerate(points)))


def _euler_relation(field: Field, d: int) -> None:
    """Refuse a characteristic that divides ``d``: Euler's relation
    x f_x + y f_y + z f_z = d f then vanishes, so the derivative rows of a
    point no longer imply f = 0 there and the count is not the singular one."""
    p = field.p
    if p is not None and d % p == 0:
        raise InputError(f"{field} has characteristic {p}, which divides the degree {d}; "
                         "the Euler relation degenerates")


def linear_system_dim(cfg: Config, d: int = 5) -> int:
    """Dimension of the space of degree-d forms singular along ``cfg``.

    A full line or conic component g asks for forms divisible by g^2, so
    every form of the system is L^2 h, L the product of the distinct
    components (``_division``) and h of degree e = d - 2 deg L.  Take a
    marked point P off every component, so L(P) != 0.  Euler's relation
    holds at degree d, so grad f(P) = 0 gives f(P) = L(P)^2 h(P) = 0, and
    f = L^2 h is singular at P exactly when
    grad f(P) = L(P)^2 grad h(P) + h(P) grad(L^2)(P) vanishes, that is,
    exactly when h(P) = 0 and grad h(P) = 0.  Where the characteristic does
    not divide e, Euler's relation at degree e makes h(P) = 0 follow from
    grad h(P) = 0; where it divides e >= 1, the value row is added
    (``_value_rows``).  At e = 0, h is a constant, which vanishes at a point
    only when it is 0: the count is 0 with a point off the components and 1
    without.  A marked point on a component adds nothing, since every L^2 h
    is singular along L.  So the dimension is that of the degree-e system
    of the points off the components, and 0 when e < 0.  With no component
    the system is the point system itself, e = d.

    That point system is counted in a frame of its own points
    (``projgeom._frame``).  Three points A, B, C, not all on one line, move
    to the coordinate points by the adjugate of M = [A B C], every point P
    to adj P.  f -> f(M Y) is a linear isomorphism of the degree-e forms
    that carries the system onto the system of the moved points, so the
    dimension does not change.  The frame puts up to three points on
    coordinate points, and there their conditions are unit rows, which
    delete columns (``_live_columns``) instead of adding rows: 3 at e >= 2,
    so three points delete 9 of the 21 columns at e = 5, collinear points
    6 and a single point 3.  The dimension is the number of live columns
    minus the rank of the other points' rows, built on the live columns
    alone.  Every partial of a degree-e monomial is a multiple of one
    monomial of degree e - 1 (a quartic at e = 5), so a point's rows are
    its degree-(e - 1) Veronese values spread by ``_derivative_table``.
    Over QQ they are plain rows (``_point_rows``), ranked by fraction-free
    elimination on primitive integer rows.  Over GF(p) they are packed
    straight from those values (``_packed_point_rows``), their slots left
    unreduced below e * p, and handed with the packed value rows to the
    elimination core ``exactalg._fp_forward`` as they are.  The
    whole-plane configuration is the one case with no matrix: only the zero
    form is singular everywhere.  A characteristic dividing d raises
    ``InputError``, since the Euler relation then fails.
    """
    _euler_relation(cfg.field, d)
    if cfg.whole_plane:
        return 0
    comps, e, keys = _division(cfg, d)
    if e <= 0:
        return int(e == 0 and not (comps and keys))
    p = cfg.field.p
    corners, adj = _frame(p, keys)
    live = _live_columns(e, tuple(n is not None for n in corners))
    points = [_moved(p, [r0 * x + r1 * y + r2 * z for r0, r1, r2 in adj])
              for n, (x, y, z) in enumerate(keys) if n not in corners]
    if p is None:
        return len(live) - rank_rows(cfg.field, _system_rows(points, e, None, live))
    rows, w = _packed_system_rows(points, e, p, live)
    return len(live) - len(_fp_forward(p, rows, len(live), w))


def linear_system_basis(cfg: Config, d: int = 5) -> SubspaceBasis:
    """Echelonized basis of the same space ``linear_system_dim`` measures:
    the reduced rows of L^2 times the basis of the degree-e point system,
    which is counted in the identity frame, on every column.

    Multiplication by L^2 is injective, so the products of a basis are a
    basis.  ``_products`` multiplies, as it does for
    ``divisibility_subspace``; with no point off the components the
    point system is every degree-e form, and the result is the forms
    divisible by L^2.
    The point system's kernel over QQ is ``_kernel_rows``'s.  Over GF(p)
    each point's three rows are packed straight from its degree-(e - 1)
    Veronese values, as in ``linear_system_dim``, but in reversed column
    order, and the value rows are packed in the same order, so
    ``exactalg._fp_kernel`` reduces them as they are, with no row
    reversed, and reads the null vectors off the slots as ints.
    """
    _euler_relation(cfg.field, d)
    field = cfg.field
    if cfg.whole_plane:
        return SubspaceBasis(field, space_dim(d), ())
    comps, e, keys = _division(cfg, d)
    if e < 0 or e == 0 and comps and keys:
        return SubspaceBasis(field, space_dim(d), ())
    p = field.p
    if p is None:
        quotient = _kernel_rows(field, _system_rows(keys, e, None), space_dim(e))
    else:
        rows, w = _packed_system_rows(keys, e, p, None, reverse=True)
        quotient = _fp_kernel(field, rows, space_dim(e), w)
    if not comps:
        return quotient
    lcm = reduce(mul, (line_poly(g) if isinstance(g, ProjLine) else conic_poly(g) for g in comps))
    return _products(lcm, 2, e, quotient.basis if keys else None)


# ---------------------------------------------------------------------------
# brute-force singular sets over a prime field


class SingularSet(_Value):
    """The singular locus of a form: isolated points plus full components."""

    __slots__ = ("field", "isolated_points", "line_components", "conic_components",
                 "whole_plane")

    def __init__(self, field: Field, isolated_points: tuple = (), line_components: tuple = (),
                 conic_components: tuple = (), whole_plane: bool = False):
        _setattr(self, "field", field)
        _setattr(self, "isolated_points", isolated_points)
        _setattr(self, "line_components", line_components)
        _setattr(self, "conic_components", conic_components)
        _setattr(self, "whole_plane", whole_plane)

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
    pts = [_from_key(ProjPoint, field, (1, y, z)) for y in range(p) for z in range(p)]
    pts.extend(_from_key(ProjPoint, field, (0, 1, z)) for z in range(p))
    pts.append(_from_key(ProjPoint, field, (0, 0, 1)))
    return tuple(pts)


# The cap keeps the sieve's per-row fold, which runs Horner's rule over all p
# values of z on a gcd of degree >= 3, and its tables of squares and inverses
# small.  It also bounds the packed columns' 32-bit slots: at p <= 251 they
# hold the columns of any form of degree below 68 720 without a carry.
MAX_BRUTEFORCE_PRIME = 251


def _bruteforce_field(f: HomogeneousPoly, p: int) -> PrimeField:
    """GF(p), once f is a form over it that the enumeration accepts: p does
    not divide the degree and lies in 5..MAX_BRUTEFORCE_PRIME."""
    field = PrimeField(p)
    if f.field != field:
        raise FieldMismatchError(f"form is not over GF({p})")
    _euler_relation(field, f.degree)
    if p < 5:
        raise InputError("brute force needs p >= 5")
    if p > MAX_BRUTEFORCE_PRIME:
        raise InputError(f"brute force enumerates p^2+p+1 points; use p <= "
                         f"{MAX_BRUTEFORCE_PRIME}")
    return field


def singular_points_bruteforce(f: HomogeneousPoly, p: int) -> list:
    """All projective points over GF(p) where every partial of f vanishes,
    in ``plane_points`` order: x = 1 with y fixed, then x = 0, y = 1, then
    (0, 0, 1).

    The sieve in ``sieve._singular_keys`` finds the points' coordinate
    keys; this builds one point per key, while ``singular_set_bruteforce``
    groups the same keys and builds only the points off its lines.  No table
    of the plane is made unless f = 0.
    """
    field = _bruteforce_field(f, p)
    if f.is_zero():
        return list(plane_points(p))
    return [_from_key(ProjPoint, field, key) for key in _singular_keys(f, p)]


def singular_set_bruteforce(f: HomogeneousPoly, p: int) -> SingularSet:
    """Exhaustive singular locus of f over GF(p), grouped into components.

    A line or conic is reported as a component only when every one of its
    p + 1 rational points is singular; everything else stays isolated.
    Grouping is attempted only above the counting thresholds where it is
    forced.  A fully singular line needs p + 1 > deg f roots of the restricted
    form.  For a conic, Bezout: let N singular points of f, of degree d, lie
    on a nondegenerate conic q.  Each meets q with multiplicity at least 2,
    so N > d forces f = q g.  At a point a of q, grad f(a) = g(a) grad q(a)
    with grad q(a) nonzero, so g vanishes at all N points, and N > 2(d - 2)
    forces q | g.  So once p + 1 > max(d, 2(d - 2)), a conic with all p + 1
    points singular divides f twice; for d = 5 that admits p = 7.  The conic
    is looked for only when the points off the found lines, together with
    two per line, can make p + 1.  A quintic with a full line never gets
    there: its other singular points lie on the line or are at most three.

    The sieve and both peels work on coordinate keys; a point is built only
    when it is on no found line.  The zero form, singular everywhere, is
    refused at the same fields and primes as any other form.
    """
    field = _bruteforce_field(f, p)
    if f.is_zero():
        return SingularSet(field, whole_plane=True)
    keys = _singular_keys(f, p)
    lines: list = []
    rest = keys
    if len(keys) >= p + 1 and p + 1 > f.degree:
        lines, rest = _peel_line_components(keys, field)
    conics: list = []
    if p + 1 > max(f.degree, 2 * (f.degree - 2)) and len(rest) + 2 * len(lines) >= p + 1:
        conics, rest = _peel_conic_component(rest, keys, len(lines), field)
    isolated = tuple(_from_key(ProjPoint, field, key) for key in sorted(rest))
    return SingularSet(field, isolated_points=isolated,
                       line_components=tuple(lines), conic_components=tuple(conics))


# ---------------------------------------------------------------------------
# classification


def classify(obj: Union[Config, SingularSet]) -> Optional[int]:
    """Match a configuration or singular set against the 42-type taxonomy.

    Returns the unique matching type id, or None when no pattern fits.  The
    decision, in ``classifier``, checks full components first, then maximal
    collinear subsets, then conic membership, then intersection-point
    membership.  A conic component over GF(2) raises ``InputError``, as
    ``is_degenerate`` does.
    """
    return _classify_config(obj.as_config() if isinstance(obj, SingularSet) else obj)


# ---------------------------------------------------------------------------
# structural condition checks on sampled taxonomies


class ConditionReport(_Value):
    """The counts of one ``check_conditions`` run and its violations; unlike
    the other value classes it can be changed, and so is unhashable."""

    __slots__ = ("checked", "subset_checks", "violations")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, checked: int, subset_checks: int, violations: list):
        self.checked = checked
        self.subset_checks = subset_checks
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def check_conditions(samples: Iterable[Config]) -> ConditionReport:
    """Check the taxonomy ordering conditions on sampled configurations.

    For every finite sample K of type i: K itself must classify back to i
    (the patterns are mutually exclusive and exhaustive on their strata), and
    every proper subset that matches any type at all must match one with a
    strictly smaller index.  The types come from ``classifier._typed_subsets``,
    which reads the sample's keys once and types every subset on its keys, as
    ``classifier.classify_points`` types its points.
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
        walk = _typed_subsets(cfg)
        _, own = next(walk)
        if own != cfg.type_id:
            violations.append((cfg.type_id, "self", own))
            continue
        for subset, sub_type in walk:
            subset_checks += 1
            if sub_type is not None and sub_type >= cfg.type_id:
                violations.append((cfg.type_id, subset, sub_type))
    return ConditionReport(checked, subset_checks, violations)
