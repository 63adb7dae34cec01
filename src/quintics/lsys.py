"""Linear systems of plane curves with prescribed singularities.

The dimension count at the center of the package works entirely in the
coordinate space of degree-d forms in x, y, z: a configuration imposes three
derivative rows per marked point, while a full line or conic component g
forces divisibility by g^2, which is imposed by the rows of the remainder map
f -> f mod g^2.  All of these rows are assembled once per configuration, as
plain int rows over QQ and as packed ints over GF(p), so the space of
degree-5 curves singular along the configuration is their kernel, computed
exactly over the chosen field without building a matrix object.  The
dimension is counted in a frame of the configuration's own points and lines:
up to three points moved to the coordinate points, or one or two line
components moved to coordinate lines.
There a point's derivative rows and a line's remainder rows are unit vectors,
since x_i^2 divides a form exactly when its coefficients of x_i-degree at most
1 vanish, so they delete columns instead of adding rows: at d = 5 three points
delete 9 of the 21 columns, a line 11, two lines 18.  The other points' rows
are built on the columns left, from their quartic monomial values.

The module also provides the inverse direction used as an oracle: exhaustive
enumeration of singular points of a form over a small prime field (the sieve
itself is in ``sieve``) and grouping of full line/conic components.  Its two
typing entry points, ``classify`` of a configuration or singular set and
``check_conditions`` over every subset of a sample, hand every decision to
``classifier``; the table of the 42 types is in ``taxonomy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, Union

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
    _rref,
    _slot_width,
    rank_rows,
)
from .projgeom import (
    CONIC_MONOMIALS,
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _IDENTITY,
    _frame,
    _from_key,
    _pullback,
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


def divisibility_subspace(g: HomogeneousPoly, m: int, d: int) -> SubspaceBasis:
    """Basis of the forms of degree d divisible by g^m.

    The rows g^m * mono, one per monomial of degree d - m deg g, are
    independent because multiplication by g^m is injective, so their reduced
    echelon form has no zero rows and is the basis itself.
    """
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
    return SubspaceBasis(f, space_dim(d), tuple(map(tuple, _rref(f, rows)[0])))


def _remainder_rows(key: Sequence[int], d: int, p: Optional[int]) -> list:
    """Integer rows whose kernel is the space of degree-d forms divisible by
    g^2 over GF(p), or over QQ when ``p`` is None, g the line with the three
    coefficients ``key`` or the conic with the six.

    They are the rows of the remainder map f -> f mod g^2 in graded-lex
    order, one per monomial not divisible by the leading monomial L of
    G = g^2.  {G} is a Groebner basis of the ideal it generates, so a form
    is divisible by G exactly when its remainder is zero, in every
    characteristic.  The remainder of each monomial is found in one sweep in
    increasing order: a monomial q * L reduces to the remainder of
    q * (L - G / c), where c is the leading coefficient, whose monomials are
    all smaller and already reduced.

    G is squared from ``key``, any integer representative of g.  Over GF(p)
    the entries are residues and G is made monic.  Over QQ the remainder of
    a monomial reached after h reductions is kept as c^h times itself, so no
    fraction appears; the rows are then scaled by c^H, H the largest h.
    """
    mons = CONIC_MONOMIALS if len(key) == 6 else monomial_basis(1)
    if d < 2 * sum(mons[0]):
        raise InputError("multiplicity times degree exceeds the ambient degree")
    square: dict = {}
    for (e, a), (f, b) in product(zip(mons, key), repeat=2):
        m = (e[0] + f[0], e[1] + f[1], e[2] + f[2])
        square[m] = square.get(m, 0) + a * b
    square = {e: v for e, v in square.items() if (v % p if p else v)}
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


def _moved(p: Optional[int], vals: Sequence[int]) -> list:
    """Residues of the ints ``vals`` over GF(p); over QQ (``p`` None) the
    ints divided by their content."""
    if p:
        return [v % p for v in vals]
    g = gcd(*vals)
    return [v // g for v in vals]


def _moved_keys(cfg: Config, frame: tuple) -> tuple[list, list]:
    """The keys of ``cfg``'s points and components in the coordinates of
    ``frame``, a ``projgeom._frame`` of its points' and lines' keys, less the
    frame's corners that are configuration points and its axes that are
    components (``linear_system_dim`` deletes their columns).

    Points move by the frame's adjugate, line and conic components by its
    matrix M.  Over GF(p) the moved keys are residues; over QQ each is
    divided by its content.  A key is one representative of the point, and
    no row span built from it depends on which.
    """
    p = cfg.field.p
    corners, axes, cols, adj = frame
    points = [_moved(p, [r0 * x + r1 * y + r2 * z for r0, r1, r2 in adj])
              for n, (x, y, z) in enumerate(pt.key for pt in cfg.points)
              if n not in corners]
    comps = [_moved(p, [l0 * x + l1 * y + l2 * z for x, y, z in cols])
             for n, (l0, l1, l2) in enumerate(ln.key for ln in cfg.lines)
             if n not in axes]
    m_rows = tuple(zip(*cols))
    comps += [_moved(p, _pullback(q.key, m_rows)) for q in cfg.conics]
    return points, comps


def _component_rows(comps: list, d: int, p: Optional[int], live: Optional[tuple]) -> list:
    """The remainder rows of the moved components ``comps``, cut down to the
    columns ``live``, every column when None."""
    rows: list = []
    for key in comps:
        rem = _remainder_rows(key, d, p)
        rows.extend(rem if live is None else ([row[j] for j in live] for row in rem))
    return rows


def _system_rows(cfg: Config, d: int, frame: tuple, live: Optional[tuple] = None) -> list:
    """Rows whose kernel is the space of degree-d forms singular along
    ``cfg``, in the coordinates of ``frame``, on the columns ``live``, every
    column when None: the derivative rows of every moved point, built on
    ``live`` alone, then the remainder rows of every moved component
    (``_moved_keys``).  Over GF(p) the entries are residues; over QQ they
    are ints.
    """
    p = cfg.field.p
    points, comps = _moved_keys(cfg, frame)
    rows = [row for key in points for row in _point_rows(key, d, p, live)]
    return rows + _component_rows(comps, d, p, live)


def _packed_system_rows(cfg: Config, d: int, frame: tuple, live: Optional[tuple],
                        reverse: bool = False) -> tuple[list, int]:
    """``_system_rows`` over GF(p), packed for ``exactalg``'s elimination
    core, with their columns reversed when ``reverse``; returns the packed
    rows and their slot width w.

    Each point's three rows come straight from its degree-(d - 1) monomial
    values (``_packed_point_rows``), their slots below d * p; the remainder
    rows are residues, packed by ``exactalg._fp_pack``.  So w is
    ``_slot_width`` with top = max(d, 1) for all of them.
    """
    p = cfg.field.p
    points, comps = _moved_keys(cfg, frame)
    rem = _component_rows(comps, d, p, live)
    w = _slot_width(p, 3 * len(points) + len(rem), max(d, 1))
    return _packed_point_rows(points, d, p, live, w, reverse) + _fp_pack(rem, w, reverse), w


@lru_cache(maxsize=None)
def _live_columns(d: int, points: tuple, axes: tuple) -> tuple:
    """The columns of degree-d forms that a frame leaves free, when
    ``points[i]`` says whether the coordinate point e_i is a configuration
    point and ``axes[i]`` whether the coordinate line x_i = 0 is a
    component.

    The deleted columns are read off the row builders.  The derivative rows
    at (1:0:0) are nonzero only at x^d, where the entry is d, and at
    x^(d-1) y and x^(d-1) z, where it is 1; likewise at (0:1:0) and
    (0:0:1).  The remainder rows of x_i^2 are the unit vectors of the
    monomials of x_i-degree at most 1, since x_i^2 divides a form exactly
    when all their coefficients vanish, in every characteristic.  So every
    such row is zero or has one nonzero entry, and a form meets all those
    conditions exactly when its coefficients vanish at their nonzero
    positions.  For a coordinate point this needs the characteristic not to
    divide d, which ``_euler_relation`` ensures; a coordinate line's entries
    are all 1 and need nothing.  A point deletes 3 columns at d >= 1 and
    none at d = 0; a line 2d + 1.  A line at d < 2 raises ``InputError``
    from ``_remainder_rows``, as the row route does.
    """
    rows = [row for e, on in zip(_IDENTITY, points) if on for row in _point_rows(e, d, None)]
    rows += [row for e, on in zip(_IDENTITY, axes) if on for row in _remainder_rows(e, d, None)]
    dead = {j for row in rows for j, v in enumerate(row) if v}
    return tuple(j for j in range(space_dim(d)) if j not in dead)


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

    Marked points contribute their three derivative rows; a full line or
    conic component g contributes the rows of the remainder map modulo g^2,
    whose kernel is the forms divisible by g^2.

    The count runs in a frame of the configuration's own points and lines
    (``projgeom._frame``).  Three points A, B, C, not all on one line, move
    to the coordinate points by the adjugate of M = [A B C], every point P
    to adj P, and every component g to g(M Y).  f -> f(M Y) is a linear
    isomorphism of the degree-d forms that carries the system onto the
    system of the moved configuration, so the dimension does not change.
    The frame puts up to three configuration points on coordinate points,
    or one or two line components on coordinate lines, and there their
    conditions are unit rows, which delete columns (``_live_columns``)
    instead of adding rows.  At (1:0:0) the partials of a form are
    d a_(d,0,0), a_(d-1,1,0) and a_(d-1,0,1), and likewise at (0:1:0) and
    (0:0:1): when the characteristic does not divide d, a form is singular
    there exactly when those coefficients vanish, 3 columns.  A
    characteristic dividing d would tie no condition to the x^d column; it
    raises ``InputError`` here, as it must anyway, since the Euler relation
    then fails.  x_i^2 divides a form exactly when every coefficient of
    x_i-degree at most 1 vanishes, in every characteristic, so a line on
    the coordinate line x_i = 0 deletes those 2d + 1 columns and needs no
    such condition.  Two lines, or one line and a point off it, or three
    points, delete 18, 14 or 9 of the 21 columns at d = 5; collinear points
    delete 6, and a single point 3.  The dimension is the number of live
    columns minus the rank of the other rows on them.  Each other point's
    derivative rows are built on the live columns alone, and only a
    component off the frame's axes has its remainder rows cut down to them.
    Every partial of a degree-d monomial is e times one monomial of degree
    d - 1 (a quartic at d = 5), so a point's rows are its 15 quartic
    (degree-4 Veronese) values spread by ``_derivative_table``.  Over QQ
    they are plain rows (``_point_rows``), ranked by fraction-free
    elimination on primitive integer rows.  Over GF(p) they are packed
    straight from those values (``_packed_point_rows``), their slots left
    unreduced below d * p, and handed with the packed remainder rows to the
    elimination core ``exactalg._fp_forward`` as they are.  A configuration
    of conics only keeps its coordinates.  The whole-plane configuration is
    the one case with no matrix: only the zero form is singular everywhere.
    """
    _euler_relation(cfg.field, d)
    if cfg.whole_plane:
        return 0
    corners, axes, _, _ = frame = _frame(cfg.field.p, [pt.key for pt in cfg.points],
                                         [ln.key for ln in cfg.lines])
    live = _live_columns(d, tuple(n is not None for n in corners),
                         tuple(n is not None for n in axes))
    p = cfg.field.p
    if p is None:
        return len(live) - rank_rows(cfg.field, _system_rows(cfg, d, frame, live))
    rows, w = _packed_system_rows(cfg, d, frame, live)
    return len(live) - len(_fp_forward(p, rows, len(live), w))


def linear_system_basis(cfg: Config, d: int = 5) -> SubspaceBasis:
    """Echelonized basis of the same space ``linear_system_dim`` measures, in
    the frame of no points and no lines, the identity, which moves no key.

    The rows are ``linear_system_dim``'s on every column.  Over QQ their
    kernel is ``_kernel_rows``'s.  Over GF(p) each point's three rows are
    packed straight from its degree-(d - 1) Veronese values, as there, but
    in reversed column order, and the remainder rows are packed in the same
    order, so ``exactalg._fp_kernel`` reduces them as they are, with no
    row reversed, and reads the null vectors off the slots as ints.
    """
    _euler_relation(cfg.field, d)
    if cfg.whole_plane:
        return SubspaceBasis(cfg.field, space_dim(d), ())
    p = cfg.field.p
    frame = _frame(p, ())
    if p is None:
        return _kernel_rows(cfg.field, _system_rows(cfg, d, frame), space_dim(d))
    rows, w = _packed_system_rows(cfg, d, frame, None, reverse=True)
    return _fp_kernel(cfg.field, rows, space_dim(d), w)


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
    strictly smaller index.  The types come from ``classifier._typed_subsets``,
    which gives what ``classifier.classify_points`` gives.
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
