"""The GF(p) sieve behind ``lsys.singular_points_bruteforce`` and
``lsys.singular_set_bruteforce``.

The singular points of a plane form over a small prime field are found as
normalized coordinate keys, row by row: packed power columns evaluate every
coefficient at all rows at once, one Euclid runs in lockstep over the chart
x = 1, and a per-row gcd fold takes what leaves it.  Full lines and a full
conic are peeled off the keys, so that ``lsys`` builds a point object only
for what is left.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .exactalg import PrimeField
from .projgeom import ProjLine, ProjPoint, _conic_value, _from_key, _unique_conic

if TYPE_CHECKING:
    from .lsys import HomogeneousPoly

# A packed column has one slot per y: a native unsigned int, 4 bytes on the
# platforms CPython supports, read back through a memoryview cast.
_SLOT = "I"
_SLOT_BYTES = struct.calcsize(_SLOT)


def _singular_keys(f: HomogeneousPoly, p: int) -> list:
    """The normalized coordinate triples of the singular points of a nonzero
    form f over GF(p), in ``lsys.plane_points`` order: x = 1 with y fixed,
    then x = 0, y = 1, then (0:0:1).

    The plane is sieved row by row.  On a row each partial is a polynomial
    in z, whose coefficient of z^(m - k), m = deg f - 1, is a polynomial in
    y of degree <= k.  The three partials' tables of these are read straight
    off the terms of f, and ``_packed_columns`` evaluates each at every y
    before any row is visited.  The chart x = 1 goes to ``_chart_zeros``.
    The row x = 0 goes to the per-row fold ``_row_zeros``; there each
    coefficient is the leading one of its polynomial in y.  At (0:0:1) each
    partial is its coefficient of z^m.
    """
    m = f.degree - 1
    # per partial, the coefficient of z^(m - k) as a polynomial in y of
    # degree <= k, highest power first: x^a y^b z^c of a partial sits at [m - c][a]
    fx, fy, fz = partials = [[[0] * (k + 1) for k in range(m + 1)] for _ in range(3)]
    for (a, b, c), coeff in f.terms.items():
        if a:
            fx[m - c][a - 1] = a * coeff % p
        if b:
            fy[m - c][a] = b * coeff % p
        if c:
            fz[m - c + 1][a] = c * coeff % p
    columns = [_packed_columns(polys, p) for polys in partials]
    keys = [(1, y, z) for y, zeros in enumerate(_chart_zeros(columns, p)) for z in zeros]
    x_free = [[poly[0] for poly in polys] for polys in partials]
    keys.extend((0, 1, z) for z in _row_zeros(x_free, p))
    if not any(polys[0][0] for polys in partials):
        keys.append((0, 0, 1))
    return keys


@lru_cache(maxsize=16)
def _packed_powers(p: int, m: int) -> tuple:
    """P_j = sum over y in GF(p) of (y^j mod p) << (w y), for j = 0..m, with
    w = 8 * _SLOT_BYTES: the j-th powers of all y, one slot each."""
    w = 8 * _SLOT_BYTES
    out = []
    col = [1] * p
    for _ in range(m + 1):
        out.append(sum(v << (w * y) for y, v in enumerate(col)))
        col = [v * y % p for y, v in enumerate(col)]
    return tuple(out)


def _packed_columns(polys: list, p: int) -> list:
    """Each ``polys[k]``, a polynomial in y of degree <= k with residue
    coefficients c_0..c_k (highest power first), at every y in GF(p), as
    residues.

    The values are the slots of sum_j c_j P_(k - j), from ``_packed_powers``:
    k + 1 big-int multiply-adds, unpacked once through a memoryview cast.
    A slot sums at most m + 1 products of two residues, m = len(polys) - 1,
    so the no-carry bound (m + 1)(p - 1)^2 < 2^w, w = 8 * _SLOT_BYTES = 32,
    keeps each slot out of the next.  At p <= lsys.MAX_BRUTEFORCE_PRIME it
    holds for m < 68 719; the tables of a form that large would hold over
    2 * 10^9 entries per partial, so no form the sieve can hold breaks it.
    """
    powers = _packed_powers(p, len(polys) - 1)
    size = p * _SLOT_BYTES
    out = []
    for k, poly in enumerate(polys):
        acc = 0
        for j, c in enumerate(poly):
            if c:
                acc += c * powers[k - j]
        slots = memoryview(acc.to_bytes(size, sys.byteorder)).cast(_SLOT)
        out.append([u % p for u in slots])
    return out


def _chart_zeros(columns: list, p: int) -> list:
    """Per row y of the chart x = 1, the z in GF(p), ascending, where all
    three partials vanish; ``columns[v][k][y]`` is the residue coefficient
    of z^(m - k) in partial v on row y.

    Two partials whose z^m coefficient is a nonzero constant run one Euclid
    in lockstep over all rows, on the columns.  A row leaves the batch when
    its remainder's leading coefficient vanishes.  A zero remainder makes
    the divisor the gcd of the two.  A linear or quadratic gcd is solved in
    closed form, and its roots are kept where the third partial vanishes on
    them; a larger gcd goes with the third partial to the per-row fold
    ``_row_zeros``.  Any other remainder sends the row's three partials to
    the fold.  A row reaching a nonzero constant has no zero.  With fewer
    than two such partials every row goes to the fold.

    The divisor's leading coefficient is nonzero on every row of the batch,
    so a division step that meets a zero leading coefficient in the
    dividend still leaves the unique remainder.
    """
    def row(y: int) -> list:
        return [[col[y] for col in polys] for polys in columns]

    full = [v for v, polys in enumerate(columns) if polys[0][0]]
    if len(full) < 2:
        return [_row_zeros(row(y), p) for y in range(p)]
    third = columns[3 - full[0] - full[1]]
    inverse = _inverses(p)
    zeros: list = [()] * p
    ys = range(p)
    u, v = columns[full[0]], columns[full[1]]
    while ys and len(v) > 1:
        inv = [inverse[t] for t in v[0]]
        n = len(v)
        while len(u) >= n:
            q = [a * b % p for a, b in zip(u[0], inv)]
            u = [[(a - c * b) % p for a, b, c in zip(uk, vk, q)]
                 for uk, vk in zip(u[1:n], v[1:])] + u[n:]
        left = [i for i, t in enumerate(u[0]) if not t]
        if left:
            # (row, root) pairs of the linear and quadratic gcds; after a
            # linear divisor the remainder is the constant u[0], zero on
            # every row that leaves
            if n == 2:
                asked = [(ys[i], -v[1][i] * inv[i] % p) for i in left]
            else:
                asked = []
                for i in left:
                    y = ys[i]
                    if any(uk[i] for uk in u):
                        zeros[y] = _row_zeros(row(y), p)
                    elif n > 3:
                        zeros[y] = _row_zeros(([vk[i] for vk in v],
                                               [col[y] for col in third]), p)
                    else:
                        asked += [(y, z) for z in
                                  _quadratic_roots(v[0][i], v[1][i], v[2][i], p)]
            for (y, z), t in zip(asked, _at_roots(third, asked, p)):
                if not t:
                    zeros[y] += (z,)
            kept = [i for i, t in enumerate(u[0]) if t]
            ys = [ys[i] for i in kept]
            u = [[uk[i] for i in kept] for uk in u]
            v = [[vk[i] for i in kept] for vk in v]
        u, v = v, u
    return zeros


def _at_roots(columns: list, asked: list, p: int) -> list:
    """The polynomial whose z^(m - k) coefficient on row y is
    ``columns[k][y]``, reduced mod p at each (y, z) of ``asked``, by Horner's
    rule run on all of them at once."""
    acc = [columns[0][y] for y, _ in asked]
    for col in columns[1:]:
        acc = [(a * z + col[y]) % p for a, (y, z) in zip(acc, asked)]
    return acc


def _row_zeros(polys: Sequence, p: int):
    """The z in GF(p), ascending, where the partials, given on one row as
    residue coefficients in z (highest power first), all vanish.

    The nonzero partials are folded in one at a time until the gcd is
    constant.  A gcd of degree 1 or 2 is solved in closed form, a higher one
    by Horner's rule over every z, and a row on which all three partials
    vanish is kept whole.
    """
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
    if len(gcd) == 2:
        return (-gcd[1] * _inverses(p)[gcd[0]] % p,)
    if len(gcd) == 3:
        return _quadratic_roots(*gcd, p)
    return [z for z, v in enumerate(_horner(gcd, range(p))) if v % p == 0]


def _quadratic_roots(a: int, b: int, c: int, p: int) -> list:
    """The roots in GF(p), ascending, of a z^2 + b z + c, a nonzero, p odd."""
    root = _square_roots(p).get((b * b - 4 * a * c) % p)
    if root is None:
        return []
    inv = _inverses(p)[2 * a % p]
    return sorted({(root - b) * inv % p, (-root - b) * inv % p})


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


def _peel_line_components(keys: list, field: PrimeField) -> tuple[list, list]:
    """Split off every full line (all p + 1 points present) of a set of
    point keys; returns the lines and the keys on none of them, in order.

    Each pivot is a point not yet on a found line; the other points are
    grouped by their line through the pivot, keyed on its normalized
    coefficient triple, and a group of p points closes a full line.  Pivoting
    on uncovered points only is exact: another full line meets a full line L
    in one point, and a nonzero form of degree d < p is singular along at
    most d/2 full lines (each one's square divides it), fewer than the p + 1
    points of L, so some point of L stays uncovered until L is found.
    A pivot stops grouping once no group can still reach p points.
    """
    p = field.p
    inverse = _inverses(p)
    n = len(keys)
    covered: set = set()
    found: set = set()
    for i, (x1, y1, z1) in enumerate(keys):
        if i in covered:
            continue
        groups: dict = {}
        largest = 0
        for j, (x2, y2, z2) in enumerate(keys):
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
                found.add(key)
                covered.add(i)
                covered.update(members)
    lines = [_from_key(ProjLine, field, key) for key in sorted(found)]
    return lines, [key for k, key in enumerate(keys) if k not in covered]


def _peel_conic_component(rest: list, keys: list, nlines: int,
                          field: PrimeField) -> tuple[list, list]:
    """Detect one full nondegenerate conic through the point keys ``rest``
    left by the line peel, which found ``nlines`` full lines; ``keys`` holds
    every singular point.  Returns the conic, if any, and the keys of
    ``rest`` off it, in order.

    The conic's points are counted over ``keys``: it may meet a full line
    of the set, in at most two points, which the line peel took.  A
    nondegenerate conic over GF(p), p odd, has exactly p + 1 points (it is
    isomorphic to the projective line), so it is full when all of them are
    in the set, and then at least p + 1 - 2 * nlines of them are in
    ``rest``.  Any first ``len(rest) - (p + 1 - 2 * nlines) + 5`` points of
    ``rest`` therefore hold five points of a full conic, so scanning their
    five-subsets sees every full conic, at every degree and every p; the
    caller peels only when that head has at least five points.  For a
    quintic the head has at most nine points: a doubled conic leaves no room
    for a doubled line, and at most four isolated singularities.  Five
    points of a nondegenerate conic have no three on a line, so the conic
    through them is unique.
    """
    p = field.p
    size = len(rest) - (p + 1 - 2 * nlines) + 5
    head = [_from_key(ProjPoint, field, key) for key in rest[:size]]
    for five in combinations(head, 5):
        conic = _unique_conic(five)
        if conic is None or conic.is_degenerate():
            continue

        def on(key: tuple) -> bool:
            return _conic_value(conic.key, key) % p == 0

        if sum(map(on, keys)) == p + 1:
            return [conic], [key for key in rest if not on(key)]
    return [], rest
