"""The GF(p) sieve behind ``lsys.singular_points_bruteforce`` and
``lsys.singular_set_bruteforce``.

The singular points of a plane form over a small prime field are found as
normalized coordinate keys, row by row: packed power columns evaluate every
coefficient at all rows at once, one Euclid runs in lockstep over the chart
x = 1, and a per-row gcd fold takes what leaves it.  Full lines and a full
conic are peeled off the keys, so that ``lsys`` builds a point object only
for what is left.

The full lines are read off the same rows.  A line is x = 0, or y = c x
through (0:0:1), which holds the whole chart row y = c, or z = a x + b y,
which meets every chart row in exactly one point.  So each kind is found
exactly, by counting rows or by the lines through one point each of the two
sparsest rows, whatever the number of lines and the degree of the form.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .exactalg import PrimeField
from .projgeom import Conic, ProjLine, _conic_key, _conic_value, _degenerate, _from_key

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

    Each partial first drops its leading columns that vanish on every row.
    The two longest partials that are left, u and the divisor v, run one
    Euclid in lockstep, on the columns, over the rows where v's leading
    coefficient is nonzero; the rows where it vanishes, at most its degree
    in y, go to the per-row fold ``_row_zeros``.  So a form singular at
    (0:0:1), whose partials all lose their z^m column, keeps its rows in
    the batch.  Each remainder likewise drops its leading columns that
    vanish on every row of the batch, and then a row leaves the batch when
    its remainder's leading coefficient vanishes.  A zero remainder makes
    the divisor the gcd of the two.  A linear gcd is solved in closed form, and the quadratic gcds
    of all rows leaving at one step together by ``_quadratic_exits``; their
    roots are kept where the third partial vanishes on them.  A larger gcd
    goes with the third partial to ``_row_zeros``, and so does a nonzero
    remainder, with the divisor: it has the gcd of the row's two partials,
    at a lower degree.  A row reaching a nonzero constant has no zero.
    With fewer than two nonzero partials every row goes to the fold.

    The divisor's leading coefficient is nonzero on every row of the batch,
    so a division step that meets a zero leading coefficient in the
    dividend still leaves the unique remainder.
    """
    stripped = [_drop_vanishing(polys) for polys in columns]
    order = sorted((v for v in range(3) if stripped[v]), key=lambda v: -len(stripped[v]))
    if len(order) < 2:
        return [_row_zeros([[col[y] for col in polys] for polys in columns], p)
                for y in range(p)]
    u, v = stripped[order[0]], stripped[order[1]]
    third = columns[3 - order[0] - order[1]]
    zeros: list = [()] * p
    ys = [y for y, t in enumerate(v[0]) if t]
    if len(ys) < p:
        for y, t in enumerate(v[0]):
            if not t:
                zeros[y] = _row_zeros([[col[y] for col in polys] for polys in columns], p)
        u = [[uk[y] for y in ys] for uk in u]
        v = [[vk[y] for y in ys] for vk in v]
    inverse = _inverses(p)
    while ys and len(v) > 1:
        inv = [inverse[t] for t in v[0]]
        n = len(v)
        while len(u) >= n:
            q = [a * b % p for a, b in zip(u[0], inv)]
            u = [[(a - c * b) % p for a, b, c in zip(uk, vk, q)]
                 for uk, vk in zip(u[1:n], v[1:])] + u[n:]
        u = _drop_vanishing(u)
        left = [i for i, t in enumerate(u[0]) if not t] if u else list(range(len(ys)))
        if left:
            if n <= 3:
                # the rows and roots of the linear and quadratic gcds: the
                # remainder has at most two coefficients, so on a row that
                # leaves it is the constant u[1], or zero when there is
                # none; where that is nonzero the row has no zero
                exits = [i for i in left if len(u) < 2 or not u[1][i]]
                at = [ys[i] for i in exits]
                if n == 2:
                    roots = [-v[1][i] * inv[i] % p for i in exits]
                else:
                    at, roots = _quadratic_exits(v, inv, at, exits, p)
            else:
                at = roots = ()
                for i in left:
                    y = ys[i]
                    zeros[y] = _row_zeros(([vk[i] for vk in v], [uk[i] for uk in u],
                                           [col[y] for col in third]), p)
            for y, z, t in zip(at, roots, _at_roots(third, at, roots)):
                if not t % p:
                    zeros[y] += (z,)
            kept = [i for i, t in enumerate(u[0]) if t] if u else []
            ys = [ys[i] for i in kept]
            u = [[uk[i] for i in kept] for uk in u]
            v = [[vk[i] for i in kept] for vk in v]
        u, v = v, u
    return zeros


def _drop_vanishing(polys: list) -> list:
    """Coefficient columns, highest power first, less the leading ones that
    vanish on every row."""
    k = 0
    while k < len(polys) and not any(polys[k]):
        k += 1
    return polys[k:]


def _quadratic_exits(v: list, inv: list, at: list, exits: list, p: int) -> tuple:
    """The roots in GF(p) of the quadratic divisor a z^2 + b z + c on each
    batch row ``exits[k]``, whose chart row is ``at[k]``; ``v = [a, b, c]``
    are columns over the batch and ``inv[i]`` is 1/a on batch row i.
    Returns the chart rows, once per root, and the roots, ascending on each
    row.

    The discriminant's square root comes from the table of ``_square_roots``
    and 1/(2a) from the inverse of a already taken for the Euclid, so one
    pass solves every row.
    """
    squares = _square_roots(p)
    half = (p + 1) // 2
    a, b, c = v
    rows: list = []
    roots: list = []
    for y, i in zip(at, exits):
        bi = b[i]
        root = squares.get((bi * bi - 4 * a[i] * c[i]) % p)
        if root is None:
            continue
        s = inv[i] * half
        lo, hi = (-root - bi) * s % p, (root - bi) * s % p
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi:
            rows.append(y)
            roots.append(lo)
        else:
            rows += (y, y)
            roots += (lo, hi)
    return rows, roots


def _at_roots(columns: list, at: list, roots: list) -> list:
    """The polynomial whose z^(m - k) coefficient on row y is
    ``columns[k][y]`` at each row ``at[j]`` and z = ``roots[j]``, by Horner's
    rule run on all of them at once, unreduced: only its residue mod p is
    asked, and for a quintic at p <= 251 each value stays below p^5 < 2^40."""
    acc = [columns[0][y] for y in at]
    for col in columns[1:]:
        acc = [a * z + col[y] for a, z, y in zip(acc, roots, at)]
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
    if 3 < len(gcd) <= p:
        # below degree p every root of the gcd g is a simple root of
        # g / gcd(g, g'), which is often of degree 1 or 2
        gcd = _quotient_mod(gcd, _gcd_mod(gcd, _derivative_mod(gcd, p), p), p)
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


def _derivative_mod(u: list, p: int) -> list:
    """The derivative of a polynomial over GF(p), highest power first; its
    leading coefficient is nonzero when the degree of u is below p."""
    n = len(u) - 1
    return [(n - k) * c % p for k, c in enumerate(u[:-1])]


def _quotient_mod(u: list, v: list, p: int) -> list:
    """The quotient of u by a nonzero v over GF(p), highest power first."""
    inv = _inverses(p)[v[0]]
    n = len(v)
    quotient = []
    while len(u) >= n:
        q = u[0] * inv % p
        quotient.append(q)
        u = [(a - q * b) % p for a, b in zip(u[1:n], v[1:])] + u[n:]
    return quotient


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
    distinct point keys; returns the lines, sorted by key, and the keys on
    none of them, in order.

    The lines are read off the rows of the sieve's chart x = 1, exactly for
    any key set:
    - x = 0 is full when every (0:1:z) and (0:0:1) are keys;
    - a line y = c x, through (0:0:1), is full when the chart row y = c holds
      all p values of z and (0:0:1) is a key;
    - any other line z = a x + b y meets each chart row in exactly one point,
      (1:y:a + b y), and x = 0 in (0:1:b).  So when it is full it passes
      through a key of the sparsest row and a key of the next sparsest, and
      the lines through those pairs of keys are all the candidates; one is
      kept when every row holds its point and (0:1:b) is a key.
    No count of lines is assumed, so no bound on the degree of the form.
    """
    p = field.p
    inverse = _inverses(p)
    rows: list = [[] for _ in range(p)]
    x_zero = set()
    apex = False
    for x, y, z in keys:
        if x:
            rows[y].append(z)
        elif y:
            x_zero.add(z)
        else:
            apex = True
    sizes = list(map(len, rows))
    # each full line's key and the keys of its p + 1 points
    found: dict = {}
    if apex:
        if len(x_zero) == p:
            found[(1, 0, 0)] = [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
        for c, size in enumerate(sizes):
            if size == p:
                key = (1, -inverse[c] % p, 0) if c else (0, 1, 0)
                found[key] = [(1, c, z) for z in range(p)] + [(0, 0, 1)]
    if min(sizes):
        held = set(keys)
        first, second = sorted(range(p), key=sizes.__getitem__)[:2]
        step = inverse[(second - first) % p]
        for z1 in rows[first]:
            for z2 in rows[second]:
                b = (z2 - z1) * step % p
                if b not in x_zero:
                    continue
                a = (z1 - b * first) % p
                points = [(1, y, (a + b * y) % p) for y in range(p)]
                if held.issuperset(points):
                    s = inverse[a]
                    key = ((1, b * s % p, -s % p) if a else
                           (0, 1, -inverse[b] % p) if b else (0, 0, 1))
                    found[key] = points + [(0, 1, b)]
    if not found:
        return [], keys
    covered = set().union(*found.values())
    lines = [_from_key(ProjLine, field, key) for key in sorted(found)]
    return lines, [key for key in keys if key not in covered]


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
    for five in combinations(rest[:size], 5):
        conic = _conic_key(field, five)
        if conic is None or _degenerate(field, conic):
            continue

        def on(key: tuple) -> bool:
            return _conic_value(conic, key) % p == 0

        if sum(map(on, keys)) == p + 1:
            return [_from_key(Conic, field, conic)], [key for key in rest if not on(key)]
    return [], rest
