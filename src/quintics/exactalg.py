"""Exact scalar arithmetic and linear algebra on plain rows.

Two coefficient fields are supported: arbitrary-precision rationals (``QQ``)
and prime fields ``GF(p)``.  Rationals are stored as ``fractions.Fraction``
(always in lowest terms with positive denominator), prime-field elements as
plain ints in ``[0, p)``.  Arithmetic on them is Python's own; a
:class:`Field` supplies only what differs between the two fields, and its
``p``, the modulus or ``None`` over QQ, tells them apart.

Each field has one forward elimination pass: rank is its pivot count, and
reduced row echelon form (used for kernels and canonical subspace bases) is
that pass followed by back-substitution.  A kernel is one forward pass on the
rows with their columns reversed plus back-substitution: the null vectors
read off that reduced form already are the reduced echelon basis.  Over QQ
the pass is fraction-free elimination on rows cleared to integers: each
column's pivot is its entry of least absolute value, and every updated row is
divided by its content, so no entry outgrows the minors of Bareiss's
elimination and gcd-heavy Fraction arithmetic never runs; back-substitution
stays on integers, and Fractions are made only when each row is finally
divided by its pivot.
Over ``GF(p)`` each row is packed into one int, its entries in fixed-width
slots wide enough that no slot overflows, so a row update is one big-int
multiply-add; a slot is reduced mod p only when it is read, and rows are
unpacked only when the reduced echelon form is returned.  The packer of
plain rows, ``_fp_pack``, is apart from the core on packed rows,
``_fp_forward`` and ``_fp_back``, so a caller that builds its rows packed
(``lsys`` packs derivative rows straight from a point's monomial values,
entries unreduced) hands them to the core as they are; ``_fp_kernel`` reads
a kernel off such rows packed with their columns reversed.
Every operation takes plain rows (ints or Fractions over QQ, residues over
GF(p)) and returns an int or a ``SubspaceBasis``: ``rank_rows`` ranks them,
``_row_basis`` and ``_kernel_rows`` take their row and null spaces, and
``intersect`` meets two subspaces through kernels.  All routines are
deterministic: identical inputs give bit-identical outputs, so echelon bases
are usable in regression tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import lshift
from typing import Sequence, Union

from ._value import _setattr, _Value
from .errors import FieldMismatchError, InputError

RawValue = Union[Fraction, int]


# The primes up to 41 as Miller-Rabin witnesses decide primality of every n
# below 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2017); PrimeField accepts no modulus at or above it.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < _PRIME_BOUND``."""
    if n < 2:
        return False
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """What differs between the two coefficient fields, and nothing more.

    Arithmetic is Python's: ``+``, ``-``, ``*`` and negation act on the raw
    values directly, Fractions over QQ and ints over GF(p).  ``p`` is the
    modulus over GF(p) and ``None`` over QQ; it is the one test of which
    field a value lives in.  Over GF(p) the results are unreduced ints;
    ``coerce`` maps them (or any int, Fraction or numeric string) to the
    canonical value, a ``Fraction`` over QQ or a residue in ``[0, p)`` over
    GF(p).  ``is_zero`` accepts unreduced values, and ``zero``/``one`` are
    the canonical constants.  Fields compare and hash by name.
    """

    name: str
    p: int | None = None

    def coerce(self, value) -> RawValue:
        raise NotImplementedError

    def zero(self) -> RawValue:
        return self.coerce(0)

    def one(self) -> RawValue:
        return self.coerce(1)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    name = "qq"

    def coerce(self, value) -> Fraction:
        if type(value) is Fraction:
            return value
        if isinstance(value, float):
            raise InputError("floats are not exact; pass Fraction, int or str")
        return Fraction(value)

    def is_zero(self, a) -> bool:
        return a == 0


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise InputError(f"modulus {p} is too large: primality is decided "
                             f"only below {_PRIME_BOUND}")
        if not _is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"fp:{p}"

    def coerce(self, value) -> int:
        if type(value) is int:
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise InputError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, float):
            raise InputError("floats are not exact; pass int or str")
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        return int(value) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0


QQ = RationalField()


def parse_field(spec: str) -> Field:
    """Parse a field specification string: ``qq`` or ``fp:<prime>``."""
    if spec == "qq":
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError as exc:
            raise InputError(f"bad field spec {spec!r}") from exc
        return PrimeField(p)
    raise InputError(f"bad field spec {spec!r}")


class SubspaceBasis(_Value):
    """A linear subspace given by a reduced-echelon basis of row vectors.

    Pivots strictly increase row by row, every pivot entry is 1, every other
    entry of a pivot column is 0, and over GF(p) every entry is a residue in
    ``[0, p)``, so equal subspaces always produce identical objects.  A basis
    that breaks any of these raises ``InputError``.
    """

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple):
        p = field.p
        pivots: list[int] = []
        for row in basis:
            if len(row) != ambient_dim:
                raise InputError("basis vector of wrong length")
            if p is not None and not all(type(v) is int and 0 <= v < p for v in row):
                raise InputError(f"basis entries over {field} must be residues in [0, {p})")
            piv = next((j for j, v in enumerate(row) if v), None)
            if piv is None:
                raise InputError("zero vector in basis")
            if pivots and piv <= pivots[-1]:
                raise InputError("basis rows are not in echelon order")
            if row[piv] != 1:
                raise InputError("pivot entries must equal 1")
            pivots.append(piv)
        for c in pivots:
            if sum(1 for row in basis if row[c]) != 1:
                raise InputError("basis is not reduced: a pivot column has another nonzero entry")
        _setattr(self, "field", field)
        _setattr(self, "ambient_dim", ambient_dim)
        _setattr(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _trusted_basis(field: Field, ambient_dim: int, basis: tuple) -> SubspaceBasis:
    """The ``SubspaceBasis`` of rows this module has just put in reduced
    echelon form, built without a second pass through the constructor's
    checks, which every basis from outside the module still takes."""
    obj = object.__new__(SubspaceBasis)
    _setattr(obj, "field", field)
    _setattr(obj, "ambient_dim", ambient_dim)
    _setattr(obj, "basis", basis)
    return obj


# ---------------------------------------------------------------------------
# elimination cores


def _slot_width(p: int, n: int, top: int = 1) -> int:
    """The slot width w of n packed rows mod p whose entries, as they are
    packed, lie below top * p; residues need top = 1.  With k the bit length
    of (2n + top) p^2, the bound below which ``_fp_forward`` and ``_fp_back``
    keep every slot, w = 2k - bit_length(p) + 1: a slot of k bits times the
    Barrett constant floor(2^k / p), below 2^(k - bit_length(p) + 1), still
    fits in it."""
    k = ((2 * n + top) * p * p).bit_length()
    return 2 * k - p.bit_length() + 1


def _fp_pack(rows: Sequence[Sequence[int]], w: int, reverse: bool = False) -> list[int]:
    """Each row as one int holding entry j in the w-bit slot at bit j*w, or,
    with ``reverse``, at bit (m - 1 - j)*w for m-wide rows: the row with its
    columns reversed, packed without reversing it."""
    if not rows:
        return []
    m = len(rows[0])
    shifts = range((m - 1) * w, -1, -w) if reverse else range(0, m * w, w)
    return [sum(map(lshift, row, shifts)) for row in rows]


def _fp_forward(p: int, packed: list[int], ncols: int, w: int) -> list[int]:
    """Forward elimination mod p, in place, on n packed rows of ``ncols``
    w-bit slots; returns the pivot columns.

    A row update is the single big-int multiply-add ``ri += g * pr``, which
    clears slot c of row i mod p when ``pr`` is the pivot row of column c,
    with pivot slot l mod p, f is row i's slot mod p and g = (p - f)/l mod p.
    A slot is reduced mod p only when it is read: in the pivot search and
    for f.  A pivot row is reduced once, when it is chosen, all its slots at
    once: its slots left of the pivot are 0 mod p and are dropped, and with
    k = (w + bit_length(p) - 1)/2 and mu = floor(2^k / p) each slot s < 2^k
    has q = floor(s mu / 2^k) equal to floor(s / p) or one less, so s - q p
    lies in [0, 2p).  The products s mu lie below 2^(2k - bit_length(p) + 1)
    = 2^w, each in its own slot, so one multiplication by mu, a shift by k
    and a mask of the low w - k bits of every slot give every q, and one
    multiply-subtract the reduced row.  Afterwards the first ``len(pivots)``
    packed rows are in row echelon form mod p, their slots below 2p, and
    the others are 0 mod p.

    No slot ever carries into the next when every slot is packed below
    top * p and w = ``_slot_width(p, n, top)``, so that 2^k > (2n + top) p^2.
    An update adds g b to each slot, g < p and b < 2p a slot of a pivot row,
    so less than 2p^2, and subtracts nothing.  Until its row is chosen as a
    pivot row, or to the end if it never is, a slot takes at most n - 1
    updates, one per pivot row above it, and stays below
    top * p + 2(n - 1) p^2 < 2^k, as the reduction needs.  Reduced below 2p,
    a pivot row takes at most n - 1 updates in ``_fp_back``, each below p^2,
    and stays below 2p + (n - 1) p^2 < 2^k.  Rows of residues need top = 1;
    derivative rows packed straight from a point's monomial values, whose
    entries are e * v with e <= d and v < p, need top = d.
    """
    n = len(packed)
    pivots: list[int] = []
    if not n:
        return pivots
    mask = (1 << w) - 1
    shifts = range(0, ncols * w, w)
    k = (w + p.bit_length() - 1) // 2
    mu = (1 << k) // p
    # the low w - k bits of every slot: the repunit in base 2^w times them
    quotients = ((1 << ncols * w) - 1) // mask * ((1 << w - k) - 1)
    for c, s in enumerate(shifts):
        r = len(pivots)
        for i in range(r, n):
            lead = (packed[i] >> s & mask) % p
            if lead:
                break
        else:
            continue
        pr, packed[i] = packed[i] >> s << s, packed[r]
        packed[r] = pr = pr - (pr * mu >> k & quotients) * p
        inv = pow(lead, -1, p)
        for i in range(r + 1, n):
            ri = packed[i]
            f = (ri >> s & mask) % p
            if f:
                packed[i] = ri + (p - f) * inv % p * pr
        pivots.append(c)
        if r + 1 == n:
            break
    return pivots


def _fp_back(p: int, packed: list[int], pivots: list[int], ncols: int, w: int) -> None:
    """Back-substitution mod p, in place, on the packed rows that
    ``_fp_forward`` left in echelon form: afterwards the first
    ``len(pivots)`` rows are the reduced echelon form, every slot a residue.

    Each pivot row, last first, is reduced and scaled to a leading 1 slot
    by slot before it clears its pivot column from the rows above it.  Its
    slots left of the pivot are exactly 0: the forward pass dropped them,
    and every row below it that updated it is 0 there too.
    """
    mask = (1 << w) - 1
    for k in range(len(pivots) - 1, -1, -1):
        s = pivots[k] * w
        pr = packed[k]
        inv = pow((pr >> s & mask) % p, -1, p)
        packed[k] = pr = sum([(pr >> t & mask) * inv % p << t for t in range(s, ncols * w, w)])
        for i in range(k):
            ri = packed[i]
            f = (ri >> s & mask) % p
            if f:
                packed[i] = ri + (p - f) * pr


def _fp_rref(p: int, rows: Sequence[Sequence[int]]) -> tuple[list, list[int]]:
    """Reduced row echelon form mod p of n >= 1 rows of residues: the rows
    packed, the forward pass and back-substitution on the packed rows, and
    the reduced rows unpacked once; rows past the rank are zero.  With a
    pivot in every column the reduced form is the identity followed by zero
    rows, so it is returned without back-substitution.
    """
    m, w = len(rows[0]), _slot_width(p, len(rows))
    packed = _fp_pack(rows, w)
    pivots = _fp_forward(p, packed, m, w)
    if len(pivots) == m:
        return [[int(i == j) for j in range(m)] for i in range(len(rows))], pivots
    _fp_back(p, packed, pivots, m, w)
    mask = (1 << w) - 1
    shifts = range(0, m * w, w)
    out = [[pr >> t & mask for t in shifts] for pr in packed[:len(pivots)]]
    return out + [[0] * m for _ in rows[len(pivots):]], pivots


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: a list of ints spanning the
    same line.  Entries may be ints or Fractions.  Only values that arrive
    as Fractions need it: points, lines and conics store integer keys, and
    rows of ints are ranked as they are."""
    lcm = 1
    for v in row:
        d = v.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        return [v.numerator for v in row]
    return [v.numerator * (lcm // v.denominator) for v in row]


def _qq_forward(m: list[list[int]]) -> list[int]:
    """In-place fraction-free elimination of an integer matrix on primitive
    rows; returns the pivot columns.

    In each column the pivot is the active row whose entry there has the
    smallest absolute value.  Every other active row with a nonzero entry f
    there becomes ``(pivot/g) * row - (f/g) * pivot_row``, g = gcd(pivot, f),
    divided by its content.  Active rows are zero left of the column, so only
    the entries right of it are computed.  A row that becomes zero is swapped
    past the active rows and never touched again; the row swapped in for it
    is updated in its place.  Afterwards the first ``len(pivots)`` rows are
    in row echelon form and the remaining rows are zero.

    Every step is exact.  An update keeps the row space: the old row is
    (new + (f/g) * pivot_row) / (pivot/g).  For a fixed pivot sequence, the
    row after k steps and the row of Bareiss's elimination, whose entries
    are (k+1)-minors of the input (Sylvester's identity), both lie in the
    span of the input row and the k pivot rows and vanish in the k pivot
    columns; those vectors form one line.  So the primitive row divides
    Bareiss's row, and no entry grows past the Hadamard bound of those
    minors.  No modular or probabilistic step is involved.
    """
    if not m:
        return []
    pivots: list[int] = []
    n = len(m)
    r = 0
    for c in range(len(m[0])):
        best = 0
        for i in range(r, n):
            v = m[i][c]
            if v and (not best or abs(v) < best):
                best, k = abs(v), i
        if not best:
            continue
        pr = m[k]
        m[r], m[k] = pr, m[r]
        pivot = pr[c]
        lead, ptail = [0] * (c + 1), pr[c + 1:]
        i = r + 1
        while i < n:
            mi = m[i]
            f = mi[c]
            if not f:
                i += 1
                continue
            g = gcd(pivot, f)
            a, b = pivot // g, f // g
            tail = [a * x - b * y for x, y in zip(mi[c + 1:], ptail)]
            # The content is taken over the whole row, not the tail: CPython
            # 3.11 keeps up to 2 000 freed 20-item tuples (0.4 MB) that it
            # never reuses, and a quintic system's tail has 20 entries in
            # the first column.
            row = lead + tail
            g = gcd(*row)
            if g:
                m[i] = row if g == 1 else lead + [x // g for x in tail]
                i += 1
            else:
                n -= 1
                m[i], m[n] = m[n], row
        pivots.append(c)
        r += 1
        if r == n:
            break
    return pivots


def _rref(field: Field, rows: Sequence[Sequence]) -> tuple[list, list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    The input rows are left unchanged.  Over GF(p) this is ``_fp_rref``.
    Over QQ the rows are cleared to integers, put in echelon form by
    ``_qq_forward`` (smallest pivots, primitive rows) and back-substituted
    on integers, each updated row divided by its content; only the final
    division by each pivot makes Fractions.  The reduced form is unique, so
    it does not depend on the pivots the forward pass takes.  Zero rows stay
    zero rows.
    """
    if not rows:
        return rows, []
    if field.p is not None:
        return _fp_rref(field.p, rows)
    m = [_integer_row(row) for row in rows]
    pivots = _qq_forward(m)
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        pr = m[k]
        pk = pr[c]
        for i in range(k):
            ri = m[i]
            f = ri[c]
            if f:
                ri = [pk * a - f * b for a, b in zip(ri, pr)]
                g = gcd(*ri)
                m[i] = [a // g for a in ri]
    for i, c in enumerate(pivots):
        pv = m[i][c]
        m[i] = [Fraction(v, pv) for v in m[i]]
    return m, pivots


# ---------------------------------------------------------------------------
# public operations


def rank_rows(field: Field, rows: Sequence[Sequence]) -> int:
    """Rank over ``field`` of equal-length rows.

    Over QQ the entries may be ints or Fractions; a row that holds a
    Fraction is cleared to integers, a row of ints is taken as it is, and
    the rows are ranked by the fraction-free pass on primitive rows,
    ``_qq_forward``.  Over GF(p) the entries must be ints in ``[0, p)``.
    The rows are left unchanged.
    """
    if field.p is not None:
        if not rows:
            return 0
        w = _slot_width(field.p, len(rows))
        return len(_fp_forward(field.p, _fp_pack(rows, w), len(rows[0]), w))
    return len(_qq_forward([_integer_row(row) if Fraction in map(type, row) else row
                            for row in rows]))


def _kernel_rows(field: Field, rows: Sequence[Sequence], ncols: int) -> SubspaceBasis:
    """Echelonized basis of the right null space of ``ncols``-wide rows.

    The entries must be canonical over GF(p), ints in ``[0, p)``; over QQ
    they may be ints or Fractions.  The rows are left unchanged.

    One reduced form suffices: the rows are reduced with their columns
    reversed.  There a pivot row is nonzero only at its pivot and at free
    columns after it, so the null vector of a free column is 1 there, zero
    at every other free column, and nonzero elsewhere only at pivots before
    it.  Read back in the original column order, each vector starts with
    its 1 and is zero at the other free columns: taken by ascending free
    column, the vectors already are the reduced echelon basis.
    """
    reduced, pivots = _rref(field, [row[::-1] for row in rows])
    return _null_basis(field, ncols, pivots, lambda fc: [row[fc] for row in reduced])


def _row_basis(field: Field, rows: Sequence[Sequence], ncols: int) -> SubspaceBasis:
    """Echelonized basis of the row space of ``ncols``-wide rows, entries as
    ``_kernel_rows`` takes them: their reduced form less its zero rows."""
    reduced, pivots = _rref(field, rows)
    return _trusted_basis(field, ncols, tuple(map(tuple, reduced[:len(pivots)])))


def _fp_kernel(field: Field, packed: list[int], ncols: int, w: int) -> SubspaceBasis:
    """``_kernel_rows`` of rows over GF(p) that are already packed with their
    columns reversed (``_fp_pack`` with ``reverse``, or a builder of its
    own) in w-bit slots that ``_fp_forward`` keeps free of carries; the
    packed rows are consumed.  The same one forward pass and
    back-substitution, but on the packed rows as they are, and the null
    vectors read off their slots as ints: no row is unpacked.
    """
    p = field.p
    pivots = _fp_forward(p, packed, ncols, w)
    if len(pivots) == ncols:
        return _trusted_basis(field, ncols, ())
    _fp_back(p, packed, pivots, ncols, w)
    mask = (1 << w) - 1
    reduced = packed[:len(pivots)]
    return _null_basis(field, ncols, pivots,
                       lambda fc: [pr >> fc * w & mask for pr in reduced])


def _null_basis(field: Field, ncols: int, pivots: list[int], column) -> SubspaceBasis:
    """The reduced echelon basis of the null space, read off a reduced form
    of the rows with their columns reversed, whose pivot columns are
    ``pivots`` and whose free column fc holds ``column(fc)``, its entries in
    the pivot rows, top down.  The vector of fc is 1 there and minus those
    entries at the pivots before fc, in the original column order.
    """
    last = ncols - 1
    pivot_set = set(pivots)
    vectors = []
    for fc in range(last, -1, -1):
        if fc in pivot_set:
            continue
        vec = [field.zero()] * ncols
        vec[last - fc] = field.one()
        for pc, v in zip(pivots, column(fc)):
            if pc > fc:
                break
            vec[last - pc] = field.coerce(-v)
        vectors.append(tuple(vec))
    return _trusted_basis(field, ncols, tuple(vectors))


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Echelonized basis of the intersection of two subspaces.

    Uses the annihilator trick: the intersection is the kernel of the stacked
    annihilators of the two row spaces.
    """
    _check_compatible(a, b)
    f, n = a.field, a.ambient_dim
    ann = _kernel_rows(f, a.basis, n).basis + _kernel_rows(f, b.basis, n).basis
    return _kernel_rows(f, ann, n)


def _check_compatible(a: SubspaceBasis, b: SubspaceBasis) -> None:
    if a.field != b.field:
        raise FieldMismatchError("subspaces over different fields")
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces have different ambient dimensions")
