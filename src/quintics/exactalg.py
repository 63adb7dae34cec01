"""Exact scalar arithmetic and dense linear algebra.

Two coefficient fields are supported: arbitrary-precision rationals (``QQ``)
and prime fields ``GF(p)``.  Rationals are stored as ``fractions.Fraction``
(always in lowest terms with positive denominator), prime-field elements as
plain ints in ``[0, p)``.  Arithmetic on them is Python's own; a
:class:`Field` supplies only what differs between the two fields.

Over the rationals, rank is computed by fraction-free Bareiss elimination on
integerized rows, which keeps intermediate entries polynomial in the input
instead of letting gcd-heavy Fraction arithmetic blow up, while reduced row
echelon form (used for kernels and canonical subspace bases) is exact
Fraction Gauss-Jordan elimination.  Over ``GF(p)`` elimination runs on plain
int rows with the reduction mod p inlined: rank is the forward pass alone,
and reduced row echelon form is the same forward pass followed by
back-substitution.  ``rank_rows`` ranks plain rows (ints or Fractions over
QQ, residues over GF(p)) without building a ``DenseMatrix``, and ``rank``
delegates to it; ``_kernel_rows`` takes the null space of such rows the same
way, and ``kernel`` delegates to it.  All routines are deterministic:
identical inputs give bit-identical outputs, so echelon bases are usable in
regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

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
    values directly, Fractions over QQ and ints over GF(p), and division is
    multiplication by ``inv``.  Over GF(p) the results are unreduced ints;
    ``coerce`` maps them (or any int, Fraction or numeric string) to the
    canonical value, a ``Fraction`` over QQ or a residue in ``[0, p)`` over
    GF(p).  ``is_zero`` accepts unreduced values, and ``zero``/``one`` are
    the canonical constants.  Fields compare and hash by name.
    """

    name: str

    def coerce(self, value) -> RawValue:
        raise NotImplementedError

    def zero(self) -> RawValue:
        return self.coerce(0)

    def one(self) -> RawValue:
        return self.coerce(1)

    def inv(self, a):
        raise NotImplementedError

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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

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

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

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


@dataclass(frozen=True)
class Scalar:
    """A single exact field element tagged with its field."""

    field: Field
    value: RawValue

    def __post_init__(self):
        object.__setattr__(self, "value", self.field.coerce(self.value))

    def _check(self, other: "Scalar") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"mixed fields {self.field} and {other.field}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value * other.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, self.value * self.field.inv(other.value))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, -self.value)

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __str__(self) -> str:
        return str(self.value)


class DenseMatrix:
    """Immutable dense matrix over a single exact field.

    Zero-row matrices are allowed (the empty constraint system); they must be
    constructed with an explicit column count.
    """

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable], ncols: int | None = None):
        grid = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        if grid:
            widths = {len(r) for r in grid}
            if len(widths) != 1:
                raise InputError("ragged rows")
            inferred = widths.pop()
            if ncols is not None and ncols != inferred:
                raise InputError("ncols does not match row width")
            ncols = inferred
        elif ncols is None:
            raise InputError("zero-row matrix needs an explicit column count")
        self.field = field
        self.rows = grid
        self.nrows = len(grid)
        self.ncols = ncols

    @classmethod
    def from_scalars(cls, rows: Sequence[Sequence[Scalar]], ncols: int | None = None,
                     field: Field | None = None) -> "DenseMatrix":
        tags = {s.field for row in rows for s in row}
        if field is not None:
            tags.add(field)
        if len(tags) > 1:
            raise FieldMismatchError("matrix entries carry mixed field tags")
        if not tags:
            raise InputError("cannot infer field from an empty matrix")
        fld = tags.pop()
        return cls(fld, [[s.value for s in row] for row in rows], ncols)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(self.field, [[row[j] for row in self.rows] for j in range(self.ncols)],
                           self.nrows)

    def stack(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field:
            raise FieldMismatchError("cannot stack matrices over different fields")
        if self.ncols != other.ncols:
            raise InputError("cannot stack matrices of different widths")
        return DenseMatrix(self.field, self.rows + other.rows, self.ncols)

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple of raw values."""
        if len(vector) != self.ncols:
            raise InputError("vector length does not match column count")
        f = self.field
        vec = [f.coerce(v) for v in vector]
        return tuple(f.coerce(sum(a * b for a, b in zip(row, vec))) for row in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseMatrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.field}, {self.nrows}x{self.ncols})"


@dataclass(frozen=True)
class SubspaceBasis:
    """A linear subspace given by a reduced-echelon basis of row vectors.

    Pivots strictly increase row by row and every pivot entry is 1, so equal
    subspaces always produce identical objects.
    """

    field: Field
    ambient_dim: int
    basis: tuple

    def __post_init__(self):
        prev = -1
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise InputError("basis vector of wrong length")
            piv = next((j for j, v in enumerate(row) if not self.field.is_zero(v)), None)
            if piv is None:
                raise InputError("zero vector in basis")
            if piv <= prev:
                raise InputError("basis rows are not in echelon order")
            if row[piv] != self.field.one():
                raise InputError("pivot entries must equal 1")
            prev = piv

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        f = self.field
        vec = [f.coerce(v) for v in vector]
        if len(vec) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        for row in self.basis:
            piv = next(j for j, v in enumerate(row) if not f.is_zero(v))
            coef = vec[piv]
            if not f.is_zero(coef):
                vec = [f.coerce(a - coef * b) for a, b in zip(vec, row)]
        return all(f.is_zero(v) for v in vec)

    def to_matrix(self) -> DenseMatrix:
        return DenseMatrix(self.field, self.basis, self.ambient_dim)


# ---------------------------------------------------------------------------
# elimination cores


def _fp_forward(p: int, rows: list) -> list[int]:
    """In-place forward elimination mod p; returns the pivot columns.

    ``rows`` are lists of ints in ``[0, p)``.  Afterwards the first
    ``len(pivots)`` rows are in row echelon form with every pivot scaled to 1
    and zeros below it, and the remaining rows are zero.
    """
    nrows = len(rows)
    if not nrows:
        return []
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        pr = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(ri, pr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _fp_back_substitute(p: int, rows: list, pivots: list[int]) -> None:
    """Clear the entries above each pivot of a forward-eliminated matrix."""
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        pr = rows[k]
        for i in range(k):
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(ri, pr)]


def _rref(field: Field, rows: list) -> tuple[list, list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    if isinstance(field, PrimeField):
        pivots = _fp_forward(field.p, rows)
        _fp_back_substitute(field.p, rows, pivots)
        return rows, pivots
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _integer_row(row: Sequence) -> list[int]:
    """The row times the lcm of its denominators: an integer row spanning the
    same line.  Entries may be ints or Fractions."""
    lcm = 1
    for v in row:
        d = v.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        return [v.numerator for v in row]
    return [v.numerator * (lcm // v.denominator) for v in row]


def _bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination.

    Works in place on the rows of ``m``.  After each step every entry below
    the pivot rows is a minor of the input, so the division by the previous
    pivot is exact.
    """
    nrows = len(m)
    if not nrows:
        return 0
    prev = 1
    r = 0
    for c in range(len(m[0])):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        pr = m[r]
        pivot = pr[c]
        for i in range(r + 1, nrows):
            mi = m[i]
            f = mi[c]
            if f:
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(mi, pr)]
            elif pivot != prev:
                m[i] = [pivot * a // prev for a in mi]
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


# ---------------------------------------------------------------------------
# public operations


def rank_rows(field: Field, rows: Sequence[Sequence]) -> int:
    """Rank over ``field`` of equal-length rows, without building a DenseMatrix.

    Over QQ the entries may be ints or Fractions; each row is cleared to
    integers and the rows are ranked by Bareiss elimination.  Over GF(p) the
    entries must be ints in ``[0, p)``.  The rows are left unchanged.
    """
    if isinstance(field, RationalField):
        return _bareiss_rank([_integer_row(row) for row in rows])
    return len(_fp_forward(field.p, list(rows)))


def rank(m: DenseMatrix) -> int:
    """Rank of a dense matrix over its field."""
    return rank_rows(m.field, m.rows)


def rref(m: DenseMatrix) -> tuple[DenseMatrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns."""
    rows, pivots = _rref(m.field, [list(r) for r in m.rows])
    kept = [row for row in rows if any(not m.field.is_zero(v) for v in row)]
    return DenseMatrix(m.field, kept, m.ncols), tuple(pivots)


def kernel(m: DenseMatrix) -> SubspaceBasis:
    """Echelonized basis of the right null space of ``m``."""
    return _kernel_rows(m.field, m.rows, m.ncols)


def _kernel_rows(field: Field, rows: Sequence[Sequence], ncols: int) -> SubspaceBasis:
    """Echelonized basis of the right null space of ``ncols``-wide rows, without
    building a DenseMatrix.

    The entries must be canonical over GF(p), ints in ``[0, p)``; over QQ
    they may be ints or Fractions.  The rows are left unchanged.
    """
    if not rows:
        return full_space(field, ncols)
    reduced, pivots = _rref(field, list(rows))
    pivot_set = set(pivots)
    vectors = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.coerce(-reduced[i][fc])
        vectors.append(vec)
    echelon, _ = _rref(field, vectors)
    kept = tuple(tuple(row) for row in echelon
                 if any(not field.is_zero(v) for v in row))
    return SubspaceBasis(field, ncols, kept)


def row_space(m: DenseMatrix) -> SubspaceBasis:
    """Echelonized basis of the row space of ``m``."""
    reduced, _ = rref(m)
    return SubspaceBasis(m.field, m.ncols, reduced.rows)


def span_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Echelonized basis of the subspace sum a + b."""
    _check_compatible(a, b)
    stacked = DenseMatrix(a.field, a.basis + b.basis, a.ambient_dim)
    return row_space(stacked)


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Echelonized basis of the intersection of two subspaces.

    Uses the annihilator trick: the intersection is the kernel of the stacked
    annihilators of the two row spaces.
    """
    _check_compatible(a, b)
    ann_a = kernel(a.to_matrix())
    ann_b = kernel(b.to_matrix())
    stacked = DenseMatrix(a.field, ann_a.basis + ann_b.basis, a.ambient_dim)
    return kernel(stacked)


def _check_compatible(a: SubspaceBasis, b: SubspaceBasis) -> None:
    if a.field != b.field:
        raise FieldMismatchError("subspaces over different fields")
    if a.ambient_dim != b.ambient_dim:
        raise InputError("subspaces have different ambient dimensions")


def full_space(field: Field, n: int) -> SubspaceBasis:
    basis = tuple(tuple(field.one() if j == i else field.zero() for j in range(n))
                  for i in range(n))
    return SubspaceBasis(field, n, basis)


def matrix_mod_p(m: DenseMatrix, p: int) -> DenseMatrix:
    """Reduce a rational matrix modulo a prime.

    Raises InputError when some denominator is divisible by ``p``; callers
    doing rank comparisons across fields resample in that case.
    """
    if not isinstance(m.field, RationalField):
        raise InputError("matrix_mod_p expects a rational matrix")
    fp = PrimeField(p)
    return DenseMatrix(fp, [[fp.coerce(v) for v in row] for row in m.rows], m.ncols)
