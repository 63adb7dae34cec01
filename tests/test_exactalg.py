from fractions import Fraction

import pytest

from quintics.errors import InputError
from quintics.exactalg import (
    _PRIME_BOUND,
    _is_prime,
    QQ,
    PrimeField,
    SubspaceBasis,
    _fp_back,
    _fp_forward,
    _fp_kernel,
    _fp_pack,
    _kernel_rows,
    _rref,
    _slot_width,
    intersect,
    parse_field,
    rank_rows,
)
from quintics.rng import SplitMix64, derive_seed


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rank_identity():
    assert rank_rows(QQ, IDENTITY) == 3


def test_rank_proportional_rows():
    assert rank_rows(QQ, [[1, 2], [2, 4]]) == 1


def test_rank_empty_matrix():
    assert rank_rows(QQ, []) == 0
    assert _kernel_rows(QQ, [], 5).dim == 5


def test_kernel_zero_row():
    assert _kernel_rows(QQ, [[0, 0, 0]], 3).dim == 3


def test_kernel_identity():
    assert _kernel_rows(QQ, IDENTITY, 3).dim == 0


def test_intersect_idempotent():
    a = SubspaceBasis(QQ, 4, ((Fraction(1), 0, 0, Fraction(1, 2)),
                              (0, Fraction(1), 0, 0)))
    assert intersect(a, a) == a


def test_intersect_complementary_planes():
    a = SubspaceBasis(QQ, 4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    b = SubspaceBasis(QQ, 4, ((0, 0, 1, 0), (0, 0, 0, 1)))
    assert intersect(a, b).dim == 0


def test_intersect_shared_axis():
    a = SubspaceBasis(QQ, 3, ((1, 0, 0), (0, 1, 0)))
    b = SubspaceBasis(QQ, 3, ((0, 1, 0), (0, 0, 1)))
    got = intersect(a, b)
    assert got.basis == ((Fraction(0), Fraction(1), Fraction(0)),)


def test_subspace_basis_refuses_non_canonical_bases():
    # Each refused basis spans a subspace that has a canonical basis too, so
    # accepting it would make two unequal objects of one subspace.
    fp = PrimeField(7)
    for residues in (((1, -1, 0),), ((1, 13, 0),)):
        with pytest.raises(InputError):
            SubspaceBasis(fp, 3, residues)  # the line of (1, 6, 0)
    with pytest.raises(InputError):
        SubspaceBasis(fp, 3, ((1, 1, 0), (0, 1, 0)))  # not reduced
    with pytest.raises(InputError):
        SubspaceBasis(QQ, 3, ((1, 1, 0), (0, 1, 0)))
    a = SubspaceBasis(fp, 3, ((1, 6, 0),))
    plane = SubspaceBasis(fp, 3, ((1, 0, 0), (0, 1, 0)))
    assert intersect(a, plane) == intersect(a, a) == a


def test_field_p_is_the_modulus_or_none():
    assert QQ.p is None
    assert PrimeField(7).p == 7
    assert parse_field("qq").p is None


def test_prime_field_rejects_composite():
    with pytest.raises(InputError):
        PrimeField(65520)
    assert parse_field("fp:65521").p == 65521
    with pytest.raises(InputError):
        parse_field("fp:not-a-number")
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; psi_13 to every prime base up to 41
    with pytest.raises(InputError, match="not prime"):
        PrimeField(318665857834031151167461)
    with pytest.raises(InputError, match="too large"):
        PrimeField(3317044064679887385961981)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    from quintics.cli import main
    assert main(["dims", "--type", "1", "--field", "fp:318665857834031151167461"]) == 2


def _random_rows(field, rng, nrows, ncols):
    if field.p is not None:
        return [[rng.below(field.p) for _ in range(ncols)] for _ in range(nrows)]
    return [[Fraction(rng.int_in(-6, 6), rng.int_in(1, 4)) for _ in range(ncols)]
            for _ in range(nrows)]


def _apply(field, rows, vector):
    """The rows times a column vector, by dot products alone."""
    p = field.p
    dots = [sum(a * b for a, b in zip(row, vector)) for row in rows]
    return [v % p for v in dots] if p else dots


def _row_space(field, rows, ncols):
    """The row space as the annihilator of the annihilator."""
    return _kernel_rows(field, _kernel_rows(field, rows, ncols).basis, ncols)


@pytest.mark.parametrize("field", [QQ, PrimeField(65521), PrimeField(7)])
def test_rank_transpose_and_nullity(field):
    rng = SplitMix64(2024)
    cases = []
    for _ in range(40):
        nrows, ncols = rng.int_in(1, 6), rng.int_in(1, 7)
        cases.append((_random_rows(field, rng, nrows, ncols), ncols, nrows))
    # (rows, columns, rows of the transpose): no rows, no columns, neither
    cases += [([], 3, 0), ([[], [], []], 0, 3), ([], 0, 0)]
    for rows, ncols, nrows in cases:
        transpose = [list(col) for col in zip(*rows)]
        r = rank_rows(field, rows)
        assert r == rank_rows(field, transpose)
        assert _kernel_rows(field, transpose, nrows).dim + r == nrows
        ker = _kernel_rows(field, rows, ncols)
        assert ker.dim + r == ncols
        # checked by multiplication, independently of any elimination
        for vec in ker.basis:
            assert not any(_apply(field, rows, vec)), vec


@pytest.mark.parametrize("field", [QQ, PrimeField(65521), PrimeField(7)])
def test_modular_law_for_subspace_dims(field):
    rng = SplitMix64(99)
    for _ in range(30):
        n = rng.int_in(3, 6)
        a = _row_space(field, _random_rows(field, rng, rng.int_in(1, n), n), n)
        b = _row_space(field, _random_rows(field, rng, rng.int_in(1, n), n), n)
        assert intersect(a, b).dim + rank_rows(field, a.basis + b.basis) == a.dim + b.dim


def test_rank_agrees_between_qq_and_fp_on_golden_matrices():
    from quintics.lsys import singularity_rows
    from quintics.sampling import sample_generic
    from quintics.taxonomy import K_POINTS

    fp = PrimeField(65521)
    finite_types = [t for t in range(1, 43) if isinstance(K_POINTS[t], int)]
    for type_id in finite_types:
        cfg = sample_generic(type_id, QQ, 5)
        rows = [row for pt in cfg.points for row in singularity_rows(pt, 5)]
        try:
            reduced = [[fp.coerce(v) for v in row] for row in rows]
        except InputError:
            continue  # denominator degenerates mod p; resampling is the contract
        assert rank_rows(QQ, rows) == rank_rows(fp, reduced), type_id


def _reference_rref(rows):
    """Fraction Gauss-Jordan elimination, independent of the package's
    fraction-free pass: (rows in reduced echelon form, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _reference_fp_rref(p, rows):
    """List-based elimination mod p, each row update reduced as it is made,
    independent of the package's packed rows: (rows in reduced echelon form,
    pivot columns)."""
    rows = [list(row) for row in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = pow(rows[r][c], -1, p)
        pr = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for k in range(len(pivots) - 1, 0, -1):
        c, pr = pivots[k], rows[k]
        for i in range(k):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], pr)]
    return rows, pivots


def _reference_kernel(rows, ncols, p=None):
    """Echelon null-space basis built on ``_reference_rref`` alone, or over
    GF(p) on ``_reference_fp_rref`` alone."""
    def echelon(vectors):
        return _reference_rref(vectors) if p is None else _reference_fp_rref(p, vectors)

    reduced, pivots = echelon(rows)
    vectors = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [0] * ncols
            vec[fc] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = -reduced[i][fc] if p is None else -reduced[i][fc] % p
            vectors.append(vec)
    return tuple(tuple(row) for row in echelon(vectors)[0] if any(row))


def _mixed_qq_cases():
    """Rows as the program assembles them: ints and Fractions side by
    side, entries up to about 10^12, rank-deficient ones among them."""
    big = 10 ** 12
    cases = [
        [[1, Fraction(1, 3), 2], [3, 1, Fraction(6)], [0, Fraction(2, 3), 0]],
        [[Fraction(big, 7), -3, Fraction(1, big)], [big, Fraction(-21, 1), Fraction(7, big)]],
        [[0, 0, 0], [Fraction(0), 0, 0]],
        [[Fraction(5, 9), 2, 0, Fraction(-1, 10 ** 9)], [1, 0, 3, 4], [0, 0, 0, 1]],
    ]
    rng = SplitMix64(405)
    for _ in range(30):
        nrows, ncols = rng.int_in(1, 6), rng.int_in(1, 7)
        cases.append([[rng.int_in(-5, 5) if rng.below(2) else
                       Fraction(rng.int_in(-6, 6) * big, rng.int_in(1, 9))
                       for _ in range(ncols)] for _ in range(nrows)])
    return cases


def test_bareiss_rank_agrees_with_echelon_pivots():
    # the rank is the pivot count of the package's forward pass; the
    # reference counts pivots of Fraction Gauss-Jordan elimination instead
    rng = SplitMix64(404)
    for _ in range(60):
        rows = _random_rows(QQ, rng, rng.int_in(1, 6), rng.int_in(1, 7))
        assert rank_rows(QQ, rows) == len(_reference_rref(rows)[1])


def test_rank_rows_on_mixed_int_and_fraction_rows():
    # the rows themselves are left unchanged
    for rows in _mixed_qq_cases():
        before = [list(r) for r in rows]
        fractions = [[Fraction(v) for v in r] for r in rows]
        assert rank_rows(QQ, rows) == rank_rows(QQ, fractions) == len(_rref(QQ, rows)[1]), rows
        assert rows == before
    fp = PrimeField(7)
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 5]]
    assert rank_rows(fp, rows) == 2
    assert rows == [[1, 2, 3], [2, 4, 6], [0, 0, 5]]


def test_qq_echelon_forms_match_fraction_gauss_jordan():
    rng = SplitMix64(406)
    cases = _mixed_qq_cases() + [
        [[0, 0, 0, 0]] * 3,                                       # all-zero rows
        [[2, -4, 6], [2, -4, 6], [1, 1, 1], [1, 1, 1]],           # duplicate rows
        [[-3, 1, 0], [0, -Fraction(2, 5), 7], [-6, 2, 1]],        # negative pivots
        [[0, -7, 14, 0], [0, 0, 0, -1], [0, Fraction(-1, 3), 0, 5]],
    ]
    for _ in range(40):
        ncols = rng.int_in(1, 6)
        base = _random_rows(QQ, rng, rng.int_in(1, 4), ncols)
        # rows repeated and scaled, and a zero row, at random positions
        rows = [list(r) for r in base] + [[-2 * v for v in base[0]], [0] * ncols]
        cases.append([rows[rng.below(len(rows))] for _ in range(rng.int_in(1, 7))])
    for rows in cases:
        ncols = len(rows[0])
        want_rows, want_pivots = _reference_rref(rows)
        assert _rref(QQ, [list(r) for r in rows]) == (want_rows, want_pivots), rows
        want_kernel = _reference_kernel(rows, ncols)
        fractions = [[Fraction(v) for v in r] for r in rows]
        for given in (fractions, rows):
            basis = _kernel_rows(QQ, given, ncols).basis
            assert basis == want_kernel, rows
            assert all(type(v) is Fraction for row in basis for v in row)
    # no rows at all: the reduced form is empty and the kernel is everything
    assert _rref(QQ, []) == ([], [])
    assert _kernel_rows(QQ, [], 4).basis == tuple(tuple(Fraction(int(i == j)) for j in range(4))
                                                  for i in range(4))


def _forward_pass(rows):
    """The QQ forward pass on ``rows``, its postcondition checked directly:
    the first ``len(pivots)`` rows are in echelon form with their leading
    entries at the pivots, the others are zero, and the row space is the
    input's.  Returns the pivot columns."""
    from quintics.exactalg import _qq_forward, _integer_row

    m = [_integer_row(row) for row in rows]
    pivots = _qq_forward(m)
    assert len(m) == len(rows)
    for i, row in enumerate(m):
        lead = next((j for j, v in enumerate(row) if v), None)
        assert lead == (pivots[i] if i < len(pivots) else None), (rows, m)
    assert _reference_rref(m) == _reference_rref(rows), (rows, m)
    return pivots


def test_qq_forward_pass_pivot_choice_and_zero_rows():
    cases = [
        # equal |pivot| with opposite signs, in either order
        [[-2, 1, 0], [2, 3, 1], [4, 0, 5]],
        [[2, 3, 1], [-2, 1, 0], [0, 4, 6]],
        # the smallest pivot is not in the first candidate row
        [[6, 1, 2], [4, 0, 1], [2, 5, 3]],
        [[0, 9, 4], [0, 12, 1], [0, -3, 7], [5, 1, 1]],
        # a row that becomes zero, then the row swapped in for it does too,
        # and the next one does not
        [[1, 2, 3], [2, 4, 6], [1, 0, 0], [3, 6, 9]],
        # every row after the pivot row becomes zero
        [[3, 1, 4], [-6, -2, -8], [9, 3, 12], [Fraction(3, 2), Fraction(1, 2), 2]],
        # zero rows in the input, among rows that become zero
        [[0, 0, 0], [5, 10, 0], [0, 0, 0], [-1, -2, 0], [0, 1, 1], [2, 4, 0]],
        # a sink in a later column
        [[1, 0, 2, 1], [0, 2, 1, 3], [1, 4, 4, 7], [0, 4, 2, 6], [1, 2, 3, 4]],
    ]
    for rows in cases:
        pivots = _forward_pass(rows)
        assert rank_rows(QQ, rows) == len(pivots) == len(_reference_rref(rows)[1]), rows
    rng = SplitMix64(407)
    for _ in range(60):
        ncols = rng.int_in(1, 6)
        base = [[rng.int_in(-4, 4) for _ in range(ncols)] for _ in range(rng.int_in(1, 3))]
        # combinations of few rows, so that many rows become zero mid-pass
        rows = [[sum(rng.int_in(-2, 2) * row[j] for row in base) for j in range(ncols)]
                for _ in range(rng.int_in(1, 7))]
        _forward_pass(rows)


def test_qq_rank_of_every_type_matches_fraction_gauss_jordan():
    from quintics.lsys import _system_rows
    from quintics.sampling import sample_generic

    for type_id in range(1, 42):
        rows = _system_rows([q.key for q in sample_generic(type_id, QQ, 11).points], 5, None)
        assert rank_rows(QQ, rows) == len(_reference_rref(rows)[1]), type_id


def _largest_prime_below(n):
    q = n - 1
    while not _is_prime(q):
        q -= 1
    return q


def _fp_cases(p, rng):
    """290 row lists mod p: the edge shapes, then small random ones with
    rows repeated, scaled and zeroed at random positions."""
    def matrix(nrows, ncols):
        # two 64-bit draws cover every residue of the largest allowed prime
        return [[(rng.next_u64() << 64 | rng.next_u64()) % p for _ in range(ncols)]
                for _ in range(nrows)]

    base = matrix(5, 21)
    cases = [
        ([], 21), ([], 6),                                # no rows
        (matrix(1, 21), 21), (matrix(1, 6), 6),           # one row
        ([[0] * 21] * 4, 21), ([[0] * 6] * 3, 6),         # zero rows
        (base[:3] + base[:3] + [base[1]], 21),            # duplicate rows
        (matrix(40, 21), 21), (matrix(40, 21), 21),       # tall
        (matrix(3, 21), 21), (matrix(3, 21), 21),         # wide
        (matrix(21, 21), 21), (matrix(6, 6), 6), (matrix(5, 6), 6),
        ([[p - 1] * 21] * 40, 21), ([[p - 1] * 6] * 6, 6),  # every entry p - 1
        # tall of rank at most 5: 40 combinations of the five base rows
        ([[sum(c * b for c, b in zip(coefs, col)) % p for col in zip(*base)]
          for coefs in matrix(40, 5)], 21),
    ]
    for _ in range(273):
        ncols = rng.int_in(1, 8)
        rows = matrix(rng.int_in(1, 5), ncols)
        scale = matrix(1, 1)[0][0]
        rows += [[scale * v % p for v in rows[0]], [0] * ncols]
        cases.append(([rows[rng.below(len(rows))] for _ in range(rng.int_in(1, 9))], ncols))
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 101, 65521, 2 ** 61 - 1,
                               _largest_prime_below(_PRIME_BOUND)])
def test_fp_elimination_matches_list_reference(p):
    # 7 primes x 290 row lists: rank, echelon form and kernel of the packed
    # pass against list elimination reduced at every step
    fp = PrimeField(p)
    cases = _fp_cases(p, SplitMix64(p))
    assert len(cases) == 290
    for rows, ncols in cases:
        before = [list(r) for r in rows]
        want_rows, want_pivots = _reference_fp_rref(p, rows)
        assert rank_rows(fp, rows) == len(want_pivots), rows
        assert _rref(fp, rows) == (want_rows, want_pivots), rows
        assert rows == before
        assert _kernel_rows(fp, rows, ncols).basis == _reference_kernel(rows, ncols, p), rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65521, 2 ** 61 - 1,
                               _largest_prime_below(_PRIME_BOUND)])
def test_packed_core_keeps_worst_case_slots_apart(p):
    """Entries packed as they are, at their largest: every one in
    [(top - 1) p, top p), top = 7 as for the derivative rows of septics,
    in the most rows that share a slot width, square and wide.  No slot
    carries, so the core's rank, reduced form and kernel are the reference
    ones of the entries mod p.  And a pivot row whose slots all sit at the
    bound 2^k - 1 of the Barrett reduction comes out below 2p, slot for
    slot the same mod p."""
    top = 7
    rng = SplitMix64(derive_seed(35, p))
    for fewest in (1, 4, 12):
        w = _slot_width(p, fewest, top)
        n = fewest
        while _slot_width(p, n + 1, top) == w:
            n += 1
        mask = (1 << w) - 1
        k = (w + p.bit_length() - 1) // 2
        # packed below top p, then n - 1 updates below 2p^2 before a
        # reduction or n - 1 below p^2 after it; a k-bit slot times
        # floor(2^k / p) fits in w bits
        assert top * p + 2 * (n - 1) * p * p < 2 ** k
        assert 2 * p + (n - 1) * p * p < 2 ** k
        assert (2 ** k - 1) * (2 ** k // p) < 2 ** w
        for ncols in (n, n + 3):
            for _ in range(3):
                residues = [[rng.below(p) for _ in range(ncols)] for _ in range(n)]
                residues[-1] = [p - 1] * ncols
                rows = [[(top - 1) * p + v for v in row] for row in residues]
                want_rows, want_pivots = _reference_fp_rref(p, residues)
                packed = _fp_pack(rows, w)
                pivots = _fp_forward(p, packed, ncols, w)
                assert pivots == want_pivots, (n, ncols)
                _fp_back(p, packed, pivots, ncols, w)
                assert [[pr >> (j * w) & mask for j in range(ncols)]
                        for pr in packed[:len(pivots)]] == want_rows[:len(pivots)], (n, ncols)
                kernel = _fp_kernel(PrimeField(p), _fp_pack(rows, w, reverse=True), ncols, w)
                assert kernel.basis == _reference_kernel(residues, ncols, p), (n, ncols)
        top_slot = 2 ** k - 1 if (2 ** k - 1) % p else 2 ** k - 2
        packed = _fp_pack([[top_slot] * (n + 3)], w)
        assert _fp_forward(p, packed, n + 3, w) == [0]
        slots = [packed[0] >> (j * w) & mask for j in range(n + 3)]
        assert all(v < 2 * p and (v - top_slot) % p == 0 for v in slots), slots


def test_packing_reverses_columns_without_reversing_rows():
    rows = [[1, 2, 3], [4, 5, 6]]
    assert _fp_pack(rows, 8, reverse=True) == _fp_pack([row[::-1] for row in rows], 8)
    assert _fp_pack(rows, 8) == [1 | 2 << 8 | 3 << 16, 4 | 5 << 8 | 6 << 16]
    assert _fp_pack([], 8) == []


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_kernel_rows_reduces_once(field, monkeypatch):
    from quintics import exactalg
    calls = []
    real = exactalg._rref

    def counted(fld, rows):
        calls.append(len(rows))
        return real(fld, rows)

    monkeypatch.setattr(exactalg, "_rref", counted)
    rows = [[1, 2, 0, 3, 1], [2, 4, 1, 0, 0], [3, 6, 1, 3, 1]]
    basis = exactalg._kernel_rows(field, rows, 5).basis
    assert calls == [3]
    p = field.p
    assert basis == _reference_kernel([[field.coerce(v) for v in r] for r in rows], 5, p)


def test_kernel_bases_are_deterministic():
    rng = SplitMix64(7)
    rows = _random_rows(QQ, rng, 4, 6)
    k1 = _kernel_rows(QQ, rows, 6)
    k2 = _kernel_rows(QQ, [list(r) for r in rows], 6)
    assert k1 == k2
    assert k1.basis == k2.basis


def test_kernel_of_no_rows_is_the_full_space():
    assert _kernel_rows(QQ, [], 4).dim == 4


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(65521)],
                         ids=["qq", "fp7", "fp65521"])
def test_checked_constructor_accepts_every_kernel_basis(field):
    # _kernel_rows and intersect build their bases without the checks; the
    # checked constructor accepts each of them as the same object
    rng = SplitMix64(2024)
    cases = [(_random_rows(field, rng, rng.int_in(1, 6), ncols), ncols)
             for ncols in (rng.int_in(1, 7) for _ in range(40))]
    if field.p is None:
        cases += [(rows, len(rows[0])) for rows in _mixed_qq_cases()]
    else:
        cases += _fp_cases(field.p, SplitMix64(field.p))
    for rows, ncols in cases:
        ker = _kernel_rows(field, rows, ncols)
        for basis in (ker, intersect(ker, _kernel_rows(field, rows[:1], ncols))):
            checked = SubspaceBasis(field, ncols, basis.basis)
            assert checked == basis and hash(checked) == hash(basis), rows


def test_checked_constructor_refuses_each_kind_of_malformed_basis():
    fp = PrimeField(7)
    for field, basis, message in [
        (QQ, ((1, 0),), "wrong length"),
        (fp, ((1, 7, 0),), "residues"),
        (fp, ((1, Fraction(1, 2), 0),), "residues"),
        (QQ, ((0, 0, 0),), "zero vector"),
        (fp, ((0, 1, 0), (1, 0, 0)), "echelon order"),
        (fp, ((0, 1, 0), (0, 1, 1)), "echelon order"),
        (QQ, ((Fraction(1, 2), 0, 0),), "pivot entries"),
        (fp, ((1, 3, 0), (0, 1, 0)), "not reduced"),
    ]:
        with pytest.raises(InputError, match=message):
            SubspaceBasis(field, 3, basis)


def test_echelon_invariants_enforced():
    with pytest.raises(InputError):
        SubspaceBasis(QQ, 3, ((0, 1, 0), (1, 0, 0)))  # pivots not increasing
    with pytest.raises(InputError):
        SubspaceBasis(QQ, 3, ((2, 0, 0),))  # pivot not 1
