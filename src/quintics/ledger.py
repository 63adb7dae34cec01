"""Spectral-sequence bookkeeping for the quintic discriminant sweep.

The discriminant of degree-5 plane curves carries a filtration indexed by the
42 singular-configuration types.  A finite type with k points and fiber
dimension d contributes its sign-twisted locally finite homology shifted up
by 2d + (k - 1); nondiscrete types contribute nothing.  This module places
these contributions into the first-page table of the quintic sweep, applies
declared differentials, totalizes pages into Poincaré polynomials, and
converts the total of the discriminant into the Poincaré polynomial of the
complement via the degree-reversing complement duality in ambient
dimension 21.

Everything here is exact integer arithmetic; there are no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError
from .poincare import PoincarePoly, format_one_plus_powers, product_of_cyclotomic_like
from .taxonomy import GOLDEN_DIMS, K_POINTS

AMBIENT_DIM = 21  # complex dimension of the space of quintic forms


@dataclass(frozen=True)
class E1Table:
    """A sparse first-quadrant table (p, q) -> positive dimension."""

    entries: tuple = ()

    @classmethod
    def from_dict(cls, data: Mapping[Tuple[int, int], int]) -> "E1Table":
        items = []
        for (p, q), dim in data.items():
            if dim < 0:
                raise InputError("table dimensions must be nonnegative")
            if dim:
                items.append(((int(p), int(q)), int(dim)))
        return cls(tuple(sorted(items)))

    def as_dict(self) -> Dict[Tuple[int, int], int]:
        return dict(self.entries)

    def column(self, p: int) -> PoincarePoly:
        """Total-degree polynomial of one column: degree p + q per entry."""
        return PoincarePoly.from_coeffs(
            {p + q: dim for (pp, q), dim in self.entries if pp == p})

    def is_empty(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class DifferentialDecl:
    """A declared differential of known rank on page r: (p,q) -> (p-r, q+r-1)."""

    page: int
    source: Tuple[int, int]
    declared_rank: int

    @property
    def target(self) -> Tuple[int, int]:
        p, q = self.source
        return (p - self.page, q + self.page - 1)

    def __post_init__(self):
        if self.page < 1:
            raise InputError("differentials live on pages r >= 1")
        if self.declared_rank < 0:
            raise InputError("declared rank must be nonnegative")


@dataclass(frozen=True)
class ColumnSpec:
    """Data of one filtration column: the type index, whose point count and
    fiber dimension are those of the taxonomy table, and the sign-twisted base
    polynomial (None when the value is not stored)."""

    index: int
    base_poly: Optional[PoincarePoly]

    def __post_init__(self):
        if self.index not in GOLDEN_DIMS:
            raise InputError(f"column {self.index} is not a type of the taxonomy table")


def column_contribution(spec: ColumnSpec) -> PoincarePoly:
    """Column total: the base polynomial shifted by 2 * fiber_dim + (k - 1),
    with k and fiber_dim read from the taxonomy table.

    Nondiscrete columns carry no shift formula; they are only admitted with a
    zero base, to which they contribute nothing.
    """
    if spec.base_poly is None:
        raise InputError(f"column {spec.index} has no stored base polynomial")
    k = K_POINTS[spec.index]
    if isinstance(k, str):
        if not spec.base_poly.is_zero():
            raise InputError("no shift formula applies to a nondiscrete column "
                             "with nonzero base")
        return PoincarePoly.zero()
    return spec.base_poly.shift(2 * GOLDEN_DIMS[spec.index] + (k - 1))


def apply_differentials(table: E1Table, decls: Sequence[DifferentialDecl]) -> E1Table:
    """Subtract the declared ranks from source and target entries, drop zeros."""
    data = table.as_dict()
    for decl in decls:
        if decl.declared_rank == 0:
            continue
        src = data.get(decl.source, 0)
        tgt = data.get(decl.target, 0)
        if decl.declared_rank > min(src, tgt):
            raise InputError(f"declared rank {decl.declared_rank} exceeds the "
                             f"entries at {decl.source} -> {decl.target}")
        data[decl.source] = src - decl.declared_rank
        data[decl.target] = tgt - decl.declared_rank
    return E1Table.from_dict({k: v for k, v in data.items() if v})


def totalize(table: E1Table) -> PoincarePoly:
    """Coefficient of t^n is the sum of entries with p + q = n."""
    acc: Dict[int, int] = {}
    for (p, q), dim in table.entries:
        acc[p + q] = acc.get(p + q, 0) + dim
    return PoincarePoly.from_coeffs(acc)


def alexander_dualize(sigma_poly: PoincarePoly, big_d: int = AMBIENT_DIM) -> PoincarePoly:
    """Complement duality: degree i maps to 2*D - 1 - i, plus the constant 1.

    The duality range is 0 < i < 2D - 1; degrees outside it are rejected.
    The constant term records connectedness of the complement, which the
    duality itself does not see.
    """
    out: Dict[int, int] = {}
    for deg, c in sigma_poly.coeffs:
        if not 0 < deg < 2 * big_d - 1:
            raise InputError(f"degree {deg} is outside the duality range "
                             f"(0, {2 * big_d - 1})")
        out[2 * big_d - 1 - deg] = out.get(2 * big_d - 1 - deg, 0) + c
    out[0] = out.get(0, 0) + 1
    return PoincarePoly.from_coeffs(out)


def gaussian_binomial(n: int, k: int) -> List[int]:
    """Coefficient list of the Gaussian binomial [n choose k]_q."""
    if not 0 <= k <= n:
        raise InputError("need 0 <= k <= n")
    # q-Pascal: [m, j] = [m-1, j-1] + q^j [m-1, j], with [m-1, m] = 0.
    # Once m >= j, rows[j] holds [m, j].
    rows = [[1]] * (k + 1)
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            high = [0] * j + rows[j] if j < m else []
            rows[j] = [a + b for a, b in zip_longest(rows[j - 1], high, fillvalue=0)]
    return rows[k]


def grassmann_poincare(k: int, n: int) -> PoincarePoly:
    """Poincaré polynomial of the Grassmannian of k-planes in C^(n+1).

    The Gaussian binomial [n+1 choose k]_q evaluated at q = t^2.
    """
    if not 1 <= k <= n + 1:
        raise InputError("need 1 <= k <= n + 1")
    coeffs = gaussian_binomial(n + 1, k)
    return PoincarePoly.from_coeffs({2 * i: c for i, c in enumerate(coeffs) if c})


def unordered_points_bm_sign(k: int, n: int) -> PoincarePoly:
    """Sign-twisted locally finite homology polynomial of k unordered points
    in complex projective n-space: the Grassmannian polynomial shifted by
    k(k-1)."""
    return grassmann_poincare(k, n).shift(k * (k - 1))


# ---------------------------------------------------------------------------
# the quintic dataset


@dataclass(frozen=True)
class AuxTable:
    name: str
    table: E1Table
    differentials: tuple
    expected_total: PoincarePoly
    note: str


@dataclass(frozen=True)
class QuinticDataset:
    """All stored inputs of the quintic sweep.

    ``e1`` is the main first page (it degenerates: no differentials), placed
    from the column contributions.  There is one column spec per type of
    the taxonomy table; only the three point-count columns carry nonzero bases.
    Auxiliary tables document the internal cancellations of the two hard
    columns, and ``twisted_values`` collects the named twisted Poincaré
    polynomials consumed as inputs.
    """

    e1: E1Table
    differentials: tuple
    columns: tuple
    aux_tables: tuple
    twisted_values: dict
    expected_factors: tuple
    big_d: int = AMBIENT_DIM

    def expected_poincare(self) -> PoincarePoly:
        return product_of_cyclotomic_like(self.expected_factors)

    def expected_factored(self) -> str:
        return format_one_plus_powers(self.expected_factors)

    def column(self, index: int) -> ColumnSpec:
        return self.columns[index - 1]

    def aux(self, name: str) -> AuxTable:
        for t in self.aux_tables:
            if t.name == name:
                return t
        raise InputError(f"unknown auxiliary table {name!r}")


def _poly(d: Mapping[int, int]) -> PoincarePoly:
    return PoincarePoly.from_coeffs(d)


def dataset_quintic() -> QuinticDataset:
    """The quintic sweep: main table, columns, auxiliary tables, inputs.

    The main first page is derived from the column specs: each term of
    degree ``deg`` in a column's contribution sits at (index, deg - index).
    """
    known_bases: Dict[int, PoincarePoly] = {
        1: grassmann_poincare(1, 2),                 # single points: the plane itself
        2: unordered_points_bm_sign(2, 2),           # unordered pairs in the plane
        3: unordered_points_bm_sign(3, 2),           # unordered triples in the plane
    }
    columns = [ColumnSpec(index, known_bases.get(index, PoincarePoly.zero()))
               for index in GOLDEN_DIMS]
    e1 = E1Table.from_dict({
        (spec.index, deg - spec.index): dim
        for spec in columns for deg, dim in column_contribution(spec).coeffs
    })

    aux_tables = (
        AuxTable(
            name="col38-base",
            table=E1Table.from_dict({(2, 3): 3, (3, 3): 3, (4, 3): 1, (2, 2): 1}),
            differentials=(),
            expected_total=_poly({4: 1, 5: 3, 6: 3, 7: 1}),
            note="second page over the line space for the type-38 stratum; "
                 "its total is killed by the symmetry action upstairs",
        ),
        AuxTable(
            name="col39-aux",
            table=E1Table.from_dict({(6, 7): 1, (8, 6): 1, (10, 6): 1, (12, 5): 1}),
            differentials=(DifferentialDecl(2, (8, 6), 1),
                           DifferentialDecl(2, (12, 5), 1)),
            expected_total=PoincarePoly.zero(),
            note="page for the type-39 stratum; two rank-1 differentials "
                 "cancel everything, so column 39 contributes 0",
        ),
        AuxTable(
            name="col39-fiber",
            table=E1Table.from_dict({(4, 1): 1, (5, 1): 2, (6, 1): 1}),
            differentials=(),
            expected_total=_poly({5: 1, 6: 2, 7: 1}),
            note="fiber row of the type-39 stratum: the product of two "
                 "pair-space factors times the degree-1 fiber class",
        ),
    )

    twisted_values = {
        # unordered pairs of nonzero complex numbers, the three sign systems
        "pairs-a1": _poly({2: 1, 3: 1}),
        "pairs-a2": PoincarePoly.zero(),
        "pairs-a3": _poly({2: 1, 3: 1}),
        # complement of four generic lines, sign system: cohomology and
        # locally finite homology agree in the middle degree
        "line-complement-sign": _poly({2: 1}),
        # generic unordered triples in the plane, locally finite homology
        "generic-triples-bm-constant": _poly({12: 1}),
        "generic-triples-bm-sign": _poly({6: 1}),
        "generic-triples-bm-standard2": _poly({8: 1, 10: 1}),
        # same space, cohomology
        "generic-triples-constant": PoincarePoly.one(),
        "generic-triples-sign": _poly({6: 1}),
        "generic-triples-standard2": _poly({2: 1, 4: 1}),
        # generic ordered triples in the plane, cohomology (even grading)
        "ordered-generic-triples": _poly({0: 1, 2: 2, 4: 2, 6: 1}),
        # unordered configurations in affine space with the sign system
        # vanish identically for two or more points
        "affine-configurations-sign": PoincarePoly.zero(),
    }

    return QuinticDataset(
        e1=e1,
        differentials=(),          # the main page degenerates
        columns=tuple(columns),
        aux_tables=aux_tables,
        twisted_values=twisted_values,
        expected_factors=(1, 3, 5),
    )


def quintic_poincare_pipeline() -> tuple:
    """Run the full pipeline on the stored dataset.

    Returns (final polynomial, discriminant total, table after differentials).
    """
    data = dataset_quintic()
    table = apply_differentials(data.e1, data.differentials)
    sigma_total = totalize(table)
    final = alexander_dualize(sigma_total, data.big_d)
    return final, sigma_total, table
