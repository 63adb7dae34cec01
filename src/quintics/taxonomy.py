"""The 42 closed configuration types of singular plane quintics.

Each record is one type and one filtration column of the quintic sweep: the
dimension of the space of quintics singular along a generic configuration of
the type, a description, and the type's structure, the one statement of its
incidences: its points, the points on each of its lines and conics, its full
components and the whole plane.  The point count ("nondiscrete" for a type
with a component or the whole plane) is read off the structure.  The ledger,
the CLI and the configuration reader take the type ids, point counts and
dimensions from this table, and the sampler its constructions and refusals.
"""

from __future__ import annotations

from itertools import combinations
from typing import Union

from ._value import _Value
from .errors import TaxonomyError


class _Structure(_Value):
    """``points`` marked points; ``lines`` and ``conics`` hold the indices of
    the points on each declared line and nondegenerate conic, in the order
    the sampler's construction returns the points.  The first ``components``
    lines, or the conic, are full components, with no indices."""

    __slots__ = ("points", "lines", "conics", "components", "whole_plane")

    def __init__(self, points: int = 0, lines: tuple = (), conics: tuple = (),
                 components: int = 0, whole_plane: bool = False):
        self._set(points, lines, conics, components, whole_plane)


class ConfigTypeRecord(_Value):
    __slots__ = ("type_id", "expected_dim", "description", "structure")

    def __init__(self, type_id: int, expected_dim: int, description: str,
                 structure: _Structure):
        self._set(type_id, expected_dim, description, structure)

    @property
    def k_points(self) -> Union[int, str]:  # the point count, or "nondiscrete"
        s = self.structure
        return "nondiscrete" if s.components or s.whole_plane else s.points


TYPE_TABLE: tuple = tuple(ConfigTypeRecord(*row) for row in (
    (1, 18, "one point", _Structure(1)),
    (2, 15, "two points", _Structure(2)),
    (3, 12, "three points", _Structure(3)),
    (4, 11, "four points on a line", _Structure(4, (range(4),))),
    (5, 10, "five points on a line", _Structure(5, (range(5),))),
    (6, 10, "six points on a line", _Structure(6, (range(6),))),
    (7, 10, "seven points on a line", _Structure(7, (range(7),))),
    (8, 10, "eight points on a line", _Structure(8, (range(8),))),
    (9, 10, "nine points on a line", _Structure(9, (range(9),))),
    (10, 10, "ten points on a line", _Structure(10, (range(10),))),
    (11, 10, "a full line", _Structure(0, ((),), components=1)),
    (12, 9, "four points not all on a line", _Structure(4)),
    (13, 8, "four points on a line plus one off it", _Structure(5, (range(4),))),
    (14, 7, "five points on a line plus one off it", _Structure(6, (range(5),))),
    (15, 7, "six points on a line plus one off it", _Structure(7, (range(6),))),
    (16, 7, "seven points on a line plus one off it", _Structure(8, (range(7),))),
    (17, 7, "a full line plus one point off it", _Structure(1, ((),), components=1)),
    (18, 6, "five points, no four on a line", _Structure(5)),
    (19, 5, "four points on a line plus two off it", _Structure(6, (range(4),))),
    (20, 4, "five points on a line plus two off it", _Structure(7, (range(5),))),
    (21, 4, "six points on a line plus two off it", _Structure(8, (range(6),))),
    (22, 4, "a full line plus two points off it", _Structure(2, ((),), components=1)),
    (23, 4, "three points on each of two lines, intersection free",
     _Structure(6, (range(3), range(3, 6)))),
    (24, 4, "six points on a nondegenerate conic", _Structure(6, conics=(range(6),))),
    (25, 4, "two three-point lines plus their intersection point",
     _Structure(7, ((0, 1, 2, 6), (3, 4, 5, 6)))),
    (26, 3, "six points on no conic, no four on a line", _Structure(6)),
    (27, 3, "four points on one line, three on another, intersection free",
     _Structure(7, (range(4), range(4, 7)))),
    (28, 3, "five points on one line plus three on another line off it",
     _Structure(8, (range(5), range(5, 8)))),
    (29, 3, "a full line plus three collinear points off it",
     _Structure(3, ((), range(3)), components=1)),
    (30, 3, "four points on each of two lines, intersection free",
     _Structure(8, (range(4), range(4, 8)))),
    (31, 3, "a pair of full lines", _Structure(0, ((), ()), components=2)),
    (32, 3, "seven points on a nondegenerate conic", _Structure(7, conics=(range(7),))),
    (33, 3, "a full nondegenerate conic", _Structure(0, conics=((),), components=1)),
    (34, 2, "four points on a line plus three generic points off it", _Structure(7, (range(4),))),
    (35, 1, "two three-point lines plus a point off both", _Structure(7, (range(3), range(3, 6)))),
    (36, 1, "six points on a nondegenerate conic plus a point off it",
     _Structure(7, conics=(range(6),))),
    (37, 1, "two three-point lines, their intersection, and a free point",
     _Structure(8, ((0, 1, 2, 6), (3, 4, 5, 6)))),
    (38, 1, "four generic base points plus four cuts of a line by two conics through them",
     _Structure(8, (range(4, 8),), ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 6, 7)))),
    (39, 1, "a triangle of three generic points plus six cuts of its sides by a conic",
     _Structure(9, ((0, 1, 3, 4), (1, 2, 5, 6), (0, 2, 7, 8)), (range(3, 9),))),
    (40, 1, "the ten pairwise intersections of five generic lines", _Structure(10, tuple(
        tuple(i for i, ab in enumerate(combinations(range(5), 2)) if j in ab) for j in range(5)))),
    (41, 1, "a full line plus three generic points off it", _Structure(3, ((),), components=1)),
    (42, 0, "the whole plane", _Structure(whole_plane=True)),
))


def _peel_bound(s: _Structure, d: int = 5) -> int:
    """A lower bound on the dimension of the degree-d forms singular along
    any configuration of structure ``s`` whose points lie on its declared
    lines and conics: the Bezout peel of the structure alone.

    The state is a degree e, d less twice the degree of the full components
    (a form singular along a component is divisible by its square), and an
    order m = 2 at each marked point.  Rule L: a declared line whose points'
    orders sum to more than e is peeled, e -= 1, and each order on it drops
    by one.  Rule C: the same for a declared conic, against 2e, and e -= 2.
    The product of the peeled curves times any degree-e form of order m at
    each point is singular along the configuration, since each curve passes
    through its declared points.  That containment holds on every such
    configuration, so the system has dimension at least C(e + 2, 2) less
    the m(m + 1)/2 conditions of each point, and at least 0; e < 0 gives 0.
    By Bezout each step is also an equivalence: a form of degree e meeting
    a line, or a nondegenerate conic, in more than e, or 2e, points counted
    with their orders contains it.  So on the declared structure nothing is
    lost, and for every type at d = 5 the bound is the golden dimension
    (``verify_taxonomy_table``).
    """
    if s.whole_plane:
        return 0
    e = d - 2 * sum(1 for ln in s.lines if not ln) - 4 * sum(1 for q in s.conics if not q)
    orders = [2] * s.points
    curves = [(1, ln) for ln in s.lines if ln] + [(2, q) for q in s.conics if q]
    while e >= 0:
        hit = next((c for c in curves if sum(orders[i] for i in c[1]) > c[0] * e), None)
        if hit is None:
            break
        e -= hit[0]
        for i in hit[1]:
            orders[i] = max(orders[i] - 1, 0)
    if e < 0:
        return 0
    return max((e + 1) * (e + 2) // 2 - sum(m * (m + 1) // 2 for m in orders), 0)


GOLDEN_DIMS = {rec.type_id: rec.expected_dim for rec in TYPE_TABLE}
K_POINTS = {rec.type_id: rec.k_points for rec in TYPE_TABLE}


def verify_taxonomy_table() -> None:
    """Internal invariants of the golden table."""
    if len(TYPE_TABLE) != 42:
        raise TaxonomyError("taxonomy table must have 42 entries")
    dims = [rec.expected_dim for rec in TYPE_TABLE]
    if dims[0] != 18 or dims[-1] != 0:
        raise TaxonomyError("taxonomy table endpoints are wrong")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise TaxonomyError("expected dimensions must be nonincreasing")
    for rec in TYPE_TABLE:
        if _peel_bound(rec.structure) != rec.expected_dim:
            raise TaxonomyError(f"type {rec.type_id}: the peel bound of its structure "
                                f"is not its expected dimension")
