"""The 42 closed configuration types of singular plane quintics.

Each record is one type and one filtration column of the quintic sweep: its
point count ("nondiscrete" for a type with a full line, conic or the whole
plane), the dimension of the space of quintics singular along a generic
configuration of the type, and a description.  The ledger, the CLI and the
configuration reader take the type ids, point counts and dimensions from
this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import TaxonomyError


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


def verify_taxonomy_table() -> None:
    """Internal invariants of the golden table."""
    if len(TYPE_TABLE) != 42:
        raise TaxonomyError("taxonomy table must have 42 entries")
    dims = [rec.expected_dim for rec in TYPE_TABLE]
    if dims[0] != 18 or dims[-1] != 0:
        raise TaxonomyError("taxonomy table endpoints are wrong")
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise TaxonomyError("expected dimensions must be nonincreasing")
