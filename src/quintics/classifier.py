"""Every typing of a configuration against the 42-type taxonomy.

:func:`_classify_config` types a configuration: the whole plane, a lone
conic, one or two line components, or a point set, which goes to the one
size rule :func:`_classify_keys` that the subset walk :func:`_typed_subsets`
uses too.  :func:`_classify_grouped` is the decision tree for 3 to 10
distinct points of one field, given their collinear groups (the point indices
on each line through three or more of them, from ``projgeom._index_groups``
or ``projgeom._groups_of``); it returns the type in ``taxonomy`` whose
pattern they match, or None.  The groups answer every collinearity question;
conics are found in closed form by ``projgeom._unique_conic``.
``lsys.classify`` and ``lsys.check_conditions`` are the entry points.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .errors import InputError
from .exactalg import Field
from .projgeom import (
    Config,
    ProjPoint,
    _conic_key,
    _groups_of,
    _index_groups,
    _second_point_key,
    _unique_conic,
    collinear,
    incident,
)


def _pencil_partner(field: Field, base: Sequence[tuple], line: tuple, pt: tuple) -> Optional[tuple]:
    """Key of the second cut of the line with key ``line`` by the conic
    through the four base points and pt, all given by their keys."""
    q = _conic_key(field, list(base) + [pt])
    if q is None:
        return None
    try:
        return _second_point_key(field, q, line, pt)
    except InputError:
        return None


def _classify_pencil_quadruple(pts, key: tuple, on_line: set) -> Optional[int]:
    """Type 38: the four points off the line with key ``key`` are the base
    points of a pencil whose conics cut the line in the pairs of ``on_line``."""
    # No test for three collinear base points: a partner then falls off the set.
    field = pts[0].field
    base = [q.key for i, q in enumerate(pts) if i not in on_line]
    line_pts = [q.key for i, q in enumerate(pts) if i in on_line]
    partner = {}
    for pt in line_pts:
        mate = _pencil_partner(field, base, key, pt)
        if mate is None or mate == pt or mate not in line_pts:
            return None
        partner[pt] = mate
    pairs = {frozenset((a, b)) for a, b in partner.items()}
    if len(pairs) == 2 and all(partner[partner[p]] == p for p in line_pts):
        return 38
    return None


def _classify_triangle_conic(pts, sized: dict) -> Optional[int]:
    sides = [on for on in sized.values() if len(on) == 4]
    if len(sides) != 3 or any(len(on) > 4 for on in sized.values()):
        return None
    # Three four-point lines on nine points make 12 incidences, and two lines
    # share at most one point, so the sides meet pairwise in three distinct
    # points of the set, the vertices, and cover it.
    a, b, c = sides
    vertices = (a & b) | (a & c) | (b & c)
    # A vertex on the conic would put three points of a side on it: no test.
    six = [q for i, q in enumerate(pts) if i not in vertices]
    return None if _unique_conic(six) is None else 39


def _classify_five_lines(sized: dict) -> Optional[int]:
    # Five four-point lines on ten points make 20 incidences, and two lines
    # share at most one point, so each point lies on exactly two of them.
    lines = [on for on in sized.values() if len(on) == 4]
    if len(lines) != 5 or any(len(on) > 4 for on in sized.values()):
        return None
    return 40


def _classify_grouped(pts: tuple, groups: dict) -> Optional[int]:
    """:func:`classify_points` on 3 to 10 distinct points of one field,
    given their ``projgeom._index_groups``."""
    k = len(pts)
    if k == 3:
        return 3
    sized = {key: set(on) for key, on in groups.items() if len(on) >= 3}
    m = max((len(on) for on in sized.values()), default=2)
    if m == k:
        # all points on one line: types 4..10 are 4..10 collinear points
        return k
    if k == 4:
        return 12
    if k == 5:
        return 13 if m == 4 else 18
    if k == 6:
        if m == 5:
            return 14
        if m == 4:
            return 19
        if _disjoint_trios(sized):
            return 23
        # No four of the six points are collinear, so at most one conic
        # passes through them: two conics meeting in more than four points
        # share a line L, and the points off L lie on both residual lines,
        # which have one common point, so five points would lie on L.
        through = _unique_conic(pts)
        if through is None:
            return 26
        return None if through.is_degenerate() else 24
    if k == 7:
        return _classify_seven(pts, sized, m)
    if k == 8:
        return _classify_eight(pts, sized, m)
    if k == 9:
        return _classify_triangle_conic(pts, sized)
    return _classify_five_lines(sized)


def _disjoint_trios(sized: dict) -> bool:
    """True iff two of the three-point lines share no point."""
    trios = [on for on in sized.values() if len(on) == 3]
    return any(not (a & b) for a, b in combinations(trios, 2))


def _on_one_line(sized: dict, idx: set) -> bool:
    """True iff the three or more points with indices ``idx`` lie on one line."""
    return any(idx <= on for on in sized.values())


def _classify_seven(pts, sized, m) -> Optional[int]:
    if m == 6:
        return 15
    if m == 5:
        return 20
    if m == 4:
        four = [on for on in sized.values() if len(on) == 4]
        if len(four) == 2:
            # two four-point lines among seven points meet in one of them
            return 25
        if len(four) == 1:
            # A line through the other three cannot meet the four-point line
            # in a point of the set: that line would then carry four points.
            return 27 if _on_one_line(sized, set(range(7)) - four[0]) else 34
        return None
    # m <= 3.  Seven points on a nondegenerate conic have no three on a line,
    # so that conic is the only one through them.
    # Seven points with no collinear triple lie on no line pair: no test.
    if not sized and _unique_conic(pts) is not None:
        return 32
    if _disjoint_trios(sized):
        return 35
    for skip in range(7):
        six = _unique_conic([q for i, q in enumerate(pts) if i != skip])
        if six is not None and not six.is_degenerate() and not six.contains(pts[skip]):
            return 36
    return None


def _classify_eight(pts, sized, m) -> Optional[int]:
    if m == 7:
        return 16
    if m == 6:
        return 21
    if m == 5:
        (on_line,) = (on for on in sized.values() if len(on) == 5)
        return 28 if _on_one_line(sized, set(range(8)) - on_line) else None
    if m == 4:
        four = {key: on for key, on in sized.items() if len(on) == 4}
        if len(four) == 2:
            # Two lines share at most one point; when they share one, the
            # eighth point is on neither, since each group holds every point
            # of its line.
            s1, s2 = four.values()
            return 37 if s1 & s2 else 30
        if len(four) == 1:
            (key, on_line), = four.items()
            return _classify_pencil_quadruple(pts, key, on_line)
        return None
    return None


def _classify_config(cfg: Config) -> Optional[int]:
    """The type of ``cfg``, or None when no pattern fits: full components
    first, then the points.  A conic over GF(2) raises ``InputError``, as
    ``is_degenerate`` does."""
    if cfg.whole_plane:
        return 42
    if cfg.conics:
        lone = len(cfg.conics) == 1 and not cfg.lines and not cfg.points
        return 33 if lone and not cfg.conics[0].is_degenerate() else None
    if cfg.lines:
        return _classify_with_lines(cfg)
    return _classify_keys(cfg.points, cfg.field.p, [q.key for q in cfg.points])


def _classify_with_lines(cfg: Config) -> Optional[int]:
    if len(cfg.lines) == 2 and not cfg.points:
        return 31 if cfg.lines[0] != cfg.lines[1] else None
    if len(cfg.lines) != 1:
        return None
    comp = cfg.lines[0]
    pts = cfg.points
    if any(incident(q, comp) for q in pts):
        return None
    n = len(pts)
    if n <= 2:
        return (11, 17, 22)[n]
    if n == 3:
        # the points are off the component, so their line meets it off the set
        return 29 if collinear(*pts) else 41
    return None


def _classify_keys(pts: Sequence[ProjPoint], p: Optional[int], keys: Sequence) -> Optional[int]:
    """The type of the distinct points ``pts`` over GF(p), or QQ when ``p``
    is None, with keys ``keys``: at most three are typed by their count, 4
    to 10 by the decision tree on ``projgeom._groups_of`` of the keys, and
    more than ten get none."""
    k = len(pts)
    if k <= 3:
        return k or None
    return _classify_grouped(pts, _groups_of(p, keys)) if k <= 10 else None


def classify_points(points: Sequence[ProjPoint]) -> Optional[int]:
    """Classify a finite point set against the taxonomy; None when no type fits.

    Every collinearity fact comes from one :func:`projgeom._index_groups`
    call, kept as the set of point indices on each line through three or
    more of the points.  Repeated points raise ``InputError`` and points over
    different fields ``FieldMismatchError``, at every size.
    """
    pts = tuple(points)
    k = len(pts)
    if 3 <= k <= 10:
        return _classify_grouped(pts, _index_groups(pts))
    if pts:
        Config(pts[0].field, points=pts)  # one field, no repeated point
    return k if 1 <= k <= 2 else None


def _typed_subsets(cfg: Config):
    """Yield (points, type) for the points of a finite configuration, then
    for each proper nonempty subset of them by size, each size in
    combinations order, typed by :func:`_classify_keys` on keys read once."""
    pts = cfg.points
    p = cfg.field.p
    reps = [q.key for q in pts]
    yield pts, _classify_keys(pts, p, reps)
    for r in range(1, len(pts)):
        for sub_reps, sub in zip(combinations(reps, r), combinations(pts, r)):
            yield sub, _classify_keys(sub, p, sub_reps)
