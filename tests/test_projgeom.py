import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintics.errors import InputError, SamplingError
from quintics.exactalg import QQ, DenseMatrix, PrimeField, kernel, parse_field
from quintics.formats import config_to_json, value_list
from quintics.rng import SplitMix64
from quintics.lsys import classify, sample_quartic_contact_system
from quintics.projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _no_collinear_triple,
    collinear,
    conic_line_second_point,
    conic_through,
    hausdorff,
    incident,
    line_groups,
    line_intersection,
    line_through,
    on_common_conic,
    points_on_line_basis,
    tangent,
    veronese,
)
from quintics.sampling import (
    _only_allowed_collinear,
    apply_transform_to_config,
    apply_transform_to_point,
    conic_from_line_pair,
    random_projective_transform,
    sample_generic,
    sample_generic_points,
)

FP = PrimeField(65521)


def pt(*coords, field=QQ):
    return ProjPoint(field, coords)


def ln(*coeffs, field=QQ):
    return ProjLine(field, coeffs)


# --- incidence -------------------------------------------------------------

def test_incident_examples():
    z_axis_line = ln(0, 0, 1)  # the line z = 0
    assert not incident(pt(0, 0, 1), z_axis_line)
    assert incident(pt(1, 0, 0), z_axis_line)
    assert incident(pt(1, 1, 1), ln(1, -1, 0))


def test_collinear_examples():
    assert collinear(pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0))
    assert not collinear(pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1))
    # determinant of [[1,0,1],[0,1,1],[1,1,2]] vanishes
    assert collinear(pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 2))
    with pytest.raises(InputError):
        collinear(pt(1, 0, 0), pt(1, 0, 0), pt(0, 0, 1))


def test_point_normalization_canonical():
    assert pt(2, 4, 6) == pt(1, 2, 3)
    assert pt(0, 3, 6).coords == (0, 1, 2)
    with pytest.raises(InputError):
        pt(0, 0, 0)


@pytest.mark.parametrize("field", [QQ, PrimeField(101)])
def test_point_and_line_hashes_are_the_dataclass_hash(field):
    a = ProjPoint(field, (2, 3, 5))
    b = ProjPoint(field, (1, -7, 4))
    c = ProjPoint(field, (0, 1, 9))
    d = ProjPoint(field, (4, 0, -3))
    built = [a, b, ProjLine(field, (3, 1, -2)),
             line_through(a, b),  # from the line's integer key
             line_intersection(line_through(a, b), line_through(c, d))]
    for obj in built:
        triple = obj.coords if isinstance(obj, ProjPoint) else obj.coeffs
        assert hash(obj) == hash((field, triple))
        assert hash(obj) == hash(type(obj)(field, triple))
    assert line_through(a, b) == ProjLine(field, line_through(a, b).coeffs)
    assert {line_through(a, b), line_through(b, a)} == {line_through(a, b)}


# --- conics ----------------------------------------------------------------

def _points_on_standard_conic(params):
    # the conic x*y = z^2 carries the rational points (s^2, t^2, s*t)
    return [pt(s * s, t * t, s * t) for s, t in params]


def test_six_points_on_conic():
    pts = _points_on_standard_conic([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)])
    assert on_common_conic(pts)


def test_five_on_conic_plus_generic_point_off():
    pts = _points_on_standard_conic([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    pts.append(pt(1, 1, 1))  # x*y - z^2 = 0 at (1,1,1): 1 - 1 = 0, so pick off-conic
    assert Conic(QQ, (0, 0, -1, 1, 0, 0)).contains(pt(1, 1, 1))
    pts[-1] = pt(1, 2, 3)  # 2 - 9 != 0
    # independent oracle: 6x6 Veronese determinant via kernel dimension
    m = DenseMatrix(QQ, [veronese(q) for q in pts], 6)
    assert kernel(m).dim == 0
    assert not on_common_conic(pts)


def test_three_collinear_plus_three_on_explicit_line_pair():
    l1 = ln(0, 0, 1)
    l2 = ln(1, 0, 0)
    trio1 = [pt(1, 0, 0), pt(1, 1, 0), pt(1, 2, 0)]
    trio2 = [pt(0, 1, 1), pt(0, 1, 2), pt(0, 1, 3)]
    pts = trio1 + trio2
    assert on_common_conic(pts)
    pair = conic_from_line_pair(l1, l2)
    assert all(pair.contains(q) for q in pts)
    assert pair.is_degenerate()


def test_three_collinear_plus_three_generic_lie_on_no_conic():
    # a conic through three collinear points must contain their line, so it
    # exists exactly when the remaining three points are collinear as well
    trio = [pt(1, 0, 0), pt(1, 1, 0), pt(1, 2, 0)]
    generic = [pt(0, 0, 1), pt(1, 1, 1), pt(1, 2, 5)]
    assert not collinear(*generic)
    assert not on_common_conic(trio + generic)


def test_tangency_discriminant_unit_circle_family():
    # conic x^2 + y^2 - z^2 against the vertical lines x = alpha * z:
    # tangency happens exactly at alpha = 1 (and -1)
    circle = Conic(QQ, (1, 1, -1, 0, 0, 0))
    assert tangent(circle, ln(1, 0, -1))
    assert not tangent(circle, ln(1, 0, -2))


def test_tangency_discriminant_pencil_family():
    # family a x^2 + a y^2 + b xy - a z^2 with a = 1, b = 1, line x = 2 z:
    # the discriminant value is (b*2)^2 - 4*4 + 4 = 4b^2 - 12, nonzero for b = 1
    conic = Conic(QQ, (1, 1, -1, 1, 0, 0))
    assert not tangent(conic, ln(1, 0, -2))


def test_tangency_matches_closed_form_over_pencil_sweep():
    # tangency of a x^2 + a y^2 + b xy - a z^2 against x = alpha z happens
    # exactly when (b alpha)^2 - 4 a^2 alpha^2 + 4 a^2 vanishes
    for a in range(1, 4):
        for b in range(0, 4):
            conic = Conic(QQ, (a, a, -a, b, 0, 0))
            for alpha in range(1, 4):
                formula_zero = (b * alpha) ** 2 - 4 * a * a * alpha * alpha \
                    + 4 * a * a == 0
                assert tangent(conic, ln(1, 0, -alpha)) == formula_zero


def test_secant_line_is_not_tangent():
    circle = Conic(QQ, (1, 1, -1, 0, 0, 0))
    secant = line_through(pt(1, 0, 1), pt(0, 1, 1))
    assert not tangent(circle, secant)


def test_line_inside_conic_rejected():
    pair = conic_from_line_pair(ln(0, 0, 1), ln(1, 0, 0))
    with pytest.raises(InputError):
        tangent(pair, ln(0, 0, 1))


def test_conic_predicates_refuse_characteristic_two():
    # over GF(2) the doubled matrix has determinant 2deg = 0 for every conic
    # and B^2 - 4AC reduces to B^2; xy + z^2 is smooth all the same
    fp2 = PrimeField(2)
    conic = Conic(fp2, (0, 0, 1, 1, 0, 0))
    with pytest.raises(InputError, match="characteristic 2"):
        conic.is_degenerate()
    with pytest.raises(InputError, match="characteristic 2"):
        tangent(conic, ProjLine(fp2, (1, 0, 0)))
    with pytest.raises(InputError, match="characteristic 2"):
        classify(Config(fp2, conics=(conic,)))
    assert not Conic(PrimeField(3), (0, 0, 1, 1, 0, 0)).is_degenerate()


def test_conic_line_second_point():
    circle = Conic(QQ, (1, 1, -1, 0, 0, 0))
    chord = line_through(pt(1, 0, 1), pt(0, 1, 1))
    other = conic_line_second_point(circle, chord, pt(1, 0, 1))
    assert other == pt(0, 1, 1)
    tangent_line = ln(1, 0, -1)  # touches at (1, 0, 1)
    assert conic_line_second_point(circle, tangent_line, pt(1, 0, 1)) is None


def test_conic_through_five_points():
    pts = _points_on_standard_conic([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    conic = conic_through(pts)
    assert conic is not None
    assert all(conic.contains(q) for q in pts)
    assert not conic.is_degenerate()


# --- samplers ----------------------------------------------------------------

def test_sample_type1_single_point():
    cfg = sample_generic(1, FP, 7)
    assert len(cfg.points) == 1 and not cfg.lines and not cfg.conics


def test_sample_type4_four_collinear_over_qq():
    cfg = sample_generic(4, QQ, 1)
    assert len(cfg.points) == 4
    base = line_through(cfg.points[0], cfg.points[1])
    assert all(incident(q, base) for q in cfg.points)


def test_sample_type24_on_nondegenerate_conic():
    cfg = sample_generic(24, FP, 3)
    assert on_common_conic(cfg.points)
    conic = conic_through(list(cfg.points[:5]))
    assert conic is not None and not conic.is_degenerate()
    assert all(conic.contains(q) for q in cfg.points)


def test_sampler_exhaustion_over_tiny_field():
    from quintics.errors import SamplingError

    # a projective line over GF(5) has six points; ten distinct ones cannot exist
    with pytest.raises(SamplingError):
        sample_generic(10, PrimeField(5), 0)


@pytest.mark.parametrize("type_id,p", [(10, 5), (7, 5), (28, 3), (40, 2)])
def test_sampler_refuses_too_many_points_on_a_line_before_any_draw(type_id, p, monkeypatch):
    import quintics.sampling as sampling_mod
    from quintics.errors import SamplingError

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    with pytest.raises(SamplingError, match=f"type {type_id} .*fp:{p}"):
        sample_generic(type_id, PrimeField(p), 0)


class _CountingRng(SplitMix64):
    """A SplitMix64 that counts its calls; over GF(p) each coordinate is one."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def below(self, bound):
        self.calls += 1
        return super().below(bound)


def test_distinct_draw_keeps_its_guard_semantics():
    from quintics.sampling import _Draw, _Reject

    field = PrimeField(101)
    draw = _Draw(field, _CountingRng(3))

    def one_value():
        return draw.coord()

    assert draw.distinct(0, one_value) == []
    assert draw.rng.calls == 0
    got = draw.distinct(20, one_value, avoid=range(10), skip=lambda v: v % 2 == 0)
    assert len(got) == len(set(got)) == 20
    assert all(v >= 10 and v % 2 for v in got)
    # a value every draw refuses: _Reject after exactly ``limit`` draws
    for limit in (1, 7, 200):
        draw.rng.calls = 0
        with pytest.raises(_Reject):
            draw.distinct(1, one_value, skip=lambda v: True, limit=limit)
        assert draw.rng.calls == limit
    # n values reached on the last allowed draw still succeed
    draw.rng.calls = 0
    assert len(draw.distinct(3, one_value, limit=3)) == 3
    assert draw.rng.calls == 3
    # five values over and over: a sixth distinct one never comes
    cycle = iter(range(10 ** 6))
    with pytest.raises(_Reject):
        draw.distinct(6, lambda: next(cycle) % 5, limit=50)
    assert next(cycle) == 50


def _type36_feasible(p):
    # exhaustive over the six-subsets of the conic xz = y^2: is there one with
    # a point of the plane off the conic and off the 15 secants of the six?
    conic = [(1, t, t * t % p) for t in range(p)] + [(0, 0, 1)]
    plane = [(1, y, z) for y in range(p) for z in range(p)]
    plane += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    off_conic = [q for q in plane if (q[0] * q[2] - q[1] * q[1]) % p]

    def has_seventh_point(six):
        secants = [(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0]) for a, b in combinations(six, 2)]
        return any(all(sum(u * v for u, v in zip(q, s)) % p for s in secants)
                   for q in off_conic)

    return any(has_seventh_point(six) for six in combinations(conic, 6))


def test_sampler_refuses_type36_over_small_primes_before_any_draw(monkeypatch):
    import quintics.sampling as sampling_mod
    from quintics.errors import SamplingError

    # GF(2) and GF(3) have fewer than six conic points; GF(5) and GF(7) have
    # six-subsets, none of which leaves a valid seventh point
    feasible = {p: _type36_feasible(p) for p in (2, 3, 5, 7, 11)}
    assert feasible == {2: False, 3: False, 5: False, 7: False, 11: True}

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    for p, ok in feasible.items():
        if ok:
            with pytest.raises(AssertionError, match="drew"):
                sample_generic(36, PrimeField(p), 0)
        else:
            with pytest.raises(SamplingError, match=f"type 36 .*fp:{p}"):
                sample_generic(36, PrimeField(p), 0)


def _arcs_through_frame(p):
    # Every 5- or 6-arc contains four points in general position, which a
    # projectivity maps to the frame below; collinearity and lying on a conic
    # are projectively invariant, so extending the frame decides existence.
    # Returns (a 5-arc exists, a 6-arc on no conic exists) over GF(p).
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    plane = [(1, y, z) for y in range(p) for z in range(p)]
    plane += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]

    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) % p

    def is_arc(pts):
        return all(det(*trio) for trio in combinations(pts, 3))

    fifth = [q for q in plane if q not in frame and is_arc(frame + [q])]

    # The conics through the frame are d(xy - yz) + e(xz - yz); six points
    # lie on one iff the rows of the two extra points are dependent.
    def conic_row(q):
        x, y, z = q
        return x * y - y * z, x * z - y * z

    def off_every_conic(a, b):
        (ra, sa), (rb, sb) = conic_row(a), conic_row(b)
        return (ra * sb - sa * rb) % p != 0

    six = any(is_arc(frame + [a, b]) and off_every_conic(a, b)
              for a, b in combinations(fifth, 2))
    return bool(fifth), six


def test_sampler_refuses_small_fields_for_types_18_and_26_before_any_draw(monkeypatch):
    import quintics.sampling as sampling_mod
    from quintics.errors import SamplingError
    from quintics.rng import SplitMix64

    primes = (2, 3, 5, 7, 11)
    arcs = {p: _arcs_through_frame(p) for p in primes}
    assert min(p for p in primes if arcs[p][0]) == sampling_mod._MIN_PRIME[18] == 5
    assert min(p for p in primes if arcs[p][1]) == sampling_mod._MIN_PRIME[26] == 7

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    for type_id, k in ((18, 0), (26, 1)):
        for p in primes:
            if arcs[p][k]:
                with pytest.raises(AssertionError, match="drew"):
                    sample_generic(type_id, PrimeField(p), 0)
            else:
                with pytest.raises(SamplingError, match=f"^type {type_id} needs .* over fp:{p}$"):
                    sample_generic(type_id, PrimeField(p), 0)
    monkeypatch.undo()
    five = sample_generic(18, PrimeField(5), 0).points
    assert len(five) == 5 and _no_collinear_triple(five)
    six = sample_generic(26, PrimeField(7), 0).points
    assert len(six) == 6 and _no_collinear_triple(six) and not on_common_conic(six)


def test_on_common_conic_requires_six_distinct_points():
    pts5 = _points_on_standard_conic([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    with pytest.raises(InputError):
        on_common_conic(pts5)
    with pytest.raises(InputError):
        on_common_conic(pts5 + [pts5[0], pts5[1]])


def test_incident_field_mismatch():
    from quintics.errors import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        incident(pt(1, 0, 0), ProjLine(FP, (0, 0, 1)))


def test_intersect_ambient_mismatch():
    from quintics.exactalg import SubspaceBasis, intersect as isect

    a = SubspaceBasis(QQ, 3, ((1, 0, 0),))
    b = SubspaceBasis(QQ, 4, ((1, 0, 0, 0),))
    with pytest.raises(InputError):
        isect(a, b)


def test_sampler_determinism():
    a = sample_generic(19, FP, 123)
    b = sample_generic(19, FP, 123)
    assert a == b
    c = sample_generic(19, FP, 124)
    assert a != c
    d = sample_generic(38, QQ, 11)
    e = sample_generic(38, QQ, 11)
    assert d == e


def test_predicates_are_projectively_invariant():
    for seed in range(3):
        m = random_projective_transform(QQ, seed)
        trio = [pt(1, 0, 1), pt(0, 1, 1), pt(1, 1, 2)]  # collinear
        image = [apply_transform_to_point(m, q) for q in trio]
        assert collinear(*image)
        conic_pts = _points_on_standard_conic(
            [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)])
        image6 = [apply_transform_to_point(m, q) for q in conic_pts]
        assert on_common_conic(image6)


# --- metric ------------------------------------------------------------------

def test_hausdorff_identical_sets():
    k = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))]
    assert hausdorff(k, k).value == 0


def test_hausdorff_sums_both_deviations():
    # both directional maxima contribute: the distance is their SUM
    assert hausdorff([(0,)], [(1,)]).value == 2


def test_hausdorff_one_sided_example():
    assert hausdorff([(0,), (1,)], [(0,)]).value == 1


def test_hausdorff_rejects_empty_and_offchart():
    with pytest.raises(InputError):
        hausdorff([], [(0,)])
    with pytest.raises(InputError):
        hausdorff([ProjPoint(QQ, (1, 0, 0))], [(0, 0)])


coord = st.integers(min_value=-20, max_value=20).map(Fraction)
point2 = st.tuples(coord, coord)
finite_set = st.lists(point2, min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(finite_set, finite_set)
def test_hausdorff_symmetry(k, l):
    assert hausdorff(k, l).value == hausdorff(l, k).value


@settings(max_examples=150, deadline=None)
@given(finite_set, finite_set, finite_set)
def test_hausdorff_triangle_inequality(k, l, m):
    assert hausdorff(k, m).value <= hausdorff(k, l).value + hausdorff(l, m).value


@settings(max_examples=100, deadline=None)
@given(finite_set, finite_set)
def test_hausdorff_zero_iff_equal(k, l):
    value = hausdorff(k, l).value
    assert (value == 0) == (set(k) == set(l))


# --- line groups: the one collinearity primitive -------------------------------

def _reference_line_groups(points):
    # the classifier's former construction: each pair's line, then a scan of
    # every point for incidence
    groups = {}
    for a, b in combinations(points, 2):
        line = line_through(a, b)
        if line not in groups:
            groups[line] = tuple(q for q in points if incident(q, line))
    return groups


def _reference_collinear_lines(points):
    return {line_through(a, b) for a, b, c in combinations(points, 3) if collinear(a, b, c)}


def _line_group_cases(field):
    cases = []
    for t in range(1, 43):
        for seed in (1, 2):
            try:
                cfg = sample_generic(t, field, seed)
            except SamplingError:
                continue  # over GF(7) some types need more points than a line has
            if cfg.is_finite():
                cases.append(list(cfg.points))
    # planted lines: five points on one line, four on another, more points off
    # both; over GF(7) the union also picks up incidental collinear sets
    for seed in range(4):
        five = sample_generic(5, field, seed).points
        four = sample_generic(4, field, 50 + seed).points
        extra = sample_generic_points(3, field, 90 + seed).points
        cases.append(list(dict.fromkeys(five + four + extra)))
        cases.append(list(dict.fromkeys(extra + four + five)))
    return cases


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(65521)],
                         ids=["qq", "fp7", "fp65521"])
def test_line_groups_matches_incidence_scan(field):
    planted = 0
    for points in _line_group_cases(field):
        groups = line_groups(points)
        assert list(groups.items()) == list(_reference_line_groups(points).items())
        collinear_lines = _reference_collinear_lines(points)
        assert _no_collinear_triple(points) == (not collinear_lines)
        sized = [line for line, on in groups.items() if len(on) >= 3]
        planted += any(len(on) == 5 for on in groups.values()) \
            and any(len(on) == 4 for on in groups.values())
        for allowed in (sized, sized[1:], sized[:-1], []):
            assert _only_allowed_collinear(points, allowed) == (collinear_lines <= set(allowed))
        if len(points) >= 2:
            for bad in (points + [points[0]], [points[-1]] + points):
                with pytest.raises(InputError):
                    line_groups(bad)
                with pytest.raises(InputError):
                    _no_collinear_triple(bad)
                with pytest.raises(InputError):
                    _only_allowed_collinear(bad, sized)
    assert planted >= 4


def _fraction_line(a, b):
    # the join by Fraction arithmetic, normalized by ProjLine itself
    (x1, y1, z1), (x2, y2, z2) = a.coords, b.coords
    return ProjLine(QQ, (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2))


def _large_rational_points(rng):
    def big():
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))

    def point():
        return pt(big(), big(), big())

    points = [point() for _ in range(4)]
    for size in (3, 4, 5):
        a, b = point(), point()
        for _ in range(size):
            s, t = big(), big()
            points.append(pt(*(s * u + t * v for u, v in zip(a.coords, b.coords))))
    rng.shuffle(points)
    return points


def test_line_groups_on_large_rationals_match_fraction_joins():
    import random

    rng = random.Random(20011)
    for _ in range(3):
        points = _large_rational_points(rng)
        assert max(c.denominator for q in points for c in q.coords) > 10 ** 9
        reference = {}
        for a, b in combinations(points, 2):
            line = _fraction_line(a, b)
            assert line_through(a, b) == line
            if line not in reference:
                reference[line] = tuple(q for q in points if incident(q, line))
        groups = line_groups(points)
        assert list(groups.items()) == list(reference.items())
        assert sorted(len(on) for on in groups.values() if len(on) >= 3) == [3, 4, 5]
        assert all(line.coeffs == ProjLine(QQ, line.coeffs).coeffs for line in groups)
        for p1, p2, p3 in combinations(points[:8], 3):
            assert collinear(p1, p2, p3) == incident(p3, _fraction_line(p1, p2))


def test_line_groups_refuse_coincident_points_and_mixed_fields():
    from quintics.errors import FieldMismatchError

    for field in (QQ, PrimeField(7), FP):
        a, b = pt(1, 2, 3, field=field), pt(1, 0, 5, field=field)
        for points in ([a, b, pt(2, 4, 6, field=field)], [a, a], [b, a, b]):
            with pytest.raises(InputError, match="coincident"):
                line_groups(points)
            with pytest.raises(InputError, match="coincident"):
                _no_collinear_triple(points)
    with pytest.raises(FieldMismatchError):
        line_groups([pt(1, 2, 3), pt(1, 0, 5, field=PrimeField(7))])
    with pytest.raises(FieldMismatchError):
        line_through(pt(1, 2, 3), pt(1, 0, 5, field=PrimeField(7)))


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=["qq", "fp7", "fp101"])
def test_points_on_line_basis_is_the_kernel_basis(field):
    values = (1, 3, -2, Fraction(5, 3))
    for pattern in range(1, 8):
        for vals in combinations(values, bin(pattern).count("1")):
            it = iter(vals)
            line = ProjLine(field, tuple(next(it) if pattern >> i & 1 else 0 for i in range(3)))
            basis = kernel(DenseMatrix(field, [line.coeffs], 3)).basis
            expected = tuple(ProjPoint(field, v) for v in basis)
            assert points_on_line_basis(line) == expected
            assert all(incident(q, line) for q in expected)


# --- samples and their transforms, against stored results ----------------------

SAMPLE_FIELDS = ("fp:65521", "fp:101", "qq")
SAMPLES = Path(__file__).resolve().parent / "data" / "samples.expected.json"
# Further seeds over the same fields, and seed 1 over two small primes where
# rejections are frequent.
WIDE_SAMPLE_RUNS = (("qq", (2, 3)), ("fp:65521", (2, 3)), ("fp:101", (2, 3)),
                    ("fp:7", (1,)), ("fp:11", (1,)))
WIDE_SAMPLES = Path(__file__).resolve().parent / "data" / "samples_wide.expected.json"


def _sample_entries(runs, key) -> dict:
    """``sample_generic(t, field, seed)`` for every type, field and seed of
    ``runs``, with its image under ``random_projective_transform(field, 5)``.

    A value holds the sample and its image as ``config_to_json`` dicts, or the
    message of the ``SamplingError`` raised; ``key(name, seed, t)`` names it.
    """
    out = {}
    for name, seeds in runs:
        field = parse_field(name)
        m = random_projective_transform(field, 5)
        for seed in seeds:
            for t in range(1, 43):
                try:
                    cfg = sample_generic(t, field, seed)
                except SamplingError as exc:
                    out[key(name, seed, t)] = {"SamplingError": str(exc)}
                    continue
                out[key(name, seed, t)] = {
                    "sample": config_to_json(cfg),
                    "image": config_to_json(apply_transform_to_config(m, cfg)),
                }
    return out


def _samples() -> dict:
    """Seed 1 over ``SAMPLE_FIELDS``, keyed "<field> type <t>".

    The stored file was written by this function before the field arithmetic
    moved from ``Field`` methods to Python operators, one key per line:
    ``json.dumps`` of each key and of its value (no spaces, sorted keys),
    joined as a JSON object.
    """
    return _sample_entries([(name, (1,)) for name in SAMPLE_FIELDS],
                           lambda name, seed, t: f"{name} type {t}")


def _wide_samples() -> dict:
    """``WIDE_SAMPLE_RUNS``, keyed "<field> seed <s> type <t>".

    The stored file was written in the same layout as ``samples.expected.json``
    before the samplers' collinearity tests moved to integer line keys.
    """
    return _sample_entries(WIDE_SAMPLE_RUNS,
                           lambda name, seed, t: f"{name} seed {seed} type {t}")


def test_samples_and_transforms_match_stored():
    stored = json.loads(SAMPLES.read_text(encoding="utf-8"))
    assert _samples() == stored
    assert len(stored) == 3 * 42


def test_wide_samples_and_transforms_match_stored():
    stored = json.loads(WIDE_SAMPLES.read_text(encoding="utf-8"))
    assert list(_wide_samples().items()) == list(stored.items())
    assert len(stored) == 8 * 42


POINT_AND_QUARTIC_FIELDS = ("qq", "fp:101", "fp:7")
POINT_AND_QUARTIC_SAMPLES = (Path(__file__).resolve().parent / "data"
                             / "samples_points_quartic.expected.json")


def _point_and_quartic_samples() -> dict:
    """``sample_generic_points(k, field, seed)`` for k = 1..8 and the rows of
    ``sample_quartic_contact_system(field, seed)``, seeds 1..3, over
    ``POINT_AND_QUARTIC_FIELDS``, keyed "<field> seed <s> k <k>" and
    "<field> seed <s> quartic".

    A value is a ``config_to_json`` dict, the matrix rows as value lists, or
    the message of the ``SamplingError`` raised.  The stored file was written
    in the layout of ``samples.expected.json`` before the samplers' rejection
    loops were folded into one guarded draw and one bounded retry.
    """
    out = {}
    for name in POINT_AND_QUARTIC_FIELDS:
        field = parse_field(name)
        for seed in (1, 2, 3):
            for k in range(1, 9):
                try:
                    value = config_to_json(sample_generic_points(k, field, seed))
                except SamplingError as exc:
                    value = {"SamplingError": str(exc)}
                out[f"{name} seed {seed} k {k}"] = value
            rows = sample_quartic_contact_system(field, seed).rows
            out[f"{name} seed {seed} quartic"] = [value_list(field, row) for row in rows]
    return out


def test_point_and_quartic_samples_match_stored():
    stored = json.loads(POINT_AND_QUARTIC_SAMPLES.read_text(encoding="utf-8"))
    assert list(_point_and_quartic_samples().items()) == list(stored.items())
    assert len(stored) == 3 * 3 * 9
