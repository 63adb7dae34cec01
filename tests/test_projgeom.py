import json
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintics.errors import InputError, SamplingError
from quintics.exactalg import QQ, PrimeField, _kernel_rows, parse_field
from quintics.formats import config_to_json, value_list
from quintics.rng import SplitMix64, derive_seed
from quintics.lsys import classify
from quintics.projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _adjugate,
    _conic_key,
    _conic_value,
    _degenerate,
    _from_key,
    _groups_of,
    _join_key,
    _normalize,
    _only_allowed_collinear,
    _pairing,
    _pullback,
    collinear,
    conic_line_second_point,
    conic_through,
    hausdorff,
    incident,
    line_intersection,
    line_through,
    on_common_conic,
    points_on_line_basis,
    veronese,
)
from quintics.sampling import (
    _Draw,
    _off_joins_clear,
    apply_transform_to_config,
    apply_transform_to_point,
    random_projective_transform,
    sample_generic,
    sample_generic_points,
    sample_quartic_contact_system,
)

FP = PrimeField(65521)


def pt(*coords, field=QQ):
    return ProjPoint(field, coords)


def ln(*coeffs, field=QQ):
    return ProjLine(field, coeffs)


def _allowed_only(points, lines):
    """``_only_allowed_collinear`` on the keys of points and lines of one
    field."""
    return _only_allowed_collinear(points[0].field.p, [q.key for q in points],
                                   [line.key for line in lines])


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


@pytest.mark.parametrize("p", [7, 65521])
def test_normalize_over_fp_reduces_every_kind_of_value(p):
    # the reference reduces each value as a Fraction, then scales by the
    # inverse of the first nonzero residue
    field = PrimeField(p)

    def reference(values):
        res = [Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in values]
        lead = next((v for v in res if v), None)
        return lead and tuple(v * pow(lead, -1, p) % p for v in res)

    rng = SplitMix64(derive_seed(53, p))
    kinds = [lambda: rng.int_in(-3 * p, 3 * p),                 # negative and >= p
             lambda: p * rng.int_in(-2, 2),                       # zero residues
             lambda: Fraction(rng.int_in(-40, 40), rng.int_in(1, p - 1)),
             lambda: str(rng.int_in(-p - 5, p + 5)),
             lambda: f"{rng.int_in(-9, 9)}/{rng.int_in(1, p - 1)}"]
    for n in (3, 6) * 200:
        values = [kinds[rng.below(len(kinds))]() for _ in range(n)]
        want = reference(values)
        if want:
            assert _normalize(field, values) == want, values
        else:
            with pytest.raises(InputError, match="^homogeneous coordinates must not all vanish$"):
                _normalize(field, values)
    assert _normalize(field, [0, 0, p + 3]) == (0, 0, 1)
    assert _normalize(field, (-1, "3", Fraction(1, 2), 2 * p, p - 1, 5)) == \
        reference((-1, 3, Fraction(1, 2), 0, -1, 5))
    for zero in ([0, p, -p], [Fraction(p, 2), "0", -3 * p], [0] * 6, ["0", str(p)] * 3):
        with pytest.raises(InputError, match="^homogeneous coordinates must not all vanish$"):
            _normalize(field, zero)


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
        # the dataclass hash is the hash of the field tuple (field, key)
        assert hash(obj) == hash((field, obj.key))
        assert hash(obj) == hash(type(obj)(field, obj.key))
    assert line_through(a, b) == ProjLine(field, line_through(a, b).coeffs)
    assert {line_through(a, b), line_through(b, a)} == {line_through(a, b)}


_qq_entry = st.one_of(st.integers(min_value=-40, max_value=40),
                      st.fractions(min_value=-40, max_value=40, max_denominator=15))
_qq_kinds = st.sampled_from([(ProjPoint, 3, "coords"), (ProjLine, 3, "coeffs"),
                             (Conic, 6, "coeffs")])


@settings(max_examples=200, deadline=None)
@given(_qq_kinds, st.data())
def test_qq_keys_are_primitive_and_decide_equality(kind, data):
    cls, n, view = kind
    # entries in {-1, 0, 1} make equal twins common
    vectors = st.one_of(st.lists(_qq_entry, min_size=n, max_size=n),
                        st.lists(st.integers(-1, 1), min_size=n, max_size=n)).filter(any)
    vals, other = data.draw(vectors), data.draw(vectors)
    scalar = data.draw(_qq_entry.filter(bool))
    obj = cls(QQ, tuple(vals))
    key = obj.key
    assert all(type(v) is int for v in key)
    assert gcd(*key) == 1 and next(v for v in key if v) > 0
    # the view is the normalization points, lines and conics used to store
    lead = next(Fraction(v) for v in vals if v)
    assert getattr(obj, view) == tuple(Fraction(v) / lead for v in vals)
    assert all(type(v) is Fraction for v in getattr(obj, view))
    for multiple in ([2 * v for v in vals], [-v for v in vals], [scalar * v for v in vals]):
        same = cls(QQ, tuple(multiple))
        assert same == obj and same.key == key and hash(same) == hash(obj)
    twin = cls(QQ, tuple(other))
    assert (twin == obj) == (twin.key == key) == (getattr(twin, view) == getattr(obj, view))
    if twin == obj:
        assert hash(twin) == hash(obj)


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
    assert _kernel_rows(QQ, [veronese(q) for q in pts], 6).dim == 0
    assert not on_common_conic(pts)


def test_three_collinear_plus_three_on_explicit_line_pair():
    trio1 = [pt(1, 0, 0), pt(1, 1, 0), pt(1, 2, 0)]
    trio2 = [pt(0, 1, 1), pt(0, 1, 2), pt(0, 1, 3)]
    pts = trio1 + trio2
    assert on_common_conic(pts)
    pair = Conic(QQ, (0, 0, 0, 0, 1, 0))  # xz = 0, the lines z = 0 and x = 0
    assert all(pair.contains(q) for q in pts)
    assert pair.is_degenerate()


def test_three_collinear_plus_three_generic_lie_on_no_conic():
    # a conic through three collinear points must contain their line, so it
    # exists exactly when the remaining three points are collinear as well
    trio = [pt(1, 0, 0), pt(1, 1, 0), pt(1, 2, 0)]
    generic = [pt(0, 0, 1), pt(1, 1, 1), pt(1, 2, 5)]
    assert not collinear(*generic)
    assert not on_common_conic(trio + generic)


def test_conic_predicates_refuse_characteristic_two():
    # over GF(2) the doubled matrix has determinant 2deg = 0 for every conic;
    # xy + z^2 is smooth all the same
    fp2 = PrimeField(2)
    conic = Conic(fp2, (0, 0, 1, 1, 0, 0))
    with pytest.raises(InputError, match="characteristic 2"):
        conic.is_degenerate()
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


@pytest.mark.parametrize("p", [5, 7])
def test_conic_line_second_point_matches_enumeration(p):
    """On every conic of a seeded sample over GF(p), every line through each
    of its points: the second cut is the other conic point the line's p + 1
    points hold, None when the line holds only the known one, and a line
    inside the conic is refused."""
    from quintics.lsys import plane_points

    f = PrimeField(p)
    plane = plane_points(p)
    lines = [ProjLine(f, q.key) for q in plane]
    rng = SplitMix64(derive_seed(43, p))
    coeffs = [tuple(rng.below(p) for _ in range(6)) for _ in range(12)]
    coeffs += [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0)]
    for key in coeffs:
        if not any(key):
            continue
        conic = Conic(f, key)
        for known in (q for q in plane if conic.contains(q)):
            for line in (ln_ for ln_ in lines if incident(known, ln_)):
                on_both = [q for q in plane if incident(q, line) and conic.contains(q)]
                if len(on_both) == p + 1:
                    with pytest.raises(InputError, match="component"):
                        conic_line_second_point(conic, line, known)
                    continue
                others = [q for q in on_both if q != known]
                want = others[0] if others else None
                assert conic_line_second_point(conic, line, known) == want, (key, known, line)


def test_conic_through_five_points():
    pts = _points_on_standard_conic([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    conic = conic_through(pts)
    assert conic is not None
    assert all(conic.contains(q) for q in pts)
    assert not conic.is_degenerate()


# --- closed-form conics against the Veronese kernel ---------------------------

def _matches_kernel(pts) -> tuple:
    """Check the closed-form conic predicates on distinct points of one field
    against the kernel of their Veronese rows; returns the kernel dimension
    and whether the unique conic is degenerate (None when there is none)."""
    pts = tuple(pts)
    field = pts[0].field
    basis = _kernel_rows(field, [veronese(q) for q in pts], 6).basis
    expected = Conic(field, basis[0]) if len(basis) == 1 else None
    assert _conic_key(field, [q.key for q in pts]) == (None if expected is None else expected.key), pts
    if len(pts) == 5:
        assert conic_through(pts) == expected, pts
    if len(pts) == 6:
        assert on_common_conic(pts) == bool(basis), pts
    # the degeneracy test needs odd characteristic
    split = None if expected is None or field.p == 2 else expected.is_degenerate()
    return len(basis), split


@pytest.mark.parametrize("p, sets", [(2, 21 + 7 + 1), (3, 1287 + 1716 + 1716)])
def test_closed_form_conics_match_the_kernel_on_every_small_plane_set(p, sets):
    from quintics.lsys import plane_points

    plane = plane_points(p)
    outcomes = {}
    for k in (5, 6, 7):
        for sub in combinations(plane, k):
            outcome = (k,) + _matches_kernel(sub)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert sum(outcomes.values()) == sets
    # no conic and a unique conic occur on both planes, a pencil on PG(2, 3)
    assert {dim for _, dim, _ in outcomes} == ({0, 1} if p == 2 else {0, 1, 2})
    if p == 3:
        # a nondegenerate conic has four points over GF(3): only line pairs
        assert {split for _, dim, split in outcomes if dim == 1} == {True}


def _sweep_set(rng: SplitMix64, field, bound: int) -> list:
    """5 to 9 distinct points: random ones, points on the join of two
    earlier ones (collinear triples), five or six on one line, or six on a
    conic, the images of (s^2, st, t^2) under a random matrix.  After 50
    draws that add no point, the next one is a random point."""

    def draw():
        return rng.int_in(-bound, bound) if field.p is None else rng.below(field.p)

    k = rng.int_in(5, 9)
    shape = rng.below(4)
    on_line = 5 + rng.below(2)
    matrix = [[draw() for _ in range(3)] for _ in range(3)]
    pts = []
    stuck = 0
    while len(pts) < k:
        s, t = draw(), draw()
        if stuck > 50:
            coords = (s, t, draw())
        elif shape == 1 and len(pts) >= 2:
            a, b = pts[rng.below(len(pts))], pts[rng.below(len(pts))]
            coords = tuple(s * u + t * v for u, v in zip(a.key, b.key))
        elif shape == 2 and 2 <= len(pts) < on_line:
            coords = tuple(s * u + t * v for u, v in zip(pts[0].key, pts[1].key))
        elif shape == 3 and len(pts) < 6:
            coords = tuple(row[0] * s * s + row[1] * s * t + row[2] * t * t for row in matrix)
        else:
            coords = (s, t, draw())
        q = None if all(field.is_zero(v) for v in coords) else ProjPoint(field, coords)
        if q is None or q in pts:
            stuck += 1
        else:
            pts.append(q)
            stuck = 0
    return pts


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(7), PrimeField(101), FP, QQ],
                         ids=str)
def test_closed_form_conics_match_the_kernel_on_a_seeded_sweep(field):
    rng = SplitMix64(24)
    outcomes = set()
    for _ in range(400):
        pts = _sweep_set(rng, field, 12)
        outcomes.add((len(pts) >= 6,) + _matches_kernel(pts))
    assert {dim for _, dim, _ in outcomes} == {0, 1, 2, 3}
    # six or more points on a nondegenerate conic, and on a line pair
    assert {(True, 1, False), (True, 1, True)} <= outcomes

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


@pytest.mark.parametrize("type_id,p", [(10, 5), (7, 5), (28, 3), (38, 2), (39, 2), (40, 2)])
def test_sampler_refuses_too_many_points_on_a_line_before_any_draw(type_id, p, monkeypatch):
    import quintics.sampling as sampling_mod
    from quintics.errors import SamplingError

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    with pytest.raises(SamplingError,
                       match=f"^type {type_id} needs .* distinct points on one line, .*fp:{p} "):
        sample_generic(type_id, PrimeField(p), 0)


@pytest.mark.parametrize("name", ["fp:65521", "fp:101", "fp:11", "qq"])
def test_samples_realize_exactly_their_declared_structure(name):
    # the lines through three or more points of a sample and the largest sets
    # of six or more of its points on one nondegenerate conic are the lines
    # and conics its type declares, and it carries the declared components
    from quintics.taxonomy import TYPE_TABLE

    field = parse_field(name)
    for rec in TYPE_TABLE:
        s = rec.structure
        for seed in (1, 2):
            cfg = sample_generic(rec.type_id, field, seed)
            pts = cfg.points
            assert (len(pts), cfg.whole_plane) == (s.points, s.whole_plane)
            assert (len(cfg.lines), len(cfg.conics)) == (
                (0, s.components) if s.conics else (s.components, 0))
            keys = [q.key for q in pts]
            rich = {frozenset(on) for on in _groups_of(field.p, keys).values() if len(on) >= 3}
            assert rich == {frozenset(on) for on in s.lines if on}, (rec.type_id, seed)
            on_conics = set()
            for six in combinations(keys, 6):
                conic = _conic_key(field, six)
                if conic is not None and not _degenerate(field, conic):
                    on_conics.add(frozenset(
                        i for i, q in enumerate(keys) if field.is_zero(_conic_value(conic, q))))
            assert on_conics == {frozenset(on) for on in s.conics if on}, (rec.type_id, seed)


SMALL_FIELD_SAMPLES = Path(__file__).resolve().parent / "data" / "samples_small_fields.expected.json"


def test_small_field_samples_and_refusals_match_stored():
    # ``sample_generic(t, GF(p), 1)`` for every type at p = 2, 3 and 5, keyed
    # "<field> type <t>": a ``config_to_json`` dict, or the class and message
    # of the error that refuses it.  Stored in the layout of
    # ``samples.expected.json`` before the sampler read its constructions
    # and refusals off the taxonomy's structures.
    out = {}
    for p in (2, 3, 5):
        field = PrimeField(p)
        for t in range(1, 43):
            try:
                value = config_to_json(sample_generic(t, field, 1))
            except (InputError, SamplingError) as exc:
                value = [type(exc).__name__, str(exc)]
            out[f"{field} type {t}"] = value
    stored = json.loads(SMALL_FIELD_SAMPLES.read_text(encoding="utf-8"))
    assert list(out.items()) == list(stored.items())
    assert sum(isinstance(v, list) for v in stored.values()) == 72


class _CountingRng(SplitMix64):
    """A SplitMix64 that counts the 64-bit words it gives, at ``next_u64``,
    the one primitive every draw reaches, batched or not; over GF(p), p below
    2^64, each coordinate is one word unless the top range rejects it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def next_u64(self):
        self.calls += 1
        return super().next_u64()


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


def test_distinct_counts_a_none_as_one_rejected_draw():
    from quintics.sampling import _Reject

    draw = _Draw(PrimeField(101), _CountingRng(0))
    made = []

    def stub(values):
        stream = iter(values)

        def make():
            made.append(next(stream))
            return made[-1]
        return make

    # a None is a drawn, rejected candidate, never returned
    assert draw.distinct(2, stub([None, 1, None, None, 2]), limit=5) == [1, 2]
    assert made == [None, 1, None, None, 2]
    made.clear()
    with pytest.raises(_Reject):
        draw.distinct(2, stub([None, 1, None, None, 2]), limit=4)
    assert made == [None, 1, None, None]
    # nothing but None: _Reject after exactly ``limit`` draws
    for limit in (1, 4, 64):
        made.clear()
        with pytest.raises(_Reject):
            draw.distinct(1, stub([None] * 100), limit=limit)
        assert len(made) == limit
    # a value in ``avoid``, one ``skip`` accepts and a repeat are all refused,
    # and ``skip`` is asked only about values the other two let through
    made.clear()
    asked = []
    got = draw.distinct(3, stub([1, 2, 1, 3, 4, 5, 6]), avoid=[2],
                        skip=lambda v: asked.append(v) or v == 4)
    assert got == [1, 3, 5]
    assert made == [1, 2, 1, 3, 4, 5]
    assert asked == [1, 3, 4, 5]
    assert draw.rng.calls == 0
    # a line that runs out of points: _Reject after exactly 64 n + 64 points,
    # each drawn by one call of point_on, the function that draws one
    # candidate of a line
    line = (0, 0, 1)
    small = _Draw(PrimeField(3), _CountingRng(0))
    point_on = small.point_on
    small.point_on = lambda ln: made.append(ln) or point_on(ln)
    made.clear()
    with pytest.raises(_Reject):
        small.distinct_points_on(line, 5)
    assert made == [line] * (64 * 5 + 64)
    # each candidate draws its (s, t) from two words at least
    assert small.rng.calls >= 2 * len(made)


@pytest.mark.parametrize("field", [FP, PrimeField(101), PrimeField(7), QQ], ids=str)
def test_sampled_parts_equal_their_public_construction(field):
    # the sampler builds each part with _from_key, which trusts its key: the
    # public constructor, from the key and from the normalized view, must
    # build the same object, so every key it was handed was normalized
    built = 0
    for type_id in range(1, 43):
        for seed in (1, 2, 3):
            try:
                cfg = sample_generic(type_id, field, seed)
            except SamplingError:
                assert field.p == 7 and type_id in (9, 10, 36)
                continue
            for cls, parts, view in ((ProjPoint, cfg.points, "coords"),
                                     (ProjLine, cfg.lines, "coeffs"),
                                     (Conic, cfg.conics, "coeffs")):
                for obj in parts:
                    for coords in (obj.key, getattr(obj, view)):
                        again = cls(field, coords)
                        assert type(obj) is cls and again == obj, (type_id, seed, obj)
                        assert again.key == obj.key and hash(again) == hash(obj)
                    built += 1
    assert built >= 3 * 200


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
    from quintics.rng import SplitMix64, derive_seed

    primes = (2, 3, 5, 7, 11)
    arcs = {p: _arcs_through_frame(p) for p in primes}
    assert min(p for p in primes if arcs[p][0]) == sampling_mod._MIN_PRIME[18][0] == 5
    assert min(p for p in primes if arcs[p][1]) == sampling_mod._MIN_PRIME[26][0] == 7

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
    assert len(five) == 5 and _allowed_only(five, ())
    six = sample_generic(26, PrimeField(7), 0).points
    assert len(six) == 6 and _allowed_only(six, ()) and not on_common_conic(six)


# The types refused over GF(3) beyond the line capacity and types 18, 26 and
# 36, each with the number of lines its construction allows through three or
# more of its points.
GF3_REFUSED_LINES = {19: 1, 24: 0, 32: 0, 34: 1, 35: 2, 37: 2, 38: 1, 39: 3, 40: 5}

# The types refused over GF(5) as well; _gf5_configurations searches for them.
GF5_REFUSED = {21, 32, 34, 35, 37, 38}


def test_no_point_set_of_pg23_qualifies_for_a_refused_type():
    # Every set of 4 to 10 points of PG(2,3) is classified; a set the sampler
    # of type t could return has type t and no line through three or more of
    # its points but the construction's own.
    from quintics.classifier import _classify_grouped
    from quintics.lsys import plane_points

    field = PrimeField(3)
    plane = [q.key for q in plane_points(3)]
    typed = 0
    for k in range(4, 11):
        for sub in combinations(plane, k):
            groups = _groups_of(3, sub)
            type_id = _classify_grouped(field, sub, groups)
            if type_id in GF3_REFUSED_LINES:
                typed += 1
                rich = sum(len(on) >= 3 for on in groups.values())
                assert rich > GF3_REFUSED_LINES[type_id], (type_id, sub)
    assert typed == 468 + 936 + 468 + 468  # types 19, 34, 35 and 37


def test_sampler_refuses_gf3_types_before_any_attempt(monkeypatch):
    import quintics.sampling as sampling_mod

    def no_attempts(*args):
        raise AssertionError("the sampler tried before refusing")

    assert ({t for t, (p, _) in sampling_mod._MIN_PRIME.items() if p == 5}
            == {18} | set(GF3_REFUSED_LINES) - GF5_REFUSED)
    monkeypatch.setattr(sampling_mod, "_retry", no_attempts)
    for type_id in GF3_REFUSED_LINES:
        for seed in (0, 1):
            with pytest.raises(SamplingError, match=f"^type {type_id} needs .* over fp:3$"):
                sample_generic(type_id, PrimeField(3), seed)
        if type_id not in GF5_REFUSED | {24}:
            with pytest.raises(AssertionError, match="tried"):
                sample_generic(type_id, PrimeField(5), 0)
    monkeypatch.undo()
    for type_id in GF3_REFUSED_LINES:
        assert sample_generic(type_id, PrimeField(7), 0).type_id == type_id


def test_sampler_refuses_type24_over_gf5_before_any_draw(monkeypatch):
    # all six points of a conic over GF(5) make a type-24 configuration, but
    # the construction draws t in GF(5) and so reaches only five of them
    import quintics.sampling as sampling_mod
    from quintics.lsys import plane_points

    f = PrimeField(5)
    conic = Conic(f, (0, -1, 0, 0, 1, 0))  # xz = y^2
    six = [q for q in plane_points(5) if conic.contains(q)]
    assert len(six) == 6 and classify(Config(f, points=six)) == 24
    rngs = []

    def counting(seed):
        rngs.append(_CountingRng(seed))
        return rngs[-1]

    monkeypatch.setattr(sampling_mod, "SplitMix64", counting)
    for seed in (0, 1, 2):
        with pytest.raises(SamplingError, match=r"^type 24 needs 6 points of one conic; "
                           r"such configurations exist over fp:5, .* only 5 of the conic's 6$"):
            sample_generic(24, f, seed)
    assert sum(rng.calls for rng in rngs) == 0
    assert sample_generic(24, PrimeField(7), 0).type_id == 24
    assert sum(rng.calls for rng in rngs) > 0


def _pencil_quadruples(p: int) -> int:
    """The number of point sets of PG(2,p) that type 38's construction could
    return with the standard frame as its base points: the frame and two cut
    pairs of a line off it by distinct nondegenerate conics through the frame,
    with no other line through three of the points.  Any four points with no
    three collinear are the frame after a change of coordinates."""
    from quintics.lsys import plane_points

    f = PrimeField(p)
    base = [pt(1, 0, 0, field=f), pt(0, 1, 0, field=f), pt(0, 0, 1, field=f), pt(1, 1, 1, field=f)]
    plane = plane_points(p)
    found = 0
    for line in (ProjLine(f, q.key) for q in plane):
        if any(incident(b, line) for b in base):
            continue
        cuts = set()
        for q in plane:
            if not incident(q, line):
                continue
            conic = conic_through(base + [q])
            if conic is None or conic.is_degenerate():
                continue
            other = conic_line_second_point(conic, line, q)
            if other is not None and other != q:
                cuts.add((frozenset({q, other}), conic))
        found += sum(c1 != c2 and _allowed_only(base + list(a | b), [line])
                     for (a, c1), (b, c2) in combinations(cuts, 2))
    return found


def _gf5_configurations() -> dict:
    """For each type of GF5_REFUSED, and for type 19 as a control, the number
    of point sets of PG(2,5) its construction could draw that pass its check
    (no line but the drawn ones through three of the points).  The drawn
    lines are fixed: PGL(3) acts transitively on lines and on pairs of lines,
    and every nondegenerate conic is xz = y^2 in some coordinates."""
    from quintics.lsys import plane_points

    f = PrimeField(5)
    l1, l2 = ProjLine(f, (0, 0, 1)), ProjLine(f, (0, 1, 0))
    meet = line_intersection(l1, l2)
    plane = plane_points(5)
    on1 = [q for q in plane if incident(q, l1)]
    off1 = [q for q in plane if not incident(q, l1)]
    off12 = [q for q in off1 if not incident(q, l2)]
    conic = Conic(f, (0, -1, 0, 0, 1, 0))  # xz = y^2
    trios = [list(a + b) for a in combinations([q for q in on1 if q != meet], 3)
             for b in combinations([q for q in plane if incident(q, l2) and q != meet], 3)]

    def on_one_line(k, off):
        return sum(_allowed_only(list(on + rest), [l1])
                   for on in combinations(on1, k) for rest in combinations(off1, off))

    return {
        19: on_one_line(4, 2),
        21: on_one_line(6, 2),
        34: on_one_line(4, 3),
        35: sum(_allowed_only(t + [x], [l1, l2]) for t in trios for x in off12),
        37: sum(_allowed_only(t + [meet, x], [l1, l2]) for t in trios for x in off12),
        32: sum(1 for _ in combinations([q for q in plane if conic.contains(q)], 7)),
        38: _pencil_quadruples(5),
    }


def test_sampler_refuses_gf5_types_before_any_draw(monkeypatch):
    import quintics.sampling as sampling_mod

    found = _gf5_configurations()
    assert found.pop(19) > 0
    assert _pencil_quadruples(7) == 3
    assert found == dict.fromkeys(GF5_REFUSED, 0)
    assert GF5_REFUSED <= {t for t, (p, _) in sampling_mod._MIN_PRIME.items() if p == 7}

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    for type_id in GF5_REFUSED:
        with pytest.raises(SamplingError, match=f"^type {type_id} needs .* over fp:5$"):
            sample_generic(type_id, PrimeField(5), 0)
    monkeypatch.undo()
    for type_id in GF5_REFUSED:
        assert sample_generic(type_id, PrimeField(7), 0).type_id == type_id


def _seeded_matrices(field, seed: int, n: int) -> list:
    draw = _Draw(field, SplitMix64(seed))
    return [[draw.coords(3) for _ in range(3)] for _ in range(n)]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), FP], ids=str)
def test_adjugate_times_matrix_is_det_times_identity(field):
    for m in _seeded_matrices(field, 25, 40) + [[[1, 2, 3], [2, 4, 6], [0, 1, 5]]]:
        det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) \
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) \
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        adj = _adjugate(m)
        for i in range(3):
            for j in range(3):
                entry = sum(adj[i][k] * m[k][j] for k in range(3))
                assert field.is_zero(entry - (det if i == j else 0)), (m, i, j)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), FP], ids=str)
def test_pullback_is_the_form_at_the_moved_point(field):
    draw = _Draw(field, SplitMix64(26))
    forms = [draw.coords(6) for _ in range(30)] + [(0, -1, 0, 0, 1, 0), (0, 0, 0, 3, -2, 5)]
    for q, rows in zip(forms, _seeded_matrices(field, 27, len(forms))):
        pulled = _pullback(q, rows)
        for _ in range(5):
            x = draw.coords(3)
            moved = [sum(r * v for r, v in zip(row, x)) for row in rows]
            assert field.is_zero(_conic_value(pulled, x) - _conic_value(q, moved)), (q, rows, x)


def test_points_on_drawn_lines_put_three_on_no_other_line():
    # Every line of PG(2,5) but two lines l1 and l2 meets their union in at
    # most two points, so _on_lines with off=0 need not check collinearity.
    from quintics.lsys import plane_points

    f = PrimeField(5)
    plane = plane_points(5)
    lines = [ProjLine(f, q.key) for q in plane]
    for l1, l2 in combinations(lines, 2):
        union = [q for q in plane if incident(q, l1) or incident(q, l2)]
        assert len(union) == 11
        assert all(sum(incident(q, ln) for q in union) <= 2 for ln in lines if ln not in (l1, l2))
    # the builders draw their points on one line or two and add only the meet
    for type_id, n_lines in ((4, 1), (5, 1), (6, 1), (23, 2), (25, 2), (27, 2), (28, 2), (30, 2)):
        for seed in range(3):
            pts = sample_generic(type_id, f, seed).points
            rich = [set(on) for on in _groups_of(5, [q.key for q in pts]).values() if len(on) >= 3]
            assert len(rich) == n_lines and set().union(*rich) == set(range(len(pts)))


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(7), QQ], ids=["fp5", "fp7", "qq"])
def test_off_joins_clear_agrees_with_only_allowed_collinear(field):
    # the shape _on_lines draws: points on one drawn line or two, perhaps
    # their meet, and off points on neither, all as keys.  Half the sets get
    # one more off point, put at a random place among them, on the join of an
    # off point and another point, so that QQ fails the check too.
    p = field.p
    draw = _Draw(field, SplitMix64(derive_seed(61, p or 0)))
    rng = draw.rng
    answers = []
    for _ in range(300):
        lines = draw.distinct(rng.int_in(1, 2), draw.line)
        meets = [_join_key(p, *lines)] if len(lines) == 2 else []
        on = meets[:rng.below(2)]
        for line in lines:
            on += draw.distinct(rng.int_in(0, 4), partial(draw.point_on, line),
                                avoid=meets + on)
        off = draw.distinct(rng.int_in(1, 3), draw.point,
                            skip=lambda q: any(not _pairing(p, line, q) for line in lines))
        others = on + off[:-1]
        if others and rng.below(2):
            r = others[rng.below(len(others))]
            third = ProjPoint(field, [a + b for a, b in zip(off[-1], r)]).key
            if third not in on + off and all(_pairing(p, line, third) for line in lines):
                off.insert(rng.below(len(off) + 1), third)
        want = _only_allowed_collinear(p, on + off, lines)
        assert _off_joins_clear(p, on, off) == want, (on, off, lines)
        answers.append(want)
    assert answers.count(True) >= 30 and answers.count(False) >= 30


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(11), QQ], ids=str)
def test_off_joins_clear_decides_a_point_off_six_conic_points(field):
    # the shape _conic_points draws for type 36: six points of a
    # nondegenerate conic, no three of them on a line, and a point q off the
    # conic.  A line through three of the seven then passes through q, so
    # the six joins from q decide what the 21 pairs decide.  Half the off
    # points are put on the secant through two of the six, off the conic,
    # which plants a collinear triple.
    from quintics.sampling import _reference_conic_points

    p = field.p
    draw = _Draw(field, SplitMix64(derive_seed(62, p or 0)))
    rng = draw.rng
    answers = []
    for _ in range(200):
        conic, six = _reference_conic_points(draw, 6)
        assert not conic.is_degenerate()

        def on_conic(q):
            return field.is_zero(_conic_value(conic.key, q))

        if rng.below(2):
            i, j = draw.distinct(2, partial(rng.below, 6))
            s, t = draw.distinct(2, draw.coord, avoid=[0])
            q = ProjPoint(field, [s * a + t * b for a, b in zip(six[i], six[j])]).key
        else:
            (q,) = draw.distinct(1, draw.point, avoid=six, skip=on_conic)
        assert q not in six and not on_conic(q)
        want = _only_allowed_collinear(p, six + [q])
        assert _off_joins_clear(p, six, [q]) == want, (six, q)
        answers.append(want)
    # over GF(7) every point off the conic lies on a secant of the six, and
    # over GF(11) few points avoid all 15 secants
    assert answers.count(False) >= 80
    assert answers.count(True) == 0 if p == 7 else answers.count(True) >= (5 if p else 80)


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
    assert hausdorff(k, k) == 0


def test_hausdorff_sums_both_deviations():
    # both directional maxima contribute: the distance is their SUM
    assert hausdorff([(0,)], [(1,)]) == 2


def test_hausdorff_one_sided_example():
    assert hausdorff([(0,), (1,)], [(0,)]) == 1


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
    assert hausdorff(k, l) == hausdorff(l, k)


@settings(max_examples=150, deadline=None)
@given(finite_set, finite_set, finite_set)
def test_hausdorff_triangle_inequality(k, l, m):
    assert hausdorff(k, m) <= hausdorff(k, l) + hausdorff(l, m)


@settings(max_examples=100, deadline=None)
@given(finite_set, finite_set)
def test_hausdorff_zero_iff_equal(k, l):
    value = hausdorff(k, l)
    assert (value == 0) == (set(k) == set(l))


# --- line groups: the one collinearity primitive -------------------------------

def _line_groups(points):
    # the index grouping read back with one ProjLine per line key
    pts = tuple(points)
    field = pts[0].field
    return {_from_key(ProjLine, field, key): tuple(pts[i] for i in on)
            for key, on in _groups_of(field.p, [q.key for q in pts]).items()}


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


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101), PrimeField(65521)],
                         ids=["qq", "fp7", "fp101", "fp65521"])
def test_line_groups_matches_incidence_scan(field):
    planted = 0
    for points in _line_group_cases(field):
        groups = _line_groups(points)
        assert list(groups.items()) == list(_reference_line_groups(points).items())
        collinear_lines = _reference_collinear_lines(points)
        sized = [line for line, on in groups.items() if len(on) >= 3]
        planted += any(len(on) == 5 for on in groups.values()) \
            and any(len(on) == 4 for on in groups.values())
        for allowed in (sized, sized[1:], sized[:-1], []):
            assert _allowed_only(points, allowed) == (collinear_lines <= set(allowed))
        if len(points) >= 2:
            # the repeated point makes the first, a middle and the last pair
            # of the batched joins coincident, then pairs with the first point
            mid = len(points) // 2
            for bad in ([points[0]] + points, points[:mid] + [points[mid - 1]] + points[mid:],
                        points + [points[-1]], points + [points[0]], [points[-1]] + points):
                with pytest.raises(InputError):
                    _line_groups(bad)
                with pytest.raises(InputError):
                    _allowed_only(bad, ())
                with pytest.raises(InputError):
                    _allowed_only(bad, sized)
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
        groups = _line_groups(points)
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
                _line_groups(points)
            with pytest.raises(InputError, match="coincident"):
                _allowed_only(points, ())
    # classify_points refuses mixed fields before grouping, at every size
    # (test_lsys.test_classify_points_refuses_repeats_and_mixed_fields_at_every_size)
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
            basis = _kernel_rows(field, [line.coeffs], 3).basis
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

    A value is a ``config_to_json`` dict, the system's rows as value lists, or
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
            rows = sample_quartic_contact_system(field, seed)
            out[f"{name} seed {seed} quartic"] = [value_list(field, row) for row in rows]
    return out


def test_point_and_quartic_samples_match_stored():
    stored = json.loads(POINT_AND_QUARTIC_SAMPLES.read_text(encoding="utf-8"))
    assert list(_point_and_quartic_samples().items()) == list(stored.items())
    assert len(stored) == 3 * 3 * 9
