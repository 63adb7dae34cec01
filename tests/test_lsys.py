import importlib.util
import json
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest

from quintics.classifier import _typed_subsets, classify_points
from quintics.errors import InputError, SamplingError
from quintics.exactalg import (
    QQ,
    PrimeField,
    SubspaceBasis,
    _kernel_rows,
    _slot_width,
    intersect,
    parse_field,
    rank_rows,
)
from quintics import lsys
from quintics.lsys import (
    _division,
    _fp_point_dim,
    _live_columns,
    _monomial_values,
    _packed_point_rows,
    _point_rows,
    _products,
    _system_rows,
    _value_rows,
    HomogeneousPoly,
    SingularSet,
    check_conditions,
    classify,
    conic_poly,
    divisibility_subspace,
    line_poly,
    linear_system_basis,
    linear_system_dim,
    monomial_basis,
    plane_points,
    random_poly,
    singular_points_bruteforce,
    singular_set_bruteforce,
    singularity_rows,
    space_dim,
)
from quintics.projgeom import (
    Config,
    Conic,
    ProjLine,
    ProjPoint,
    _det3,
    _frame,
    _from_key,
    _groups_of,
    _int_key,
    _line_basis,
    collinear,
    incident,
    line_intersection,
    points_on_line_basis,
)
from quintics.rng import SplitMix64, derive_seed
from quintics.sampling import (
    apply_transform_to_config,
    random_projective_transform,
    sample_generic,
    sample_generic_points,
    sample_quartic_contact_system,
)
from quintics.sieve import (
    _SLOT_BYTES,
    _horner,
    _packed_columns,
    _peel_line_components,
    _singular_keys,
)
from quintics.taxonomy import (
    GOLDEN_DIMS,
    K_POINTS,
    TYPE_TABLE,
    _peel_bound,
    verify_taxonomy_table,
)

FP = PrimeField(65521)


def pt(*coords, field=QQ):
    return ProjPoint(field, coords)


def _evaluation_row(a, d):
    # the single row expressing f(a) = 0 on degree-d coefficient vectors over QQ
    return _monomial_values(a.coords, d, None)


def _stacked_point_rows(cfg, d=5):
    # the singularity rows of the marked points only, on degree-d forms
    return [row for a in cfg.points for row in singularity_rows(a, d)]


def _line_groups(points):
    # the index grouping read back with one ProjLine per line key
    pts = tuple(points)
    field = pts[0].field
    return {_from_key(ProjLine, field, key): tuple(pts[i] for i in on)
            for key, on in _groups_of(field.p, [q.key for q in pts]).items()}


# --- monomials ---------------------------------------------------------------

def test_monomial_basis_sizes():
    assert len(monomial_basis(5)) == 21
    assert len(monomial_basis(1)) == 3
    assert len(monomial_basis(3)) == 10
    assert space_dim(5) == 21


def test_monomial_basis_graded_lex_order():
    assert monomial_basis(2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                                 (0, 2, 0), (0, 1, 1), (0, 0, 2))


# --- constraint rows ----------------------------------------------------------

def test_singularity_rows_at_coordinate_point_degree2():
    ker = _kernel_rows(QQ, singularity_rows(pt(0, 0, 1), 2), 6)
    # surviving forms are exactly the span of x^2, xy, y^2
    expected = {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
    basis_monomials = set()
    for vec in ker.basis:
        for e, v in zip(monomial_basis(2), vec):
            if v != 0:
                basis_monomials.add(e)
    assert ker.dim == 3
    assert basis_monomials == expected


def test_singularity_rows_degree1_have_no_kernel():
    for coords in [(1, 2, 3), (0, 1, 4), (1, 0, 0)]:
        assert _kernel_rows(QQ, singularity_rows(pt(*coords), 1), 3).dim == 0


def test_singularity_rows_rank_three_for_generic_point():
    assert rank_rows(QQ, singularity_rows(pt(1, 0, 0), 5)) == 3
    assert rank_rows(QQ, singularity_rows(pt(1, 2, 3), 5)) == 3


def test_singularity_rows_independent_of_representative():
    a = singularity_rows(ProjPoint(QQ, (2, 4, 6)), 4)
    b = singularity_rows(ProjPoint(QQ, (1, 2, 3)), 4)
    assert a == b  # normalization makes the representative canonical


def test_singularity_rows_agree_with_differentiation_oracle():
    # independent oracle: evaluate the formal partials of random forms
    for seed in range(5):
        f = random_poly(FP, 5, seed)
        vec = f.to_vector()
        point = ProjPoint(FP, (seed + 1, 3 * seed + 2, 1))
        rows = singularity_rows(point, 5)
        applied = [sum(a * b for a, b in zip(row, vec)) % FP.p for row in rows]
        grads = f.gradient_at(point)
        assert tuple(applied) == tuple(grads)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), FP], ids=["qq", "fp7", "fp65521"])
def test_point_rows_on_live_columns_are_the_sliced_full_rows(field):
    # every frame kind, 0 to 3 corners, at d = 1..7 and all columns at
    # d = 0; the full rows are the partials of each monomial
    # (HomogeneousPoly.partial) at the point, and at d = 0, where there are
    # no degree -1 monomials, they are zero
    p = field.p
    rng = SplitMix64(derive_seed(71, p or 0))
    points = [(1, 0, 0), (0, 0, 1), (3, 0, 5)] + [
        tuple(rng.below(p) if p else rng.int_in(-9, 9) for _ in range(3)) for _ in range(6)]
    masks = [tuple(bool(m >> i & 1) for i in range(3)) for m in range(8)]
    for d in range(8):
        monomials = [HomogeneousPoly(field, d, {exps: 1}) for exps in monomial_basis(d)]
        for coords in points:
            full = _point_rows(coords, d, p)
            assert full == [[m.partial(v).evaluate(coords) for m in monomials]
                            for v in range(3)], (coords, d)
            for corners in masks if d else ():
                live = _live_columns(d, corners)
                assert _point_rows(coords, d, p, live) == \
                    [[row[j] for j in live] for row in full], (coords, d, corners)
    assert _point_rows((2, 3, 4), 0, p) == [[0], [0], [0]]


_PACKED_PRIMES = [5, 7, 101, 65521, 2 ** 61 - 1, 3317044064679887385961813]


@pytest.mark.parametrize("p", _PACKED_PRIMES)
def test_packed_point_rows_unpack_to_the_point_rows(p):
    # every frame kind, 0 to 3 corners, and all columns, at d = 0..7 (all
    # columns only at d = 0), in both column orders: each slot holds the
    # entry of _point_rows unreduced, below d * p, and nothing lies past
    # the slots
    rng = SplitMix64(derive_seed(35, p))
    points = [(1, 0, 0), (0, 0, 1), (3, 0, 5), (p - 1, p - 1, p - 1)] + [
        tuple(rng.below(p) for _ in range(3)) for _ in range(4)]
    masks = [tuple(bool(m >> i & 1) for i in range(3)) for m in range(8)]
    for d in range(8):
        top = max(d, 1)
        w = _slot_width(p, 3, top)
        mask = (1 << w) - 1
        tables = [None] + [_live_columns(d, corners) for corners in masks if d]
        for columns in tables:
            ncols = space_dim(d) if columns is None else len(columns)
            for coords in points:
                want = _point_rows(coords, d, p, columns)
                for reverse in (False, True):
                    packed = _packed_point_rows([coords], d, p, columns, w, reverse)
                    slots = [[row >> (j * w) & mask for j in range(ncols)] for row in packed]
                    if reverse:
                        slots = [row[::-1] for row in slots]
                    assert [[v % p for v in row] for row in slots] == want, (coords, d, columns)
                    assert all(v < top * p for row in slots for v in row), (coords, d)
                    assert all(row >> (ncols * w) == 0 for row in packed), (coords, d)


def _list_route_basis(cfg, d):
    # the point system of the division as plain rows in the identity frame,
    # reduced by _kernel_rows and multiplied by the squared components
    comps, e, keys = _division(cfg, d)
    if e < 0 or e == 0 and comps and keys:
        return SubspaceBasis(cfg.field, space_dim(d), ())
    quotient = _kernel_rows(cfg.field, _system_rows(keys, e, cfg.field.p), space_dim(e))
    if not comps:
        return quotient
    lcm = HomogeneousPoly(cfg.field, 0, {(0, 0, 0): 1})
    for g in comps:
        lcm = lcm * (line_poly(g) if isinstance(g, ProjLine) else conic_poly(g))
    return _products(lcm, 2, e, quotient.basis)


def _list_route_dim(cfg, d):
    return _list_route_basis(cfg, d).dim


def _outcome(route, *args):
    try:
        return route(*args)
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("p", _PACKED_PRIMES)
def test_packed_routes_match_the_list_routes(p):
    # every type the field admits but 42, the whole plane, which has no
    # rows, at seeds 1-3 and d = 2..7 but for multiples of p: the packed
    # rows, in the frame and in the identity, give the dimensions and bases
    # of the plain rows in the identity frame, and refuse a conic component
    # below degree 4 with the same message
    field = PrimeField(p)
    compared = 0
    for type_id in range(1, 42):
        for seed in (1, 2, 3):
            try:
                cfg = sample_generic(type_id, field, seed)
            except (InputError, SamplingError):
                continue
            for d in range(2, 8):
                if d % p == 0:
                    continue
                assert _outcome(linear_system_dim, cfg, d) == _outcome(_list_route_dim, cfg, d), \
                    (type_id, seed, d)
                assert _outcome(linear_system_basis, cfg, d) == \
                    _outcome(_list_route_basis, cfg, d), (type_id, seed, d)
                compared += 1
    # GF(5) admits 27 of the types, GF(7) 38, the others all 41
    assert compared == {5: 405, 7: 570}.get(p, 738)


def test_vanishing_row_examples():
    vec = _evaluation_row(pt(0, 0, 1), 5)
    assert vec[-1] == 1 and all(v == 0 for v in vec[:-1])
    assert _evaluation_row(pt(1, 1, 1), 1) == [1, 1, 1]


def test_vanishing_row_inside_singularity_row_space():
    # Euler relation: x f_x + y f_y + z f_z = d f forces the evaluation row
    # into the span of the three derivative rows
    for coords in [(1, 2, 3), (0, 1, 5), (1, 0, 0)]:
        a = pt(*coords)
        rows = singularity_rows(a, 5)
        assert rank_rows(QQ, rows + [_evaluation_row(a, 5)]) == rank_rows(QQ, rows)


def test_euler_identity_as_polynomials():
    x = HomogeneousPoly(FP, 1, {(1, 0, 0): 1})
    y = HomogeneousPoly(FP, 1, {(0, 1, 0): 1})
    z = HomogeneousPoly(FP, 1, {(0, 0, 1): 1})
    for seed in range(5):
        f = random_poly(FP, 5, seed + 40)
        lhs = (x * f.partial(0)).add(y * f.partial(1)).add(z * f.partial(2))
        assert lhs == f.scale(5)


# --- divisibility subspaces ----------------------------------------------------

def test_divisibility_line_squared():
    g = line_poly(ProjLine(QQ, (1, 2, 3)))
    assert divisibility_subspace(g, 2, 5).dim == 10


def test_divisibility_conic_squared():
    conic = Conic(QQ, (1, 1, -1, 0, 0, 0))
    assert divisibility_subspace(conic_poly(conic), 2, 5).dim == 3


def test_divisibility_two_lines_squared_intersect():
    g1 = line_poly(ProjLine(QQ, (1, 0, 0)))
    g2 = line_poly(ProjLine(QQ, (0, 1, 0)))
    a = divisibility_subspace(g1, 2, 5)
    b = divisibility_subspace(g2, 2, 5)
    assert intersect(a, b).dim == 3


def test_forced_divisibility_subspace_equality():
    # six singular points on a line force divisibility by the squared line;
    # canonical echelon bases make the two routes literally equal
    from quintics.projgeom import line_through

    cfg = sample_generic(6, QQ, 2)
    ln = line_through(cfg.points[0], cfg.points[1])
    ker = _kernel_rows(QQ, _stacked_point_rows(cfg), 21)
    div = divisibility_subspace(line_poly(ln), 2, 5)
    assert ker == div
    assert ker.dim == 10


def test_divisibility_rejects_overflow():
    g = line_poly(ProjLine(QQ, (1, 0, 0)))
    with pytest.raises(InputError):
        divisibility_subspace(g, 6, 5)


# --- dimension of the constrained system ---------------------------------------

def test_dim_empty_config_is_21():
    assert linear_system_dim(Config(QQ)) == 21


def test_dim_generic_points_law():
    for k in range(1, 7):
        cfg = sample_generic_points(k, FP, 11)
        assert linear_system_dim(cfg) == 21 - 3 * k
    assert linear_system_dim(sample_generic_points(7, FP, 11)) == 0


def test_dim_golden_spot_checks():
    assert linear_system_dim(sample_generic(4, QQ, 1)) == 11
    assert linear_system_dim(sample_generic(38, FP, 2)) == 1
    assert linear_system_dim(sample_generic(42, FP, 0)) == 0


def test_dim_type12_both_subcases():
    # generic position
    cfg = sample_generic(12, QQ, 3)
    assert linear_system_dim(cfg) == 9
    # three of the four collinear
    pts = (pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0), pt(0, 0, 1))
    cfg2 = Config(QQ, points=pts, type_id=12)
    assert classify(cfg2) == 12
    assert linear_system_dim(cfg2) == 9


def test_dim_type26_with_three_collinear_subcase():
    pts = (pt(1, 0, 0), pt(0, 1, 0), pt(1, 1, 0),
           pt(0, 0, 1), pt(1, 1, 1), pt(1, 2, 5))
    cfg = Config(QQ, points=pts)
    assert classify_points(pts) == 26
    assert linear_system_dim(cfg) == 3


def test_point_on_forced_component_adds_nothing():
    # every form divisible by the squared line is already singular along the
    # whole line, so marking a point of the component leaves the space alone
    ln = ProjLine(QQ, (1, 2, 3))
    on_line = ProjPoint(QQ, (3, 0, -1))
    assert 1 * 3 + 2 * 0 + 3 * (-1) == 0
    bare = Config(QQ, lines=(ln,))
    marked = Config(QQ, points=(on_line,), lines=(ln,))
    assert linear_system_dim(bare) == linear_system_dim(marked) == 10


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "fp101"])
def test_dim_component_edge_cases(field):
    # configurations a user JSON file may describe: a repeated component
    # counts once, and a degenerate conic component, which may share a line
    # with another one, is refused by both routes
    x, y = ProjLine(field, (1, 0, 0)), ProjLine(field, (0, 1, 0))
    z = ProjLine(field, (0, 0, 1))
    line = ProjLine(field, (1, 2, 3))
    conic = Conic(field, (1, 1, -1, 0, 0, 0))
    xy = Conic(field, (0, 0, 0, 1, 0, 0))
    for route in (linear_system_dim, lambda cfg, d=5: linear_system_basis(cfg, d).dim):
        assert route(Config(field, lines=(x, y, z))) == 0
        assert route(Config(field, lines=(line, line))) == 10
        assert route(Config(field, lines=(line,), conics=(conic,))) == 0
        with pytest.raises(InputError, match="conic component must be nondegenerate"):
            route(Config(field, lines=(x,), conics=(xy,)))
        # e < 0: two lines below degree 4 leave only the zero form
        assert route(Config(field, lines=(x, y)), 2) == route(Config(field, lines=(x, y)), 3) == 0
        with pytest.raises(InputError, match="multiplicity times degree exceeds the ambient"):
            route(Config(field, lines=(line,)), 1)
        with pytest.raises(InputError, match="multiplicity times degree exceeds the ambient"):
            route(Config(field, conics=(conic,)), 3)


def test_conic_components_over_gf2_are_refused():
    # GF(2) does not decide degeneracy, so no conic component is divided out
    fp2 = PrimeField(2)
    cfg = Config(fp2, conics=(Conic(fp2, (0, 1, 0, 0, 1, 0)),))
    for route in (linear_system_dim, linear_system_basis):
        with pytest.raises(InputError, match="characteristic 2"):
            route(cfg)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)], ids=["qq", "fp3", "fp7"])
def test_value_rows_exactly_where_the_characteristic_divides_the_degree(field):
    # Euler's relation gives h(P) = 0 from the derivative rows unless the
    # characteristic divides e, and only there is the value row added
    p = field.p
    keys = [(1, 2, 3), (0, 1, 4)]
    for e in range(1, 8):
        rows = _value_rows(keys, e, p, None)
        want = [_monomial_values(key, e, p) for key in keys] if p and e % p == 0 else []
        assert rows == want, e
        assert _system_rows(keys, e, p)[6:] == want, e


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["qq", "fp7"])
def test_quotient_of_degree_zero(field):
    # d = 4 with a conic, or d = 2 with a line, leaves h a constant: 1 with
    # no point off the component, 0 with one, and a point on it adds nothing
    conic = Conic(field, (1, 1, -1, 0, 0, 0))
    line = ProjLine(field, (1, 2, 3))
    on_conic, on_line, off = (ProjPoint(field, c) for c in ((1, 0, 1), (3, 0, -1), (1, 2, 5)))
    for comps, d, on in ((dict(conics=(conic,)), 4, on_conic), (dict(lines=(line,)), 2, on_line)):
        for points, want in (((), 1), ((on,), 1), ((off,), 0), ((on, off), 0)):
            cfg = Config(field, points=points, **comps)
            assert linear_system_dim(cfg, d) == linear_system_basis(cfg, d).dim == want, cfg
            assert linear_system_basis(cfg, d) == _reference_basis(cfg, d), cfg


def _reference_divisible(g, d):
    # the degree-d forms divisible by g^2: the products g * g * mono, made
    # by HomogeneousPoly's multiplication, as the null space of their
    # annihilator, so no code of the route's division is shared
    rest = d - 2 * g.degree
    rows = [(g * g * HomogeneousPoly(g.field, rest, {e: 1})).to_vector()
            for e in monomial_basis(rest)]
    return _kernel_rows(g.field, _kernel_rows(g.field, rows, space_dim(d)).basis, space_dim(d))


def _reference_basis(cfg, d=5):
    # kernel of the point rows, then one annihilator intersection per
    # squared component, whatever the components are
    if cfg.whole_plane:
        return SubspaceBasis(cfg.field, space_dim(d), ())
    space = _kernel_rows(cfg.field, _stacked_point_rows(cfg, d), space_dim(d))
    for ln in cfg.lines:
        space = intersect(space, _reference_divisible(line_poly(ln), d))
    for qc in cfg.conics:
        space = intersect(space, _reference_divisible(conic_poly(qc), d))
    return space


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "fp101"])
def test_linear_system_basis_matches_reference_construction(field):
    for type_id in range(1, 43):
        cfg = sample_generic(type_id, field, 3)
        got = linear_system_basis(cfg)
        assert got == _reference_basis(cfg), type_id
        assert got.dim == linear_system_dim(cfg) == GOLDEN_DIMS[type_id], type_id


def _assert_frame_route_matches_reference(cfg, degrees):
    """``linear_system_dim`` against the reference construction and
    ``linear_system_basis`` at each degree the field admits; below twice a
    component's degree all three refuse the configuration, and both routes
    refuse a degenerate conic component.  Returns whether they did."""
    p = cfg.field.p
    if any(q.is_degenerate() for q in cfg.conics):
        for d in degrees:
            if not (p and d % p == 0):
                for route in (linear_system_dim, linear_system_basis):
                    with pytest.raises(InputError):
                        route(cfg, d)
        return True
    for d in degrees:
        if p and d % p == 0:
            continue
        if d < (4 if cfg.conics else 2 if cfg.lines else 0):
            for route in (linear_system_dim, linear_system_basis, _reference_basis):
                with pytest.raises(InputError):
                    route(cfg, d)
            continue
        if cfg.is_finite():
            want = space_dim(d) - rank_rows(cfg.field, _stacked_point_rows(cfg, d))
        else:
            want = _reference_basis(cfg, d).dim
        assert linear_system_dim(cfg, d) == want == linear_system_basis(cfg, d).dim, (cfg, d)
    return False


def test_frame_route_on_every_small_point_set_of_pg23():
    # 715 + 1287 + 1716 sets of 4, 5 and 6 points, framed by three of them
    # or all collinear, at the degrees 1, 2, 4, 5 and 7 that GF(3) admits;
    # the reference is the rank of the stacked singularity rows, made once
    # per point
    plane = plane_points(3)
    field = plane[0].field
    degrees = (1, 2, 4, 5, 7)
    rows = {(q, d): singularity_rows(q, d) for q in plane for d in degrees}
    framed = 0
    for k in (4, 5, 6):
        for sub in combinations(plane, k):
            cfg = Config(field, points=sub)
            framed += None not in _frame(3, [q.key for q in sub])[0]
            for d in degrees:
                want = space_dim(d) - rank_rows(field, [r for q in sub for r in rows[q, d]])
                assert linear_system_dim(cfg, d) == want == linear_system_basis(cfg, d).dim
    assert 0 < framed < 715 + 1287 + 1716


def _frame_sweep_configs(field, seed):
    """Seeded configurations that reach every branch of the frame route:
    random point sets of 0 to 7 points (framed by three of them, or by one
    or two of them and coordinate points), and lines, conics and both with
    at most two points or with three non-collinear ones; then one or two
    lines with 0 to 2 random points, two lines through a configuration
    point at their meet, and collinear points with their own line or with
    another line as a component."""
    rng = SplitMix64(seed)

    def coord():
        return rng.below(field.p) if field.p else rng.int_in(-4, 4)

    def draw(cls, n):
        while True:
            vals = [coord() for _ in range(n)]
            if any(vals):
                return cls(field, vals)

    def distinct(make, k):
        out = []
        while len(out) < k:
            q = make()
            if q not in out:
                out.append(q)
        return out

    def on_line(ln):
        (u, v), s, t = points_on_line_basis(ln), coord(), coord()
        if not (s or t):
            s = 1
        return ProjPoint(field, [s * a + t * b for a, b in zip(u.key, v.key)])

    def general(k):
        while True:
            pts = distinct(lambda: draw(ProjPoint, 3), k)
            if k < 3 or not collinear(*pts[:3]):
                return pts

    configs = []
    for k in range(8):
        configs.append(Config(field, points=distinct(lambda: draw(ProjPoint, 3), k)))
    for k in (3, 4, 5):
        ln = draw(ProjLine, 3)
        configs.append(Config(field, points=distinct(lambda: on_line(ln), k)))
    for k in (0, 2, 3, 4):
        pts = general(k)
        configs.append(Config(field, points=pts, lines=[draw(ProjLine, 3)]))
        configs.append(Config(field, points=pts, conics=[draw(Conic, 6)]))
        configs.append(Config(field, points=pts, lines=distinct(lambda: draw(ProjLine, 3), 2),
                              conics=[draw(Conic, 6)]))
    for k in (0, 1, 2):
        pts = distinct(lambda: draw(ProjPoint, 3), k)
        configs.append(Config(field, points=pts, lines=[draw(ProjLine, 3)]))
        configs.append(Config(field, points=pts, lines=distinct(lambda: draw(ProjLine, 3), 2)))
    l1, l2 = distinct(lambda: draw(ProjLine, 3), 2)
    meet = line_intersection(l1, l2)
    for extra in distinct(lambda: draw(ProjPoint, 3), 2):
        if extra != meet:
            configs.append(Config(field, points=[meet, extra], lines=[l1, l2]))
            break
    configs.append(Config(field, points=[meet], lines=[l2, l1]))
    ln = draw(ProjLine, 3)
    on = distinct(lambda: on_line(ln), 3)
    configs.append(Config(field, points=on, lines=[ln]))
    configs.append(Config(field, points=on, lines=[draw(ProjLine, 3)]))
    return configs


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(7), PrimeField(11),
                                   PrimeField(65521), QQ],
                         ids=["fp5", "fp7", "fp11", "fp65521", "qq"])
def test_frame_route_matches_reference_on_random_configurations(field):
    # the draws hold 5, 4 and 3 degenerate conics over GF(5), GF(7) and
    # GF(11), which both routes refuse
    refused = 0
    for seed in range(4):
        for cfg in _frame_sweep_configs(field, derive_seed(27, seed)):
            refused += _assert_frame_route_matches_reference(cfg, range(8))
    assert refused == {5: 5, 7: 4, 11: 3}.get(field.p, 0)


def test_division_where_the_characteristic_divides_the_quotient_degree():
    # over GF(3) the one-line types 11, 17, 22, 29 and 41 leave e = 3 at
    # d = 5, and e = 0 at d = 2, where each point off the line adds its
    # value row; without it types 17, 22, 29 and 41 would read 8, 6, 5 and
    # 4 at d = 5
    fp3 = PrimeField(3)
    for type_id in (11, 17, 22, 29, 31, 33, 41):
        for seed in (1, 2, 3):
            cfg = sample_generic(type_id, fp3, seed)
            assert not _assert_frame_route_matches_reference(cfg, (2, 4, 5, 7))
            assert linear_system_dim(cfg) == GOLDEN_DIMS[type_id], (type_id, seed)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["fp7", "qq"])
def test_frame_moves_corners_onto_coordinates(field):
    # corner i goes to e_i by a nonsingular change of coordinates; only
    # points of the configuration are named
    p = field.p

    def proportional(u, e):
        # a multiple of the unit vector e: nonzero exactly where e is
        return [bool(v % p if p else v) for v in u] == [bool(x) for x in e]

    for seed in range(4):
        for cfg in _frame_sweep_configs(field, derive_seed(29, seed)):
            keys = [q.key for q in cfg.points]
            corners, adj = _frame(p, keys)
            (a, b, c), (d, e, f), (g, h, i) = adj
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            assert (det % p if p else det), cfg
            for unit, n in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), corners):
                if n is not None:
                    moved = [sum(r * x for r, x in zip(row, keys[n])) for row in adj]
                    assert proportional(moved, unit), cfg
            assert any(n is not None for n in corners) == bool(keys)


def test_coordinate_conditions_are_unit_rows():
    # the rows the frame route deletes instead of adding: a coordinate
    # point's derivative rows and its value row each have at most one
    # nonzero entry, and together they are nonzero exactly off the live
    # columns, so their kernel is read off columns
    for d in range(1, 8):
        for i, e in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            mask = tuple(k == i for k in range(3))
            rows = _point_rows(e, d, None) + [_monomial_values(e, d, None)]
            assert all(sum(1 for v in row if v) <= 1 for row in rows), (e, d)
            dead = {j for row in rows for j, v in enumerate(row) if v}
            live = _live_columns(d, mask)
            assert sorted(dead) == [j for j in range(space_dim(d)) if j not in live], (e, d)
            assert len(live) == space_dim(d) - 3
        assert _live_columns(d, (True, True, True)) == \
            tuple(j for j, exps in enumerate(monomial_basis(d)) if max(exps) < d - 1)


def test_lines_and_few_points_on_every_case_of_pg23():
    # every line with every set of at most two points (13 * 92) and every
    # pair of lines with at most one point (78 * 14), at the degrees 2, 4, 5
    # and 7 that GF(3) admits.  The reference is the subspace
    # _reference_basis builds, counted on the basis of its divisibility part
    # (made once per line set): the forms c . B singular at the points are
    # the kernel of the point rows times B^T.  For one line and one point at
    # d = 5 the plain rows of linear_system_basis give _reference_basis
    # itself.  At d = 1 every route refuses a line.
    plane = plane_points(3)
    field = plane[0].field
    lines = [ProjLine(field, q.key) for q in plane]
    cases = [(sub, (ln,)) for ln in lines for k in (0, 1, 2) for sub in combinations(plane, k)]
    cases += [(sub, pair) for pair in combinations(lines, 2)
              for k in (0, 1) for sub in combinations(plane, k)]
    assert len(cases) == 13 * 92 + 78 * 14
    for d in (2, 4, 5, 7):
        div = {ln: _reference_divisible(line_poly(ln), d) for ln in lines}
        base = {(ln,): div[ln] for ln in lines}
        base.update({pair: intersect(div[pair[0]], div[pair[1]])
                     for pair in combinations(lines, 2)})
        for sub, comps in cases:
            cfg = Config(field, points=sub, lines=comps)
            basis = base[comps].basis
            on_base = [[sum(a * b for a, b in zip(row, vec)) for vec in basis]
                       for q in sub for row in singularity_rows(q, d)]
            want = len(basis) - rank_rows(field, on_base)
            assert linear_system_dim(cfg, d) == want, (cfg, d)
            if d == 5 and len(sub) == len(comps) == 1:
                assert linear_system_basis(cfg, d) == _reference_basis(cfg, d), cfg
    for sub, comps in cases:
        cfg = Config(field, points=sub, lines=comps)
        for route in (linear_system_dim, linear_system_basis, _reference_basis):
            with pytest.raises(InputError):
                route(cfg, 1)


def _component_cases(field):
    # lines with zero leading coefficients, the nondegenerate conics
    # xz - y^2, with no x^2 term, and x^2 + y^2 - z^2, and the degenerate
    # conics xy, x^2 and the line pair (x + y + z)(x + 2y + 3z), which
    # passes through no coordinate point
    return [
        ProjLine(field, (0, 1, 3)),
        ProjLine(field, (0, 0, 1)),
        ProjLine(field, (1, 2, 3)),
        Conic(field, (0, -1, 0, 0, 1, 0)),
        Conic(field, (1, 1, -1, 0, 0, 0)),
        Conic(field, (0, 0, 0, 1, 0, 0)),
        Conic(field, (1, 0, 0, 0, 0, 0)),
        Conic(field, (1, 2, 3, 3, 4, 5)),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=["qq", "fp7", "fp101"])
def test_lone_component_basis_is_the_divisibility_subspace(field):
    # a lone line or nondegenerate conic gives the forms divisible by its
    # square, which the rows g^2 * mono span; a degenerate conic is refused
    for comp in _component_cases(field):
        if isinstance(comp, ProjLine):
            g, cfg = line_poly(comp), Config(field, lines=(comp,))
        else:
            g, cfg = conic_poly(comp), Config(field, conics=(comp,))
        for d in range(2 * g.degree, 8):
            if field.p and d % field.p == 0:
                continue
            if isinstance(comp, Conic) and comp.is_degenerate():
                with pytest.raises(InputError, match="nondegenerate"):
                    linear_system_basis(cfg, d)
                continue
            got = linear_system_basis(cfg, d)
            assert got == divisibility_subspace(g, 2, d) == _reference_divisible(g, d), (comp, d)
            assert got.dim == linear_system_dim(cfg, d) == space_dim(d - 2 * g.degree), (comp, d)
    assert [isinstance(c, Conic) and c.is_degenerate() for c in _component_cases(field)] == \
        [False] * 5 + [True] * 3


def test_integer_clearing_over_qq_with_large_coordinates():
    big = 10 ** 12
    points = (
        pt(1, Fraction(big, 7), Fraction(-3, 10 ** 9)),
        pt(Fraction(2, 3), Fraction(-5, 10 ** 11), 7),
        pt(10 ** 9 + 7, 1, Fraction(13, 10 ** 10)),
        pt(Fraction(1, 10 ** 8), 1, 1),
        pt(3, Fraction(10 ** 10, 11), 1),
    )
    cfg = Config(QQ, points=points)
    dim = linear_system_dim(cfg)
    assert dim == space_dim(5) - rank_rows(QQ, _stacked_point_rows(cfg)) == 6
    assert linear_system_basis(cfg) == _reference_basis(cfg)
    line = ProjLine(QQ, (Fraction(big, 7), 1, Fraction(-3, 10 ** 9)))
    conic = Conic(QQ, (Fraction(1, 10 ** 9), 2, Fraction(-big, 13), 0, 1, 0))
    for extra in (dict(lines=(line,)), dict(conics=(conic,))):
        cfg = Config(QQ, points=points[:2], **extra)
        assert linear_system_basis(cfg) == _reference_basis(cfg), extra
        assert linear_system_basis(cfg).dim == linear_system_dim(cfg), extra


def test_classify_rejects_component_with_incident_point():
    ln = ProjLine(QQ, (1, 2, 3))
    on_line = ProjPoint(QQ, (3, 0, -1))
    assert classify(Config(QQ, points=(on_line,), lines=(ln,))) is None


def test_classify_rejects_conic_with_points():
    conic = Conic(QQ, (1, 1, -1, 0, 0, 0))
    cfg = Config(QQ, points=(ProjPoint(QQ, (0, 0, 1)),), conics=(conic,))
    assert classify(cfg) is None


def test_check_conditions_over_rationals():
    samples = [sample_generic(t, QQ, s) for t in (3, 12, 13) for s in range(2)]
    report = check_conditions(samples)
    assert report.ok and report.checked == 6


def test_dim_monotone_under_added_constraints():
    for t, seed in [(4, 9), (19, 4), (24, 6)]:
        cfg = sample_generic(t, FP, seed)
        base = linear_system_dim(cfg)
        extra = sample_generic(1, FP, seed + 1000).points[0]
        if extra in cfg.points:
            continue
        bigger = Config(FP, points=cfg.points + (extra,))
        assert linear_system_dim(bigger) <= base


def test_dim_projectively_invariant():
    for t, seed in [(13, 2), (23, 5), (33, 8), (38, 1)]:
        cfg = sample_generic(t, QQ, seed)
        moved = apply_transform_to_config(random_projective_transform(QQ, seed), cfg)
        assert linear_system_dim(moved) == linear_system_dim(cfg)


def test_cubic_analogues_have_one_dimensional_systems():
    # three points on each of two lines plus one singular point off both
    cfg = sample_generic(23, QQ, 4)
    a = pt(1, 3, 5)
    rows = []
    for q in cfg.points:
        rows.append(_evaluation_row(q, 3))
    assert not any(q == a for q in cfg.points)
    rows.extend(singularity_rows(a, 3))
    assert _kernel_rows(QQ, rows, 10).dim == 1

    # six points on a nondegenerate conic plus one singular point off it
    cfg2 = sample_generic(24, QQ, 4)
    conic = None
    from quintics.projgeom import conic_through
    conic = conic_through(list(cfg2.points[:5]))
    off = pt(2, 3, 7)
    assert conic is not None and not conic.contains(off)
    rows = []
    for q in cfg2.points:
        rows.append(_evaluation_row(q, 3))
    rows.extend(singularity_rows(off, 3))
    assert _kernel_rows(QQ, rows, 10).dim == 1


def test_quartic_contact_system_has_rank_13():
    for seed in range(3):
        rows = sample_quartic_contact_system(QQ, seed)
        assert (len(rows), {len(row) for row in rows}) == (13, {15})
        assert rank_rows(QQ, rows) == 13
        assert _kernel_rows(QQ, rows, 15).dim == 2


def test_quartic_contact_system_refuses_gf2_before_any_draw(monkeypatch):
    import quintics.sampling as sampling_mod
    from quintics.errors import SamplingError

    def no_draws(*args):
        raise AssertionError("the sampler drew before refusing")

    # a line over GF(2) has three points; the system needs four on one line
    monkeypatch.setattr(sampling_mod, "SplitMix64", no_draws)
    with pytest.raises(SamplingError, match="4 distinct points on one line.*fp:2 has only 3"):
        sample_quartic_contact_system(PrimeField(2), 1)
    monkeypatch.undo()
    rows = sample_quartic_contact_system(PrimeField(3), 1)
    assert (len(rows), {len(row) for row in rows}) == (13, {15})


def test_linear_systems_refuse_a_characteristic_dividing_the_degree():
    fp5, fp7 = PrimeField(5), PrimeField(7)
    point5 = Config(fp5, points=(pt(1, 2, 3, field=fp5),))
    for cfg in (point5, Config(fp5, type_id=42, whole_plane=True)):
        with pytest.raises(InputError, match="fp:5 has characteristic 5, which divides the degree 5"):
            linear_system_dim(cfg)
        with pytest.raises(InputError, match="characteristic 5"):
            linear_system_basis(cfg)
    # degree 4 over fp:5 and degree 5 over fp:7 keep their counts
    assert linear_system_dim(point5, 4) == 15 - 3
    point7 = Config(fp7, points=(pt(1, 2, 3, field=fp7),))
    assert linear_system_dim(point7) == GOLDEN_DIMS[1] == 18
    assert linear_system_basis(point7).dim == 18
    assert linear_system_dim(Config(fp7, type_id=42, whole_plane=True)) == 0


# --- brute force and classification --------------------------------------------

def test_fermat_quintic_is_nonsingular():
    fp11 = PrimeField(11)
    fermat = HomogeneousPoly(fp11, 5, {(5, 0, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1})
    assert singular_set_bruteforce(fermat, 11).is_empty()


def test_two_double_lines_classify_as_line_pair():
    fp11 = PrimeField(11)
    f = HomogeneousPoly(fp11, 5, {(2, 2, 1): 1})  # x^2 y^2 z
    ss = singular_set_bruteforce(f, 11)
    assert len(ss.line_components) == 2
    assert not ss.isolated_points
    assert classify(ss) == 31


def test_double_line_times_smooth_cubic_is_line_type():
    fp11 = PrimeField(11)
    ell = line_poly(ProjLine(fp11, (1, 0, 0)))
    cubic = HomogeneousPoly(fp11, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1,
                                      (1, 1, 1): 3})
    ss = singular_set_bruteforce(ell * ell * cubic, 11)
    assert len(ss.line_components) == 1
    assert not ss.isolated_points
    assert classify(ss) == 11


def test_bruteforce_builds_points_and_lines_from_their_keys(monkeypatch):
    """The sieve, the plane table and the line peel build points and lines
    whose keys are already normalized, so none goes through ``_normalize``."""
    from quintics import projgeom

    fp7 = PrimeField(7)
    x, ell = line_poly(ProjLine(fp7, (1, 0, 0))), line_poly(ProjLine(fp7, (1, 2, 3)))
    f = x * x * ell * ell * line_poly(ProjLine(fp7, (0, 1, 1)))
    calls = []
    normalize = projgeom._normalize

    def counting(field, coords):
        calls.append(coords)
        return normalize(field, coords)

    monkeypatch.setattr(projgeom, "_normalize", counting)
    ss = singular_set_bruteforce(f, 7)
    plane = plane_points.__wrapped__(7)
    assert calls == []
    monkeypatch.undo()
    assert set(ss.line_components) == {ProjLine(fp7, (1, 0, 0)), ProjLine(fp7, (1, 2, 3))}
    for obj in ss.line_components + plane:
        rebuilt = type(obj)(fp7, obj.coeffs if isinstance(obj, ProjLine) else obj.coords)
        assert obj == rebuilt and hash(obj) == hash(rebuilt)


def test_double_line_times_nodal_cubic_is_line_plus_point():
    fp11 = PrimeField(11)
    # z y^2 = x^2 (x + z) has exactly one singular point, the node at (0:0:1)
    nodal = HomogeneousPoly(fp11, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
    ell = line_poly(ProjLine(fp11, (0, 1, 1)))
    ss = singular_set_bruteforce(ell * ell * nodal, 11)
    assert len(ss.line_components) == 1
    assert len(ss.isolated_points) == 1
    assert classify(ss) == 17


def test_double_conic_times_line_is_conic_type():
    fp11 = PrimeField(11)
    conic = Conic(fp11, (1, 1, -1, 0, 0, 0))
    ell = line_poly(ProjLine(fp11, (1, 1, 5)))
    f = conic_poly(conic) * conic_poly(conic) * ell
    ss = singular_set_bruteforce(f, 11)
    assert len(ss.conic_components) == 1
    assert classify(ss) == 33


def test_five_line_product_realizes_type_40():
    fp101 = PrimeField(101)
    cfg = sample_generic(40, fp101, 3)
    lines = [ln for ln, pts in _line_groups(cfg.points).items() if len(pts) == 4]
    assert len(lines) == 5
    f = line_poly(lines[0])
    for ln in lines[1:]:
        f = f * line_poly(ln)
    ss = singular_set_bruteforce(f, 101)
    assert set(ss.isolated_points) == set(cfg.points)
    assert classify(ss) == 40


def test_double_line_times_triangle_realizes_type_41():
    fp101 = PrimeField(101)
    l, g, h, k = (ProjLine(fp101, (1, 0, 0)), ProjLine(fp101, (0, 1, 0)),
                  ProjLine(fp101, (0, 0, 1)), ProjLine(fp101, (1, 1, 1)))
    f = line_poly(l) * line_poly(l) * line_poly(g) * line_poly(h) * line_poly(k)
    ss = singular_set_bruteforce(f, 101)
    assert len(ss.line_components) == 1
    assert len(ss.isolated_points) == 3  # the triangle vertices of g, h, k
    assert classify(ss) == 41


def test_conic_pair_times_line_realizes_type_38():
    # the quartic part factors through two pencil conics; together with the
    # line their product is singular exactly at the sampled configuration
    from itertools import combinations

    from quintics.projgeom import conic_through

    fp101 = PrimeField(101)
    cfg = sample_generic(38, fp101, 3)
    groups = _line_groups(cfg.points)
    (l4, on_line), = ((ln, pts) for ln, pts in groups.items() if len(pts) == 4)
    rest = [q for q in cfg.points if q not in on_line]
    q1 = conic_through(rest + [on_line[0]])
    remaining = [q for q in on_line if not q1.contains(q)]
    assert len(remaining) == 2
    q2 = conic_through(rest + [remaining[0]])
    f = conic_poly(q1) * conic_poly(q2) * line_poly(l4)
    ss = singular_set_bruteforce(f, 101)
    assert set(ss.isolated_points) == set(cfg.points)
    assert not ss.line_components and not ss.conic_components
    assert classify(ss) == 38


def test_conic_times_triangle_realizes_type_39():
    from itertools import combinations

    from quintics.projgeom import conic_through

    fp101 = PrimeField(101)
    cfg = sample_generic(39, fp101, 4)
    groups = _line_groups(cfg.points)
    sides = [ln for ln, pts in groups.items() if len(pts) == 4]
    assert len(sides) == 3
    vertices = set()
    for a, b in combinations(sides, 2):
        vertices |= set(groups[a]) & set(groups[b])
    cuts = [q for q in cfg.points if q not in vertices]
    quad = conic_through(cuts[:5])
    f = conic_poly(quad)
    for ln in sides:
        f = f * line_poly(ln)
    ss = singular_set_bruteforce(f, 101)
    assert set(ss.isolated_points) == set(cfg.points)
    assert classify(ss) == 39


def test_random_nodal_quintic_is_type_1():
    fp101 = PrimeField(101)
    f = random_poly(fp101, 5, 7049)
    ss = singular_set_bruteforce(f, 101)
    assert len(ss.isolated_points) == 1
    assert not ss.line_components and not ss.conic_components
    assert classify(ss) == 1


def _reference_singular_points(f, p):
    """Whole-table enumeration: every monomial's value at every plane point."""
    monomials = monomial_basis(f.degree - 1)
    partials = [f.partial(v).to_vector() for v in range(3)]
    powers = [[pow(v, e, p) for e in range(f.degree)] for v in range(p)]
    out = []
    for q in plane_points(p):
        x, y, z = (powers[v] for v in q.coords)
        vals = [x[a] * y[b] * z[c] for a, b, c in monomials]
        if all(sum(c * v for c, v in zip(g, vals)) % p == 0 for g in partials):
            out.append(q)
    return out


def _reference_singular_set(f, p):
    """All-pairs line peel and a conic peel that counts the conic over the
    whole plane.

    The conic peel keeps a conic only when all of its p + 1 points are left
    after the line peel, so the last ``len(rest) - (p + 1) + 5`` points of
    ``rest`` hold five points of any conic it keeps; it scans their
    five-subsets, from the other end of ``rest`` than the package does.
    """
    from collections import Counter
    from itertools import combinations

    from quintics.projgeom import conic_through, incident, line_through

    pts = _reference_singular_points(f, p)
    lines, rest = [], pts
    if len(pts) >= p + 1 and p + 1 > f.degree:
        pair_lines = Counter(line_through(a, b) for a, b in combinations(pts, 2))
        lines = sorted((ln for ln, cnt in pair_lines.items() if cnt == p * (p + 1) // 2),
                       key=lambda ln: ln.coeffs)
        rest = [q for q in pts if not any(incident(q, ln) for ln in lines)]
    conics = []
    if p + 1 > max(f.degree, 2 * (f.degree - 2)) and len(rest) >= p + 1:
        tail = len(rest) - (p + 1) + 5
        for five in combinations(rest[-tail:], 5):
            conic = conic_through(five)
            if conic is None or conic.is_degenerate():
                continue
            total = sum(1 for q in plane_points(p) if conic.contains(q))
            on = [q for q in rest if conic.contains(q)]
            if total == p + 1 and len(on) == total:
                conics = [conic]
                rest = [q for q in rest if not conic.contains(q)]
                break
    return SingularSet(PrimeField(p), tuple(sorted(rest, key=lambda q: q.coords)),
                       tuple(lines), tuple(conics))


def _oracle_forms(p):
    """Named quintic forms over GF(p) covering every branch of the oracle."""
    fp = PrimeField(p)

    def ln(*c):
        return line_poly(ProjLine(fp, c))

    conic = conic_poly(Conic(fp, (1, 1, -1, 0, 0, 3)))
    forms = [(f"random {s}", random_poly(fp, 5, s)) for s in range(3)]
    forms.append(("line^2 cubic", ln(1, 2, 3) ** 2 * random_poly(fp, 3, 5)))
    forms.append(("line^2 nodal cubic", ln(0, 1, 1) ** 2 * HomogeneousPoly(
        fp, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})))
    forms.append(("crossing lines^2 line", ln(1, 2, 3) ** 2 * ln(2, 0, 1) ** 2 * ln(1, 1, 1)))
    # both squared lines pass through (0:1:3), a point of the chart x = 0
    forms.append(("lines^2 meeting at x=0, line",
                  ln(1, 3, -1) ** 2 * ln(2, -3, 1) ** 2 * ln(5, 1, 4)))
    forms.append(("line^2 conic line", ln(1, 2, 3) ** 2 * conic * ln(1, 1, 1)))
    forms.append(("conic^2 line (type 33)", conic * conic * ln(1, 1, 5)))
    # singular at (0:1:3), (0:0:1) and (1:2:4): members of their linear system
    special = Config(fp, points=(ProjPoint(fp, (0, 1, 3)), ProjPoint(fp, (0, 0, 1)),
                                 ProjPoint(fp, (1, 2, 4))))
    basis = linear_system_basis(special).basis
    for shift in range(2):
        vec = [sum((i + shift + 1) * row[j] for i, row in enumerate(basis)) % p
               for j in range(21)]
        forms.append((f"singular at (0:1:3), (0:0:1) #{shift}",
                      HomogeneousPoly.from_vector(fp, 5, vec)))
    return forms


@pytest.mark.parametrize("p", [7, 11, 101])
def test_oracle_matches_reference_construction(p):
    for name, f in _oracle_forms(p):
        assert not f.is_zero(), name
        want = _reference_singular_set(f, p)
        assert singular_points_bruteforce(f, p) == _reference_singular_points(f, p), name
        assert singular_set_bruteforce(f, p) == want, name


def test_conic_peel_finds_a_doubled_conic_at_degree_nine():
    # q^2 l1 ... l5 over GF(17): the conic's 18 points and the 10 crossings of
    # the lines are singular; the first twelve points of the set hold fewer
    # than five of the conic's
    fp = PrimeField(17)
    f = conic_poly(Conic(fp, (1, 1, -1, 0, 0, 3))) ** 2
    for coeffs in ((1, 10, 7), (1, 16, 0), (1, 5, 15), (0, 1, 0), (1, 0, 9)):
        f = f * line_poly(ProjLine(fp, coeffs))
    got = singular_set_bruteforce(f, 17)
    assert len(got.conic_components) == 1
    assert len(got.isolated_points) == 10
    assert got == _reference_singular_set(f, 17)


def test_conic_peel_finds_no_conic_among_the_crossings_of_seven_lines(monkeypatch):
    # Seven lines over GF(11), no three through one point: their product has
    # 21 singular points, enough for the conic peel to look (12 > 2 (7 - 2)),
    # but a nondegenerate conic meets each line twice at most, so it passes
    # through at most 7 of the crossings, never its 12 points.  The peel is
    # patched in ``sieve``, which ``singular_set_bruteforce`` imports from
    # when it is called.
    from quintics import sieve

    fp = PrimeField(11)
    lines = [ProjLine(fp, c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                                        (1, 2, 3), (1, 3, 2), (1, 4, 5))]
    meets = {line_intersection(a, b) for a, b in combinations(lines, 2)}
    assert len(meets) == 21
    f = line_poly(lines[0])
    for ln in lines[1:]:
        f = f * line_poly(ln)
    peel = sieve._peel_conic_component
    peeled = []

    def recording_peel(*args):
        peeled.append(peel(*args))
        return peeled[-1]

    monkeypatch.setattr(sieve, "_peel_conic_component", recording_peel)
    got = singular_set_bruteforce(f, 11)
    assert [conics for conics, _ in peeled] == [[]]
    assert set(got.isolated_points) == meets and len(got.isolated_points) == 21
    assert got.line_components == () and got.conic_components == ()


def test_oracle_forms_reach_every_branch():
    # a doubled conic is grouped at p = 7 already, where 2 deg f > p + 1
    doubled = dict(_oracle_forms(7))["conic^2 line (type 33)"]
    assert len(singular_set_bruteforce(doubled, 7).conic_components) == 1
    fp = PrimeField(101)
    found = {name: singular_set_bruteforce(f, 101) for name, f in _oracle_forms(101)}
    assert len(found["lines^2 meeting at x=0, line"].line_components) == 2
    assert ProjPoint(fp, (0, 1, 3)) in set(found["singular at (0:1:3), (0:0:1) #0"]
                                           .isolated_points)
    assert ProjPoint(fp, (0, 0, 1)) in set(found["singular at (0:1:3), (0:0:1) #1"]
                                           .isolated_points)
    assert len(found["conic^2 line (type 33)"].conic_components) == 1
    assert len(found["line^2 conic line"].line_components) == 1
    assert classify(found["line^2 nodal cubic"]) == 17


def _sieve_forms(p, d):
    """Named forms of degree d over GF(p), each built to reach a branch of
    the row sieve in ``singular_points_bruteforce``."""
    fp = PrimeField(p)

    def ln(*c):
        return line_poly(ProjLine(fp, c))

    def pad(g, seed):
        return g if g.degree == d else g * random_poly(fp, d - g.degree, seed)

    def setting(g, terms):
        return HomogeneousPoly(fp, g.degree, {**g.terms, **terms})

    def member(*coords):
        cfg = Config(fp, points=tuple(ProjPoint(fp, c) for c in coords))
        basis = linear_system_basis(cfg, d).basis
        vec = [sum((i + 1) * row[j] for i, row in enumerate(basis)) % p
               for j in range(space_dim(d))]
        return HomogeneousPoly.from_vector(fp, d, vec)

    # (x - z)^2 + y (x + y + z): the row y = 0 touches it at (1:0:1), and
    # the other rows meet it in two points or in none
    conic = conic_poly(Conic(fp, (1, 1, 1, 1, -2, 1)))
    return [
        ("no z in f: the z-partial is zero, singular at (0:0:1)",
         HomogeneousPoly(fp, d, {(d, 0, 0): 1, (0, d, 0): 1})),
        ("doubled line: gcd of degree 1", pad(ln(1, 2, 3) ** 2, 1)),
        ("two doubled lines: gcd of degree 2 with two roots",
         pad(ln(1, 2, 3) ** 2 * ln(2, 1, 1) ** 2, 2)),
        ("doubled conic: degree 2 with two, one or no roots", pad(conic ** 2, 3)),
        ("doubled line x = 0: the whole row x = 0", pad(ln(1, 0, 0) ** 2, 4)),
        ("three points on the row y = 2: gcd of degree >= 3",
         member((1, 2, 0), (1, 2, 1), (1, 2, 3))),
        ("four points on the row y = 2: the whole row when d = 4",
         member((1, 2, 0), (1, 2, 1), (1, 2, 3), (1, 2, 4))),
        ("singular on x = 0 and at (0:0:1)", member((0, 1, 3), (0, 0, 1), (1, 2, 4))),
        # the exits of the batched Euclid on the chart x = 1; f_x and f_y have
        # the constant z^(d-1) coefficients of x z^(d-1) and y z^(d-1)
        ("no x z^(d-1): f_x lacks z^m, the batch runs on f_y and f_z",
         setting(random_poly(fp, d, 6), {(1, 0, d - 1): 0, (0, 1, d - 1): 1, (0, 0, d): 1})),
        ("no x z^(d-1) or y z^(d-1): the whole chart row by row",
         setting(random_poly(fp, d, 7), {(1, 0, d - 1): 0, (0, 1, d - 1): 0})),
        # on the row y = 0 the z^(d-2) coefficients of f_x and f_y vanish, and
        # so does the leading one of their first remainder
        ("no x^2 z^(d-2) or x y z^(d-2): row y = 0 leaves on a zero leading coefficient",
         setting(random_poly(fp, d, 8), {(2, 0, d - 2): 0, (1, 1, d - 2): 0,
                                         (1, 0, d - 1): 1, (0, 1, d - 1): 1})),
        # z A + (y - 2x)^2 B: on the row y = 2, f_x and f_y are z A_x and z A_y,
        # while f_z at (1:2:0) is A(1, 2, 0), nonzero for this A
        ("tangent to z = 0 at (1:2:0): gcd of degree 1 where f_z does not vanish",
         (ln(0, 0, 1) * setting(random_poly(fp, d - 1, 13),
                                {(1, 0, d - 2): 1, (0, 1, d - 2): 1}))
         .add(ln(2, -1, 0) ** 2 * random_poly(fp, d - 2, 14))),
    ]


@pytest.mark.parametrize("p,d", [(5, 4), (5, 6), (7, 5), (251, 4)])
def test_sieve_matches_whole_table_reference(p, d):
    for name, f in _sieve_forms(p, d):
        assert not f.is_zero(), name
        assert singular_points_bruteforce(f, p) == _reference_singular_points(f, p), name


@pytest.mark.parametrize("p", [5, 7, 11, 101, 251])
def test_packed_columns_equal_horner_columns(p):
    """Drawn coefficients, and all coefficients p - 1: the no-carry bound
    (m + 1)(p - 1)^2 assumes each coefficient and each power of y as large
    as a residue can be."""
    rng = SplitMix64(derive_seed(17, p))
    for m in range(1, 7):
        assert (m + 1) * (p - 1) ** 2 < 2 ** (8 * _SLOT_BYTES)
        drawn = [[rng.below(p) for _ in range(k + 1)] for k in range(m + 1)]
        worst = [[p - 1] * (k + 1) for k in range(m + 1)]
        for polys in (drawn, worst):
            want = [[v % p for v in _horner(poly, range(p))] for poly in polys]
            assert _packed_columns(polys, p) == want, (m, polys)


@pytest.mark.parametrize("p", [11, 101])
def test_quadratic_exits_are_solved_in_closed_form(p, monkeypatch):
    """Rows whose batched Euclid ends on a quadratic divisor take its roots
    in closed form, in one batched solve: every per-row gcd on the chart
    x = 1 folds a row's three partials or a divisor of degree >= 3, none a
    quadratic divisor and the third partial.  A chart fold passes three
    polynomials, a row's partials or a divisor, its remainder and the third
    partial, so the length of the first tells a quadratic divisor."""
    from quintics import sieve

    chart, fold, gcd = sieve._chart_zeros, sieve._row_zeros, sieve._gcd_mod
    solve = sieve._quadratic_exits
    inside, folds, gcd_folds, quadratic_exits = [], [], [], []

    def in_chart(columns, q):
        inside.append(True)
        try:
            return chart(columns, q)
        finally:
            inside.pop()

    def in_fold(polys, q):
        folds.append([list(poly) for poly in polys])
        try:
            return fold(polys, q)
        finally:
            folds.pop()

    def counting_gcd(u, v, q):
        if inside:
            gcd_folds.append(folds[-1])
        return gcd(u, v, q)

    def counting_exits(v, inv, at, exits, q):
        if inside and not folds:
            quadratic_exits.extend(at)
        return solve(v, inv, at, exits, q)

    monkeypatch.setattr(sieve, "_chart_zeros", in_chart)
    monkeypatch.setattr(sieve, "_row_zeros", in_fold)
    monkeypatch.setattr(sieve, "_gcd_mod", counting_gcd)
    monkeypatch.setattr(sieve, "_quadratic_exits", counting_exits)
    forms = dict(_oracle_forms(p))
    # two doubled lines, and a doubled conic: the two leading partials share
    # a quadratic factor in z on almost every row of the chart
    for name in ("crossing lines^2 line", "conic^2 line (type 33)"):
        f = forms[name]
        gcd_folds.clear()
        quadratic_exits.clear()
        pts = singular_points_bruteforce(f, p)
        assert all(len(polys) == 3 or len(polys[0]) > 3 for polys in gcd_folds), name
        assert all(len(polys[0]) > 3 for polys in gcd_folds), name
        assert len(quadratic_exits) > p // 2, name
        if p == 11:
            assert pts == _reference_singular_points(f, p), name


@pytest.mark.parametrize("p", [7, 101, 251])
def test_chart_rows_stay_batched_when_a_column_vanishes_on_every_row(p, monkeypatch):
    """A coefficient column that vanishes on every chart row drops out of
    the batched Euclid instead of sending every row to the per-row fold.
    At a singular (0:0:1) every partial's z^4 column vanishes:
    x^2 (y - 3x)^2 (x + y + z), pinned as classify_apex_lines, and random
    quintics with no z^5, x z^4 or y z^4 term.  When f_x and f_y agree in
    their z^4 and z^3 coefficients, as when f has a (x + y) z^4 +
    c (x + y)^2 z^3 for its terms of z-degree 3 and 4, the first
    remainder's leading column vanishes.  At most four rows are folded,
    where a leading coefficient of low degree in y vanishes or a gcd of
    degree >= 3 is left."""
    from quintics import sieve
    from quintics.formats import load_poly

    chart, fold = sieve._chart_zeros, sieve._row_zeros
    inside, folds = [], []

    def in_chart(columns, q):
        inside.append(True)
        try:
            return chart(columns, q)
        finally:
            inside.pop()

    def in_fold(polys, q):
        if inside:
            folds.append(polys)
        return fold(polys, q)

    monkeypatch.setattr(sieve, "_chart_zeros", in_chart)
    monkeypatch.setattr(sieve, "_row_zeros", in_fold)
    field = PrimeField(p)
    apex = load_poly(str(Path(__file__).resolve().parent / "data" / "classify_apex_lines.json"))
    forms = [apex.reduce_to(field)]
    for seed in range(6):
        terms = dict(random_poly(field, 5, derive_seed(35, seed)).terms)
        for e in ((0, 0, 5), (1, 0, 4), (0, 1, 4)):
            terms.pop(e, None)
        forms.append(HomogeneousPoly(field, 5, terms))
    for seed in range(6):
        terms = dict(random_poly(field, 5, derive_seed(36, seed)).terms)
        a, c = 1 + seed, 2 + seed
        terms.update({(1, 0, 4): a, (0, 1, 4): a, (2, 0, 3): c, (1, 1, 3): 2 * c, (0, 2, 3): c})
        forms.append(HomogeneousPoly(field, 5, terms))
    for f in forms:
        folds.clear()
        pts = singular_points_bruteforce(f, p)
        assert len(folds) <= 4, (f.terms, len(folds))
        if p == 7:
            assert pts == _reference_singular_points(f, p)
    assert all((0, 0, 1) in [q.key for q in singular_points_bruteforce(f, p)] for f in forms[:7])


def _reference_line_peel(keys, p):
    """Every line of PG(2, p) whose p + 1 points are all in ``keys``, by
    key, and the keys on none of them, in order: each line's points are
    listed from its two basis vectors and looked up one by one."""
    held = set(keys)
    lines = []
    for line in (q.key for q in plane_points(p)):
        u, v = _line_basis(line)
        points = chain([u], ([a * t + b for a, b in zip(u, v)] for t in range(p)))
        # most lines miss one of their first few points
        if all(_int_key(p, q) in held for q in points):
            lines.append(line)
    rest = [key for key in keys
            if not any(sum(a * b for a, b in zip(line, key)) % p == 0 for line in lines)]
    return [ProjLine(PrimeField(p), line) for line in sorted(lines)], rest


def _line_key_sets(p, count):
    """Seeded sets of point keys over GF(p), in ``plane_points`` order, with
    x = 0 or not, 0 to 3 full lines through (0:0:1) besides it, 0 to 3 other
    full lines and 0 to 5 stray points."""
    order = {q.key: i for i, q in enumerate(plane_points(p))}
    rng = SplitMix64(derive_seed(61, p))
    for _ in range(count):
        lines = [(1, 0, 0)] if rng.below(2) else []
        lines += {(rng.below(p), p - 1, 0) for _ in range(rng.below(4))}
        lines += {(rng.below(p), rng.below(p), p - 1) for _ in range(rng.below(4))}
        held = {key for key in order
                if any(sum(a * b for a, b in zip(line, key)) % p == 0 for line in lines)}
        plane = list(order)
        held |= {plane[rng.below(len(plane))] for _ in range(rng.below(6))}
        yield lines, sorted(held, key=order.get)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_line_peel_matches_every_line_of_the_plane(p):
    """The chart-row peel against a check of all p^2 + p + 1 lines, on key
    sets with every kind of full line: x = 0, through (0:0:1) and slanted,
    up to seven at once, with stray points; and on the whole plane."""
    field = PrimeField(p)
    whole = [q.key for q in plane_points(p)]
    cases = list(_line_key_sets(p, 60)) + [(None, whole), ([], [])]
    for lines, keys in cases:
        got_lines, rest = _peel_line_components(keys, field)
        want_lines, want_rest = _reference_line_peel(keys, p)
        assert got_lines == want_lines, (lines, keys)
        assert rest == want_rest, (lines, keys)
        assert all(type(ln) is ProjLine for ln in got_lines)
    assert len(_peel_line_components(whole, field)[0]) == p * p + p + 1


@pytest.mark.parametrize("p", [7, 11, 101, 251])
def test_line_peel_of_oracle_forms_matches_every_line_of_the_plane(p):
    field = PrimeField(p)
    for name, f in _oracle_forms(p):
        keys = _singular_keys(f, p)
        got_lines, rest = _peel_line_components(keys, field)
        want_lines, want_rest = _reference_line_peel(keys, p)
        assert got_lines == want_lines, name
        assert rest == want_rest, name


@pytest.mark.parametrize("p", [7, 11, 101])
def test_singular_set_partitions_the_sieve_points(p):
    """The isolated points and the points of the line and conic components
    make up the sieve's point list, which is in plane order."""
    plane = plane_points(p)
    order = {q: i for i, q in enumerate(plane)}
    for name, f in _oracle_forms(p):
        pts = singular_points_bruteforce(f, p)
        ranks = [order[q] for q in pts]
        assert ranks == sorted(ranks), name
        ss = singular_set_bruteforce(f, p)
        on_components = {q for q in plane
                         if any(incident(q, ln) for ln in ss.line_components)
                         or any(c.contains(q) for c in ss.conic_components)}
        isolated = set(ss.isolated_points)
        assert not isolated & on_components, name
        assert isolated | on_components == set(pts), name


def test_doubled_conic_meeting_a_full_line_is_grouped():
    """q^2 l^2 of degree 6: over GF(101) the conic meets the full line in two
    rational points, which the line peel takes, so only p - 1 of its points
    are left for the conic peel; over GF(17) it meets the line in none."""
    for p, shared in ((101, 2), (17, 0)):
        fp = PrimeField(p)
        q, l = Conic(fp, (1, 1, -1, 0, 0, 3)), ProjLine(fp, (1, 2, 3))
        assert sum(1 for a in plane_points(p) if q.contains(a) and incident(a, l)) == shared
        ss = singular_set_bruteforce(conic_poly(q) ** 2 * line_poly(l) ** 2, p)
        assert ss.line_components == (l,), p
        assert ss.conic_components == (q,), p
        assert ss.isolated_points == (), p


@pytest.mark.parametrize("p", [101, 251])
@pytest.mark.parametrize("type_id", range(1, 42))
def test_oracle_inputs_match_the_reference_routes(type_id, p):
    """The inputs the oracle route meets: a sample of the type, its linear
    system's basis and a seeded nonzero member of it."""
    fp = PrimeField(p)
    cfg = sample_generic(type_id, fp, derive_seed(p, type_id))
    basis = linear_system_basis(cfg)
    assert basis == _reference_basis(cfg)
    assert basis.dim == GOLDEN_DIMS[type_id]
    rng = SplitMix64(derive_seed(p, type_id, 1))
    vec = [0] * 21
    while not any(vec):
        for row in basis.basis:
            c = rng.below(p)
            vec = [(v + c * r) % p for v, r in zip(vec, row)]
    f = HomogeneousPoly.from_vector(fp, 5, vec)
    assert singular_points_bruteforce(f, p) == _reference_singular_points(f, p)


def test_bruteforce_builds_no_plane_table():
    fp = PrimeField(101)
    plane_points.cache_clear()
    ss = singular_set_bruteforce(random_poly(fp, 5, 7049), 101)
    assert len(ss.isolated_points) == 1
    assert plane_points.cache_info().currsize == 0
    plane = [ProjPoint(fp, (1, y, z)) for y in range(101) for z in range(101)]
    plane += [ProjPoint(fp, (0, 1, z)) for z in range(101)] + [ProjPoint(fp, (0, 0, 1))]
    assert singular_points_bruteforce(HomogeneousPoly(fp, 5, {}), 101) == plane


def test_zero_form_is_whole_plane():
    fp11 = PrimeField(11)
    zero = HomogeneousPoly(fp11, 5, {})
    ss = singular_set_bruteforce(zero, 11)
    assert ss.whole_plane
    assert classify(ss) == 42


def test_zero_form_is_refused_where_any_form_is():
    # the field and prime checks run before the zero form's whole-plane exit
    from quintics.errors import FieldMismatchError

    with pytest.raises(FieldMismatchError, match="not over GF\\(11\\)"):
        singular_set_bruteforce(HomogeneousPoly(PrimeField(7), 5, {}), 11)
    with pytest.raises(InputError, match="needs p >= 5"):
        singular_set_bruteforce(HomogeneousPoly(PrimeField(3), 5, {}), 3)
    with pytest.raises(InputError, match="use p <= 251"):
        singular_set_bruteforce(HomogeneousPoly(PrimeField(257), 5, {}), 257)


def test_bruteforce_rejects_bad_prime():
    f = random_poly(PrimeField(5), 5, 0)
    with pytest.raises(InputError, match="^fp:5 has characteristic 5, which divides "
                                         "the degree 5; the Euler relation degenerates$"):
        singular_set_bruteforce(f, 5)


def test_classify_examples():
    cfg = sample_generic(13, FP, 1)
    assert classify(cfg) == 13
    assert classify_points(sample_generic(26, FP, 2).points) == 26
    assert classify_points(sample_generic(23, FP, 3).points) == 23


def test_classify_round_trip_all_types():
    for t in range(1, 43):
        for seed in (0, 1):
            cfg = sample_generic(t, FP, 200 + seed)
            assert classify(cfg) == t, f"type {t} seed {seed}"


def test_classify_rejects_unknown_patterns():
    # five points on a line plus three generic points match no type
    base = sample_generic(5, FP, 3).points
    extra = sample_generic_points(3, FP, 4).points
    pts = base + tuple(q for q in extra if q not in base)
    if len(pts) == 8:
        assert classify_points(pts) is None


def test_classify_points_refuses_repeats_and_mixed_fields_at_every_size():
    from quintics.errors import FieldMismatchError

    for field, stranger in ((QQ, PrimeField(7)), (PrimeField(7), QQ)):
        good = [pt(1, 2, 3, field=field), pt(0, 1, 0, field=field), pt(0, 0, 1, field=field)]
        odd = pt(1, 2, 3, field=stranger)
        for k in (1, 2, 3):
            assert classify_points(good[:k]) == k
            if k >= 2:
                with pytest.raises(InputError):
                    classify_points(good[:k - 1] + [good[0]])
                with pytest.raises(FieldMismatchError):
                    classify_points(good[:k - 1] + [odd])
    eleven = list(plane_points(7)[:11])
    assert classify_points(eleven) is None
    with pytest.raises(InputError):
        classify_points(eleven[:10] + [eleven[0]])


def test_taxonomy_table_shape():
    verify_taxonomy_table()
    assert sum(1 for t in range(1, 43) if K_POINTS[t] == "nondiscrete") == 8
    rec = TYPE_TABLE[38 - 1]
    assert rec.k_points == 8 and rec.expected_dim == 1


def test_taxonomy_table_refusals(monkeypatch):
    from quintics import taxonomy
    from quintics.errors import TaxonomyError

    def with_dim(rec, dim):
        return taxonomy.ConfigTypeRecord(rec.type_id, dim, rec.description, rec.structure)

    table = list(TYPE_TABLE)
    six_on_a_conic = taxonomy.ConfigTypeRecord(26, 3, table[25].description,
                                               table[23].structure)
    broken = {
        "42 entries": table[:-1],
        "endpoints": table[:-1] + [with_dim(table[-1], 1)],
        "nonincreasing": table[:2] + [with_dim(table[2], 16)] + table[3:],
        "type 2: the peel bound": table[:1] + [with_dim(table[1], 14)] + table[2:],
        "type 26: the peel bound": table[:25] + [six_on_a_conic] + table[26:],
    }
    for message, records in broken.items():
        monkeypatch.setattr(taxonomy, "TYPE_TABLE", tuple(records))
        with pytest.raises(TaxonomyError, match=message):
            verify_taxonomy_table()


def _benchmark_golden_dims():
    # the benchmark's own copy of the golden table, kept apart from the package
    spec = importlib.util.spec_from_file_location(
        "perfbench_expected", Path(__file__).resolve().parents[1] / "perfbench" / "expected.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_DIMS


def test_peel_bound_of_every_structure_is_the_golden_dimension():
    independent = _benchmark_golden_dims()
    assert sorted(independent) == list(range(1, 43))
    for rec in TYPE_TABLE:
        bound = _peel_bound(rec.structure)
        assert bound == GOLDEN_DIMS[rec.type_id] == independent[rec.type_id], rec.type_id
    # other degrees: at d = 3 a full line leaves the lines, e = 1, and four
    # points ask for 12 conditions of the 10 cubics, so the bound is 0; at
    # d = 6 type 20 peels its line once, e = 5, and its five points on it
    # keep one condition each, the two off it three
    assert _peel_bound(TYPE_TABLE[11 - 1].structure, 3) == 3
    assert _peel_bound(TYPE_TABLE[12 - 1].structure, 3) == 0
    assert _peel_bound(TYPE_TABLE[20 - 1].structure, 6) == 21 - 5 - 6


def _qq_dims_inputs(seeds):
    # the samples of ``quintics dims --type all --field qq --seeds N`` at its
    # default base seed 0
    return [(t, sample_generic(t, QQ, derive_seed(0, t, i)))
            for t in range(1, 43) for i in range(seeds)]


def test_certificate_serves_every_typed_sample_of_the_qq_dims_pin(monkeypatch):
    # no Bareiss count: every typed sample with points and no component is
    # settled by the peel bound meeting the GF(65521) count
    def refuse(*args):
        raise AssertionError("the QQ count fell back to elimination")

    monkeypatch.setattr(lsys, "rank_rows", refuse)
    served = 0
    for t, cfg in _qq_dims_inputs(3):
        if cfg.is_finite() and cfg.points:
            assert linear_system_dim(cfg) == GOLDEN_DIMS[t], t
            served += 1
    assert served == 34 * 3


def _counted_ranks(monkeypatch):
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return rank_rows(field, rows)

    monkeypatch.setattr(lsys, "rank_rows", counted)
    return calls


# (1:1:65521) and (1:2:196563), 196563 = 3 * 65521: no three of the four
# points are collinear over QQ, but all four lie on z = 0 mod 65521
_ON_A_LINE_MOD_P = ((1, 0, 0), (0, 1, 0), (1, 1, 65521), (1, 2, 196563))


@pytest.mark.parametrize("type_id,peel_bound,dim", [
    # an unlucky prime: the certificate's GF(65521) count reads 11
    (12, 9, 9),
    # a line declared but not there over QQ: the count of 11 mod p equals
    # type 4's bound, so only the exact incidence check refuses it
    (4, 11, 9),
    ("untyped", None, 9),
], ids=["type12-unlucky-prime", "type4-false-line", "untyped"])
def test_certificate_falls_back_to_the_exact_count(monkeypatch, type_id, peel_bound, dim):
    points = tuple(ProjPoint(QQ, c) for c in _ON_A_LINE_MOD_P)
    keys = [q.key for q in points]
    assert all(_det3(three) for three in combinations(keys, 3))
    reduced = [_int_key(65521, key) for key in keys]
    assert all(key[2] == 0 for key in reduced) and _fp_point_dim(65521, reduced, 5) == 11
    declared = lsys._declared(type_id, 5)
    assert (declared and declared[1]) == peel_bound
    cfg = Config(QQ, points=points, type_id=type_id)
    calls = _counted_ranks(monkeypatch)
    assert linear_system_dim(cfg) == linear_system_basis(cfg).dim == dim
    assert len(calls) == 1


def test_certificate_falls_back_on_an_accidental_incidence(monkeypatch):
    # six points on a conic labelled type 26: the peel bound 3 is a lower
    # bound, the GF(65521) count 4 an upper one, and Bareiss gives 4
    assert lsys._declared(26, 5)[1] == 3
    calls = _counted_ranks(monkeypatch)
    for seed in (1, 2, 3):
        on_a_conic = sample_generic(24, QQ, seed)
        cfg = Config(QQ, points=on_a_conic.points, type_id=26)
        assert linear_system_dim(cfg) == linear_system_basis(cfg).dim == 4
    assert len(calls) == 3


def test_check_conditions_small_types():
    samples = [sample_generic(t, FP, s) for t in (2, 4, 19) for s in range(3)]
    report = check_conditions(samples)
    assert report.ok
    assert report.checked == 9
    assert report.subset_checks > 0


def test_check_conditions_flags_planted_violation():
    # a mislabeled configuration must show up as a violation
    cfg = sample_generic(4, FP, 1)
    bad = Config(FP, points=cfg.points, type_id=3)
    report = check_conditions([bad])
    assert not report.ok


def test_check_conditions_reports_skips_and_refuses(monkeypatch):
    from quintics import classifier

    # A classifier that gives every set of four or more points the sample's
    # own type: each such proper subset is a violation, in walk order.
    cfg = sample_generic(19, FP, 1)
    monkeypatch.setattr(classifier, "_classify_grouped", lambda field, keys, groups: cfg.type_id)
    report = check_conditions([cfg])
    subsets = [sub for r in (4, 5) for sub in combinations(cfg.points, r)]
    assert (report.checked, report.subset_checks) == (1, 2 ** 6 - 2)
    assert report.violations == [(19, sub, 19) for sub in subsets]
    # a configuration with a line component is skipped
    assert check_conditions([sample_generic(17, FP, 1)]).checked == 0
    # a finite configuration without a type is refused
    with pytest.raises(InputError, match="typed configurations"):
        check_conditions([Config(FP, points=cfg.points)])


def test_classify_points_groups_the_points_once(monkeypatch):
    """One index grouping per classification, no second collinearity test,
    and no line object: the type-38 test cuts its line with conics on keys."""
    from quintics import classifier, lsys, projgeom

    calls = {"groups": 0, "lines": 0}

    def counting_groups(p, reps):
        calls["groups"] += 1
        return projgeom._groups_of(p, reps)

    # without _from_key every line the classifier builds passes its constructor
    assert not hasattr(classifier, "_from_key")
    init = ProjLine.__init__

    def counting_init(self, *args):
        calls["lines"] += 1
        init(self, *args)

    def regrouped(*args):
        raise AssertionError("the classifier asked a second collinearity question")

    monkeypatch.setattr(classifier, "_groups_of", counting_groups)
    monkeypatch.setattr(ProjLine, "__init__", counting_init)
    for name in ("_only_allowed_collinear", "conic_through"):
        assert not hasattr(lsys, name) and not hasattr(classifier, name)
        monkeypatch.setattr(projgeom, name, regrouped)
    # grouping, conic finding and incidence are asked on keys, through projgeom's one copy
    assert not hasattr(projgeom, "_index_groups") and not hasattr(projgeom, "_unique_conic")
    for name in ("_index_groups", "_unique_conic", "collinear", "incident"):
        assert not hasattr(classifier, name), name
    # every typing decision is in classifier: lsys groups and tests nothing
    for name in ("_classify_grouped", "_groups_of", "collinear", "incident"):
        assert not hasattr(lsys, name), name
    for field in (FP, QQ):
        for t, k in K_POINTS.items():
            if isinstance(k, int) and k >= 3:
                points = sample_generic(t, field, 2).points
                calls.update(groups=0, lines=0)
                assert classify_points(points) == t
                assert calls == {"groups": 1, "lines": 0}, t


@pytest.mark.parametrize("name", ["qq", "fp:65521", "fp:101"])
def test_typing_builds_no_geometric_object(monkeypatch, name):
    # classify and check_conditions read a sample as its field and keys: no
    # point, line or conic is built while they type it or its subsets
    from quintics import projgeom

    field = parse_field(name)
    samples = [sample_generic(t, field, 1) for t in range(1, 43)]

    def built(*args):
        raise AssertionError("typing built a geometric object")

    monkeypatch.setattr(projgeom, "_from_key", built)
    monkeypatch.setattr(projgeom._Keyed, "__init__", built)
    for cfg in samples:
        assert classify(cfg) == cfg.type_id
        if cfg.is_finite():
            assert check_conditions([cfg]).ok, cfg.type_id


# --- classification of every subset, against stored results --------------------

SUBSET_CASES = (("fp:65521", (1, 2)), ("fp:101", (1, 2)), ("qq", (1,)))
SUBSET_TYPES = Path(__file__).resolve().parent / "data" / "subset_types.expected.json"


def _subset_samples(cases=SUBSET_CASES):
    """The (key, configuration) pairs of ``_subset_types``, in its order."""
    for name, seeds in cases:
        field = parse_field(name)
        for seed in seeds:
            for t in range(1, 43):
                cfg = sample_generic(t, field, seed)
                if cfg.is_finite():
                    yield f"{name} seed {seed} type {t}", cfg


def _subset_types() -> dict:
    """classify_points on every nonempty subset of sampled finite-type configurations.

    Keys read "<field> seed <s> type <t>"; each value lists the results (None
    when no type fits) for the subsets by size, each size in combinations
    order.  The stored file was written by this function before the
    classifier grouped the points by integer line keys, one key per line:
    ``json.dumps`` of each key and of its list (no spaces), joined
    as a JSON object.
    """
    return {key: [classify_points(sub)
                  for r in range(1, len(cfg.points) + 1) for sub in combinations(cfg.points, r)]
            for key, cfg in _subset_samples()}


def test_subset_classification_matches_stored():
    stored = json.loads(SUBSET_TYPES.read_text(encoding="utf-8"))
    assert _subset_types() == stored
    assert sum(len(v) for v in stored.values()) > 30000


def test_check_conditions_subset_walk_matches_stored():
    # the walk check_conditions consumes: the sample itself, then every proper
    # subset by size, against the same stored types (the sample's is last)
    stored = json.loads(SUBSET_TYPES.read_text(encoding="utf-8"))
    samples = 0
    for key, cfg in _subset_samples():
        pts = cfg.points
        walk = list(_typed_subsets(cfg))
        assert [sub for sub, _ in walk] == [pts] + [
            sub for r in range(1, len(pts)) for sub in combinations(pts, r)]
        types = [t for _, t in walk]
        assert types[1:] + types[:1] == stored[key], key
        samples += 1
    assert samples == len(stored)


def test_classify_of_every_subset_matches_stored():
    # classify types a point configuration through the size rule it shares
    # with the subset walk, not through classify_points
    stored = json.loads(SUBSET_TYPES.read_text(encoding="utf-8"))
    samples = 0
    for key, cfg in _subset_samples((("fp:65521", (1,)),)):
        pts = cfg.points
        types = [classify(Config(cfg.field, points=sub))
                 for r in range(1, len(pts) + 1) for sub in combinations(pts, r)]
        assert types == stored[key], key
        samples += 1
    assert samples == 34


def test_check_conditions_never_joins_over_fp(monkeypatch):
    from quintics import lsys, projgeom

    field = PrimeField(65521)
    samples = [sample_generic(t, field, seed) for t in (36, 38, 39, 40) for seed in (1, 2)]
    rational = sample_generic(36, QQ, 1).points
    joins = []
    join_key = projgeom._join_key

    def counting_join(*args):
        joins.append(args)
        return join_key(*args)

    monkeypatch.setattr(projgeom, "_join_key", counting_join)
    for cfg in samples:
        report = check_conditions([cfg])
        assert report == lsys.ConditionReport(1, 2 ** len(cfg.points) - 2, [])
    assert joins == []
    # the counter sees the QQ joins: one per pair of seven points
    _groups_of(None, [q.key for q in rational])
    assert len(joins) == 21


# --- classification of small-field sets, against stored results ---------------

SMALL_FIELD_TYPES = Path(__file__).resolve().parent / "data" / "small_field_subset_types.expected.json"


def _draw_distinct(rng: SplitMix64, pool, k: int) -> list:
    """k distinct members of ``pool`` in draw order (a partial Fisher-Yates)."""
    pool = list(pool)
    for i in range(k):
        j = i + rng.below(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _small_field_sets() -> dict:
    """Fixed point sets over small prime fields, where lines carry few points
    and the classifier's degenerate branches are reached.

    - every nonempty subset of PG(2,2), by size, each size in combinations
      order, once as given and once reversed;
    - 120 seeded k-subsets of PG(2,q) for each k = 3..10 and q = 3, 5, 7, 11;
    - over GF(q), q = 5, 7, 11, 13, 250 sets for each of 1, 2 and 3 planted
      lines: each line through two drawn points gives 3 to 6 of its points,
      then up to 3 drawn points are added;
    - over GF(q), q = 7, 11, 13, 150 sets on the conic xz = y^2: the cuts of
      0 to 3 drawn lines with the conic and the lines' pairwise meets, filled
      up to 5 to 9 points with drawn conic points, then up to 1 drawn point;
    - over GF(q), q = 5, 7, 11, 100 sets of the pairwise meets of five drawn
      lines;
    - 40 seeded sets over GF(5) with one point repeated.

    In the planted and conic sets repeats are dropped, at most 10 points are
    kept, and their order is drawn.
    """
    out = {}
    pg2 = plane_points(2)
    subsets = [sub for r in range(1, 8) for sub in combinations(pg2, r)]
    out["fp:2 every subset"] = subsets
    out["fp:2 every subset reversed"] = [sub[::-1] for sub in subsets]
    for q in (3, 5, 7, 11):
        plane = plane_points(q)
        rng = SplitMix64(derive_seed(12, q))
        out[f"fp:{q} seeded"] = [_draw_distinct(rng, plane, k)
                                 for k in range(3, 11) for _ in range(120)]

    def shuffled(rng, chosen):
        unique = list(dict.fromkeys(chosen))[:10]
        return _draw_distinct(rng, unique, len(unique))

    for q in (5, 7, 11, 13):
        plane = plane_points(q)
        for n_lines in (1, 2, 3):
            rng = SplitMix64(derive_seed(12, q, n_lines))
            sets = []
            for _ in range(250):
                chosen = []
                for _ in range(n_lines):
                    on = _points_on(plane, _drawn_line(rng, plane))
                    chosen += _draw_distinct(rng, on, rng.int_in(3, 6))
                chosen += _draw_distinct(rng, plane, rng.int_in(0, 3))
                sets.append(shuffled(rng, chosen))
            out[f"fp:{q} planted on {n_lines} line{'s' if n_lines > 1 else ''}"] = sets
    for q in (7, 11, 13):
        plane = plane_points(q)
        conic = [c for c in plane if (c.coords[0] * c.coords[2] - c.coords[1] ** 2) % q == 0]
        rng = SplitMix64(derive_seed(13, q))
        sets = []
        for i in range(150):
            lines = [_drawn_line(rng, plane) for _ in range(i % 4)]
            chosen = [c for ln in lines for c in _points_on(conic, ln)]
            chosen += [_meet(a, b) for a, b in combinations(lines, 2) if a != b]
            fill = min(rng.int_in(5, 9), len(conic)) - len(chosen)
            chosen += _draw_distinct(rng, conic, max(0, fill))
            chosen += _draw_distinct(rng, plane, rng.int_in(0, 1))
            sets.append(shuffled(rng, chosen))
        out[f"fp:{q} conic and lines"] = sets
    for q in (5, 7, 11):
        plane = plane_points(q)
        rng = SplitMix64(derive_seed(14, q))
        sets = []
        for _ in range(100):
            lines = list(dict.fromkeys(_drawn_line(rng, plane) for _ in range(5)))
            sets.append(list(dict.fromkeys(_meet(a, b) for a, b in combinations(lines, 2))))
        out[f"fp:{q} five lines"] = sets
    plane = plane_points(5)
    rng = SplitMix64(derive_seed(15, 5))
    sets = []
    for _ in range(40):
        chosen = _draw_distinct(rng, plane, rng.int_in(2, 9))
        chosen.insert(rng.below(len(chosen) + 1), chosen[0])
        sets.append(chosen)
    out["fp:5 with a repeated point"] = sets
    return out


def _cross(u, v, p):
    (a, b, c), (d, e, g) = u, v
    return ((b * g - c * e) % p, (c * d - a * g) % p, (a * e - b * d) % p)


def _drawn_line(rng, plane) -> ProjLine:
    """The line through two drawn points of the plane."""
    a, b = _draw_distinct(rng, plane, 2)
    return ProjLine(a.field, _cross(a.coords, b.coords, a.field.p))


def _meet(a: ProjLine, b: ProjLine) -> ProjPoint:
    return ProjPoint(a.field, _cross(a.coeffs, b.coeffs, a.field.p))


def _points_on(points, ln: ProjLine) -> list:
    (a, b, c), p = ln.coeffs, ln.field.p
    return [q for q in points if (a * q.coords[0] + b * q.coords[1] + c * q.coords[2]) % p == 0]


def _classified(points):
    """classify_points of a set: a type id, None, or [error type, message]
    for a refused set."""
    try:
        return classify_points(points)
    except InputError as exc:
        return [type(exc).__name__, str(exc)]


def test_small_field_classification_matches_stored():
    """The stored file holds ``_classified`` of each set of ``_small_field_sets``,
    written before the classifier took its collinearity from index groups:
    ``json.dumps`` of each key and of its list (no spaces), joined as a JSON
    object."""
    stored = json.loads(SMALL_FIELD_TYPES.read_text(encoding="utf-8"))
    got = {key: [_classified(s) for s in sets] for key, sets in _small_field_sets().items()}
    assert got == stored
    results = [r for v in stored.values() for r in v]
    assert len(results) > 7800
    # the degenerate branches are reached: no type, a refusal, and each type
    # whose test the index groups feed beyond the largest line
    assert None in results
    assert ["InputError", "two coincident points do not span a line"] in results
    assert {23, 25, 27, 28, 30, 32, 35, 36, 37, 38, 39, 40} <= set(
        r for r in results if isinstance(r, int))
