import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from quintics.errors import InputError
from quintics.exactalg import (
    QQ,
    DenseMatrix,
    PrimeField,
    SubspaceBasis,
    intersect,
    kernel,
    parse_field,
    rank,
)
from quintics.lsys import (
    _remainder_rows,
    _system_rows,
    GOLDEN_DIMS,
    HomogeneousPoly,
    K_POINTS,
    SingularSet,
    check_conditions,
    classify,
    classify_points,
    conic_poly,
    constraint_matrix,
    divisibility_subspace,
    line_poly,
    linear_system_basis,
    linear_system_dim,
    monomial_basis,
    plane_points,
    random_poly,
    sample_quartic_contact_system,
    singular_points_bruteforce,
    singular_set_bruteforce,
    singularity_rows,
    space_dim,
    type_record,
    vanishing_row,
    verify_taxonomy_table,
)
from quintics.projgeom import Config, Conic, ProjLine, ProjPoint
from quintics.rng import SplitMix64, derive_seed
from quintics.sampling import (
    apply_transform_to_config,
    random_projective_transform,
    sample_generic,
    sample_generic_points,
)

FP = PrimeField(65521)


def pt(*coords, field=QQ):
    return ProjPoint(field, coords)


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
    rows = singularity_rows(pt(0, 0, 1), 2)
    ker = kernel(rows)
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
        assert kernel(singularity_rows(pt(*coords), 1)).dim == 0


def test_singularity_rows_rank_three_for_generic_point():
    assert rank(singularity_rows(pt(1, 0, 0), 5)) == 3
    assert rank(singularity_rows(pt(1, 2, 3), 5)) == 3


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
        applied = rows.apply(vec)
        grads = f.gradient_at(point)
        assert tuple(applied) == tuple(grads)


def test_vanishing_row_examples():
    row = vanishing_row(pt(0, 0, 1), 5)
    vec = row.rows[0]
    assert vec[-1] == 1 and all(v == 0 for v in vec[:-1])
    assert vanishing_row(pt(1, 1, 1), 1).rows[0] == (1, 1, 1)


def test_vanishing_row_inside_singularity_row_space():
    # Euler relation: x f_x + y f_y + z f_z = d f forces the evaluation row
    # into the span of the three derivative rows
    for coords in [(1, 2, 3), (0, 1, 5), (1, 0, 0)]:
        a = pt(*coords)
        rows = singularity_rows(a, 5)
        stacked = rows.stack(vanishing_row(a, 5))
        assert rank(stacked) == rank(rows)


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
    ker = kernel(constraint_matrix(cfg))
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
    # configurations a user JSON file may describe; each squared component
    # is imposed separately, so repeated and overlapping components are exact
    x, y = ProjLine(field, (1, 0, 0)), ProjLine(field, (0, 1, 0))
    z = ProjLine(field, (0, 0, 1))
    line = ProjLine(field, (1, 2, 3))
    conic = Conic(field, (1, 1, -1, 0, 0, 0))
    xy = Conic(field, (0, 0, 0, 1, 0, 0))
    assert linear_system_dim(Config(field, lines=(x, y, z))) == 0
    assert linear_system_dim(Config(field, lines=(line, line))) == 10
    assert linear_system_dim(Config(field, lines=(x,), conics=(xy,))) == 3
    assert linear_system_dim(Config(field, lines=(line,), conics=(conic,))) == 0
    with pytest.raises(InputError):
        linear_system_dim(Config(field, lines=(line,)), 1)
    with pytest.raises(InputError):
        linear_system_dim(Config(field, conics=(conic,)), 3)


def _reference_basis(cfg):
    # kernel of the point rows, then one annihilator intersection per
    # squared component, built only from the public elimination routines
    if cfg.whole_plane:
        return SubspaceBasis(cfg.field, 21, ())
    space = kernel(constraint_matrix(cfg))
    for ln in cfg.lines:
        space = intersect(space, divisibility_subspace(line_poly(ln), 2, 5))
    for qc in cfg.conics:
        space = intersect(space, divisibility_subspace(conic_poly(qc), 2, 5))
    return space


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=["qq", "fp101"])
def test_linear_system_basis_matches_reference_construction(field):
    for type_id in range(1, 43):
        cfg = sample_generic(type_id, field, 3)
        got = linear_system_basis(cfg)
        assert got == _reference_basis(cfg), type_id
        assert got.dim == linear_system_dim(cfg) == GOLDEN_DIMS[type_id], type_id


def _component_cases(field):
    # lines with zero leading coefficients, a nondegenerate conic (xz - y^2,
    # no x^2 term), and the degenerate conics xy, x^2 and the line pair
    # (x + y + z)(x + 2y + 3z), which passes through no coordinate point
    return [
        line_poly(ProjLine(field, (0, 1, 3))),
        line_poly(ProjLine(field, (0, 0, 1))),
        line_poly(ProjLine(field, (1, 2, 3))),
        conic_poly(Conic(field, (0, -1, 0, 0, 1, 0))),
        conic_poly(Conic(field, (0, 0, 0, 1, 0, 0))),
        conic_poly(Conic(field, (1, 0, 0, 0, 0, 0))),
        conic_poly(Conic(field, (1, 2, 3, 3, 4, 5))),
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)],
                         ids=["qq", "fp7", "fp101"])
def test_remainder_rows_cut_out_divisibility_subspace(field):
    for g in _component_cases(field):
        for d in range(2 * g.degree, 7):
            rows = _remainder_rows(g, d)
            assert len(rows) == space_dim(d) - space_dim(d - 2 * g.degree), (g.terms, d)
            got = kernel(DenseMatrix(field, rows, space_dim(d)))
            assert got == divisibility_subspace(g, 2, d), (g.terms, d)
    with pytest.raises(InputError):
        _remainder_rows(_component_cases(field)[0], 1)
    with pytest.raises(InputError):
        _remainder_rows(_component_cases(field)[3], 3)
    with pytest.raises(InputError):
        _remainder_rows(HomogeneousPoly(field, 1, {}), 5)


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
    assert dim == space_dim(5) - rank(constraint_matrix(cfg)) == 6
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
        rows.extend(vanishing_row(q, 3).rows)
    assert not any(q == a for q in cfg.points)
    rows.extend(singularity_rows(a, 3).rows)
    assert kernel(DenseMatrix(QQ, rows, 10)).dim == 1

    # six points on a nondegenerate conic plus one singular point off it
    cfg2 = sample_generic(24, QQ, 4)
    conic = None
    from quintics.projgeom import conic_through
    conic = conic_through(list(cfg2.points[:5]))
    off = pt(2, 3, 7)
    assert conic is not None and not conic.contains(off)
    rows = []
    for q in cfg2.points:
        rows.extend(vanishing_row(q, 3).rows)
    rows.extend(singularity_rows(off, 3).rows)
    assert kernel(DenseMatrix(QQ, rows, 10)).dim == 1


def test_quartic_contact_system_has_rank_13():
    for seed in range(3):
        m = sample_quartic_contact_system(QQ, seed)
        assert (m.nrows, m.ncols) == (13, 15)
        assert rank(m) == 13
        assert kernel(m).dim == 2


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
    m = sample_quartic_contact_system(PrimeField(3), 1)
    assert (m.nrows, m.ncols) == (13, 15)


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
    from quintics.projgeom import line_groups as _line_groups

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

    from quintics.projgeom import line_groups as _line_groups
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

    from quintics.projgeom import line_groups as _line_groups
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
    whole plane."""
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
    if p + 1 > 2 * f.degree and len(rest) >= p + 1:
        for five in combinations(rest[:12], 5):
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


def test_oracle_forms_reach_every_branch():
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
    ]


@pytest.mark.parametrize("p,d", [(5, 4), (5, 6), (251, 4)])
def test_sieve_matches_whole_table_reference(p, d):
    for name, f in _sieve_forms(p, d):
        assert not f.is_zero(), name
        assert singular_points_bruteforce(f, p) == _reference_singular_points(f, p), name


@pytest.mark.parametrize("p", [101, 251])
@pytest.mark.parametrize("type_id", range(1, 42))
def test_oracle_inputs_match_the_reference_routes(type_id, p):
    """The inputs the oracle route meets: a sample of the type, its linear
    system's basis and a seeded nonzero member of it."""
    fp = PrimeField(p)
    cfg = sample_generic(type_id, fp, derive_seed(p, type_id))
    basis = linear_system_basis(cfg)
    assert basis == kernel(DenseMatrix(fp, _system_rows(cfg, 5), 21))
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


def test_taxonomy_table_shape():
    verify_taxonomy_table()
    assert sum(1 for t in range(1, 43) if K_POINTS[t] == "nondiscrete") == 8
    rec = type_record(38)
    assert rec.k_points == 8 and rec.expected_dim == 1


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


# --- classification of every subset, against stored results --------------------

SUBSET_CASES = (("fp:65521", (1, 2)), ("fp:101", (1, 2)), ("qq", (1,)))
SUBSET_TYPES = Path(__file__).resolve().parent / "data" / "subset_types.expected.json"


def _subset_types() -> dict:
    """classify_points on every nonempty subset of sampled finite-type configurations.

    Keys read "<field> seed <s> type <t>"; each value lists the results (None
    when no type fits) for the subsets by size, each size in combinations
    order.  The stored file was written by this function before the
    classifier took its line groups from ``projgeom.line_groups``, one key
    per line: ``json.dumps`` of each key and of its list (no spaces), joined
    as a JSON object.
    """
    out = {}
    for name, seeds in SUBSET_CASES:
        field = parse_field(name)
        for seed in seeds:
            for t in range(1, 43):
                cfg = sample_generic(t, field, seed)
                if not cfg.is_finite():
                    continue
                pts = cfg.points
                out[f"{name} seed {seed} type {t}"] = [
                    classify_points(sub)
                    for r in range(1, len(pts) + 1) for sub in combinations(pts, r)]
    return out


def test_subset_classification_matches_stored():
    stored = json.loads(SUBSET_TYPES.read_text(encoding="utf-8"))
    assert _subset_types() == stored
    assert sum(len(v) for v in stored.values()) > 30000
