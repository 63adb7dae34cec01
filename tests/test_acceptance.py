"""Acceptance suite: one test per criterion, all tolerances exactly zero.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import functools
import json
import time
from fractions import Fraction

from quintics.cli import main as cli_main
from quintics.exactalg import QQ, PrimeField, _kernel_rows, intersect, rank_rows
from quintics.ledger import (
    apply_differentials,
    column_contribution,
    dataset_quintic,
    totalize,
)
from quintics.lsys import (
    check_conditions,
    linear_system_dim,
    plane_points,
    random_poly,
    singular_points_bruteforce,
    singularity_rows,
)
from quintics.poincare import PoincarePoly, product_of_cyclotomic_like
from quintics.projgeom import hausdorff
from quintics.rng import SplitMix64
from quintics.sampling import sample_generic, sample_generic_points, sample_quartic_contact_system
from quintics.taxonomy import GOLDEN_DIMS, K_POINTS
from quintics.twisted import (
    betti_poly,
    graph_complex,
    homology,
    induced_map,
    pair_space_model,
    poincare_dual,
    punctured_line_model,
    tensor,
)

FP = PrimeField(65521)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.time() - start
            print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")
        return wrapper
    return deco


@criterion(1, "dimension table for all 42 types (20 seeds over GF(65521), "
              "3 rational seeds for ten types)")
def test_criterion_1_dimension_table():
    start = time.time()
    for type_id in range(1, 43):
        for s in range(20):
            cfg = sample_generic(type_id, FP, 9000 + s)
            assert linear_system_dim(cfg) == GOLDEN_DIMS[type_id], \
                f"type {type_id} seed {s}"
    for type_id in (1, 4, 11, 23, 24, 26, 31, 38, 39, 40):
        for s in range(3):
            cfg = sample_generic(type_id, QQ, 70 + s)
            assert linear_system_dim(cfg) == GOLDEN_DIMS[type_id], \
                f"type {type_id} rational seed {s}"
    assert time.time() - start < 120.0


@criterion(2, "generic-points law: dim = 21 - 3k for k <= 6 and 0 for k = 7")
def test_criterion_2_generic_points_law():
    for s in range(20):
        for k in range(1, 7):
            cfg = sample_generic_points(k, FP, 300 + s)
            assert linear_system_dim(cfg) == 21 - 3 * k, (k, s)
        cfg7 = sample_generic_points(7, FP, 300 + s)
        assert linear_system_dim(cfg7) == 0, s


@criterion(3, "quartic contact system is 13 x 15 with rank 13 and kernel 2")
def test_criterion_3_transversality():
    for s in range(20):
        rows = sample_quartic_contact_system(FP, s)
        assert (len(rows), {len(row) for row in rows}) == (13, {15})
        assert rank_rows(FP, rows) == 13
        assert _kernel_rows(FP, rows, 15).dim == 2


@criterion(4, "pipeline emits (1+t)(1+t^3)(1+t^5) from the degenerate table")
def test_criterion_4_pipeline(capsys):
    data = dataset_quintic()
    assert data.differentials == ()  # the first page survives unchanged
    assert data.e1.as_dict() == {
        (1, 35): 1, (1, 37): 1, (1, 39): 1,
        (2, 31): 1, (2, 33): 1, (2, 35): 1,
        (3, 29): 1,
    }
    code = cli_main(["ledger", "--dataset", "quintic5", "--emit", "poincare"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["factored"] == "(1+t)(1+t^3)(1+t^5)"
    assert report["expanded"] == "1 + t + t^3 + t^4 + t^5 + t^6 + t^8 + t^9"
    expected = product_of_cyclotomic_like((1, 3, 5))
    assert expected.format() == report["expanded"]


@criterion(5, "column 1 contribution lands in degrees 36, 38, 40 and matches "
              "the first table column")
def test_criterion_5_column_one():
    data = dataset_quintic()
    contribution = column_contribution(data.column(1))
    assert contribution == PoincarePoly.from_coeffs({36: 1, 38: 1, 40: 1})
    assert contribution == data.e1.column(1)


@criterion(6, "the two declared rank-1 differentials empty the column-39 table")
def test_criterion_6_col39_cancellation():
    aux = dataset_quintic().aux("col39-aux")
    after = apply_differentials(aux.table, aux.differentials)
    assert after.is_empty()
    assert totalize(after).is_zero()


@criterion(7, "twisted engine: pair-space duals t^2(1+t), 0, t^2(1+t); swap "
              "acts by -1 on the one-dimensional twisted H_1")
def test_criterion_7_twisted_engine():
    expected = {
        "a1": PoincarePoly.from_coeffs({2: 1, 3: 1}),
        "a2": PoincarePoly.zero(),
        "a3": PoincarePoly.from_coeffs({2: 1, 3: 1}),
    }
    for system, want in expected.items():
        torus, _, cdim = pair_space_model(system)
        assert poincare_dual(betti_poly(torus), cdim) == want, system
    fiber, swap, _ = punctured_line_model()
    assert homology(fiber) == [0, 1]
    mats = induced_map(swap)
    assert mats[1] == ((Fraction(-1),),)


@criterion(8, "fiber-row consistency: t * (t^2(1+t))^2 totalizes the stored row")
def test_criterion_8_fiber_row():
    data = dataset_quintic()
    pa3 = data.twisted_values["pairs-a3"]
    cross = PoincarePoly.t_power(1) * pa3 * pa3
    assert cross == PoincarePoly.from_coeffs({5: 1, 6: 2, 7: 1})
    assert cross == totalize(data.aux("col39-fiber").table)


@criterion(9, "regular-representation bookkeeping of the generic-triples space")
def test_criterion_9_regular_representation():
    data = dataset_quintic()
    p_ordered = data.twisted_values["ordered-generic-triples"]
    p_constant = data.twisted_values["generic-triples-constant"]
    p_sign = data.twisted_values["generic-triples-sign"]
    p_std2 = data.twisted_values["generic-triples-standard2"]
    assert p_std2 == PoincarePoly.from_coeffs({2: 1, 4: 1})  # t^2 (1 + t^2)
    assert p_ordered == p_constant + p_sign + p_std2.scale(2)
    # the stored polynomial is (1 + u + u^2)(1 + u) at u = t^2
    u = PoincarePoly.t_power(2)
    expect = (PoincarePoly.one() + u + u * u) * (PoincarePoly.one() + u)
    assert p_ordered == expect


@criterion(10, "oracle equivalence over GF(101): brute-force singular points "
               "equal constraint-row kernels pointwise; Euler identity")
def test_criterion_10_oracle_equivalence():
    p = 101
    fp = PrimeField(p)
    pts = plane_points(p)
    rows_at = [singularity_rows(a, 5) for a in pts]
    x = {(1, 0, 0): 1}
    import quintics.lsys as lsys

    mono_x = lsys.HomogeneousPoly(fp, 1, x)
    mono_y = lsys.HomogeneousPoly(fp, 1, {(0, 1, 0): 1})
    mono_z = lsys.HomogeneousPoly(fp, 1, {(0, 0, 1): 1})
    for seed in range(50):
        f = random_poly(fp, 5, 5000 + seed)
        brute = set(singular_points_bruteforce(f, p))
        vec = f.to_vector()
        matrix_route = set()
        for a, rows in zip(pts, rows_at):
            if all(sum(r * v for r, v in zip(row, vec)) % p == 0 for row in rows):
                matrix_route.add(a)
        assert brute == matrix_route, seed
        euler = (mono_x * f.partial(0)).add(mono_y * f.partial(1)).add(
            mono_z * f.partial(2))
        assert euler == f.scale(5), seed


@criterion(11, "taxonomy conditions hold on 10 samples per finite type")
def test_criterion_11_taxonomy_conditions():
    finite_types = [t for t in range(1, 43) if isinstance(K_POINTS[t], int)]
    samples = [sample_generic(t, FP, 600 + s) for t in finite_types for s in range(10)]
    report = check_conditions(samples)
    assert report.checked == 10 * len(finite_types)
    assert report.ok, report.violations[:10]


@criterion(12, "property suites: metric axioms, linear-algebra identities, "
               "boundary and Euler identities, duality involution")
def test_criterion_12_property_suites():
    rng = SplitMix64(20260810)

    # Hausdorff axioms on 1000 random triples of finite planar sets
    def random_set():
        return [(Fraction(rng.int_in(-30, 30)), Fraction(rng.int_in(-30, 30)))
                for _ in range(rng.int_in(1, 4))]

    for _ in range(1000):
        k, l, m = random_set(), random_set(), random_set()
        dkl = hausdorff(k, l)
        assert dkl == hausdorff(l, k)
        assert hausdorff(k, m) <= dkl + hausdorff(l, m)
        assert hausdorff(k, k) == 0

    # rank/kernel/intersection identities on 500 random matrices
    fields = [QQ, FP]
    for i in range(500):
        field = fields[i % 2]
        nrows, ncols = rng.int_in(1, 6), rng.int_in(2, 7)
        if field is QQ:
            rows = [[Fraction(rng.int_in(-5, 5), rng.int_in(1, 3))
                     for _ in range(ncols)] for _ in range(nrows)]
        else:
            rows = [[rng.below(field.p) for _ in range(ncols)]
                    for _ in range(nrows)]
        r = rank_rows(field, rows)
        assert r == rank_rows(field, [list(col) for col in zip(*rows)])
        b = _kernel_rows(field, rows, ncols)
        assert b.dim + r == ncols
        # the row space, as the annihilator of the kernel
        a = _kernel_rows(field, b.basis, ncols)
        assert a.dim == r
        assert intersect(a, b).dim + rank_rows(field, a.basis + b.basis) == a.dim + b.dim

    # boundary-squared and Euler identities on 100 random complexes
    for i in range(100):
        nv = rng.int_in(1, 3)
        edges = [(rng.int_in(0, nv - 1), rng.int_in(0, nv - 1),
                  (-1) ** rng.int_in(0, 1)) for _ in range(rng.int_in(0, 4))]
        c = graph_complex(nv, edges)  # construction enforces dd = 0
        if i % 3 == 0:
            c = tensor(c, graph_complex(1, [(0, 0, -1)]))
        b = homology(c)
        assert sum((-1) ** k * v for k, v in enumerate(b)) \
            == c.euler_characteristic_cells()

    # duality involution on 100 random polynomials
    for _ in range(100):
        n = rng.int_in(1, 6)
        coeffs = {d: rng.int_in(0, 4) for d in range(2 * n + 1)}
        poly = PoincarePoly.from_coeffs(coeffs)
        assert poly.dual(n).dual(n) == poly
