import pytest

from quintics.errors import InputError
from quintics.ledger import (
    AMBIENT_DIM,
    ColumnSpec,
    DifferentialDecl,
    E1Table,
    alexander_dualize,
    apply_differentials,
    column_contribution,
    dataset_quintic,
    gaussian_binomial,
    grassmann_poincare,
    quintic_poincare_pipeline,
    totalize,
    unordered_points_bm_sign,
)
from quintics.poincare import PoincarePoly, product_of_cyclotomic_like
from quintics.taxonomy import GOLDEN_DIMS, K_POINTS


def poly(d):
    return PoincarePoly.from_coeffs(d)


# --- column contributions -------------------------------------------------------

def test_column_one_reproduces_the_first_table_column():
    data = dataset_quintic()
    spec = data.column(1)
    assert K_POINTS[spec.index] == 1 and GOLDEN_DIMS[spec.index] == 18
    assert spec.base_poly == poly({0: 1, 2: 1, 4: 1})
    contribution = column_contribution(spec)
    assert contribution == poly({36: 1, 38: 1, 40: 1})
    assert contribution == data.e1.column(1)


def test_columns_two_and_three_match_their_table_slices():
    # observed consistency of the stored table with the point-count columns;
    # the package treats the table itself as the authoritative data
    data = dataset_quintic()
    assert column_contribution(data.column(2)) == data.e1.column(2)
    assert column_contribution(data.column(3)) == data.e1.column(3)


def test_nondiscrete_columns_contribute_zero():
    data = dataset_quintic()
    for index in (t for t, k in K_POINTS.items() if k == "nondiscrete"):
        assert column_contribution(data.column(index)).is_zero()


def test_nondiscrete_column_with_nonzero_base_rejected():
    with pytest.raises(InputError):
        column_contribution(ColumnSpec(11, poly({1: 1})))


def test_column_spec_refuses_an_index_outside_the_table():
    for index in (0, 43):
        with pytest.raises(InputError, match="not a type of the taxonomy table"):
            ColumnSpec(index, PoincarePoly.zero())


# --- differentials ----------------------------------------------------------------

def test_main_table_degenerates():
    data = dataset_quintic()
    assert apply_differentials(data.e1, ()) == data.e1


def test_rank_zero_differential_is_noop():
    data = dataset_quintic()
    decl = DifferentialDecl(2, (1, 35), 0)
    assert apply_differentials(data.e1, [decl]) == data.e1


def test_col39_differentials_empty_the_table():
    aux = dataset_quintic().aux("col39-aux")
    assert {d.target for d in aux.differentials} == {(6, 7), (10, 6)}
    after = apply_differentials(aux.table, aux.differentials)
    assert after.is_empty()
    assert totalize(after).is_zero()


def test_overlarge_rank_rejected():
    table = E1Table.from_dict({(2, 2): 1, (0, 3): 1})
    with pytest.raises(InputError):
        apply_differentials(table, [DifferentialDecl(2, (2, 2), 2)])


# --- totalization and duality ------------------------------------------------------

def test_totalize_main_table():
    data = dataset_quintic()
    assert totalize(data.e1) == poly({32: 1, 33: 1, 35: 1, 36: 1, 37: 1, 38: 1, 40: 1})


def test_totalize_empty():
    assert totalize(E1Table.from_dict({})).is_zero()


def test_totalize_col38_base_table():
    aux = dataset_quintic().aux("col38-base")
    assert totalize(aux.table) == poly({4: 1, 5: 3, 6: 3, 7: 1})


def test_alexander_duality_pipeline():
    final, sigma, _ = quintic_poincare_pipeline()
    assert final == product_of_cyclotomic_like((1, 3, 5))
    assert final == poly({0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 1})


def test_alexander_duality_edge_cases():
    assert alexander_dualize(PoincarePoly.zero(), 21) == PoincarePoly.one()
    assert alexander_dualize(poly({40: 1}), 21) == poly({0: 1, 1: 1})
    with pytest.raises(InputError):
        alexander_dualize(poly({41: 1}), 21)
    with pytest.raises(InputError):
        alexander_dualize(poly({0: 1}), 21)


# --- Grassmannian polynomials --------------------------------------------------------

def test_grassmann_projective_plane():
    assert grassmann_poincare(1, 2) == poly({0: 1, 2: 1, 4: 1})


def test_grassmann_duality_of_planes():
    assert grassmann_poincare(2, 2) == grassmann_poincare(1, 2)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial(3, 3) == [1]
    with pytest.raises(InputError):
        grassmann_poincare(4, 2)
    # the defining identity [n, k] [1]_q ... [k]_q = [n-k+1]_q ... [n]_q,
    # with [i]_q = 1 + q + ... + q^(i-1), checked by multiplication alone
    for n in range(13):
        for k in range(n + 1):
            lhs, rhs = gaussian_binomial(n, k), [1]
            for i in range(1, k + 1):
                lhs = _poly_mul(lhs, [1] * i)
                rhs = _poly_mul(rhs, [1] * (n - k + i))
            assert lhs == rhs, (n, k)


def test_unordered_pairs_shift():
    assert unordered_points_bm_sign(2, 2) == poly({2: 1, 4: 1, 6: 1})


# --- dataset bundle -----------------------------------------------------------------

def test_dataset_twisted_values():
    data = dataset_quintic()
    assert data.twisted_values["generic-triples-bm-sign"] == poly({6: 1})
    assert data.twisted_values["generic-triples-bm-constant"] == poly({12: 1})
    assert data.twisted_values["affine-configurations-sign"].is_zero()
    assert data.twisted_values["pairs-a2"].is_zero()
    assert data.twisted_values["line-complement-sign"] == poly({2: 1})


def test_dataset_regular_representation_bookkeeping():
    data = dataset_quintic()
    total = (data.twisted_values["generic-triples-constant"]
             + data.twisted_values["generic-triples-sign"]
             + data.twisted_values["generic-triples-standard2"].scale(2))
    assert total == data.twisted_values["ordered-generic-triples"]
    assert data.twisted_values["generic-triples-standard2"] == poly({2: 1, 4: 1})
    # the two-dimensional-system values are dual to each other in dimension 6
    assert data.twisted_values["generic-triples-standard2"].dual(6) \
        == data.twisted_values["generic-triples-bm-standard2"]


def test_dataset_fiber_row_kuenneth_consistency():
    data = dataset_quintic()
    pa3 = data.twisted_values["pairs-a3"]
    cross = PoincarePoly.t_power(1) * pa3 * pa3
    assert cross == poly({5: 1, 6: 2, 7: 1})
    assert cross == totalize(data.aux("col39-fiber").table)


def test_dataset_expected_factorization():
    data = dataset_quintic()
    assert data.expected_factored() == "(1+t)(1+t^3)(1+t^5)"
    assert data.expected_poincare().format() == "1 + t + t^3 + t^4 + t^5 + t^6 + t^8 + t^9"
    assert data.big_d == AMBIENT_DIM == 21


def test_e1_table_bounds():
    # every entry sits inside the stated quadrilateral
    data = dataset_quintic()
    for (p, q), dim in data.e1.entries:
        assert 1 <= p <= 4
        assert 28 <= q <= 39
        assert dim == 1
