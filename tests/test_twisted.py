from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quintics.errors import InputError
from quintics.poincare import PoincarePoly
from quintics.rng import SplitMix64
from quintics.twisted import (
    BUILTIN_MODELS,
    ChainComplex,
    ChainMap,
    assemble,
    betti_poly,
    circle,
    graph_complex,
    homology,
    identity_map,
    induced_map,
    mapping_torus,
    mapping_torus_reflection,
    pair_space_model,
    poincare_dual,
    punctured_line_model,
    tensor,
    wedge_of_loops,
)


# --- basic homology -----------------------------------------------------------

def test_circle_trivial_system():
    assert homology(circle(1)) == [1, 1]


def test_circle_sign_system_kills_everything():
    # twisted boundary of the loop is -2, an isomorphism
    assert homology(circle(-1)) == [0, 0]


def test_figure_eight_with_sign_system():
    fig8 = wedge_of_loops([-1, -1])
    assert homology(fig8) == [0, 1]


def test_dd_zero_enforced():
    with pytest.raises(InputError):
        ChainComplex([1, 1, 1], [[[1]], [[1]]])


def test_boundary_shape_enforced():
    with pytest.raises(InputError):
        ChainComplex([2, 1], [[[1]]])


@pytest.mark.parametrize("dims", [[1.5], [1.0], [True], ["1"], [-1], []])
def test_cell_counts_must_be_nonnegative_ints(dims):
    # a float cell count is refused, not truncated
    with pytest.raises(InputError, match="cell counts must be nonnegative integers"):
        ChainComplex(dims, [])


# --- cellular assembly ---------------------------------------------------------

def test_assemble_interval_and_loop():
    vertices, edges = ("u", "v"), (("e", "u", "v"),)
    plain = assemble(vertices, edges, {})
    assert homology(plain) == [1, 0]
    twisted = assemble(vertices, edges, {"e": Fraction(-1)})
    # a single edge with twisted transport is still contractible-acyclic in
    # degree 1 and connects nothing new in degree 0
    assert homology(twisted) == [1, 0]
    assert homology(assemble(("v",), (("a", "v", "v"),), {"a": -1})) == [0, 0]


def test_assemble_torus_with_square_cell():
    # one vertex, loops a and b, one square glued along the commutator:
    # untwisted incidence of the 2-cell is zero
    torus = assemble(("v",), (("a", "v", "v"), ("b", "v", "v")), {}, (((0,), (0,)),))
    assert homology(torus) == [1, 2, 1]


def test_assemble_rejects_inconsistent_twist():
    # the commutator 2-cell with twisted boundary (1-t_b, t_a-1) is nonzero
    # once transport is nontrivial, so the stored zero incidence breaks dd=0
    with pytest.raises(InputError):
        assemble(("v",), (("a", "v", "v"),), {"a": -1}, (((2,),),))


# --- tensor products ------------------------------------------------------------

def test_tensor_torus():
    assert homology(tensor(circle(1), circle(1))) == [1, 2, 1]


def test_tensor_with_acyclic_factor_vanishes():
    t = tensor(circle(-1), wedge_of_loops([1, 1]))
    assert all(b == 0 for b in homology(t))


def test_tensor_of_two_pair_models_squares_the_dual():
    torus, _, cdim = pair_space_model("a3")
    product = tensor(torus, torus)
    dual = poincare_dual(betti_poly(product), 2 * cdim)
    single = poincare_dual(betti_poly(torus), cdim)
    assert dual == single * single
    assert dual == PoincarePoly.from_coeffs({4: 1, 5: 2, 6: 1})


def test_tensor_betti_polynomial_multiplicativity_random():
    rng = SplitMix64(5)
    for _ in range(50):
        c1 = _random_graph_complex(rng)
        c2 = _random_graph_complex(rng)
        lhs = betti_poly(tensor(c1, c2))
        rhs = betti_poly(c1) * betti_poly(c2)
        assert lhs == rhs


def _random_graph_complex(rng: SplitMix64) -> ChainComplex:
    nv = rng.int_in(1, 3)
    ne = rng.int_in(0, 4)
    edges = []
    for _ in range(ne):
        u = rng.int_in(0, nv - 1)
        v = rng.int_in(0, nv - 1)
        t = (-1) ** rng.int_in(0, 1) * rng.int_in(1, 2)
        edges.append((u, v, t))
    return graph_complex(nv, edges)


# --- mapping torus ---------------------------------------------------------------

def test_mapping_torus_identity_trivial_twist_is_product():
    fiber = wedge_of_loops([1, 1])
    torus = mapping_torus(fiber, identity_map(fiber), 1)
    expect = betti_poly(fiber) * PoincarePoly.from_coeffs({0: 1, 1: 1})
    assert betti_poly(torus) == expect


def test_mapping_torus_circle():
    torus = mapping_torus(circle(1), identity_map(circle(1)), 1)
    assert homology(torus) == [1, 2, 1]


@pytest.mark.parametrize("system,expected_dual", [
    ("a1", {2: 1, 3: 1}),
    ("a2", {}),
    ("a3", {2: 1, 3: 1}),
])
def test_pair_space_models(system, expected_dual):
    torus, _, cdim = pair_space_model(system)
    dual = poincare_dual(betti_poly(torus), cdim)
    assert dual == PoincarePoly.from_coeffs(expected_dual)


def test_pair_space_inversion_signs():
    for system in ("a1", "a3"):
        torus, inversion, _ = pair_space_model(system)
        mats = induced_map(inversion)
        assert mats[1] == ((Fraction(1),),)   # preserved dual-degree-3 class
        assert mats[2] == ((Fraction(-1),),)  # flipped dual-degree-2 class


def test_punctured_line_swap_acts_by_minus_one():
    fiber, swap, _ = punctured_line_model()
    assert homology(fiber) == [0, 1]
    mats = induced_map(swap)
    assert mats[1] == ((Fraction(-1),),)


def test_mapping_torus_rejects_non_self_map():
    f = identity_map(circle(1))
    with pytest.raises(InputError):
        mapping_torus(wedge_of_loops([1, 1]), f, 1)


def test_chain_map_must_commute_with_the_boundaries():
    edge = graph_complex(2, [(0, 1, 1)])
    # swapping the endpoints while fixing the edge sends d e = v1 - v0 to
    # v0 - v1, but d f(e) = d e
    with pytest.raises(InputError, match="do not commute"):
        ChainMap(edge, edge, (((0, 1), (1, 0)), ((1,),)))
    # into a point, which has no 1-chains: the degree-0 block must kill d e
    point = ChainComplex([1], [])
    assert ChainMap(edge, point, (((1, 1),), ())).target is point
    with pytest.raises(InputError, match="do not commute"):
        ChainMap(edge, point, (((1, 0),), ()))
    # two degrees above the target's top both blocks of the square are empty
    cells = ChainComplex([1, 1, 1], [[[0]], [[0]]])
    assert induced_map(ChainMap(cells, point, (((1,),), (), ()))) == [((1,),)]


def _grid(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_sign_conventions_pinned_by_exact_matrices():
    # torus of the loop swap on wedge_of_loops([1, 1]) with base twist -1:
    # T_1 = (loop b, loop c, swept vertex), T_2 = (swept b, swept c)
    torus, inversion, _ = pair_space_model("a1")
    assert torus.dims == (1, 3, 2)
    assert torus.boundaries == [_grid([[0, 0, -2]]),
                                _grid([[1, 1], [1, 1], [0, 0]])]
    assert [list(map(list, b)) for b in inversion.blocks] == [
        _grid([[1]]), _grid([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), _grid([[0, 1], [1, 0]])]
    # T_1 = (v (x) a, v (x) b, e (x) v), T_2 = (e (x) a, e (x) b)
    product = tensor(circle(-1), wedge_of_loops([1, -1]))
    assert product.dims == (1, 3, 2)
    assert product.boundaries == [_grid([[0, -2, -2]]),
                                  _grid([[-2, 0], [0, -2], [0, 2]])]


def test_mapping_torus_reflection_is_chain_map():
    # validated inside ChainMap construction
    for system in ("a1", "a2", "a3"):
        torus, inversion, _ = pair_space_model(system)
        assert inversion.source is torus


# --- induced maps -----------------------------------------------------------------

def test_induced_identity():
    c = tensor(circle(1), circle(1))
    mats = induced_map(identity_map(c))
    for k, m in enumerate(mats):
        n = homology(c)[k]
        assert len(m) == n
        for i in range(n):
            assert m[i][i] == 1


def test_induced_map_of_iso_is_invertible():
    rng = SplitMix64(17)
    for _ in range(20):
        n = rng.int_in(1, 3)
        twists = [(-1) ** rng.int_in(0, 1) for _ in range(n)]
        c = wedge_of_loops(twists)
        # permuting loops with equal twists is a chain isomorphism
        if len(set(twists)) != 1:
            continue
        perm = list(range(n))
        i, j = rng.int_in(0, n - 1), rng.int_in(0, n - 1)
        perm[i], perm[j] = perm[j], perm[i]
        blocks = (((Fraction(1),),),
                  tuple(tuple(Fraction(int(perm[r] == col)) for col in range(n))
                        for r in range(n)))
        f = ChainMap(c, c, blocks)
        mats = induced_map(f)
        for m in mats:
            if not m:
                continue
            from quintics.exactalg import QQ, rank_rows
            assert rank_rows(QQ, [list(r) for r in m]) == len(m)


def test_induced_map_of_a_self_map_takes_each_basis_once(monkeypatch):
    from quintics import twisted

    calls = []
    basis = twisted._homology_basis

    def counting(c, k):
        calls.append(k)
        return basis(c, k)

    monkeypatch.setattr(twisted, "_homology_basis", counting)
    torus, inversion, _ = pair_space_model("a1")
    mats = induced_map(inversion)
    assert calls == list(range(torus.top + 1))
    # between two equal but distinct complexes both ends take their bases
    twin = ChainComplex(torus.dims, torus.boundaries)
    calls.clear()
    assert induced_map(ChainMap(torus, twin, inversion.blocks)) == mats
    assert len(calls) == 2 * (torus.top + 1)


@pytest.mark.parametrize("dims,boundaries,betti", [
    ([0, 2], [[]], [0, 2]),
    ([1, 0, 1], [[[]], []], [1, 0, 1]),
    ([2, 1, 0], [[[1], [-1]], [[]]], [1, 0, 0]),
])
def test_empty_chain_groups(dims, boundaries, betti):
    # an empty chain group at the bottom, in the middle and at the top
    c = ChainComplex(dims, boundaries)
    assert homology(c) == betti
    mats = induced_map(identity_map(c))
    assert [len(m) for m in mats] == betti
    for m in mats:
        assert m == tuple(tuple(int(i == j) for j in range(len(m)))
                          for i in range(len(m)))


# --- duality and Euler characteristics ----------------------------------------------

def test_poincare_dual_examples():
    assert poincare_dual(PoincarePoly.one(), 1) == PoincarePoly.t_power(2)
    assert poincare_dual(PoincarePoly.t_power(2), 2) == PoincarePoly.t_power(2)
    assert (poincare_dual(PoincarePoly.from_coeffs({1: 1, 2: 1}), 2)
            == PoincarePoly.from_coeffs({2: 1, 3: 1}))


def test_poincare_dual_rejects_overflow():
    with pytest.raises(InputError):
        poincare_dual(PoincarePoly.t_power(5), 2)


def test_poincare_dual_involution_random():
    rng = SplitMix64(31)
    for _ in range(100):
        n = rng.int_in(1, 5)
        coeffs = {d: rng.int_in(0, 3) for d in range(2 * n + 1)}
        p = PoincarePoly.from_coeffs(coeffs)
        assert p.dual(n).dual(n) == p


def test_twisted_euler_characteristic_matches_cells():
    rng = SplitMix64(49)
    for _ in range(60):
        c = _random_graph_complex(rng)
        b = homology(c)
        euler_h = sum((-1) ** k * v for k, v in enumerate(b))
        assert euler_h == c.euler_characteristic_cells()
    # and the identity survives products and mapping tori
    for _ in range(20):
        c = tensor(_random_graph_complex(rng), _random_graph_complex(rng))
        b = homology(c)
        assert sum((-1) ** k * v for k, v in enumerate(b)) \
            == c.euler_characteristic_cells()
