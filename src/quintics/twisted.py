"""Finite chain complexes with rank-1 twisted coefficients over the rationals.

A :class:`ChainComplex` stores one exact rational boundary matrix per positive
dimension and insists on boundary-squared-equals-zero at construction time.
Rank-1 local systems enter through the constructors: ``assemble`` takes named
vertices, (name, start, end) edges and a transport scalar per edge as plain
data, chain-level tensor products implement the Kuenneth product, and the
algebraic mapping torus realizes a fibration over the circle with prescribed
fiber monodromy and a transport twist on the base loop.  Each constructor is
its block formula, built from ``_identity``, ``_kron`` and ``_blocks``.

Sign conventions, fixed here once and pinned by exact boundary matrices in
the tests:

* tensor:        d(a (x) b) = da (x) b + (-1)^deg(a) a (x) db
* mapping torus: T_k = C_k + C_{k-1},
                 d(x, y) = (d x + (-1)^k (y - twist * f(y)), d y)

The swept summand C_{k-1} records fiber cells crossed with the base edge.
Induced maps on homology take one reduction per degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .exactalg import QQ, _kernel_rows, _rref, rank_rows
from .poincare import PoincarePoly


def _zeros(nrows: int, ncols: int) -> list:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def _identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _kron(a: Sequence, b: Sequence, sign: int = 1) -> list:
    """sign * (a (x) b) for row-stored matrices, indexed with a's index major."""
    return [[sign * x * y for x in ra for y in rb] for ra in a for rb in b]


def _blocks(row_dims: Sequence, col_dims: Sequence, placed: dict) -> list:
    """The block matrix with ``placed[r, c]`` (row-stored) in block row r and
    block column c, and zeros elsewhere."""
    row_at = [sum(row_dims[:r]) for r in range(len(row_dims))]
    col_at = [sum(col_dims[:c]) for c in range(len(col_dims))]
    mat = _zeros(sum(row_dims), sum(col_dims))
    for (r, c), block in placed.items():
        for i, row in enumerate(block):
            mat[row_at[r] + i][col_at[c]:col_at[c] + col_dims[c]] = row
    return mat


def _matmul(a: Sequence, b: Sequence, ncols: int) -> list:
    """The product of two matrices stored as lists of rows; ``ncols`` is the
    width of ``b``, which may have no rows."""
    cols = list(zip(*b)) or [()] * ncols
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


class ChainComplex:
    """A finite chain complex of rational vector spaces.

    ``dims[k]`` is the number of cells in dimension k; ``boundaries[k-1]``
    holds the dims[k-1] rows of the dims[k-1] x dims[k] boundary matrix, as
    lists of Fractions, for 1 <= k <= top.
    """

    def __init__(self, dims: Sequence[int], boundaries: Sequence):
        self.dims = tuple(dims)
        if not self.dims or any(type(d) is not int or d < 0 for d in self.dims):
            raise InputError("cell counts must be nonnegative integers, "
                             "starting at dimension 0")
        mats = []
        for k, rows in enumerate(boundaries, start=1):
            grid = [[QQ.coerce(v) for v in row] for row in rows]
            if len(grid) != self.dims[k - 1] or any(len(r) != self.dims[k] for r in grid):
                raise InputError(f"boundary {k} has the wrong shape")
            mats.append(grid)
        if len(mats) != len(self.dims) - 1:
            raise InputError("need exactly one boundary matrix per positive dimension")
        self.boundaries = mats
        self._check_dd_zero()

    def _check_dd_zero(self) -> None:
        for k in range(2, len(self.dims)):
            # C_k -> C_{k-1} -> C_{k-2}
            dd = _matmul(self.boundaries[k - 2], self.boundaries[k - 1], self.dims[k])
            if any(any(row) for row in dd):
                raise InputError("boundary composed with boundary is nonzero")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def euler_characteristic_cells(self) -> int:
        return sum((-1) ** k * d for k, d in enumerate(self.dims))


def homology(c: ChainComplex) -> list:
    """Betti numbers b_0..b_top of a twisted chain complex, exactly over QQ."""
    ranks = [0] * (c.top + 2)
    for k in range(1, c.top + 1):
        ranks[k] = rank_rows(QQ, c.boundaries[k - 1])
    return [c.dims[k] - ranks[k] - ranks[k + 1] for k in range(c.top + 1)]


def betti_poly(c: ChainComplex) -> PoincarePoly:
    return PoincarePoly.from_betti(homology(c))


def poincare_dual(p: PoincarePoly, complex_dim: int) -> PoincarePoly:
    """Degree-reversing duality for an oriented manifold of complex dimension n.

    For the finite models used here the homology and cohomology ranks agree
    degreewise, so t^(2n) * p(1/t) converts the chain-level Betti polynomial
    into the locally finite (Borel-Moore) one.
    """
    return p.dual(complex_dim)


@dataclass(frozen=True)
class ChainMap:
    """A chain map given by one rational matrix per dimension."""

    source: ChainComplex
    target: ChainComplex
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != self.source.top + 1:
            raise InputError("need one matrix per dimension of the source")
        clean = []
        for k, rows in enumerate(self.blocks):
            grid = tuple(tuple(QQ.coerce(v) for v in row) for row in rows)
            tdim = self.target.dims[k] if k <= self.target.top else 0
            if len(grid) != tdim:
                raise InputError(f"map block {k} has the wrong shape")
            for row in grid:
                if len(row) != self.source.dims[k]:
                    raise InputError(f"map block {k} has the wrong shape")
            clean.append(grid)
        object.__setattr__(self, "blocks", tuple(clean))
        self._check_commutes()

    def _check_commutes(self) -> None:
        for k in range(1, self.source.top + 1):
            n = self.source.dims[k]
            f_d = _matmul(self.blocks[k - 1], self.source.boundaries[k - 1], n)
            # above the target's top, D_k = 0 and d f is zero
            d_f = (_matmul(self.target.boundaries[k - 1], self.blocks[k], n)
                   if k <= self.target.top else _zeros(len(f_d), n))
            if f_d != d_f:
                raise InputError("matrices do not commute with the boundaries")


def identity_map(c: ChainComplex) -> ChainMap:
    return ChainMap(c, c, tuple(_identity(d) for d in c.dims))


# ---------------------------------------------------------------------------
# cellular front end: graphs with edge transport


def assemble(vertices: Sequence, edges: Sequence, monodromy: dict,
             higher: Sequence = ()) -> ChainComplex:
    """Twisted chain complex of named cells under edge transport scalars.

    ``edges`` holds (name, start vertex, end vertex) triples, because
    incidence numbers alone cannot see a loop; ``monodromy`` maps an edge
    name to its nonzero transport scalar, 1 where absent.  An edge from u to
    v with scalar t contributes the boundary t*v - u; a loop at u contributes
    (t - 1)*u.  ``higher[k]`` is the boundary matrix from (k+2)-cells to
    (k+1)-cells, taken verbatim, and the boundary-squared check rejects
    transport that is inconsistent with it.
    """
    vindex = {name: i for i, name in enumerate(vertices)}
    if len(vindex) != len(vertices):
        raise InputError("duplicate vertex names")
    d1 = _zeros(len(vertices), len(edges))
    seen = set()
    for j, (name, start, end) in enumerate(edges):
        if name in seen:
            raise InputError("duplicate edge names")
        seen.add(name)
        if start not in vindex or end not in vindex:
            raise InputError(f"edge {name} has unknown endpoints")
        t = QQ.coerce(monodromy.get(name, 1))
        if t == 0:
            raise InputError("transport scalars must be nonzero")
        d1[vindex[end]][j] += t
        d1[vindex[start]][j] -= 1
    dims, boundaries = [len(vertices), len(edges)], [d1]
    for rows in higher:
        if len(rows) != dims[-1]:
            raise InputError("higher boundary has the wrong number of rows")
        dims.append(len(rows[0]) if rows else 0)
        boundaries.append(rows)
    return ChainComplex(dims, boundaries)


def graph_complex(num_vertices: int, edges: Sequence) -> ChainComplex:
    """Twisted complex of a graph; edges are (start, end, transport) triples.

    Vertices are named 0..num_vertices-1 and edge j is named j.
    """
    return assemble(range(num_vertices),
                    [(j, start, end) for j, (start, end, _) in enumerate(edges)],
                    {j: t for j, (_, _, t) in enumerate(edges)})


def circle(twist=1) -> ChainComplex:
    return graph_complex(1, [(0, 0, twist)])


def wedge_of_loops(twists: Sequence) -> ChainComplex:
    return graph_complex(1, [(0, 0, t) for t in twists])


# ---------------------------------------------------------------------------
# constructors


def _same_complex(a: ChainComplex, b: ChainComplex) -> bool:
    return a is b or (a.dims == b.dims and a.boundaries == b.boundaries)


def tensor(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Chain-level tensor product with the Koszul sign on the second factor.

    T_k is the sum of C1_i (x) C2_(k-i) by increasing i, each block indexed
    with the C1 cell major.  d1 (x) 1 lands in block (i-1, j) and
    (-1)^i 1 (x) d2 in block (i, j-1).
    """
    pairs = [[(i, k - i) for i in range(max(0, k - c2.top), min(k, c1.top) + 1)]
             for k in range(c1.top + c2.top + 1)]
    sizes = [[c1.dims[i] * c2.dims[j] for i, j in ps] for ps in pairs]
    boundaries = []
    for k in range(1, len(pairs)):
        lower = {pair: r for r, pair in enumerate(pairs[k - 1])}
        placed = {}
        for col, (i, j) in enumerate(pairs[k]):
            if i:
                placed[lower[i - 1, j], col] = _kron(c1.boundaries[i - 1],
                                                     _identity(c2.dims[j]))
            if j:
                placed[lower[i, j - 1], col] = _kron(_identity(c1.dims[i]),
                                                     c2.boundaries[j - 1], (-1) ** i)
        boundaries.append(_blocks(sizes[k - 1], sizes[k], placed))
    return ChainComplex([sum(s) for s in sizes], boundaries)


def mapping_torus(c: ChainComplex, f: ChainMap, edge_twist) -> ChainComplex:
    """Algebraic mapping torus of a self chain map with a base-loop twist.

    T_k = C_k + C_{k-1} (fiber cells, then fiber cells swept around the base
    loop), with boundary [[d_k, (-1)^k (1 - twist * f_{k-1})], [0, d_{k-1}]].
    Its homology is that of a fibration over the circle with fiber c, fiber
    monodromy f, and the given transport twist on the base loop.
    """
    if not (_same_complex(f.source, c) and _same_complex(f.target, c)):
        raise InputError("mapping torus needs a self chain map of the fiber")
    tw = QQ.coerce(edge_twist)
    if tw == 0:
        raise InputError("the base-loop twist must be nonzero")
    n = [*c.dims, 0]  # n[top + 1] and n[-1] are the empty chain groups
    boundaries = []
    for k in range(1, c.top + 2):
        sign = (-1) ** k
        placed = {(0, 1): [[sign * (e - tw * v) for e, v in zip(one, row)]
                           for one, row in zip(_identity(n[k - 1]), f.blocks[k - 1])]}
        if k <= c.top:
            placed[0, 0] = c.boundaries[k - 1]
        if k >= 2:
            placed[1, 1] = c.boundaries[k - 2]
        boundaries.append(_blocks((n[k - 1], n[k - 2]), (n[k], n[k - 1]), placed))
    return ChainComplex([n[k] + n[k - 1] for k in range(c.top + 2)], boundaries)


def mapping_torus_reflection(c: ChainComplex, f: ChainMap, edge_twist,
                             torus: ChainComplex) -> ChainMap:
    """The self map of a mapping torus covering inversion of the base circle.

    It is diag(1, -twist * f_{k-1}): the identity on the fiber summand (the
    basepoint fiber is fixed), and a swept cell y goes to -twist * f(y)
    swept, the transport correction for traversing the base loop backwards.
    For the involutive monodromies used here this commutes with the torus
    boundary.
    """
    tw = QQ.coerce(edge_twist)
    n = [*c.dims, 0]
    blocks = [_identity(n[0])]
    for k in range(1, c.top + 2):
        sizes = (n[k], n[k - 1])
        blocks.append(_blocks(sizes, sizes, {(0, 0): _identity(n[k]),
                                             (1, 1): _kron([[-tw]], f.blocks[k - 1])}))
    return ChainMap(torus, torus, tuple(blocks))


# ---------------------------------------------------------------------------
# induced maps on homology


def _homology_basis(c: ChainComplex, k: int) -> tuple:
    """Cycle representatives of a homology basis plus the boundary vectors.

    The boundary vectors are the columns of d_(k+1), not reduced: a cycle
    extends the span of the boundaries and the cycles before it exactly when
    its column is a pivot column of the stack taken as columns, boundaries
    first, and that depends only on the span of the columns before it.
    """
    cycle_rows = _kernel_rows(QQ, c.boundaries[k - 1] if k else [], c.dims[k]).basis
    boundary_rows = list(zip(*c.boundaries[k])) if k < c.top else []
    _, pivots = _rref(QQ, list(zip(*boundary_rows, *cycle_rows)))
    nb = len(boundary_rows)
    return tuple(cycle_rows[i - nb] for i in pivots if i >= nb), boundary_rows


def induced_map(f: ChainMap) -> list:
    """Matrices of a chain map on homology, one per shared dimension.

    Per degree one reduction of [boundaries | basis | images] as columns
    gives every image's coordinates: the basis columns are pivots, and an
    image's entries in their rows are its coordinates modulo boundaries.  A
    self map takes each degree's homology basis once, for both ends."""
    out = []
    for k in range(min(f.source.top, f.target.top) + 1):
        src_basis, src_bnd = _homology_basis(f.source, k)
        tgt_basis, tgt_bnd = ((src_basis, src_bnd) if f.target is f.source
                              else _homology_basis(f.target, k))
        images = _matmul(src_basis, list(zip(*f.blocks[k])), f.target.dims[k])
        reduced, pivots = _rref(QQ, list(zip(*tgt_bnd, *tgt_basis, *images)))
        nb, nh = len(tgt_bnd), len(tgt_basis)
        if pivots and pivots[-1] >= nb + nh:
            raise InputError("vector does not lie in the span")
        out.append(tuple(tuple(row[nb + nh:])
                         for row, pc in zip(reduced, pivots) if pc >= nb))
    return out


# ---------------------------------------------------------------------------
# built-in models

# The three sign systems on the configuration space of unordered pairs of
# nonzero complex numbers, encoded as (loop sign b, loop sign c, base twist).
PAIR_SYSTEMS = {
    "a1": (1, 1, -1),
    "a2": (-1, -1, 1),
    "a3": (-1, -1, -1),
}


def pair_space_model(system: str):
    """Mapping-torus model of unordered pairs in the punctured plane.

    The fiber is a wedge of two loops (the doubly punctured plane), the fiber
    monodromy swaps the loops, and the named sign system fixes the loop signs
    and the base twist.  Returns (torus complex, inversion chain map, complex
    dimension) ready for Betti and duality computations.
    """
    try:
        sb, sc, tw = PAIR_SYSTEMS[system]
    except KeyError as exc:
        raise InputError(f"unknown pair system {system!r}") from exc
    fiber = wedge_of_loops([sb, sc])
    swap = ChainMap(fiber, fiber, (((1,),), ((0, 1), (1, 0))))
    torus = mapping_torus(fiber, swap, tw)
    inversion = mapping_torus_reflection(fiber, swap, tw, torus)
    return torus, inversion, 2


def punctured_line_model():
    """The doubly punctured line with the sign system around both punctures.

    Returns (complex, swap chain map, complex dimension 1).  The swap models
    the reflection exchanging the two punctures; it acts by -1 on the one
    dimensional twisted H_1.
    """
    fiber = wedge_of_loops([-1, -1])
    swap = ChainMap(fiber, fiber, (((1,),), ((0, 1), (1, 0))))
    return fiber, swap, 1


BUILTIN_MODELS = {
    "pairs-a1": lambda: pair_space_model("a1"),
    "pairs-a2": lambda: pair_space_model("a2"),
    "pairs-a3": lambda: pair_space_model("a3"),
    "punctured-line": lambda: punctured_line_model(),
}
