"""Finite chain complexes with rank-1 twisted coefficients over the rationals.

A :class:`ChainComplex` stores one exact rational boundary matrix per positive
dimension and insists on boundary-squared-equals-zero at construction time.
Rank-1 local systems enter through the constructors: a graph with a nonzero
transport scalar on each edge assembles to a twisted complex, chain-level
tensor products implement the Kuenneth product, and the algebraic mapping
torus realizes a fibration over the circle with prescribed fiber monodromy
and a transport twist on the base loop.

Sign conventions, fixed here once and pinned by the tests:

* tensor:        d(a (x) b) = da (x) b + (-1)^deg(a) a (x) db
* mapping torus: T_k = C_k + C_{k-1},
                 d(x, y) = (d x + (-1)^k (y - twist * f(y)), d y)

The swept summand C_{k-1} records fiber cells crossed with the base edge.
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
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d < 0 for d in self.dims):
            raise InputError("cell counts must be nonnegative, starting at dimension 0")
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
    blocks = []
    for d in c.dims:
        blocks.append(tuple(tuple(Fraction(int(i == j)) for j in range(d))
                            for i in range(d)))
    return ChainMap(c, c, tuple(blocks))


# ---------------------------------------------------------------------------
# cellular front end: graphs with edge transport


@dataclass(frozen=True)
class CwComplex:
    """Named cells with integer incidence matrices.

    ``edges`` carries endpoint data (name, start vertex, end vertex) because
    incidence numbers alone cannot see a loop.  ``higher[k]`` is the integer
    boundary matrix from (k+2)-cells to (k+1)-cells.
    """

    vertices: tuple
    edges: tuple
    higher: tuple = ()

    def __post_init__(self):
        names = set(self.vertices)
        if len(names) != len(self.vertices):
            raise InputError("duplicate vertex names")
        seen = set()
        for name, start, end in self.edges:
            if name in seen:
                raise InputError("duplicate edge names")
            seen.add(name)
            if start not in names or end not in names:
                raise InputError(f"edge {name} has unknown endpoints")


@dataclass(frozen=True)
class LocalSystem:
    """Nonzero transport scalar per 1-cell; the trivial system is all ones."""

    monodromy: dict

    def scalar(self, edge_name: str) -> Fraction:
        v = QQ.coerce(self.monodromy.get(edge_name, 1))
        if v == 0:
            raise InputError("transport scalars must be nonzero")
        return v


def assemble(cw: CwComplex, system: LocalSystem) -> ChainComplex:
    """Twisted chain complex of a cell complex under an edge transport system.

    An edge from u to v with transport scalar t contributes the boundary
    t*v - u; a loop at u contributes (t - 1)*u.  Higher boundary matrices are
    taken verbatim, and the boundary-squared check rejects systems that are
    inconsistent with them.
    """
    vindex = {name: i for i, name in enumerate(cw.vertices)}
    nv, ne = len(cw.vertices), len(cw.edges)
    d1 = _zeros(nv, ne)
    for j, (name, start, end) in enumerate(cw.edges):
        t = system.scalar(name)
        d1[vindex[end]][j] += t
        d1[vindex[start]][j] -= 1
    dims = [nv, ne]
    boundaries = [d1]
    prev = ne
    for mat in cw.higher:
        rows = [[QQ.coerce(v) for v in row] for row in mat]
        ncols = len(rows[0]) if rows else 0
        if len(rows) != prev:
            raise InputError("higher boundary has the wrong number of rows")
        dims.append(ncols)
        boundaries.append(rows)
        prev = ncols
    return ChainComplex(dims, boundaries)


def graph_complex(num_vertices: int, edges: Sequence) -> ChainComplex:
    """Twisted complex of a graph; edges are (start, end, transport) triples.

    Vertices are named 0..num_vertices-1 and edge j is named j.
    """
    cw = CwComplex(tuple(range(num_vertices)),
                   tuple((j, start, end) for j, (start, end, _) in enumerate(edges)))
    return assemble(cw, LocalSystem({j: t for j, (_, _, t) in enumerate(edges)}))


def circle(twist=1) -> ChainComplex:
    return graph_complex(1, [(0, 0, twist)])


def wedge_of_loops(twists: Sequence) -> ChainComplex:
    return graph_complex(1, [(0, 0, t) for t in twists])


# ---------------------------------------------------------------------------
# constructors


def _same_complex(a: ChainComplex, b: ChainComplex) -> bool:
    return a is b or (a.dims == b.dims and a.boundaries == b.boundaries)


def tensor(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Chain-level tensor product with the Koszul sign on the second factor."""
    top = c1.top + c2.top
    dims = [0] * (top + 1)
    offsets: dict = {}
    for k in range(top + 1):
        off = 0
        for i in range(k + 1):
            j = k - i
            if i <= c1.top and j <= c2.top:
                offsets[(i, j)] = off
                off += c1.dims[i] * c2.dims[j]
        dims[k] = off

    def block_index(i: int, j: int, a: int, b: int) -> int:
        return offsets[(i, j)] + a * c2.dims[j] + b

    boundaries = []
    for k in range(1, top + 1):
        mat = _zeros(dims[k - 1], dims[k])
        for i in range(k + 1):
            j = k - i
            if not (i <= c1.top and j <= c2.top) or c1.dims[i] * c2.dims[j] == 0:
                continue
            for a in range(c1.dims[i]):
                for b in range(c2.dims[j]):
                    col = block_index(i, j, a, b)
                    if i >= 1 and c1.dims[i - 1]:
                        d = c1.boundaries[i - 1]
                        for m in range(c1.dims[i - 1]):
                            if d[m][a]:
                                mat[block_index(i - 1, j, m, b)][col] += d[m][a]
                    if j >= 1 and c2.dims[j - 1]:
                        sign = Fraction(-1 if i % 2 else 1)
                        d = c2.boundaries[j - 1]
                        for m in range(c2.dims[j - 1]):
                            if d[m][b]:
                                mat[block_index(i, j - 1, a, m)][col] += sign * d[m][b]
        boundaries.append(mat)
    return ChainComplex(dims, boundaries)


def mapping_torus(c: ChainComplex, f: ChainMap, edge_twist) -> ChainComplex:
    """Algebraic mapping torus of a self chain map with a base-loop twist.

    T_k = C_k + C_{k-1} (fiber cells, then fiber cells swept around the base
    loop), with d(x, y) = (d x + (-1)^k (y - twist * f(y)), d y).  Its homology
    is that of a fibration over the circle with fiber c, fiber monodromy f,
    and the given transport twist on the base loop.
    """
    if not (_same_complex(f.source, c) and _same_complex(f.target, c)):
        raise InputError("mapping torus needs a self chain map of the fiber")
    tw = QQ.coerce(edge_twist)
    if tw == 0:
        raise InputError("the base-loop twist must be nonzero")
    top = c.top + 1
    dims = [c.dims[0]]
    for k in range(1, top + 1):
        dims.append((c.dims[k] if k <= c.top else 0) + c.dims[k - 1])
    boundaries = []
    for k in range(1, top + 1):
        nk = c.dims[k] if k <= c.top else 0
        mat = _zeros(dims[k - 1], dims[k])
        # fiber part: d x into the fiber summand of T_{k-1}
        if nk and c.dims[k - 1]:
            d = c.boundaries[k - 1]
            for i in range(c.dims[k - 1]):
                for j in range(nk):
                    mat[i][j] = d[i][j]
        # swept part: (-1)^k (y - twist*f(y)) lands in the fiber summand,
        # d y in the swept summand.
        sign = Fraction(-1 if k % 2 else 1)
        fy = f.blocks[k - 1]
        for j in range(c.dims[k - 1]):
            col = nk + j
            mat[j][col] += sign
            for i in range(c.dims[k - 1]):
                if fy[i][j]:
                    mat[i][col] -= sign * tw * fy[i][j]
            if k >= 2 and c.dims[k - 2]:
                nk1 = c.dims[k - 1]  # fiber summand width of T_{k-1}
                d = c.boundaries[k - 2]
                for i in range(c.dims[k - 2]):
                    if d[i][j]:
                        mat[nk1 + i][col] = d[i][j]
        boundaries.append(mat)
    return ChainComplex(dims, boundaries)


def mapping_torus_reflection(c: ChainComplex, f: ChainMap, edge_twist,
                             torus: ChainComplex) -> ChainMap:
    """The self map of a mapping torus covering inversion of the base circle.

    On the fiber summand it is the identity (the basepoint fiber is fixed);
    a swept cell y goes to -twist * f(y) swept, the transport correction for
    traversing the base loop backwards.  For the involutive monodromies used
    here this commutes with the torus boundary.
    """
    tw = QQ.coerce(edge_twist)
    blocks = []
    for k in range(torus.top + 1):
        nk = c.dims[k] if k <= c.top else 0
        nprev = c.dims[k - 1] if k >= 1 else 0
        size = nk + nprev
        mat = _zeros(size, size)
        for i in range(nk):
            mat[i][i] = Fraction(1)
        if nprev:
            fy = f.blocks[k - 1]
            for j in range(nprev):
                for i in range(nprev):
                    if fy[i][j]:
                        mat[nk + i][nk + j] = -tw * fy[i][j]
        blocks.append(tuple(tuple(row) for row in mat))
    return ChainMap(torus, torus, tuple(blocks))


# ---------------------------------------------------------------------------
# induced maps on homology


def _homology_basis(c: ChainComplex, k: int) -> tuple:
    """Cycle representatives of a homology basis plus the boundary basis."""
    n = c.dims[k]
    cycle_rows = _kernel_rows(QQ, c.boundaries[k - 1] if k else [], n).basis
    boundary_rows = []
    if k < c.top:
        reduced, pivots = _rref(QQ, list(zip(*c.boundaries[k])))
        boundary_rows = reduced[:len(pivots)]
    # A cycle extends the span of the boundaries and the cycles before it
    # exactly when its column is a pivot column of the stack taken as
    # columns, boundary rows first.
    _, pivots = _rref(QQ, list(zip(*boundary_rows, *cycle_rows)))
    nb = len(boundary_rows)
    return tuple(cycle_rows[i - nb] for i in pivots if i >= nb), boundary_rows


def _coords_in(basis_rows: Sequence, extra_rows: Sequence, vector: Sequence) -> list:
    """Coordinates of ``vector`` on ``extra_rows`` modulo span(basis_rows)."""
    rows = [*basis_rows, *extra_rows]
    if not rows:
        return []
    cols = len(rows)
    aug = [[*col, QQ.coerce(v)] for col, v in zip(zip(*rows), vector)]
    reduced, pivots = _rref(QQ, aug)
    if cols in pivots:
        raise InputError("vector does not lie in the span")
    sol = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        sol[pc] = reduced[i][cols]
    return sol[len(basis_rows):]


def induced_map(f: ChainMap) -> list:
    """Matrices of a chain map on homology, one per shared dimension.

    A self map takes each degree's homology basis once, for both ends."""
    out = []
    top = min(f.source.top, f.target.top)
    for k in range(top + 1):
        src_basis, src_bnd = _homology_basis(f.source, k)
        tgt_basis, tgt_bnd = ((src_basis, src_bnd) if f.target is f.source
                              else _homology_basis(f.target, k))
        images = _matmul(src_basis, list(zip(*f.blocks[k])), f.target.dims[k])
        cols = [_coords_in(tgt_bnd, tgt_basis, image) for image in images]
        matrix = tuple(tuple(cols[j][i] for j in range(len(src_basis)))
                       for i in range(len(tgt_basis)))
        out.append(matrix)
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
