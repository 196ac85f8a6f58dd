"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions, held as their values on the
interior nodes.  The energy E is exact per triangle, and the p-norm N is the
edge-midpoint rule.  One operator record per mesh (``_operators``) holds the
sparse map A = [G; Mid] from the values to the triangle gradients and the
edge-midpoint values, built on its first use, so one product A u gives both
sums and one product with A^T the gradient of E - lam N.  Every matrix a
solve factors is data on one sparsity pattern, factored in the record's
reverse Cuthill-McKee order (Cuthill and McKee, 1969; George and Liu, 1981):
as a band Cholesky, or by SuperLU where the band is wider than BAND_CUTOFF.

Inverse iteration on the pencil (K, M), K the form's p = 2 stiffness and M
the consistent mass, gives the p = 2 ground state u0, the answer at p = 2,
with no product with A: the midpoint rule is exact for products of P1
functions, so Mid^T diag(weight) Mid = M, ||u||_2^2 = u.Mu, and the quotient
is u.Ku / u.Mu.  At other p, u0 starts one projected descent on the unit
p-norm sphere along Sobolev gradients B^-1 g (Neuberger; for p-eigenvalues,
Horak, EJDE 2011) in a frozen metric B, with L-BFGS corrections (Nocedal,
Math. Comp. 1980):

- p >= LAGGED_P_CUTOFF: B = K, and above p = 2 on a band factor a finish of
  shifted Newton steps, the inverse power method for the p-Laplacian
  (Biezuner, Ercole and Martins, J. Funct. Anal. 2009) shifted toward lam;
- p < LAGGED_P_CUTOFF: B = K_w = G^T (m2 (x) diag(|T| q_T^((p-2)/2))) G, the
  lagged-diffusivity (Kacanov) stiffness of u0, q_T = Q(grad u0|_T) (Huang,
  Li and Liu, J. Sci. Comput. 2007; Diening, Fornasier, Tomasi and Wank,
  Numer. Math. 2020).

Every result reports the dual-norm residual sqrt(g . K^-1 g) / (p lam) of the
returned pair, g the gradient of E(u) - lam N(u), in the metric of K whatever
metric the descent steps in; the descent stops on it.  At p = 2, u of unit
M-norm, g = 2 r with r = Ku - lam Mu, and the inverse iteration's last step
carries Ku, so the residual sqrt(r . K^-1 r) / lam takes one solve.  Below
the cut-off K_w - w_min K = G^T (m2 (x) diag(b - w_min |T|)) G is positive
semidefinite, b the lagged weights and w_min = min_T b_T / |T|, so

    g . K^-1 g >= w_min g . K_w^-1 g,

and an iteration whose w_min g . K_w^-1 g exceeds 2 (bound p lam)^2 cannot
stop and skips its solve with K.  ``directional_constant`` is a closed form.
"""

from __future__ import annotations

import copy
import math
import weakref
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import SuperLU, splu

from .mesh import Mesh, interior_dof_map
from .quadform import QuadForm

# Smoothing floor inside Q(grad u)^((p-2)/2) factors for p < 2; the reported
# eigenvalue is always the unsmoothed quotient of the final iterate.
GRAD_FLOOR = 1e-12

# Below this p the descent's metric is K_w, not K (CHANGES.md: "L-BFGS
# directions in the p-descent's frozen metric").
LAGGED_P_CUTOFF = 1.65

# The widest band, in the record's reverse Cuthill-McKee order, factored as a
# band; wider ones go to SuperLU (CHANGES.md: "One mesh chain per search",
# with its timings in "Contracts in the source").
BAND_CUTOFF = 192

# Floor of the lagged diffusivity's Q(grad u0|_T), relative to its mean over
# the triangles: it keeps K_w's weights finite where the start is flat.
LAGGED_Q_FLOOR = 1e-3

# The descent stops at residual sqrt(tol / RESIDUAL_SAFETY): relative error C
# residual^2 stays below tol for C up to it (CHANGES.md: "One descent stage
# stopped on the dual-norm residual"; at p = 4, "Shifted Newton steps").
RESIDUAL_SAFETY = 1000.0

# Eigenvalue tolerance: the inverse iteration stops at this relative change
# per step, the descent at residual sqrt(tol / RESIDUAL_SAFETY).
DEFAULT_TOL = 1e-9

# The relative change at which a cold solve at p != 2 stops the inverse
# iteration that gives its descent's start, when tol is smaller (CHANGES.md:
# "Cheaper p ...", item 1).
START_TOL = 1e-3

# Above p = 2 the descent finishes with Newton steps on H - SHIFT_FRACTION lam
# H_N once its residual is below FINISH_RESIDUAL (CHANGES.md: "Shifted Newton
# steps finish the p > 2 descent").
FINISH_RESIDUAL = 3e-3
SHIFT_FRACTION = 0.95

# Secant pairs of the descent's L-BFGS direction where it has no Newton finish
# (CHANGES.md: "L-BFGS directions in the p-descent's frozen metric").
LBFGS_MEMORY = 3

# Iteration budget of the inverse iteration and of the descent, each.
MAX_ITER = 20000


@dataclass
class EigenResult:
    lam: float                # eigenvalue estimate
    u: np.ndarray             # nodal eigenfunction, unit p-norm; it may change sign
    iterations: int           # iterations that ran: inverse iteration, descent or both
    residual: float           # dual-norm residual sqrt(g.K^-1 g)/(p lam) of the returned pair
    p: float
    form: QuadForm

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "iterations": self.iterations,
            "residual": self.residual,
            "p": self.p,
            "form": self.form.to_dict(),
        }


class SolverConvergenceError(RuntimeError):
    """Iteration budget exhausted; ``best`` carries the last iterate."""

    def __init__(self, message: str, best: EigenResult):
        super().__init__(message)
        self.best = best


def _live(m: Mesh, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (3, n_live) columns and (2, 3, n_live) hat-function gradients of
    the triangles of ``m`` with a column in ``cols`` (node -> column, -1 for a
    held node), and the mask of those triangles."""
    c, grad = cols[m.triangles.T], m.grad_map.transpose(1, 2, 0)
    live = (c[0] >= 0) | (c[1] >= 0) | (c[2] >= 0)
    if not live.all():  # a disk has no such triangle, and no copy is made
        c, grad = np.compress(live, c, axis=1), np.compress(live, grad, axis=2)
    return c, grad, live


def _maps(
    m: Mesh, cols: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The stacked map A = [G; Mid] of ``m`` on the columns ``cols`` (node ->
    column, -1 for a node held at zero) as CSR, each row's columns increasing,
    with the midpoint rule's weight of each row of Mid, the mask of the
    triangles with a column and their ``grad_map``.  Rows t and n_live + t of G
    give the x and y gradient of the t-th such triangle; a triangle whose nodes
    are all held has no row.  Mid has one row per edge of ``m.edges`` with a
    column, in the table's order, weighted by the summed |T|/3 of its triangles."""
    n_cols = int(cols.max()) + 1
    cols = cols.astype(np.int32)
    c, grad, live = _live(m, cols)
    nt = c.shape[1]
    # an edge's columns in increasing order, a held end (-1) first
    ca, cb = cols[m.edges.T]
    mid = np.column_stack([np.minimum(ca, cb), np.maximum(ca, cb)])
    kept = mid[:, 1] >= 0
    # each row's count of columns; the index arrays are int32, as the matrix keeps them
    valid = (c >= 0).view(np.int8)
    per_triangle = valid[0] + valid[1] + valid[2]
    count = np.concatenate([per_triangle, per_triangle, 1 + (mid[kept, 0] >= 0)], dtype=np.int32)
    indptr = np.zeros(len(count) + 1, dtype=np.int32)
    np.cumsum(count, out=indptr[1:])
    nnz_g, nnz = int(indptr[nt]), int(indptr[-1])
    # vertex k's entry follows those of its triangle's columns below its own,
    # in the x row and the y row; a held vertex's (-1) goes to a spare slot
    lt01, lt02, lt12 = ((c[i] < c[j]).view(np.int8) for i, j in ((0, 1), (0, 2), (1, 2)))
    first = indptr[:nt] - np.int64(3) + count[:nt]
    indices, data = np.empty(nnz + 1, dtype=np.int32), np.empty(nnz + 1)
    for k, below in enumerate((2 - lt01 - lt02, 1 + lt01 - lt12, lt02 + lt12)):
        dest = first + below
        x_slot, y_slot = np.where(valid[k], dest, nnz), np.where(valid[k], dest + nnz_g, nnz)
        indices[x_slot], data[x_slot], data[y_slot] = c[k], grad[0, k], grad[1, k]
    indices[nnz_g : 2 * nnz_g] = indices[:nnz_g]
    indices[2 * nnz_g : nnz] = mid[mid >= 0]
    data[2 * nnz_g : nnz] = 0.5
    a = sp.csr_matrix((data[:nnz], indices[:nnz], indptr), shape=(len(count), n_cols))
    # an edge has at most two triangles, so its sum is the same in any order
    weight = np.bincount(m.tri_edge.T.ravel(), np.tile(m.tri_area / 3.0, 3), minlength=len(m.edges))
    return a, weight[kept], live, grad.transpose(2, 0, 1)


# Entry k = 3 a + b of a triangle's 3x3 element block is in its row a, column b.
_BLOCK_ROWS, _BLOCK_COLS = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)


@dataclass
class _Operators:
    """Everything a solve needs of one mesh, on its interior nodes: one sparsity
    pattern, the diagonal and both entries of every edge between interior
    nodes, on which ``k_data``, ``tensor_data`` and ``mid_data`` build data,
    ``factor`` factors it in ``order`` and ``_matrix`` makes it a matrix.  The
    triangle arrays hold the triangles with an interior node alone;
    ``grad_map`` views a (2, 3, n_live) buffer whose rows the builders read.
    Up to BAND_CUTOFF the ``band_`` fields are set and the ``lu_`` fields are
    None; above it, the reverse.

    The map A = [G; Mid] (``_maps``) as ``a``, (2 n_live + n_mid, n_int) CSR,
    its transpose ``a_t`` and the (n_mid,) midpoint-rule weights ``weight``,
    the summed |T|/3 of each edge, are built together on the first read of
    any of them, from ``mesh`` and ``cols``: a p = 2 solve reads none."""

    mesh: Mesh              # a copy sharing the mesh's arrays, not the key of _RECORDS
    cols: np.ndarray        # (n_nodes,) column of each node, -1 for a boundary node
    area: np.ndarray        # (n_live,) |T| of the triangles with an interior node
    grad_map: np.ndarray    # (n_live, 2, 3) their hat-function gradients
    slot: np.ndarray        # (9, n_live) data index of block entry k, nnz at a boundary node
    mid_slot: np.ndarray    # (4, n_mid) data index of each Mid row's entries, as ``_pattern`` says
    indices: np.ndarray     # the pattern, CSC with sorted rows
    indptr: np.ndarray
    pieces: np.ndarray = field(init=False)   # (3, nnz) data of K_xx, K_xy + K_yx and K_yy
    mass: sp.csc_matrix = field(init=False)  # M, which is |T|/12 (1 + delta_ij) per triangle
    order: np.ndarray = field(init=False)    # (n_int,) interior node of each row of a factor
    rank: np.ndarray = field(init=False)     # (n_int,) row of each interior node: order's inverse
    bandwidth: int = field(init=False)
    band_entries: np.ndarray | None = field(init=False)  # data index of each lower entry
    band_slot: np.ndarray | None = field(init=False)     # its index in the raveled band
    lu_entries: np.ndarray | None = field(init=False)    # data index of each entry in order
    lu_indices: np.ndarray | None = field(init=False)    # the pattern in order, CSC
    lu_indptr: np.ndarray | None = field(init=False)

    def __post_init__(self) -> None:
        self.pieces = self._pieces()
        mass = np.where(_BLOCK_ROWS == _BLOCK_COLS, 2.0, 1.0)[:, None] * (self.area / 12.0)
        self.mass = self._matrix(self._assemble(mass))
        n = len(self.indptr) - 1
        pattern = sp.csc_matrix((np.ones(len(self.indices)), self.indices, self.indptr), (n, n))
        self.order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        counts = np.diff(self.indptr)
        rows = self.rank[self.indices]
        cols = np.repeat(self.rank, counts)
        self.bandwidth = int(np.max(rows - cols, initial=0))
        self.band_entries = self.band_slot = None
        self.lu_entries = self.lu_indices = self.lu_indptr = None
        if self.bandwidth <= BAND_CUTOFF:
            self.band_entries = np.flatnonzero(rows >= cols)
            # entry (i, j), i >= j, is at row i - j and column j of the band
            rows, cols = rows[self.band_entries], cols[self.band_entries]
            self.band_slot = rows - cols + (self.bandwidth + 1) * cols
        else:
            # the whole pattern in order, each column's rows sorted
            self.lu_entries = np.argsort(cols * n + rows)
            self.lu_indices = rows[self.lu_entries].astype(np.int32)
            self.lu_indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(counts[self.order], out=self.lu_indptr[1:])

    def __getattr__(self, name: str):
        # only a missing attribute gets here: the map fields on their first read
        if name not in ("a", "a_t", "weight"):
            raise AttributeError(name)
        self.a, self.weight, _, _ = _maps(self.mesh, self.cols)
        self.a_t = self.a.T
        return getattr(self, name)

    def _pieces(self) -> np.ndarray:
        """(3, nnz) data of the pieces K_xx, K_xy + K_yx and K_yy of the
        triangle weights |T|, each built in one buffer a row of triangles at a
        time, which touches less fresh memory than whole-block products."""
        gx, gy = self.grad_map.transpose(1, 2, 0)
        bx, by = self.area * gx, self.area * gy
        block = np.empty((9, len(self.area)))
        data = np.empty((3, len(self.indices)))
        # block entry (i, j) of each piece is the sum over its terms of left_i right_j
        pieces = (((bx, gx),), ((bx, gy), (by, gx)), ((by, gy),))
        for piece, ((left, right), *more) in enumerate(pieces):
            for k, (i, j) in enumerate(zip(_BLOCK_ROWS, _BLOCK_COLS)):
                np.multiply(left[i], right[j], out=block[k])
                for left2, right2 in more:
                    block[k] += left2[i] * right2[j]
            data[piece] = self._assemble(block)
        return data

    def _assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Pattern data of the sum of the (9, n_live) element blocks."""
        nnz = len(self.indices)
        return np.bincount(self.slot.ravel(), blocks.ravel(), minlength=nnz + 1)[:nnz]

    def k_data(self, m2: np.ndarray) -> np.ndarray:
        """Pattern data of the form's p = 2 stiffness K = G^T (m2 (x)
        diag|T|) G, ``m2`` its 2x2 matrix: three axpys on the pieces."""
        data = m2[0, 0] * self.pieces[0]
        data += m2[0, 1] * self.pieces[1]
        data += m2[1, 1] * self.pieces[2]
        return data

    def tensor_data(self, w: np.ndarray) -> np.ndarray:
        """Pattern data of G^T W G, W the symmetric 2x2 tensor of each
        triangle given as the (3, n_live) rows W_xx, W_xy and W_yy: block
        entry (i, j) is grad phi_i . W grad phi_j."""
        gx, gy = self.grad_map.transpose(1, 2, 0)
        wx, wy = w[0] * gx + w[1] * gy, w[1] * gx + w[2] * gy
        # one buffer, filled a row of triangles at a time, as in ``_pieces``
        block = np.empty((9, len(self.area)))
        for k, (i, j) in enumerate(zip(_BLOCK_ROWS, _BLOCK_COLS)):
            np.multiply(gx[i], wx[j], out=block[k])
            block[k] += gy[i] * wy[j]
        return self._assemble(block)

    def mid_data(self, c: np.ndarray) -> np.ndarray:
        """Pattern data of Mid^T diag(c) Mid: each of the four entries of a
        Mid row's outer product is c / 4, a held end's landing at nnz."""
        nnz = len(self.indices)
        return np.bincount(self.mid_slot.ravel(), np.tile(0.25 * c, 4), minlength=nnz + 1)[:nnz]

    def _matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix of ``data`` on the pattern, less its exact zeros."""
        return _csc(data, self.indices, self.indptr)

    def factor(self, data: np.ndarray) -> _Ordered:
        """A factorization, with a ``solve`` method, of the symmetric matrix
        of pattern data ``data`` in ``order``: up to BAND_CUTOFF the Cholesky factor
        of its lower band, which raises ``np.linalg.LinAlgError`` if the matrix is
        not positive definite, else SuperLU's (``_factor``)."""
        if self.band_slot is None:
            return _SparseLU(_csc(data[self.lu_entries], self.lu_indices, self.lu_indptr), self)
        band = np.zeros((self.bandwidth + 1) * len(self.order))
        band[self.band_slot] = data[self.band_entries]
        return _BandCholesky(band.reshape(self.bandwidth + 1, -1, order="F"), self)


def _csc(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csc_matrix:
    """The square CSC matrix of copies of ``data`` and of the pattern
    (``indices``, ``indptr``), less its exact zeros, which the identity form's
    K has on a mesh with right angles and a factorization would keep as fill."""
    shape = (len(indptr) - 1,) * 2
    k = sp.csc_matrix((data.copy(), indices.copy(), indptr.copy()), shape=shape)
    k.eliminate_zeros()
    return k


class _Ordered:
    """A factorization of a symmetric matrix in the record's order
    ``ops.order``: ``solve`` gathers the right-hand side into that order, solves
    in it (``_solve``) and gathers the solution back by ``ops.rank``."""

    def __init__(self, ops: _Operators) -> None:
        self.order, self.rank = ops.order, ops.rank

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b[self.order])[self.rank]


class _BandCholesky(_Ordered):
    """The Cholesky factor, by ``dpbtrf`` in place, of a symmetric positive
    definite matrix from its lower band ``band`` (bandwidth + 1 rows, Fortran
    order); ``np.linalg.LinAlgError`` if it is not positive definite."""

    def __init__(self, band: np.ndarray, ops: _Operators) -> None:
        super().__init__(ops)
        self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"band Cholesky failed: dpbtrf info {info}")

    def _solve(self, b: np.ndarray) -> np.ndarray:
        return dpbtrs(self.band, b, lower=1, overwrite_b=1)[0]


class _SparseLU(_Ordered):
    """SuperLU's LU (``_factor``) of ``a``, given in the record's order."""

    def __init__(self, a: sp.csc_matrix, ops: _Operators) -> None:
        super().__init__(ops)
        self.lu = _factor(a)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)


# Mesh -> its _Operators.  A Mesh is immutable and hashes by identity, so a
# record stays valid for the mesh's life and is dropped with it.
_RECORDS: weakref.WeakKeyDictionary[Mesh, _Operators] = weakref.WeakKeyDictionary()


def _pattern(m: Mesh, cols: np.ndarray, n: int, live: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stiffness pattern of ``m`` on the columns ``cols`` (node ->
    column, -1 for a held node) among ``n``, read from its edge table: the
    (9, n_live) data slot of each block entry of the triangles ``live``, the
    (4, n_mid) slot of the entries (a, a), (b, b), (a, b) and (b, a) of each row
    of Mid, a < b its columns (nnz for an entry with a held node), and the CSC
    ``indices`` and ``indptr`` of the diagonal and both entries of every edge
    with two columns.  Column numbers rise with node numbers, so the table's
    sorted edges (a, b) give each column a its rows b below the diagonal in
    order, and sorting by (b, a) each column b its rows a above it."""
    ends = cols[m.edges.T]
    inner = (ends[0] >= 0) & (ends[1] >= 0)
    a, b = np.compress(inner, ends, axis=1)
    below, above = np.bincount(a, minlength=n), np.bincount(b, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(above + 1 + below, out=indptr[1:])
    nnz = int(indptr[-1])
    diag = indptr[:-1] + above
    # an entry's slot is its column's first slot of its kind plus its rank there
    rank = np.arange(len(a))
    lower = diag[a] + 1 + rank - (np.cumsum(below) - below)[a]
    by_b = np.argsort(b * n + a)
    upper = np.empty_like(lower)
    upper[by_b] = indptr[b[by_b]] + rank - (np.cumsum(above) - above)[b[by_b]]
    indices = np.empty(nnz, dtype=np.int32)
    indices[diag], indices[lower], indices[upper] = np.arange(n), b, a
    # the slots of each edge's entries above and below the diagonal, and of
    # each column's diagonal, nnz where a node is held (index -1)
    edge_upper, edge_lower = np.full(len(inner), nnz), np.full(len(inner), nnz)
    edge_upper[inner], edge_lower[inner] = upper, lower
    diag = np.append(diag, nnz)
    # Mid's rows are the edges with a column, a held end's (-1) the lower
    low, high = np.minimum(*ends), np.maximum(*ends)
    kept = high >= 0
    mid_slot = np.array([diag[low[kept]], diag[high[kept]], edge_upper[kept], edge_lower[kept]])
    # block entry (k, k + 1) of edge k lies above the diagonal where the
    # column of vertex k is the lower, and entry (k + 1, k) then below it
    c, tri_edge = cols[m.triangles.T], m.tri_edge.T
    if not live.all():
        c, tri_edge = np.compress(live, c, axis=1), np.compress(live, tri_edge, axis=1)
    slot = np.empty((3, 3, c.shape[1]), dtype=np.int64)
    for k in range(3):
        j = (k + 1) % 3
        forward = c[k] < c[j]
        up, lo = edge_upper[tri_edge[k]], edge_lower[tri_edge[k]]
        slot[k, j] = np.where(forward, up, lo)
        slot[j, k] = np.where(forward, lo, up)
        np.take(diag, c[k], out=slot[k, k])
    return slot.reshape(9, -1), mid_slot, indices, indptr.astype(np.int32)


def _operators(m: Mesh) -> _Operators:
    """The operator record of ``m``, built on the first call for that mesh."""
    ops = _RECORDS.get(m)
    if ops is None:
        cols, n = interior_dof_map(m)
        _, grad, live = _live(m, cols)
        slot, mid_slot, indices, indptr = _pattern(m, cols, n, live)
        area = m.tri_area if live.all() else m.tri_area[live]
        grad_map = grad.transpose(2, 0, 1)
        ops = _Operators(copy.copy(m), cols, area, grad_map, slot, mid_slot, indices, indptr)
        _RECORDS[m] = ops
    return ops


def _on_all_nodes(m: Mesh, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangle gradients and edge-midpoint values of the nodal field ``u``,
    and the midpoint rule's weights of its edges."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.n_nodes,):
        raise ValueError(f"field has {u.shape} entries, mesh has {m.n_nodes} nodes")
    a, weight, _, _ = _maps(m, np.arange(m.n_nodes))
    values = a @ u
    return values[: 2 * m.n_triangles], values[2 * m.n_triangles :], weight


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y, summed by numpy's own loop: a BLAS ddot splits sums of more
    than 10,000 entries across threads, and waking a second thread costs more
    than the sum on these meshes (CHANGES.md: "Banded Cholesky")."""
    return float(np.einsum("i,i->", x, y))


def energy(m: Mesh, q: QuadForm, p: float, u: np.ndarray) -> float:
    """Anisotropic gradient energy of a nodal field, exact per triangle."""
    g = _on_all_nodes(m, u)[0].reshape(2, -1)
    qt = np.maximum((g * (q.matrix() @ g)).sum(axis=0), 0.0)
    return _dot(m.tri_area, qt ** (0.5 * p))


def pnorm_p(
    m: Mesh | _Operators, u: np.ndarray, p: float, u_pow: np.ndarray | None = None
) -> float:
    """Integral of |u|^p of the linear interpolant by the edge-midpoint rule,
    ``u`` the nodal values of a field on ``m``.  Inside a solve ``m`` is the
    solve's operators, ``u`` the edge-midpoint values and ``u_pow`` their
    sign(u) |u|^(p-1), so that |u|^p is u u_pow."""
    if isinstance(m, Mesh):
        _, u, weight = _on_all_nodes(m, u)
    else:
        weight = m.weight
    if u_pow is None:
        return _dot(weight, np.abs(u) ** p)
    return float(np.einsum("i,i,i->", weight, u, u_pow))


@dataclass
class _Point:
    """A point of the descent: the field v scaled to unit p-norm, its
    quotient, and what the quotient's gradient there needs, kept from v
    itself.  The scale s = ||v||_p^-1 enters the gradient as one factor."""

    u: np.ndarray         # (n_int,) s v, of unit p-norm
    lam: float            # the Rayleigh quotient
    scale: float          # s
    gu: np.ndarray        # (2, n_tri) triangle gradients of v, x then y
    flux: np.ndarray      # (2, n_tri) m2 gu
    weighted: np.ndarray  # (n_tri,) |T| Q(gu)^(p/2 - 1), Q floored below p = 2
    y_pow: np.ndarray     # (n_mid,) sign(y) |y|^(p - 1) of v's edge-midpoint values y


def _point(ops: _Operators, m2: np.ndarray, p: float, v: np.ndarray) -> _Point:
    """``v`` scaled to unit p-norm, with its quotient and what the gradient
    needs there.  One product A v gives the triangle gradients and the
    edge-midpoint values y, each raised to one non-integer power, Q^(p/2-1) and
    |y|^(p-1).  The quotient is homogeneous, so it is taken before the scaling.
    Below p = 2 the gradient's Q is floored at GRAD_FLOOR at the scaled field,
    GRAD_FLOOR / s^2 at v, but a triangle under the floor keeps its own Q^(p/2)
    in the quotient."""
    split = 2 * len(ops.area)
    values = ops.a @ v
    y = values[split:]
    y_pow = np.copysign(np.abs(y) ** (p - 1.0), y)
    nrm = pnorm_p(ops, y, p, y_pow)
    if nrm <= 0.0:
        raise ValueError("candidate field vanishes identically")
    scale = nrm ** (-1.0 / p)
    gu = values[:split].reshape(2, -1)
    flux = m2 @ gu
    q = np.einsum("it,it->t", gu, flux)
    floor = GRAD_FLOOR / (scale * scale) if p < 2.0 else 0.0
    q_floored = np.maximum(q, floor)
    weighted = ops.area * q_floored ** (0.5 * p - 1.0)
    e = _dot(weighted, q_floored)
    if q.min() < floor:
        # the floor smooths the gradient, not the quotient
        low = np.flatnonzero(q < floor)
        e += _dot(ops.area[low], np.maximum(q[low], 0.0) ** (0.5 * p) - floor ** (0.5 * p))
    return _Point(v * scale, e / nrm, scale, gu, flux, weighted, y_pow)


def _gradient(ops: _Operators, p: float, pt: _Point) -> np.ndarray:
    """Gradient of the Rayleigh quotient at the unit-p-norm field
    ``pt.u``, where the quotient's division by the norm drops out.  Both of its
    terms are homogeneous of degree p - 1, so it is s^(p-1) times their value
    at the unscaled field, from what ``_point`` kept."""
    c = p * pt.scale ** (p - 1.0)
    split = pt.flux.size
    terms = np.empty(ops.a.shape[0])
    np.multiply(pt.flux, c * pt.weighted, out=terms[:split].reshape(2, -1))
    np.multiply(ops.weight, pt.y_pow, out=terms[split:])
    terms[split:] *= -c * pt.lam
    return ops.a_t @ terms


def _form_gradient(m: Mesh, res: EigenResult) -> np.ndarray:
    """S = sum_T |T| (p/2) q_T^((p-2)/2) g_T g_T^T of the solved pair ``res``
    on ``m``, g_T the triangle gradients of its unit-p-norm eigenfunction and
    q_T = Q(g_T) floored as in ``_gradient``.  The eigenvalue is a minimum
    over u of a quotient smooth in the form, so dlam = tr(S dQ) for a change
    dQ of the form (Danskin's theorem; Hellmann-Feynman at p = 2).  At p = 2
    S_xx, 2 S_xy and S_yy are u.K_xx u, u.(K_xy + K_yx) u and u.K_yy u, read
    from the stiffness pieces with no product with A."""
    ops = _operators(m)
    if res.p == 2.0:
        u = res.u[~m.boundary_node]
        # each pattern entry's u_row u_col, the pattern being CSC
        xx, xy2, yy = ops.pieces @ (u[ops.indices] * np.repeat(u, np.diff(ops.indptr)))
        return np.array([[xx, 0.5 * xy2], [0.5 * xy2, yy]])
    g = (ops.a @ res.u[~m.boundary_node])[: 2 * len(ops.area)].reshape(2, -1)
    q = np.maximum((g * (res.form.matrix() @ g)).sum(axis=0), GRAD_FLOOR if res.p < 2.0 else 0.0)
    return np.einsum("it,jt->ij", g * (0.5 * res.p * ops.area * q ** (0.5 * res.p - 1.0)), g)


def _inverse_iteration(
    mass: sp.csc_matrix, lu: _Ordered, tol: float, u: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool, bool, float, np.ndarray | None]:
    """Smallest eigenpair of K u = lam M u by inverse iteration with the
    factorization ``lu`` of K from ``u`` (the ones vector if None), stopped at
    the relative eigenvalue change ``tol`` or after MAX_ITER steps.  A step is
    one solve K w = M u_prev and one product M w; the new iterate is u = w /
    ||w||_M, and its Rayleigh quotient is lam = w.Kw / w.Mw = w.M u_prev / w.Mw.
    The step also carries K u = M u_prev / ||w||_M, so the residual r = K u -
    lam M u of the last iterate takes no product with K.  A w.Mw out of (0,
    inf), as where K's entries are near the largest float, breaks it off at
    the last iterate.  Returns (u, iterations, converged, broken, lam, r), r
    None where it broke off."""
    u = np.ones(mass.shape[0]) if u is None else np.array(u, dtype=float)
    mu = mass @ u
    nrm = math.sqrt(_dot(u, mu))
    u /= nrm
    mu /= nrm
    lam_prev = None
    lam, res = math.nan, math.inf
    for it in range(1, MAX_ITER + 1):
        w = lu.solve(mu)
        mw = mass @ w
        ww = _dot(w, mw)
        if not 0.0 < ww < math.inf:
            return u, it - 1, False, True, lam, None
        lam = _dot(w, mu) / ww
        nrm = math.sqrt(ww)
        u, mu, mu_prev = w / nrm, mw / nrm, mu
        if lam_prev is not None:
            res = abs(lam - lam_prev) / lam
        lam_prev = lam
        if res <= tol:
            break
    return u, it, res <= tol, False, lam, mu_prev / nrm - lam * mu


def _factor(a: sp.csc_matrix) -> SuperLU:
    """SuperLU's LU of a symmetric positive definite stiffness matrix given in
    the record's reverse Cuthill-McKee order, for a band wider than
    BAND_CUTOFF.  A symmetric ordering and diagonal pivots give less fill than
    the default column ordering, and far less from the RCM order than from the
    mesh's node order (CHANGES.md: "One mesh chain per search")."""
    return splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def _diffusivity(m2: np.ndarray, p: float, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The flux m2 g of the (2, n_live) triangle gradients ``g``, q_T =
    Q(g_T) floored at LAGGED_Q_FLOOR times its mean over the triangles with
    an interior node, and the p-Laplacian's diffusivity q_T^((p-2)/2)."""
    flux = m2 @ g
    q = (g * flux).sum(axis=0)
    q = np.maximum(q, LAGGED_Q_FLOOR * q.mean())
    return flux, q, q ** (0.5 * p - 1.0)


def _lagged_weights(
    ops: _Operators, m2: np.ndarray, p: float, gu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Triangle weights b = |T| q_T^((p-2)/2) of K_w = G^T (m2 (x) diag b)
    G, the p-Laplacian's diffusivity frozen at the triangle gradients ``gu``
    (``_diffusivity``), and their least ratio w_min = min_T b_T / |T|."""
    diffusivity = _diffusivity(m2, p, gu.reshape(2, -1))[2]
    return ops.area * diffusivity, float(diffusivity.min())


def _k_residual(lu: _Ordered, g: np.ndarray, p: float, lam: float) -> float:
    """The dual-norm residual sqrt(g.K^-1 g) / (p lam), K factorized as ``lu``."""
    return math.sqrt(max(_dot(g, lu.solve(g)), 0.0)) / (p * lam)


def _hessians(
    ops: _Operators, m2: np.ndarray, p: float, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern data of the energy's Hessian H = p G^T (|T| q^(p/2-1) [m2 +
    (p-2) (m2 g)(m2 g)^T / q]) G and the p-norm's H_N = p (p-1) Mid^T diag(w
    |y|^(p-2)) Mid at ``u``: g its triangle gradients, q = Q(g) floored as K_w's
    is (``_diffusivity``), and y its edge-midpoint values, y^2 floored as q is."""
    values = ops.a @ u
    split = 2 * len(ops.area)
    flux, q, diffusivity = _diffusivity(m2, p, values[:split].reshape(2, -1))
    # the rows W_xx, W_xy and W_yy of each triangle's tensor
    tensor = m2[[0, 0, 1], [0, 1, 1]][:, None] + (p - 2.0) / q * flux[[0, 0, 1]] * flux[[0, 1, 1]]
    h = ops.tensor_data(p * ops.area * diffusivity * tensor)
    y2 = values[split:] ** 2
    y2 = np.maximum(y2, LAGGED_Q_FLOOR * y2.mean())
    return h, ops.mid_data(p * (p - 1.0) * ops.weight * y2 ** (0.5 * p - 1.0))


def _newton_factor(
    ops: _Operators, m2: np.ndarray, p: float, u: np.ndarray, lam: float, shift: float
) -> tuple[_Ordered | None, float]:
    """The factorization of F = H - shift lam H_N (``_hessians``) at the
    unit-p-norm field ``u``, and the shift it took: halved while F is not
    positive definite, then 0 below 1e-3, and None if even H fails."""
    h, hn = _hessians(ops, m2, p, u)
    while True:
        try:
            return ops.factor(h - shift * lam * hn), shift
        except np.linalg.LinAlgError:
            if shift == 0.0:
                return None, shift
            shift = 0.5 * shift if shift > 1e-3 else 0.0


def _two_loop(g: np.ndarray, bg: np.ndarray, pairs: deque, t: float) -> np.ndarray:
    """The L-BFGS direction H g over t, H the inverse-Hessian estimate of
    the secant ``pairs`` (s, y, B^-1 y, 1 / s.y), oldest first, from H_0 = t
    B^-1, by the two-loop recursion (Nocedal, Math. Comp. 1980).  ``bg`` is
    B^-1 g, and B^-1 of the first loop's q = g - sum_i a_i y_i is bg - sum_i
    a_i B^-1 y_i, so the direction takes no solve."""
    q, r, coefs = g.copy(), bg.copy(), []
    for s, y, by, rho in reversed(pairs):
        a = rho * _dot(s, q)
        q -= a * y
        r -= a * by
        coefs.append(a)
    for (s, y, _, rho), a in zip(pairs, reversed(coefs)):
        r += (a / t - rho * _dot(y, r)) * s
    return r


def _descent(
    ops: _Operators,
    m2: np.ndarray,
    p: float,
    u0: np.ndarray,
    bound: float,
    lu: _Ordered,
) -> tuple[np.ndarray, float, float, int]:
    """Projected Sobolev-gradient descent on the unit p-norm sphere, with a
    shifted Newton finish above p = 2 (module docstring).

    Each step moves along the two-loop L-BFGS direction d (``_two_loop``) of the
    last LBFGS_MEMORY secant pairs s = du, y = dg in the metric B, K (``lu``)
    or, below LAGGED_P_CUTOFF, the K_w of the start, factorized here.  Its
    initial inverse Hessian is t B^-1, t the Barzilai-Borwein value s.Bs / s.y of
    the newest pair (if s.y <= 0, twice the last step, and no pair is kept), so
    with no pair the step is Barzilai-Borwein's.  B = G^T (m2 (x) diag b) G with
    triangle weights b, so s.Bs = sum_T b_T Q(grad s|_T) needs no product with
    B.  The trial points are u - t d, t halved until the Armijo condition holds.
    The iterates move on the whole sphere: a P1 ground state may change sign at
    a few nodes, and |u| would pin them at 0 and can raise the quotient; ``u0``
    is flipped, if need be, to a nonnegative sum.

    Above p = 2 on a band factor, an iteration whose residual is below
    FINISH_RESIDUAL steps along d = F^-1 g from t = 1, F = H - sigma H_N
    (``_newton_factor``), and keeps no pair.  Below p = 2 and on SuperLU the
    finish was measured not to pay (CHANGES.md: "Shifted Newton steps finish
    the p > 2 descent"; "One mesh chain per search").

    With B = K_w the residual takes a solve with K, skipped while the module
    docstring's bound puts it above ``bound`` (the factor 2 covers rounding),
    and made at MAX_ITER and on a line-search exit, so the result does not
    depend on the skips.  Returns (u, lam, residual, iterations) at a residual
    of at most ``bound``, at MAX_ITER, or when the line search finds no
    decrease."""
    pt = _point(ops, m2, p, u0 if u0.sum() >= 0.0 else -u0)
    if p < LAGGED_P_CUTOFF:
        b, w_min = _lagged_weights(ops, m2, p, pt.scale * pt.gu)
        metric_lu = ops.factor(ops.tensor_data(m2[[0, 0, 1], [0, 1, 1]][:, None] * b))
    else:
        b, metric_lu = ops.area, lu
    finish = p > 2.0 and ops.band_slot is not None
    pairs: deque = deque(maxlen=0 if finish else LBFGS_MEMORY)
    newton: _Ordered | None = None
    shift, last = SHIFT_FRACTION, math.inf
    prev: _Point | None = None
    g_prev = bg_prev = None
    t = 1.0 / (1.0 + abs(pt.lam))
    it = 0
    while True:
        it += 1
        lam = pt.lam
        g = _gradient(ops, p, pt)
        d = bg = metric_lu.solve(g)
        gd = max(_dot(g, d), 0.0)
        residual = None
        if metric_lu is lu:
            residual = math.sqrt(gd) / (p * lam)
        # g.K^-1 g >= w_min g.K_w^-1 g: above this the residual is above the
        # bound, and it is computed only if the line search fails
        elif not (w_min * gd > 2.0 * (bound * p * lam) ** 2 and it < MAX_ITER):
            residual = _k_residual(lu, g, p, lam)
        if residual is not None and (residual <= bound or it == MAX_ITER):
            return pt.u, lam, residual, it
        # the Newton finish: F is factored on entering it and again after a
        # step that cut the residual by less than half; None ends the finish
        step = finish and residual < FINISH_RESIDUAL
        if step and (newton is None or residual > 0.5 * last):
            newton, shift = _newton_factor(ops, m2, p, pt.u, lam, shift)
            step = finish = newton is not None
        if step:
            d = newton.solve(g)
            gd = max(_dot(g, d), 0.0)
            t = 1.0
        elif prev is not None:
            s, y = pt.u - prev.u, g - g_prev
            sy = _dot(s, y)
            if sy > 0.0:
                # s.Bs is the p = 2 energy of s with the metric's triangle weights
                gs = pt.scale * pt.gu - prev.scale * prev.gu
                t = float(np.einsum("t,it,it->", b, gs, m2 @ gs)) / sy
                if pairs.maxlen:
                    pairs.append((s, y, bg - bg_prev, 1.0 / sy))
            else:
                t *= 2.0
        t = min(max(t, 1e-18), 1e8)
        if pairs:  # never on a Newton step: where the finish runs none is kept
            d = _two_loop(g, bg, pairs, t)
            gd = max(_dot(g, d), 0.0)
        prev, g_prev, bg_prev, last = pt, g, bg, residual

        for _ in range(60):
            trial = _point(ops, m2, p, pt.u - t * d)
            if trial.lam <= lam - 1e-4 * t * gd:
                break
            t *= 0.5
        else:
            # No decrease along the gradient (floating-point limit): the
            # residual above the bound reports the miss.
            if residual is None:
                residual = _k_residual(lu, g, p, lam)
            return pt.u, lam, residual, it
        pt = trial


def solve_p(
    m: Mesh, q: QuadForm, p: float, tol: float = DEFAULT_TOL, start: np.ndarray | None = None
) -> EigenResult:
    """Fundamental frequency for p > 1, on the operator record of ``m``.

    At p = 2 the inverse iteration gives the result at the relative change
    ``tol``: its last iterate u, of unit M-norm and so of unit 2-norm, its
    quotient lam and the residual sqrt(r.K^-1 r) / lam of r = Ku - lam Mu,
    half the gradient g, with Ku carried by its last step; only a broken-off
    iteration's pair is evaluated through A.  At other p its ground state at
    max(tol, START_TOL) starts the descent, which stops at the residual
    sqrt(tol / RESIDUAL_SAFETY).
    ``start``, a nodal field on ``m``, finite and not zero on the interior
    nodes, starts the inverse iteration at p = 2, or the descent at other p,
    instead; K is still factored, so the stopping rules do not change.

    Raises ``SolverConvergenceError``, carrying the last iterate, when the
    inverse iteration at p = 2 misses ``tol`` or breaks off at any p, or the
    descent misses its bound; ``iterations`` counts both.  ``residual`` is the
    dual-norm residual in the metric of K, NaN where a broken-off pair's
    quotient is not positive and finite."""
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (m.n_nodes,):
            raise ValueError(f"start has shape {start.shape}, mesh has {m.n_nodes} nodes")
        if not np.isfinite(start).all():
            raise ValueError("start is not finite")
        start = start[~m.boundary_node]
        if not start.any():
            raise ValueError("start vanishes on the interior nodes")
    m2 = q.matrix()
    ops = _operators(m)
    lu = ops.factor(ops.k_data(m2))
    u, iterations, broken = start, 0, False
    if p == 2.0 or start is None:
        # the answer at p = 2; the descent's start at other p
        u, iterations, converged, broken, lam, r = _inverse_iteration(
            ops.mass, lu, tol if p == 2.0 else max(tol, START_TOL), start
        )
    if broken:
        failure = f"inverse iteration broke off after {iterations} steps: w.Mw left (0, inf)"
        # a broken-off iterate's quotient and residual overflow away from
        # p = 2 on a form near the largest float: reported, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            pt = _point(ops, m2, p, u)
            u, lam, residual = pt.u, pt.lam, math.nan
            # a quotient out of (0, inf) is part of the break-off: no residual
            if 0.0 < lam < math.inf:
                residual = _k_residual(lu, _gradient(ops, p, pt), p, lam)
    elif p == 2.0:
        failure = f"inverse iteration did not reach tol {tol} in {MAX_ITER} iterations"
        # the gradient of E - lam N at the M-unit u is g = 2 r
        residual = _k_residual(lu, 2.0 * r, p, lam)
    else:
        bound = math.sqrt(tol / RESIDUAL_SAFETY)
        u, lam, residual, it = _descent(ops, m2, p, u, bound, lu)
        failure = f"descent stopped at residual {residual:.3g} > {bound:.3g} after {it} iterations"
        iterations += it
        converged = residual <= bound
    full = np.zeros(m.n_nodes)
    full[~m.boundary_node] = u
    result = EigenResult(lam, full, iterations, residual, p, q)
    if not converged:
        raise SolverConvergenceError(failure, result)
    return result


def directional_constant(chord: float, p: float) -> float:
    """Optimal constant C in int |d_e u|^p >= C int |u|^p over zero-trace u,
    for a domain whose longest chord in direction e has length ``chord``.

    It is the first Dirichlet eigenvalue of the one-dimensional p-Laplacian on
    an interval of that length, (p - 1) (pi_p / chord)^p with pi_p = 2 pi / (p
    sin(pi / p)) (Biezuner, Ercole and Martins, J. Funct. Anal. 2009): the
    inequality holds chord by chord, and fields concentrated near the longest
    chord approach it.  The infimum is not attained, so no finite-element value
    converges to it faster than the mesh resolves that concentration."""
    if not chord > 0.0:
        raise ValueError(f"chord length must be positive, got {chord}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / chord) ** p
