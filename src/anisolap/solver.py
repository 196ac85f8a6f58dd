"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions, held as their values on the
interior nodes.  Every operator a solve needs depends on the mesh alone, so
``_operators`` builds one record per mesh, the first time a solve sees it, and
keeps it for as long as the mesh lives.  Its one sparse map A = [G; Mid],

    G    (2 n_live x n_int)  values -> x gradients of the triangles, then y
    Mid  (n_mid x n_int)     values -> values at the mesh's edge midpoints

evaluates everything else.  G has rows for the n_live triangles with an
interior node only: a triangle whose three nodes lie on the boundary (two
at the convex corners of an ear-clipped polygon) has a zero gradient for
every field.  Mid has one row per edge with an interior end,
about 1.5 n_tri rows, so A has about 3.5 n_tri rows, not the 5 n_tri of
three midpoints per triangle.  The energy E(u) = sum |T| Q(Gu)^(p/2) is
exact per triangle (the integrand is constant); the p-norm N(u) = sum_e w_e
|Mid u|_e^p is the 3-point edge-midpoint rule on every triangle, each edge's
weight w_e the summed |T|/3 of its triangles, so each midpoint value and its
powers are computed once.  One product A u gives both, and one product of
A^T with the stacked per-triangle and per-edge factors gives the gradient of
E - lam N.  The record also holds one sparsity pattern, the diagonal and
both entries of every edge between interior nodes.  It and Mid are both read
from the mesh's own edge table (``Mesh.edges``).  Every matrix a solve
factors is data on the pattern, built by one of three builders.  The p = 2
stiffness of a form q, K(q) = alpha K_xx + beta (K_xy + K_yx) + gamma K_yy,
is three axpys on the data of the pieces K_xx = G_x^T diag|T| G_x, K_xy +
K_yx and K_yy, built once (``k_data``).  Any G^T W G, W a symmetric 2x2
tensor per triangle, is one assembly of element blocks (``tensor_data``),
and any Mid^T diag(c) Mid one of Mid's edge products (``mid_data``).  One
``factor`` factors any of them.  The consistent mass M = Mid^T diag(w) Mid
is built once, as a matrix.

One path for every p > 1, built on one direct factorization of K in the
record's reverse Cuthill-McKee order of the interior nodes (Cuthill and
McKee, 1969; George and Liu, 1981): a Cholesky factorization of its band by
LAPACK's ``dpbtrf``, or, on a mesh whose band in that order is wider than
BAND_CUTOFF, SuperLU's sparse LU of the matrix in that order (``_factor``).
Both factorizations solve between a gather into the order and a gather
back by its inverse (``_Ordered``).  Inverse iteration on
the generalized symmetric pencil (K, M) gives the p = 2 ground state u0.  At
p = 2 that is the answer, to tol.  For any other p it is the start, stopped
at the rougher START_TOL, of one projected descent on the unit p-norm sphere
at p itself, which steps along a Sobolev gradient B^-1 g (Neuberger; for
p-eigenvalues, Horak, EJDE 2011) in one of two frozen metrics B, corrected
where it has no Newton finish by the L-BFGS pairs of its last steps
(Nocedal, Math. Comp. 1980), which with no pair is the Barzilai-Borwein step:

- p >= LAGGED_P_CUTOFF: B = K, the p = 2 stiffness.  Near p = 2 it is the
  right metric and costs no second factorization.  Above p = 2, on a band
  factor, the descent finishes with shifted Newton steps once its residual
  is below FINISH_RESIDUAL: d = F^-1 g with F = H - sigma H_N, H the
  energy's Hessian, H_N the p-norm's and sigma = SHIFT_FRACTION lam, which
  is the inverse power method for the p-Laplacian (Biezuner, Ercole and
  Martins, J. Funct. Anal. 2009) shifted toward lam.  The steps in K cut the
  residual by a factor of only about 0.4 per iteration near the ground
  state, and the shifted steps converge in a few (``_descent``).
- p < LAGGED_P_CUTOFF: B = K_w = G^T (m2 (x) diag(|T| q_T^((p-2)/2))) G, the
  lagged-diffusivity (Kacanov) stiffness, with q_T = Q(grad u0|_T) floored
  at LAGGED_Q_FLOOR times its mean (Huang, Li and Liu, J. Sci. Comput. 2007;
  Diening, Fornasier, Tomasi and Wank, Numer. Math. 2020).  Far below p = 2
  the diffusivity Q^((p-2)/2) varies by orders of magnitude across the
  domain, and K, which ignores it, lets the iteration count grow under
  refinement.  K_w is one ``tensor_data``, factored once per solve.

A solve may be given a start: a nodal field on the mesh, such as the
eigenfunction of a nearby form on it.  At p = 2 the inverse iteration starts
from it instead of the ones vector; at other p the inverse iteration is
skipped and the descent starts from it (and below the cut-off freezes K_w
there).  K is still factored, so the stopping rules and the reported
residual are those of a solve without a start; only the starting point
moves.  Without a start a solve depends on its arguments alone.

A factorization costs its data's builder (three axpys for K, one
``np.bincount`` of element blocks for K_w or H, and one of edge products
for H_N), one scatter of its lower triangle into a zeroed band and one
``dpbtrf`` (above BAND_CUTOFF, one gather of the data into the order and
one SuperLU).  A solve with it is one ``dpbtrs`` between two gathers, by
the order and by its inverse.  A step of the inverse iteration costs one
solve and one product with M.  A descent iteration costs one product with
A^T and one solve in its metric, and two dot products and three axpys per
secant pair; a Newton step costs one solve with F more, and F is
refactored only when a step cuts the residual by less than half (about once
or twice per solve).  A line-search trial costs one product with A and two
non-integer powers, one per triangle and one per edge midpoint
(``_point``): the energy and the p-norm are sums of each power times its
base, and the accepted trial's powers and products give the next gradient,
times one scalar for the unit norm.  On the small meshes of the verify
suites a product's time is mostly scipy's per-call overhead, so these
counts, more than the arithmetic, set the time of an iteration.  Every dot
product of the inverse iteration, the energy, the p-norm, the descent and
the residual is summed by numpy, not by a threaded BLAS (``_dot``).

Every result reports the dual-norm residual sqrt(g . K^-1 g) / (p lam) of the
returned pair, g being the gradient of E(u) - lam N(u), always in the metric
of K whatever metric the descent steps in.  It measures how far the pair is
from satisfying the discrete eigenvalue equation, and the descent stops on
it.  In the metric K the step's own solve gives it.  Below the cut-off
K_w - w_min K = G^T (m2 (x) diag(b - w_min |T|)) G is positive semidefinite,
b the lagged weights and w_min = min_T b_T / |T|, so

    g . K^-1 g >= w_min g . K_w^-1 g,

and an iteration whose w_min g . K_w^-1 g exceeds 2 (bound p lam)^2 cannot
stop: it costs the one solve with K_w while that holds, and a second, with
K, for the residual only where it fails, at the last iteration and on a
line-search exit.  On the L5 L-shape at p = 1.5 that is 2 solves with K in
20 iterations.

``directional_constant`` is the closed-form constant of the one-derivative
inequality; it needs no solve.
"""

from __future__ import annotations

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

# Below this p the descent's metric is the lagged-diffusivity stiffness K_w of
# its start, not the p = 2 stiffness K (``_descent``, which gives the
# measurements).
LAGGED_P_CUTOFF = 1.65

# The widest band, in the reverse Cuthill-McKee order of a mesh's interior
# nodes, whose stiffnesses are factored as a band (``_Operators.factor``);
# wider ones go to SuperLU (``_factor``).  Both factor the matrix in that
# order.  Measured in-process on a 2-vCPU machine with one BLAS thread,
# band against SuperLU, medians for the level-0.25 extremal form with
# alpha = 0.6 (``extremal_form`` at theta = 0.752): at level 6 the L-shape
# (bandwidth 125) factors in 11 against 19 ms and solves in 0.84 against
# 0.66 ms, the disk (127) in 17 against 36 ms and 1.2 against 1.2 ms.  At
# level 7 the L-shape (253) factors in 124 against 116 ms and solves in 7.0
# against 3.3 ms, the disk (255) in 185 against 240 ms and 17 against 7 ms,
# and each band takes about twice the memory of SuperLU's L + U (66 against
# 28 MB, 100 against 51 MB).  The band grows as n^1.5 and would take
# gigabytes at level 9.
BAND_CUTOFF = 192

# Floor of the lagged diffusivity's Q(grad u0|_T), relative to its mean over
# the triangles: it keeps K_w's weights finite where the start is flat.
LAGGED_Q_FLOOR = 1e-3

# Safety factor of the descent's stopping bound.  Near the ground state the
# relative eigenvalue error is about C residual^2; C measured between 1 and
# 120 on the square, the L-shape and the disk at level 4, p = 1.5 and 3, with
# the identity form and that extremal form.  Stopping at residual <=
# sqrt(tol / RESIDUAL_SAFETY) keeps that error below tol for any C up to
# RESIDUAL_SAFETY; the bound is 1e-6 at DEFAULT_TOL.  At p = 4, with the
# shifted Newton finish, C measured between 12 and 840 on the same domains
# and forms at levels 4 and 5 against their tol-1e-13 values; the largest,
# the level-5 L-shape with extremal_form(0.25, 0.4), stops 1.5e-10 from its
# value.  The descent in the metric of K alone stopped 3.0e-9 from it there
# (C about 3,000).
RESIDUAL_SAFETY = 1000.0

# Eigenvalue tolerance: the inverse iteration stops at this relative change
# per step, the descent at residual sqrt(tol / RESIDUAL_SAFETY).
DEFAULT_TOL = 1e-9

# Relative eigenvalue change at which a solve at p != 2 without a start stops
# the p = 2 inverse iteration that gives its descent's start, when tol is
# smaller (``solve_p``): the descent alone sets the answer's accuracy.
# Measured with the identity form on the L-shape, the disk and the square at
# levels 4-6 and p = 1.3, 1.5, 3 and 4 (36 solves): the start takes 3-5
# inverse steps instead of 8-14, the total iterations fall in 31 of the 36,
# and lambda moves by at most 3.5e-10 relative.  On the level-5 L-shape at
# p = 1.5 the solve takes 33 iterations instead of 43 and ends at residual
# 3.4e-7; a start stopped at 1e-2 or at 1e-6 ends it at 9.0e-7 or 8.3e-7.
START_TOL = 1e-3

# Above p = 2 the descent in the metric of K finishes with shifted Newton
# steps once its residual is below FINISH_RESIDUAL (``_descent``), on the
# Hessian shifted by SHIFT_FRACTION times the quotient (``_newton_factor``).
# A larger FINISH_RESIDUAL pays where a factorization is cheap, a smaller one
# on larger meshes.  Measured in-process (2-vCPU machine) with 1e-3, 3e-3 and
# 1e-2: the verify suites at p = 3 and level 3 take 391 / 332 / 312 descent
# iterations and 67 / 63 / 59 ms (745 iterations without the finish); 36
# solves of the square, the L-shape and the disk at levels 4-6, p = 3 and 4,
# the identity form and extremal_form(0.25, 0.4), take 1.32 / 1.51 / 1.66 s
# in all.  The shift is halved on a factorization that finds F indefinite.
FINISH_RESIDUAL = 3e-3
SHIFT_FRACTION = 0.95

# Secant pairs of the descent's L-BFGS direction where it has no Newton
# finish (``_descent``).  Cold identity-form solves with 0 / 3 / 5 / 8 pairs:
# the L5 and L6 L-shape at p = 1.5 take 33 / 25 / 25 / 25 and 47 / 30 / 28 /
# 29 iterations, the L5 L-shape at p = 1.3 732 / 136 / 118 / 112 and the L5
# disk at p = 1.7 27 / 17 / 17 / 17.  In-process medians (2-vCPU machine)
# put 3 pairs within 6 % of the fastest on seven of eight such cases, and at
# 84 against 68-70 ms at p = 1.3; they cost the fewest operations.
LBFGS_MEMORY = 3

# Iteration budget of the inverse iteration and of the descent, each.
MAX_ITER = 20000


@dataclass
class EigenResult:
    lam: float                # eigenvalue estimate
    u: np.ndarray             # nodal eigenfunction, unit p-norm; at every p it may change
                              # sign (a P1 ground state need not keep one sign)
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


def _maps(
    m: Mesh, cols: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """The stacked map A = [G; Mid] of ``m`` on the columns ``cols`` (node ->
    column index, -1 for a node held at zero), as CSR built from its arrays,
    the midpoint rule's weight of each row of Mid, the mask of the triangles
    with a column, whose rows G keeps, and their ``grad_map``.  Every row
    holds at most three entries in distinct columns, in increasing column
    order.  Rows t and n_live + t of G give the x and y gradient of the t-th
    kept triangle; a triangle whose three nodes are held has a zero gradient
    for every field, and no row.  Mid has one row per edge of the mesh's edge table
    ``m.edges`` with a column at either end, in the table's order; it gives
    the value at the edge's midpoint, whose weight is the summed |T|/3 of the
    edge's triangles (``m.tri_edge``)."""
    n_cols = int(cols.max()) + 1
    cols = cols.astype(np.int32)
    c, grad = cols[m.triangles.T], m.grad_map.transpose(1, 2, 0)
    live = (c[0] >= 0) | (c[1] >= 0) | (c[2] >= 0)
    if not live.all():  # a disk has no such triangle, and no copy is made
        c, grad = np.compress(live, c, axis=1), np.compress(live, grad, axis=2)
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


# Entry k = 3 a + b of a triangle's 3x3 element block is in row a and column
# b of the block.
_BLOCK_ROWS, _BLOCK_COLS = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)


@dataclass
class _Operators:
    """Everything a solve needs of one mesh, on its interior nodes.

    ``a`` is the stacked map A = [G; Mid], so that a field's triangle
    gradients and edge-midpoint values are one product, and ``a_t`` its
    ``.T`` view, so that the gradient of the quotient is one product too.
    G has rows for the triangles with an interior node only (``_maps``), and
    ``area``, ``grad_map`` and ``slot`` hold those triangles alone;
    ``grad_map`` is the transposed view of a (2, 3, n_live) buffer, whose
    rows of x and y gradients the builders read.  Mid has
    one row per edge with an interior end, and ``weight`` is each row's
    midpoint-rule weight, the summed |T|/3 of the edge's triangles.  Every
    matrix a solve factors or multiplies has one sparsity pattern, the
    diagonal and both entries of every edge between interior nodes, held
    once as ``indices`` and ``indptr`` in CSC order; ``slot`` says where each
    entry of each triangle's element block lands in its data, and
    ``mid_slot`` where the four entries of each Mid row's outer product
    land.  A matrix is built as data on the pattern by one of three
    builders: ``k_data`` for the form's stiffness K(q), three axpys on the
    data of its three ``pieces``; ``tensor_data`` for any G^T W G, W a
    symmetric 2x2 tensor per triangle (the lagged diffusivity's K_w, the
    energy's Hessian), one ``np.bincount`` of element blocks; and
    ``mid_data`` for any Mid^T diag(c) Mid (the p-norm's Hessian), one of
    Mid's outer products.  ``factor`` factors any such data, and ``_matrix``
    makes it a matrix on copies of it and of the pattern, less its exact
    zeros; the mass M is one, built once.  ``order`` is the reverse Cuthill-McKee order
    of the interior nodes, ``rank`` its inverse, and ``bandwidth`` the
    pattern's in it; every factorization takes its rows and columns in that
    order.  Up to BAND_CUTOFF, ``band_slot`` maps each entry of
    ``band_entries``, the pattern's lower triangle in that order, to its
    place in LAPACK's lower band storage, in Fortran order (``factor``), and
    the ``lu_`` fields are None.  Above it, the two band fields are None, and
    ``lu_indices`` and ``lu_indptr`` hold the whole pattern in that order as
    CSC, whose k-th entry is entry ``lu_entries[k]`` of the data.
    ``_operators`` builds one per mesh from its edge table (``Mesh.edges``,
    ``_maps`` and ``_pattern``)."""

    a: sp.csr_matrix        # (2 n_live + n_mid, n_int), rows as ``_maps`` says
    a_t: sp.csc_matrix
    area: np.ndarray        # (n_live,) |T| of the triangles with an interior node
    weight: np.ndarray      # (n_mid,) midpoint-rule weights, the summed |T|/3 of each edge
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

    def _pieces(self) -> np.ndarray:
        """(3, nnz) data of the pieces K_xx, K_xy + K_yx and K_yy of the
        triangle weights |T|.  Each piece's blocks are built in one buffer,
        a row of triangles at a time: whole-block products would touch
        several times the fresh memory, and take longer for it."""
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
        diag|T|) G, ``m2`` its symmetric 2x2 matrix: three axpys on the
        pieces."""
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
        """The matrix of ``data`` on the pattern, less its exact zeros
        (``_csc``)."""
        return _csc(data, self.indices, self.indptr)

    def factor(self, data: np.ndarray) -> _Ordered:
        """A factorization of the symmetric matrix with the pattern data
        ``data``, its rows and columns taken in ``order``, with a ``solve``
        method: the banded Cholesky factor of its lower band up to
        BAND_CUTOFF, else the SuperLU of the whole matrix (``_factor``), read
        from the data through ``lu_entries``.  The band is scattered into a
        zeroed buffer and factored in place; a band that is not positive
        definite raises ``np.linalg.LinAlgError``."""
        if self.band_slot is None:
            return _SparseLU(_csc(data[self.lu_entries], self.lu_indices, self.lu_indptr), self)
        band = np.zeros((self.bandwidth + 1) * len(self.order))
        band[self.band_slot] = data[self.band_entries]
        return _BandCholesky(band.reshape(self.bandwidth + 1, -1, order="F"), self)


def _csc(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> sp.csc_matrix:
    """The square CSC matrix of copies of ``data`` and of the pattern
    (``indices``, ``indptr``), less its exact zeros: the identity form's K
    has some on a mesh with right angles, and a stored zero would be
    factored as fill.  Removing them compacts the arrays in place, so the
    caller's are left alone."""
    shape = (len(indptr) - 1,) * 2
    k = sp.csc_matrix((data.copy(), indices.copy(), indptr.copy()), shape=shape)
    k.eliminate_zeros()
    return k


class _Ordered:
    """A factorization of a symmetric matrix whose rows and columns are taken
    in the record's order ``ops.order``: ``solve`` gathers the right-hand
    side into that order, solves in it (``_solve``) and gathers the solution
    back by the inverse permutation ``ops.rank``."""

    def __init__(self, ops: _Operators) -> None:
        self.order, self.rank = ops.order, ops.rank

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._solve(b[self.order])[self.rank]


class _BandCholesky(_Ordered):
    """The Cholesky factor of a symmetric positive definite matrix in the
    record's order, computed by LAPACK's ``dpbtrf`` in place from its lower
    band ``band`` (bandwidth + 1 rows, in Fortran order); ``dpbtrs`` solves
    with it.  Raises ``np.linalg.LinAlgError`` if the matrix is not positive
    definite."""

    def __init__(self, band: np.ndarray, ops: _Operators) -> None:
        super().__init__(ops)
        self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"band Cholesky failed: dpbtrf info {info}")

    def _solve(self, b: np.ndarray) -> np.ndarray:
        return dpbtrs(self.band, b, lower=1, overwrite_b=1)[0]


class _SparseLU(_Ordered):
    """SuperLU's LU (``_factor``) of the matrix ``a``, given in the record's
    order."""

    def __init__(self, a: sp.csc_matrix, ops: _Operators) -> None:
        super().__init__(ops)
        self.lu = _factor(a)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)


# Mesh -> its _Operators.  A Mesh is immutable and hashes by identity, so a
# record stays valid for the mesh's life and is dropped with it.
_RECORDS: weakref.WeakKeyDictionary[Mesh, _Operators] = weakref.WeakKeyDictionary()


def _pattern(m: Mesh, cols: np.ndarray, n: int, live: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stiffness pattern of ``m``, read from its edge table ``m.edges``
    and ``m.tri_edge``, on the columns ``cols`` (node -> column, -1 for a
    held node) among ``n``: the (9, n_live) slot in its data of each block
    entry of the triangles ``live`` and the (4, n_mid) slot of the entries
    (a, a), (b, b), (a, b) and (b, a) of each row of Mid (``_maps``), a < b
    its columns (nnz for an entry with a held node), then the pattern's CSC
    ``indices`` and ``indptr``.

    The pattern is the diagonal and both entries of every edge with two
    columns.  Column numbers rise with node numbers, so the table's sorted
    edges (a, b), a < b, are sorted by a, then b: column a holds its rows b
    below the diagonal in that order, and sorting by b, then a, gives each
    column b its rows a above the diagonal in order."""
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
        a, weight, live, grad_map = _maps(m, cols)
        slot, mid_slot, indices, indptr = _pattern(m, cols, n, live)
        area = m.tri_area if live.all() else m.tri_area[live]
        ops = _Operators(a, a.T, area, weight, grad_map, slot, mid_slot, indices, indptr)
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
    """x . y, summed by numpy's own loop.  A BLAS ddot splits sums of more
    than 10,000 entries across threads, and waking a second thread costs
    more than the sum itself on these meshes, and most after the machine
    sat idle."""
    return float(np.einsum("i,i->", x, y))


def energy(m: Mesh, q: QuadForm, p: float, u: np.ndarray) -> float:
    """Anisotropic gradient energy of a nodal field, exact per triangle."""
    g = _on_all_nodes(m, u)[0].reshape(2, -1)
    qt = np.maximum((g * (q.matrix() @ g)).sum(axis=0), 0.0)
    return _dot(m.tri_area, qt ** (0.5 * p))


def pnorm_p(
    m: Mesh | _Operators, u: np.ndarray, p: float, u_pow: np.ndarray | None = None
) -> float:
    """Integral of |u|^p of the linear interpolant (edge-midpoint rule).

    ``u`` holds the nodal values of a field on the mesh ``m``.  Inside a
    solve, ``m`` is the solve's operators, ``u`` the edge-midpoint values
    ``Mid`` already gave and ``u_pow`` their sign(u) |u|^(p-1), which the
    gradient reuses, so that |u|^p is the product u u_pow (one call per trial
    point of the line search).  Either way the sum runs once over the edges,
    each midpoint's |u|^p weighted by the summed |T|/3 of the edge's
    triangles."""
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
    edge-midpoint values y, and each takes one non-integer power, Q^(p/2-1)
    and |y|^(p-1): the energy and the p-norm are sums of Q Q^(p/2-1) and
    |y| |y|^(p-1).  Energy and norm are homogeneous, so the quotient is taken
    before the scaling.  Below p = 2 the gradient's Q is floored at
    GRAD_FLOOR at the scaled field, GRAD_FLOOR / s^2 at v, but the quotient
    is not smoothed: a triangle under the floor keeps its own Q^(p/2)."""
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
    """Gradient of the Rayleigh quotient on the operators' columns at the
    unit-p-norm field ``pt.u``; the unit norm removes the quotient's division
    by it.  Both of its terms are homogeneous of degree p - 1, so it is
    s^(p-1) times their value at the unscaled field, from the powers and the
    flux that ``_point`` kept."""
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
    dQ of the form (Danskin's theorem; Hellmann-Feynman at p = 2)."""
    ops = _operators(m)
    g = (ops.a @ res.u[~m.boundary_node])[: 2 * len(ops.area)].reshape(2, -1)
    q = np.maximum((g * (res.form.matrix() @ g)).sum(axis=0), GRAD_FLOOR if res.p < 2.0 else 0.0)
    return np.einsum("it,jt->ij", g * (0.5 * res.p * ops.area * q ** (0.5 * res.p - 1.0)), g)


def _inverse_iteration(
    mass: sp.csc_matrix, lu: _Ordered, tol: float, u: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool, bool]:
    """Smallest eigenpair of K u = lam M u by inverse iteration with the
    factorization ``lu`` of K, started from ``u`` (the ones vector if None),
    stopped when the relative eigenvalue change reaches ``tol`` or after
    MAX_ITER steps.  A step is one solve and one product with M: the solve
    gives K w = M u, so w.Kw = w.Mu, and M w, scaled with w, is the next
    right-hand side.  A w.Mw out of (0, inf), as where K's entries are near
    the largest float, breaks it off at the last iterate.  Returns (u,
    iterations, converged, broken); the caller decides what a miss means."""
    u = np.ones(mass.shape[0]) if u is None else np.array(u, dtype=float)
    mu = mass @ u
    nrm = math.sqrt(_dot(u, mu))
    u /= nrm
    mu /= nrm
    lam_prev = None
    res = math.inf
    for it in range(1, MAX_ITER + 1):
        w = lu.solve(mu)
        mw = mass @ w
        ww = _dot(w, mw)
        if not 0.0 < ww < math.inf:
            return u, it - 1, False, True
        lam = _dot(w, mu) / ww
        nrm = math.sqrt(ww)
        u, mu = w / nrm, mw / nrm
        if lam_prev is not None:
            res = abs(lam - lam_prev) / lam
        lam_prev = lam
        if res <= tol:
            break
    return u, it, res <= tol, False


def _factor(a: sp.csc_matrix) -> SuperLU:
    """Sparse LU of a stiffness matrix, the factorization of a mesh whose
    band in reverse Cuthill-McKee order is wider than BAND_CUTOFF; narrower
    ones are factored as a band (``_Operators.factor``), which on the meshes
    up to level 6 is about twice as fast.  It is symmetric positive
    definite: a symmetric ordering and diagonal pivots give less fill than
    the default column ordering.  ``_Operators.factor`` passes the matrix in
    the record's reverse Cuthill-McKee order, from which that ordering finds
    far less fill than from the mesh's node order: the level-7 disk's K of
    BAND_CUTOFF's form factors in 0.24 against 2.5 s and solves in 7 against
    21 ms."""
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
    """Triangle weights b = |T| q_T^((p-2)/2) of K_w = G^T (m2 (x) diag b) G,
    the stiffness of the p-Laplacian's diffusivity frozen at the field whose
    triangle gradients are ``gu`` (``_diffusivity``), and their least ratio
    min_T b_T / |T|."""
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
    |y|^(p-2)) Mid at the field ``u``, g and q = Q(g) its triangle gradients
    and y its edge-midpoint values; q and its diffusivity q^(p/2-1) are K_w's
    (``_diffusivity``), and y^2 is floored at LAGGED_Q_FLOOR times its mean
    as q is."""
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
    """The factorization of the shifted Hessian F = H - shift lam H_N
    (``_hessians``) at the unit-p-norm field ``u`` with quotient ``lam``, and
    the shift it took.  While ``dpbtrf`` finds F not positive definite the
    shift is halved, and below 1e-3 it drops to 0, where F = H; None if that
    fails too."""
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
    shifted Newton finish above p = 2.

    Each step moves along an L-BFGS direction on a metric B, in which the
    quotient's gradient is B^-1 g.  For p >= LAGGED_P_CUTOFF, B is the
    form's p = 2 stiffness K, factorized as ``lu``.  For p < LAGGED_P_CUTOFF
    it is the lagged-diffusivity stiffness K_w of the start
    (``_lagged_weights``), assembled and factorized once here.  On the
    L5 / L6 L-shape at p = 1.5 it takes the descent-plus-inverse iterations
    from 38 / 57 with K to 25 / 30.  The cut-off is measured: medians of 7-9
    interleaved in-process ``solve_p`` timings of the identity form on the
    L5 and L6 L-shape and disk (2-vCPU machine, after a first factorization
    on each) find K_w faster than K on all four by 22-36 / 15-26 / 1-13 % at
    p = 1.5 / 1.55 / 1.6; at 1.65 / 1.7 it is 6-16 / 1-7 % faster at L5 and
    1-4 / 16 % slower at L6 (with Barzilai-Borwein steps it was faster at
    1.6 on two of the four).  Below the cut-off the iterations saved
    outweigh the second factorization and, as measured before the skip test
    below, a second solve per iteration.

    The direction d is the two-loop L-BFGS direction (``_two_loop``) of the
    last LBFGS_MEMORY secant pairs s = du, y = dg from the inverse Hessian t
    B^-1, t the Barzilai-Borwein value s.Bs / s.y of the newest pair (if
    s.y <= 0, twice the last step, and no pair is kept).  The trial points
    are u - t d, t halved until the Armijo condition on g.d holds.  B^-1 y
    is the difference of two solves B^-1 g, so d takes no solve, and with no
    pair it is B^-1 g: the Barzilai-Borwein step, bit for bit.  B = G^T (m2
    (x) diag b) G with triangle weights b (|T| for K, the lagged weights for
    K_w), so s.Bs = sum_T b_T Q(grad s|_T) comes from the triangle gradients
    of the last two iterates, in one ``einsum`` and with no product with B:
    the descent needs B's factorization only.  Where the Newton finish below
    can run, no pair is kept: with pairs, the verify suites at p = 3 and
    level 3 took 316 instead of 332 descent iterations but 2-7 % longer.
    The iterates move on the whole sphere: the ground state of an
    anisotropic form may change sign at a few nodes of a P1 mesh, and
    replacing an iterate by |u| would pin those nodes at 0 and can raise the
    quotient.  The quotient is even in u; the start ``u0`` is flipped, if
    need be, to a nonnegative sum.  The accepted trial's powers and products
    give the next gradient (``_gradient``).

    Above p = 2, where K is a band factor, an iteration whose residual is
    below FINISH_RESIDUAL steps instead along d = F^-1 g from t = 1, under
    the same Armijo halving: F = H - sigma H_N, H the energy's Hessian and
    H_N the p-norm's (``_hessians``), sigma = SHIFT_FRACTION lam, halved
    while ``dpbtrf`` finds F indefinite (``_newton_factor``).  F is factored
    on the first such iteration and again only after a step that cut the
    residual by less than half; the stop is still the residual in the metric
    of K, so a Newton step costs one solve with K more than a step in K.
    Steps in K cut the residual by about 0.4 per iteration near the ground
    state, and at p = 4 their count grows under refinement (44 / 99 / 100 /
    170 on the L3-L6 L-shape); with the finish it is 17 / 21 / 23 / 25, and
    p = 10 / 20 on the L4 L-shape take 68 / 150 iterations instead of
    3,234 / 13,283.  The finish does not run elsewhere, for measured reasons
    (in-process timings, 2-vCPU machine):

    - between 1.6 and 2, in the metric K, the floored Hessian is a poor
      model: on the L6 L-shape at p = 1.6 a fresh F cut the residual by less
      than a quarter, F was factored 14 times in 30 iterations, and the
      solve took 435 against 159 ms; at L5 it was 20-25 % slower at p = 1.6
      and 1.8;
    - below the cut-off its metric would be K_w, and a prototype there was
      slower: the default ``verify --p 1.5`` took 2.11 against 1.26 s;
    - on SuperLU a factorization costs more than the iterations it saves at
      p = 3: the L7 L-shape took 0.59 against 0.38 s (22 against 45
      iterations), and the L7 disk 1.43 against 0.65 s at p = 3 and 1.65
      against 0.79 s at p = 4, although the L-shape at p = 4 took 1.12
      against 1.60 s.

    It does not pay everywhere it runs: on the L6 disk, whose steps in K
    converge in 23-37 iterations, the finish's two to three factorizations
    made p = 3 and 4 solves 18-73 % slower.

    An iteration is one gradient (one product with A^T), one solve in the
    metric and two dot products and three axpys per secant pair; each
    line-search trial is one product with A and one power per array
    (``_point``).  The dual-norm residual sqrt(g.K^-1 g) / (p lam) stays in
    the metric of K in both cases.  With B = K the step's solve gives it.
    With B = K_w it needs a solve with K, skipped while w_min g.K_w^-1 g > 2
    (bound p lam)^2, which puts the residual above the bound (module
    docstring; the factor 2 covers rounding).  The residual is computed on
    every iteration the test does not skip, at MAX_ITER and on a line-search
    exit, so the result does not depend on the skips.  The descent stops as
    soon as the residual is at most ``bound``, at MAX_ITER iterations, or when
    the line search finds no decrease.  Returns (u, lam, residual, iterations)
    of the last iterate; the caller compares the residual with the bound."""
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
    """Fundamental frequency for p > 1.

    The operators of ``m`` come from its record, built by the first solve on
    ``m``.  Every matrix the solve factors is built by one of the record's
    builders and factored by its one ``factor``: the form's p = 2 stiffness
    K (``k_data``), whose factorization serves the inverse iteration, the
    reported residual and, for p >= LAGGED_P_CUTOFF, the descent's metric;
    below the cut-off the descent's lagged-diffusivity metric K_w
    (``tensor_data``); and above p = 2 on a band factor the shifted Hessian
    F of its Newton finish (``tensor_data`` and ``mid_data``), about once or
    twice per solve (``_descent``).  One inverse iteration on the p = 2
    pencil gives the result at p = 2, stopped at the relative eigenvalue
    change ``tol``.  For other p its ground state is only the start of one
    projected descent at p, so it stops at the rougher change max(tol,
    START_TOL); the descent stops at the residual bound sqrt(tol /
    RESIDUAL_SAFETY), which alone sets the accuracy of the result.

    ``start``, a nodal field on ``m`` that is finite and not zero on the
    interior nodes, replaces the ones vector as the start of the inverse
    iteration at p = 2, and the inverse iteration's ground state as the start
    of the descent at other p, whose inverse iteration is then skipped.  The
    eigenfunction of a nearby form on ``m`` is a good one.

    Raises ``SolverConvergenceError``, carrying the last iterate, when the
    inverse iteration at p = 2 misses ``tol`` or breaks off at any p
    (``_inverse_iteration``), or the descent misses its bound; ``iterations`` counts the iterations that ran, of both.  Either
    way the result's ``residual`` is the dual-norm residual of the returned
    pair, in the metric of K.
    """
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
        u, iterations, converged, broken = _inverse_iteration(
            ops.mass, lu, tol if p == 2.0 else max(tol, START_TOL), start
        )
    if p == 2.0 or broken:
        failure = f"inverse iteration did not reach tol {tol} in {MAX_ITER} iterations"
        if broken:
            failure = f"inverse iteration broke off after {iterations} steps: w.Mw left (0, inf)"
        # a broken-off iterate's quotient and residual overflow away from
        # p = 2 on a form near the largest float: reported, not warned of
        with np.errstate(**(dict(over="ignore", invalid="ignore") if broken else {})):
            pt = _point(ops, m2, p, u)
            u, lam = pt.u, pt.lam
            residual = _k_residual(lu, _gradient(ops, p, pt), p, lam)
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

    It is the first Dirichlet eigenvalue of the one-dimensional p-Laplacian
    on an interval of that length, (p - 1) (pi_p / chord)^p with
    pi_p = 2 pi / (p sin(pi / p)) (Biezuner, Ercole and Martins, J. Funct.
    Anal. 2009): the one-dimensional inequality holds chord by chord, and
    fields concentrated near the longest chord approach it.  The functional
    controls one derivative only, so the infimum is not attained and no
    finite-element value converges to it faster than the mesh resolves that
    concentration; the closed form needs no solve."""
    if not chord > 0.0:
        raise ValueError(f"chord length must be positive, got {chord}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / chord) ** p
