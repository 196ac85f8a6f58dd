"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions, held as their values on the
interior nodes.  Every operator a solve needs depends on the mesh alone, so
``_operators`` builds one record per mesh, the first time a solve sees it, and
keeps it for as long as the mesh lives.  Its one sparse map A = [G; Mid],

    G    (2 n_tri x n_int)  values -> x gradients of the triangles, then y
    Mid  (3 n_tri x n_int)  values -> values at the triangles' edge midpoints

evaluates everything else.  The energy E(u) = sum |T| Q(Gu)^(p/2) is exact
per triangle (the integrand is constant); the p-norm N(u) = sum |T|/3
|Mid u|^p is the 3-point edge-midpoint rule.  One product A u gives both, and
one product of A^T with the stacked per-triangle factors gives the gradient
of E - lam N.  The record also holds one sparsity pattern, the pairs of
interior nodes that share a triangle, and on it the data of the consistent
mass M = Mid^T diag(|T|/3) Mid and of three stiffness pieces
K_xx = G_x^T diag|T| G_x, K_xy + K_yx and K_yy.  The p = 2 stiffness of a form
q is then three axpys, K(q) = alpha K_xx + beta (K_xy + K_yx) + gamma K_yy,
and the stiffness of any other triangle weights one assembly of element
blocks onto the same pattern.

One path for every p > 1, built on one direct factorization of K: a
Cholesky factorization of its band in the record's reverse Cuthill-McKee
order of the interior nodes (Cuthill and McKee, 1969; George and Liu, 1981)
by LAPACK's ``dpbtrf``, or, on a mesh whose band in that order is wider
than BAND_CUTOFF, SuperLU's sparse LU (``_factor``).  Inverse iteration on
the generalized symmetric pencil (K, M) gives the p = 2 ground state u0.  At
p = 2 that is the answer.  For any other p it is the start of one projected
descent on the unit p-norm sphere at p itself, which steps along a Sobolev
gradient B^-1 g (Neuberger; for p-eigenvalues, Horak, EJDE 2011) in one of
two metrics B:

- p >= LAGGED_P_CUTOFF: B = K, the p = 2 stiffness.  Near p = 2 it is the
  right metric and costs no second factorization.
- p < LAGGED_P_CUTOFF: B = K_w = G^T (m2 (x) diag(|T| q_T^((p-2)/2))) G, the
  lagged-diffusivity (Kacanov) stiffness, with q_T = Q(grad u0|_T) floored
  at LAGGED_Q_FLOOR times its mean (Huang, Li and Liu, J. Sci. Comput. 2007;
  Diening, Fornasier, Tomasi and Wank, Numer. Math. 2020).  Far below p = 2
  the diffusivity Q^((p-2)/2) varies by orders of magnitude across the
  domain, and K, which ignores it, lets the iteration count grow under
  refinement.  K_w is assembled and factored once per solve, with the same
  call as K.

A solve may be given a start: a nodal field on the mesh, such as the
eigenfunction of a nearby form on it.  At p = 2 the inverse iteration starts
from it instead of the ones vector; at other p the inverse iteration is
skipped and the descent starts from it (and below the cut-off freezes K_w
there).  K is still factored, so the stopping rules and the reported
residual are those of a solve without a start; only the starting point
moves.  Without a start a solve depends on its arguments alone.

A factorization of K, or of K_w, costs three axpys on the pattern's data,
one scatter of its lower triangle into a zeroed band and one ``dpbtrf``; a
solve with it is one ``dpbtrs`` between a gather and a scatter by the order.
A step of the inverse iteration costs one solve and one product with M.  A
descent iteration costs one product with A^T and one solve per metric, and a
line-search trial one product with A; the accepted trial's product gives the
next gradient.  On the small meshes of the verify suites a product's time
is mostly scipy's per-call overhead, so these counts, more than the
arithmetic, set the time of an iteration.  The dot products of the energy,
the p-norm and the descent are summed by numpy, not by a threaded BLAS.

Every result reports the dual-norm residual sqrt(g . K^-1 g) / (p lam) of the
returned pair, g being the gradient of E(u) - lam N(u), always in the metric
of K whatever metric the descent steps in.  It measures how far the pair is
from satisfying the discrete eigenvalue equation.  The descent computes it
every step and stops on it.

``directional_constant`` is the closed-form constant of the one-derivative
inequality; it needs no solve.
"""

from __future__ import annotations

import math
import weakref
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
# its start, not the p = 2 stiffness K (``_descent``).
LAGGED_P_CUTOFF = 1.6

# The widest band, in the reverse Cuthill-McKee order of a mesh's interior
# nodes, whose stiffnesses are factored as a band (``_Operators.factor``);
# wider ones go to SuperLU (``_factor``).  Measured in-process on a 2-vCPU
# machine, band against SuperLU, medians for the level-0.25 extremal form
# with alpha = 0.6 (``extremal_form`` at theta = 0.752): at level 6 the
# L-shape (bandwidth 125) factors in 15 against 42 ms and solves in 1.0
# against 1.1 ms, the disk (127) in 23 against 126 ms and 1.5 against
# 2.3 ms.  At level 7 the L-shape (253) factors in 152 against 330 ms but
# solves in 10 against 7 ms, and its band takes twice the memory of
# SuperLU's L + U (66 against 31 MB).  The band grows as n^1.5 and would
# take gigabytes at level 9.
BAND_CUTOFF = 192

# Floor of the lagged diffusivity's Q(grad u0|_T), relative to its mean over
# the triangles: it keeps K_w's weights finite where the start is flat.
LAGGED_Q_FLOOR = 1e-3

# Safety factor of the descent's stopping bound.  Near the ground state the
# relative eigenvalue error is about C residual^2; C measured between 1 and
# 120 on the square, the L-shape and the disk at level 4, p = 1.5 and 3, with
# the identity form and that extremal form.  Stopping at residual <=
# sqrt(tol / RESIDUAL_SAFETY) keeps that error below tol for any C up to
# RESIDUAL_SAFETY; the bound is 1e-6 at DEFAULT_TOL.  At p = 4 C reaches
# about 3,000 (the level-5 L-shape with extremal_form(0.25, 0.4) stops
# 3.0e-9 from its tol-1e-13 value), so there the bound does not hold and the
# error can exceed tol.
RESIDUAL_SAFETY = 1000.0

# Eigenvalue tolerance: the inverse iteration stops at this relative change
# per step, the descent at residual sqrt(tol / RESIDUAL_SAFETY).
DEFAULT_TOL = 1e-9

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


def _maps(m: Mesh, cols: np.ndarray) -> sp.csr_matrix:
    """The stacked map A = [G; Mid] of ``m`` on the columns ``cols`` (node ->
    column index, -1 for a node held at zero), as CSR built from its arrays:
    every row holds at most three entries in distinct columns, in increasing
    column order.  Rows t and n_tri + t of G give the x and y gradient of
    triangle t, row (2 + k) n_tri + t of Mid the value at its edge k, which
    joins its local vertices k and k + 1."""
    nt, n_cols = m.n_triangles, int(cols.max()) + 1
    # sort each triangle's columns, carrying its gradient weights along; the
    # index arrays are built as the matrix keeps them, in 32 bits
    c = cols.astype(np.int32)[m.triangles]
    order = np.argsort((c + (n_cols + 1) * np.arange(nt)[:, None]).ravel(), kind="stable")
    c_sorted = c.ravel()[order].reshape(nt, 3)
    a = c.T
    b = np.roll(a, -1, axis=0)
    ends = np.stack([np.full(a.size, -1, dtype=np.int32), np.minimum(a, b).ravel(),
                     np.maximum(a, b).ravel()], axis=1)
    idx = np.concatenate([c_sorted, c_sorted, ends])
    data = np.concatenate([m.grad_map[:, 0].ravel()[order], m.grad_map[:, 1].ravel()[order],
                           np.full(ends.size, 0.5)])
    # idx holds each row's columns in increasing order, -1 first; its rows'
    # counts are summed column by column, which is far faster than a
    # reduction along rows of three
    keep = idx >= 0
    indptr = np.zeros(len(idx) + 1, dtype=np.int32)
    np.cumsum(keep[:, 0].astype(np.int8) + keep[:, 1] + keep[:, 2], out=indptr[1:])
    return sp.csr_matrix((data[keep.ravel()], idx[keep], indptr), shape=(len(idx), n_cols))


# Entry k = 3 a + b of a triangle's 3x3 element block is in row a and column
# b of the block.
_BLOCK_ROWS, _BLOCK_COLS = np.repeat(np.arange(3), 3), np.tile(np.arange(3), 3)


@dataclass
class _Operators:
    """Everything a solve needs of one mesh, on its interior nodes.

    ``a`` is the stacked map A = [G; Mid], so that a field's triangle
    gradients and edge-midpoint values are one product, and ``a_t`` its
    ``.T`` view, so that the gradient of the quotient is one product too.
    Every matrix of the p = 2 pencil has one sparsity pattern, the pairs of
    interior nodes that share a triangle, held once as ``indices`` and
    ``indptr`` in CSC order; ``slot`` says where each entry of each
    triangle's element block lands in its data, and each matrix built on it
    takes a copy of the pattern, less its exact zeros.  The mass M and the
    three pieces of the stiffness K(q) are data on it, built once: K(q) is
    three axpys, and the stiffness of other triangle weights (the lagged
    diffusivity's K_w) three ``np.bincount`` of element blocks and three
    axpys.  ``order`` is the reverse Cuthill-McKee order of the interior
    nodes, and ``bandwidth`` the pattern's in it.  Up to BAND_CUTOFF,
    ``band_slot`` maps each entry of ``band_entries``, the pattern's lower
    triangle in that order, to its place in LAPACK's lower band storage,
    in Fortran order (``factor``); above it, both are None.  ``_operators``
    builds one per mesh."""

    a: sp.csr_matrix        # (5 n_tri, n_int), rows as ``_maps`` says
    a_t: sp.csc_matrix
    area: np.ndarray        # (n_tri,) |T|
    weight: np.ndarray      # (3 n_tri,) midpoint-rule weights |T|/3
    grad_map: np.ndarray    # (n_tri, 2, 3) the mesh's hat-function gradients
    slot: np.ndarray        # (9, n_tri) data index of block entry k, nnz at a boundary node
    indices: np.ndarray     # the pattern, CSC with sorted rows
    indptr: np.ndarray
    pieces: np.ndarray = field(init=False)   # (3, nnz) data of K_xx, K_xy + K_yx and K_yy
    mass: sp.csc_matrix = field(init=False)  # M, which is |T|/12 (1 + delta_ij) per triangle
    order: np.ndarray = field(init=False)    # (n_int,) interior node of each band row
    bandwidth: int = field(init=False)
    band_entries: np.ndarray | None = field(init=False)  # data index of each lower entry
    band_slot: np.ndarray | None = field(init=False)     # its index in the raveled band

    def __post_init__(self) -> None:
        self.pieces = self._pieces(self.area)
        mass = np.where(_BLOCK_ROWS == _BLOCK_COLS, 2.0, 1.0)[:, None] * (self.area / 12.0)
        self.mass = self._matrix(self._assemble(mass))
        n = len(self.indptr) - 1
        pattern = sp.csc_matrix((np.ones(len(self.indices)), self.indices, self.indptr), (n, n))
        self.order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n)
        rows = rank[self.indices]
        cols = np.repeat(rank, np.diff(self.indptr))
        self.bandwidth = int(np.max(rows - cols, initial=0))
        self.band_entries = self.band_slot = None
        if self.bandwidth <= BAND_CUTOFF:
            self.band_entries = np.flatnonzero(rows >= cols)
            # entry (i, j), i >= j, is at row i - j and column j of the band
            rows, cols = rows[self.band_entries], cols[self.band_entries]
            self.band_slot = rows - cols + (self.bandwidth + 1) * cols

    def _pieces(self, b: np.ndarray) -> np.ndarray:
        """(3, nnz) data of the pieces K_xx, K_xy + K_yx and K_yy of the
        triangle weights ``b``.  Each piece's blocks are built in one buffer,
        a row of triangles at a time: whole-block products would touch
        several times the fresh memory, and take longer for it."""
        gx, gy = self.grad_map[:, 0].T, self.grad_map[:, 1].T
        bx, by = b * gx, b * gy
        block = np.empty((9, len(b)))
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
        """Pattern data of the sum of the (9, n_tri) element blocks."""
        nnz = len(self.indices)
        return np.bincount(self.slot.ravel(), blocks.ravel(), minlength=nnz + 1)[:nnz]

    def _matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix of ``data`` on a copy of the pattern, less its exact
        zeros: the identity form's K has some on a mesh with right angles,
        and a stored zero would be factored as fill."""
        shape = (len(self.indptr) - 1,) * 2
        k = sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=shape)
        k.eliminate_zeros()
        return k

    def _stiffness_data(self, m2: np.ndarray, b: np.ndarray | None) -> np.ndarray:
        pieces = self.pieces if b is None else self._pieces(b)
        data = m2[0, 0] * pieces[0]
        data += m2[0, 1] * pieces[1]
        data += m2[1, 1] * pieces[2]
        return data

    def stiffness(self, m2: np.ndarray, b: np.ndarray | None = None) -> sp.csc_matrix:
        """K = G^T (m2 (x) diag b) G of the symmetric 2x2 matrix ``m2`` and
        the triangle weights ``b``.  For b = |T|, the default, that is the
        form's p = 2 stiffness."""
        return self._matrix(self._stiffness_data(m2, b))

    def factor(self, m2: np.ndarray, b: np.ndarray | None = None) -> _BandCholesky | SuperLU:
        """A factorization of ``stiffness(m2, b)``, with a ``solve`` method:
        the banded Cholesky factor of its lower band in ``order`` up to
        BAND_CUTOFF, else its SuperLU (``_factor``).  The band is scattered
        into a zeroed buffer and factored in place."""
        data = self._stiffness_data(m2, b)
        if self.band_slot is None:
            return _factor(self._matrix(data))
        band = np.zeros((self.bandwidth + 1) * len(self.order))
        band[self.band_slot] = data[self.band_entries]
        return _BandCholesky(band.reshape(self.bandwidth + 1, -1, order="F"), self.order)


class _BandCholesky:
    """The Cholesky factor of a symmetric positive definite matrix whose rows
    and columns are taken in the order ``order``, computed by LAPACK's
    ``dpbtrf`` in place from its lower band ``band`` (bandwidth + 1 rows, in
    Fortran order); ``solve`` gathers the right-hand side into that order,
    runs ``dpbtrs`` and scatters the solution back.  Raises
    ``np.linalg.LinAlgError`` if the matrix is not positive definite."""

    def __init__(self, band: np.ndarray, order: np.ndarray) -> None:
        self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"band Cholesky failed: dpbtrf info {info}")
        self.order = order

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, _ = dpbtrs(self.band, b[self.order], lower=1, overwrite_b=1)
        out = np.empty_like(x)
        out[self.order] = x
        return out


# Mesh -> its _Operators.  A Mesh is immutable and hashes by identity, so a
# record stays valid for the mesh's life and is dropped with it.
_RECORDS: weakref.WeakKeyDictionary[Mesh, _Operators] = weakref.WeakKeyDictionary()


def _pattern(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stiffness pattern of triangles whose vertices have the (3, n_tri)
    columns ``c`` (-1 for a boundary node) among ``n``: the slot of each
    block entry in its data (nnz for an entry with a boundary node), then
    the pattern's CSC ``indices`` and ``indptr``.

    Block entry k of a triangle has the CSC key column * n + row, or n * n
    if it has a boundary node.  The distinct keys give the pattern, and the
    rank of an entry's key is its slot."""
    held = c < 0
    held = held[_BLOCK_COLS] | held[_BLOCK_ROWS]
    keys = np.where(held, n * n, c[_BLOCK_COLS] * n + c[_BLOCK_ROWS])
    unique, slot = np.unique(keys, return_inverse=True)
    unique = unique[: np.searchsorted(unique, n * n)]
    indptr = np.searchsorted(unique, n * np.arange(n + 1))
    return slot.reshape(keys.shape), (unique % n).astype(np.int32), indptr.astype(np.int32)


def _operators(m: Mesh) -> _Operators:
    """The operator record of ``m``, built on the first call for that mesh."""
    ops = _RECORDS.get(m)
    if ops is None:
        cols, n = interior_dof_map(m)
        a = _maps(m, cols)
        area = m.tri_area
        ops = _Operators(a, a.T, area, np.tile(area / 3.0, 3), m.grad_map,
                         *_pattern(cols[m.triangles].T, n))
        _RECORDS[m] = ops
    return ops


def _on_all_nodes(m: Mesh, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangle gradients and edge-midpoint values of the nodal field ``u``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.n_nodes,):
        raise ValueError(f"field has {u.shape} entries, mesh has {m.n_nodes} nodes")
    values = _maps(m, np.arange(m.n_nodes)) @ u
    return values[: 2 * m.n_triangles], values[2 * m.n_triangles :]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y, summed by numpy's own loop.  A BLAS ddot splits sums of more
    than 10,000 entries across threads, and waking a second thread costs
    more than the sum itself on these meshes, and most after the machine
    sat idle."""
    return float(np.einsum("i,i->", x, y))


def _energy(area: np.ndarray, m2: np.ndarray, p: float, gu: np.ndarray) -> float:
    """sum_T |T| Q(grad u)^(p/2) from the stacked triangle gradients ``gu``."""
    g = gu.reshape(2, -1)
    q = np.maximum((g * (m2 @ g)).sum(axis=0), 0.0)
    return _dot(area, q ** (0.5 * p))


def energy(m: Mesh, q: QuadForm, p: float, u: np.ndarray) -> float:
    """Anisotropic gradient energy of a nodal field, exact per triangle."""
    return _energy(m.tri_area, q.matrix(), p, _on_all_nodes(m, u)[0])


def pnorm_p(m: Mesh | _Operators, u: np.ndarray, p: float) -> float:
    """Integral of |u|^p of the linear interpolant (edge-midpoint rule).

    ``u`` holds the nodal values of a field on the mesh ``m``.  Inside a
    solve, ``m`` is the solve's operators and ``u`` the edge-midpoint values
    ``Mid`` already gave (one call per trial point of the line search)."""
    if isinstance(m, Mesh):
        return _dot(np.tile(m.tri_area / 3.0, 3), np.abs(_on_all_nodes(m, u)[1]) ** p)
    return _dot(m.weight, np.abs(u) ** p)


def _point(
    ops: _Operators, m2: np.ndarray, p: float, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``v`` scaled to unit p-norm, with its triangle gradients, its
    edge-midpoint values and its Rayleigh quotient.  Energy and norm are
    homogeneous, so the quotient is taken before the scaling."""
    split = 2 * len(ops.area)
    values = ops.a @ v
    nrm = pnorm_p(ops, values[split:], p)
    if nrm <= 0.0:
        raise ValueError("candidate field vanishes identically")
    lam = _energy(ops.area, m2, p, values[:split]) / nrm
    scale = nrm ** (-1.0 / p)
    values *= scale
    return v * scale, values[:split], values[split:], lam


def _gradient(
    ops: _Operators, m2: np.ndarray, p: float, gu: np.ndarray, y: np.ndarray, lam: float
) -> np.ndarray:
    """Gradient of the Rayleigh quotient on the operators' columns at a field
    of unit p-norm, from its triangle gradients ``gu``, edge-midpoint values
    ``y`` and quotient ``lam``; the unit norm removes the quotient's division
    by it."""
    g = gu.reshape(2, -1)
    f = m2 @ g
    q = np.maximum((g * f).sum(axis=0), GRAD_FLOOR if p < 2.0 else 0.0)
    flux = f * (p * ops.area * q ** (0.5 * p - 1.0))
    w = (-lam * p) * ops.weight * np.sign(y) * np.abs(y) ** (p - 1.0)
    return ops.a_t @ np.concatenate((flux.ravel(), w))


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
    mass: sp.csc_matrix, lu: _BandCholesky | SuperLU, tol: float, u: np.ndarray | None = None
) -> tuple[np.ndarray, int, bool]:
    """Smallest eigenpair of K u = lam M u by inverse iteration with the
    factorization ``lu`` of K, started from ``u`` (the ones vector if None),
    stopped when the relative eigenvalue change reaches ``tol`` or after
    MAX_ITER steps.  A step is one solve and one product with M: the solve
    gives K w = M u, so w.Kw = w.Mu, and M w, scaled with w, is the next
    right-hand side.  Returns (u, iterations, converged); the caller decides
    what a miss means."""
    u = np.ones(mass.shape[0]) if u is None else np.array(u, dtype=float)
    mu = mass @ u
    nrm = math.sqrt(u @ mu)
    u /= nrm
    mu /= nrm
    lam_prev = None
    res = math.inf
    for it in range(1, MAX_ITER + 1):
        w = lu.solve(mu)
        mw = mass @ w
        ww = float(w @ mw)
        lam = float(w @ mu) / ww
        nrm = math.sqrt(ww)
        u, mu = w / nrm, mw / nrm
        if lam_prev is not None:
            res = abs(lam - lam_prev) / lam
        lam_prev = lam
        if res <= tol:
            break
    return u, it, res <= tol


def _factor(a: sp.csc_matrix) -> SuperLU:
    """Sparse LU of a stiffness matrix, the factorization of a mesh whose
    band in reverse Cuthill-McKee order is wider than BAND_CUTOFF; narrower
    ones are factored as a band (``_Operators.factor``), which on the meshes
    up to level 6 is several times faster.  It is symmetric positive
    definite: a symmetric ordering and diagonal pivots give less fill than
    the default column ordering."""
    return splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def _lagged_weights(ops: _Operators, m2: np.ndarray, p: float, gu: np.ndarray) -> np.ndarray:
    """Triangle weights |T| q_T^((p-2)/2) of K_w = G^T (m2 (x) diag w) G, the
    stiffness of the p-Laplacian's diffusivity frozen at the field whose
    triangle gradients are ``gu``, with q_T = Q(grad u|_T) floored at
    LAGGED_Q_FLOOR times its mean."""
    g = gu.reshape(2, -1)
    q = (g * (m2 @ g)).sum(axis=0)
    return ops.area * np.maximum(q, LAGGED_Q_FLOOR * q.mean()) ** (0.5 * p - 1.0)


def _descent(
    ops: _Operators,
    m2: np.ndarray,
    p: float,
    u0: np.ndarray,
    bound: float,
    lu: _BandCholesky | SuperLU,
) -> tuple[np.ndarray, float, float, int]:
    """Projected Sobolev-gradient descent on the unit p-norm sphere.

    Each step moves along d = B^-1 g, the gradient of the quotient in the
    metric B.  For p >= LAGGED_P_CUTOFF, B is the form's p = 2 stiffness K,
    factorized as ``lu``.  For p < LAGGED_P_CUTOFF it is the
    lagged-diffusivity stiffness K_w of the start (``_lagged_weights``),
    assembled and factorized once here.  On the L-shape at p = 1.5 it takes
    the descent-plus-inverse iterations from 51 / 179 at L4 / L6 with K to
    41 / 60.  The cut-off is measured: interleaved in-process ``solve_p``
    timings of the identity form on the L5 and L6 L-shape and disk (2-vCPU
    machine) find K_w faster on all four at p = 1.5 and 1.55 but the L5
    L-shape, on two of four at p = 1.6 (by at most 4 %, and 26 % slower on
    the L6 disk), and slower on all four from p = 1.7 on.  Below the cut-off
    the iterations saved outweigh the second factorization and the second
    solve per iteration.

    The step length starts from the Barzilai-Borwein value s.Bs / s.y, and is
    halved until the Armijo condition on g.d holds.  B = G^T (m2 (x) diag b) G
    with triangle weights b (|T| for K, the lagged weights for K_w), so s.Bs
    = sum_T b_T Q(grad s|_T) comes from the triangle gradients of the last
    two iterates, with no product with B: the descent needs B's
    factorization only.  The iterates move on the
    whole sphere: the ground state of an anisotropic form may change sign at
    a few nodes of a P1 mesh, and replacing an iterate by |u| would pin those
    nodes at 0 and can raise the quotient.  The quotient is even in u; the
    start ``u0`` is flipped, if need be, to a nonnegative sum.  The accepted
    trial's gradients and midpoint values give the next gradient.

    An iteration is one gradient (one product with A^T) and one solve with
    K, plus one with K_w below the cut-off; each line-search trial is one
    product with A.  The dual-norm residual sqrt(g.K^-1 g) / (p lam) stays
    in the metric of K in both cases.  The descent stops as soon as it is at
    most ``bound``, at MAX_ITER iterations, or when the line search finds
    no decrease.  Returns (u, lam, residual, iterations) of the last iterate;
    the caller compares the residual with the bound."""
    u, gu, y, lam = _point(ops, m2, p, u0 if u0.sum() >= 0.0 else -u0)
    if p < LAGGED_P_CUTOFF:
        b = _lagged_weights(ops, m2, p, gu)
        metric_lu = ops.factor(m2, b)
    else:
        b, metric_lu = ops.area, lu
    u_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    gu_prev: np.ndarray | None = None
    t = 1.0 / (1.0 + abs(lam))
    it = 0
    while True:
        it += 1
        g = _gradient(ops, m2, p, gu, y, lam)
        d = lu.solve(g)
        gd = max(_dot(g, d), 0.0)
        residual = math.sqrt(gd) / (p * lam)
        if residual <= bound or it == MAX_ITER:
            return u, lam, residual, it
        if metric_lu is not lu:
            d = metric_lu.solve(g)
            gd = max(_dot(g, d), 0.0)
        if u_prev is not None:
            s = u - u_prev
            sy = _dot(s, g - g_prev)
            # s.Bs is the p = 2 energy of s with the metric's triangle weights
            t0 = _energy(b, m2, 2.0, gu - gu_prev) / sy if sy > 0.0 else 2.0 * t
        else:
            t0 = t
        t0 = min(max(t0, 1e-18), 1e8)
        u_prev, g_prev, gu_prev = u, g, gu

        t = t0
        for _ in range(60):
            trial = _point(ops, m2, p, u - t * d)
            if trial[3] <= lam - 1e-4 * t * gd:
                break
            t *= 0.5
        else:
            # No decrease along the gradient (floating-point limit): the
            # residual above the bound reports the miss.
            return u, lam, residual, it
        u, gu, y, lam = trial


def solve_p(
    m: Mesh, q: QuadForm, p: float, tol: float = DEFAULT_TOL, start: np.ndarray | None = None
) -> EigenResult:
    """Fundamental frequency for p > 1.

    The operators of ``m`` come from its record, built by the first solve on
    ``m``; the form's p = 2 stiffness K is three axpys on its pieces' data.
    One factorization of K serves the inverse iteration, the reported
    residual and, for p >= LAGGED_P_CUTOFF, the descent's metric; below the
    cut-off the descent factors its lagged-diffusivity metric K_w as well.
    The inverse iteration on the p = 2 pencil stops at the relative
    eigenvalue change ``tol`` and is the result at p = 2.  For other p
    its ground state is the start of one projected descent at p, stopped at
    the residual bound sqrt(tol / RESIDUAL_SAFETY).

    ``start``, a nodal field on ``m`` that is finite and not zero on the
    interior nodes, replaces the ones vector as the start of the inverse
    iteration at p = 2, and the inverse iteration's ground state as the start
    of the descent at other p, whose inverse iteration is then skipped.  The
    eigenfunction of a nearby form on ``m`` is a good one.

    Raises ``SolverConvergenceError``, carrying the last iterate, when the
    inverse iteration at p = 2 misses ``tol`` or the descent misses its
    bound; ``iterations`` counts the iterations that ran, of both.  Either
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
    lu = ops.factor(m2)
    if p == 2.0:
        u, iterations, converged = _inverse_iteration(ops.mass, lu, tol, start)
        failure = f"inverse iteration did not reach tol {tol} in {MAX_ITER} iterations"
        u, gu, y, lam = _point(ops, m2, p, u)
        g = _gradient(ops, m2, p, gu, y, lam)
        residual = math.sqrt(max(float(g @ lu.solve(g)), 0.0)) / (p * lam)
    else:
        if start is None:
            u, iterations, _ = _inverse_iteration(ops.mass, lu, tol)
        else:
            u, iterations = start, 0
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
