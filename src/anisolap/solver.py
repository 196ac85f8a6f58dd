"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions, held as their values on the
interior nodes.  Every operator a solve needs depends on the mesh alone, so
``_operators`` builds one record per mesh, the first time a solve sees it, and
keeps it for as long as the mesh lives.  Its two sparse maps

    G    (2 n_tri x n_int)  values -> x gradients of the triangles, then y
    Mid  (3 n_tri x n_int)  values -> values at the triangles' edge midpoints

evaluate everything else.  The energy E(u) = sum |T| Q(Gu)^(p/2) is exact per
triangle (the integrand is constant); the p-norm N(u) = sum |T|/3 |Mid u|^p is
the 3-point edge-midpoint rule.  Their gradients are G^T and Mid^T applied to
per-triangle factors.  The record also holds the consistent mass
M = Mid^T diag(|T|/3) Mid and three stiffness pieces K_xx = G_x^T diag|T| G_x,
K_xy + K_yx and K_yy, so the p = 2 stiffness of a form q is the sum
K(q) = alpha K_xx + beta (K_xy + K_yx) + gamma K_yy.

One path for every p > 1, built on one direct sparse factorization of K.
Inverse iteration on the generalized symmetric pencil (K, M) gives the p = 2
ground state u0.  At p = 2 that is the answer.  For any other p it is the
start of one projected descent on the unit p-norm sphere at p itself, which
steps along a Sobolev gradient B^-1 g (Neuberger; for p-eigenvalues, Horak,
EJDE 2011) in one of two metrics B:

- p >= LAGGED_P_CUTOFF: B = K, the p = 2 stiffness.  Near p = 2 it is the
  right metric and costs no second factorization.
- p < LAGGED_P_CUTOFF: B = K_w = G^T (m2 (x) diag(|T| q_T^((p-2)/2))) G, the
  lagged-diffusivity (Kacanov) stiffness, with q_T = Q(grad u0|_T) floored
  at LAGGED_Q_FLOOR times its mean (Huang, Li and Liu, J. Sci. Comput. 2007;
  Diening, Fornasier, Tomasi and Wank, Numer. Math. 2020).  Far below p = 2
  the diffusivity Q^((p-2)/2) varies by orders of magnitude across the
  domain, and K, which ignores it, lets the iteration count grow under
  refinement: 51 / 179 descent-plus-inverse iterations at L4 / L6 on the
  L-shape at p = 1.5, against 41 / 60 with K_w.  K_w is factored once per
  solve, with the same call as K.  The cut-off is where the second
  factorization and the second solve per iteration stop paying for the
  iterations they save; ``_descent`` gives the measurement.

A line-search trial costs one product with G and one with Mid, and the
accepted trial's products give the next gradient.

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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .mesh import Mesh, interior_dof_map
from .quadform import QuadForm

# Smoothing floor inside Q(grad u)^((p-2)/2) factors for p < 2; the reported
# eigenvalue is always the unsmoothed quotient of the final iterate.
GRAD_FLOOR = 1e-12

# Below this p the descent's metric is the lagged-diffusivity stiffness K_w of
# its start, not the p = 2 stiffness K; ``_descent`` has the measured crossover.
LAGGED_P_CUTOFF = 1.6

# Floor of the lagged diffusivity's Q(grad u0|_T), relative to its mean over
# the triangles: it keeps K_w's weights finite where the start is flat.
LAGGED_Q_FLOOR = 1e-3

# Safety factor of the descent's stopping bound.  Near the ground state the
# relative eigenvalue error is about C residual^2; C measured between 1 and
# 120 on the square, the L-shape and the disk at level 4, p = 1.5 and 3, with
# the identity form and make_Q_alpha(0.25, 0.6).  Stopping at residual <=
# sqrt(tol / RESIDUAL_SAFETY) keeps that error below tol for any C up to
# RESIDUAL_SAFETY; the bound is 1e-6 at the default tol of 1e-9.
RESIDUAL_SAFETY = 1000.0


@dataclass
class SolverOptions:
    tol: float = 1e-9           # eigenvalue tolerance: the inverse iteration stops at this relative
                                # change per step, the descent at residual sqrt(tol / RESIDUAL_SAFETY)
    max_iter: int = 20000       # iteration budget of the inverse iteration and of the descent, each

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class EigenResult:
    lam: float                # eigenvalue estimate
    u: np.ndarray             # nodal eigenfunction, unit p-norm; at every p it may change
                              # sign (a P1 ground state need not keep one sign)
    iterations: int
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


def _maps(m: Mesh, cols: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """G and Mid of ``m`` on the columns ``cols`` (node -> column index, -1
    for a node held at zero), as CSR built from its arrays: every row holds
    at most three entries in distinct columns, in increasing column order."""
    nt, n_cols = m.n_triangles, int(cols.max()) + 1

    def csr(idx, data):
        # idx (rows, k) holds each row's columns in increasing order, -1 first
        keep = idx >= 0
        indptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        return sp.csr_matrix((data[keep], idx[keep], indptr), shape=(len(idx), n_cols))

    # sort each triangle's columns, carrying its gradient weights along
    c = cols[m.triangles]
    order = np.argsort((c + (n_cols + 1) * np.arange(nt)[:, None]).ravel(), kind="stable")
    c_sorted = c.ravel()[order].reshape(nt, 3)
    data = np.concatenate([m.grad_map[:, k].ravel()[order] for k in (0, 1)]).reshape(2 * nt, 3)
    grad = csr(np.tile(c_sorted, (2, 1)), data)
    # edge k of a triangle joins its local vertices k and k + 1
    a = c.T
    b = np.roll(a, -1, axis=0)
    ends = np.stack([np.minimum(a, b).ravel(), np.maximum(a, b).ravel()], axis=1)
    mid = csr(ends, np.full(ends.shape, 0.5))
    return grad, mid


@dataclass
class _Operators:
    """Everything a solve needs of one mesh, on its interior nodes: the maps
    G and Mid, the mass M and the three pieces of the p = 2 stiffness K(q).
    ``grad_t`` and ``mid_t`` are the ``.T`` views of the maps, kept so that a
    product does not rebuild one.  ``_operators`` builds one per mesh."""

    grad: sp.csr_matrix   # (2 n_tri, n_int): x gradients of the triangles, then y gradients
    mid: sp.csr_matrix    # (3 n_tri, n_int): values at edge k of triangle t in row k n_tri + t
    grad_t: sp.csc_matrix
    mid_t: sp.csc_matrix
    area: np.ndarray      # (n_tri,) |T|
    weight: np.ndarray    # (3 n_tri,) midpoint-rule weights |T|/3
    mass: sp.csc_matrix   # M = Mid^T diag(|T|/3) Mid, which is |T|/12 (1 + delta_ij) per triangle
    k_xx: sp.csc_matrix   # G_x^T diag|T| G_x
    k_xy: sp.csc_matrix   # G_x^T diag|T| G_y + G_y^T diag|T| G_x
    k_yy: sp.csc_matrix   # G_y^T diag|T| G_y

    def stiffness(self, m2: np.ndarray) -> sp.csc_matrix:
        """K = G^T (m2 (x) diag|T|) G of the symmetric 2x2 matrix ``m2``, as
        the sum of the three pieces."""
        return m2[0, 0] * self.k_xx + m2[0, 1] * self.k_xy + m2[1, 1] * self.k_yy


# Mesh -> its _Operators.  A Mesh is immutable and hashes by identity, so a
# record stays valid for the mesh's life and is dropped with it.
_RECORDS: weakref.WeakKeyDictionary[Mesh, _Operators] = weakref.WeakKeyDictionary()


def _operators(m: Mesh) -> _Operators:
    """The operator record of ``m``, built on the first call for that mesh."""
    ops = _RECORDS.get(m)
    if ops is None:
        grad, mid = _maps(m, interior_dof_map(m)[0])
        nt, area = m.n_triangles, m.tri_area
        weight = np.tile(area / 3.0, 3)

        def scaled(rows, w):
            # diag(w) rows, in CSC for the products with a transposed map
            data = rows.data * np.repeat(w, np.diff(rows.indptr))
            return sp.csr_matrix((data, rows.indices, rows.indptr), shape=rows.shape).tocsc()

        gx, gy = grad[:nt], grad[nt:]
        agx, agy = scaled(gx, area), scaled(gy, area)
        k_xy = gx.T @ agy
        ops = _Operators(
            grad, mid, grad.T, mid.T, area, weight,
            mass=mid.T @ scaled(mid, weight),
            k_xx=gx.T @ agx,
            k_xy=k_xy + k_xy.T.tocsc(),
            k_yy=gy.T @ agy,
        )
        _RECORDS[m] = ops
    return ops


def _on_all_nodes(m: Mesh, u: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    u = np.asarray(u, dtype=float)
    if u.shape != (m.n_nodes,):
        raise ValueError(f"field has {u.shape} entries, mesh has {m.n_nodes} nodes")
    return *_maps(m, np.arange(m.n_nodes)), u


def _energy(area: np.ndarray, m2: np.ndarray, p: float, gu: np.ndarray) -> float:
    """sum_T |T| Q(grad u)^(p/2) from the stacked triangle gradients ``gu``."""
    g = gu.reshape(2, -1)
    q = np.maximum((g * (m2 @ g)).sum(axis=0), 0.0)
    return float(area @ q ** (0.5 * p))


def energy(m: Mesh, q: QuadForm, p: float, u: np.ndarray) -> float:
    """Anisotropic gradient energy of a nodal field, exact per triangle."""
    grad, _, u = _on_all_nodes(m, u)
    return _energy(m.tri_area, q.matrix(), p, grad @ u)


def pnorm_p(m: Mesh | _Operators, u: np.ndarray, p: float) -> float:
    """Integral of |u|^p of the linear interpolant (edge-midpoint rule).

    ``u`` holds the nodal values of a field on the mesh ``m``.  Inside a
    solve, ``m`` is the solve's operators and ``u`` the edge-midpoint values
    ``Mid`` already gave (one call per trial point of the line search)."""
    if isinstance(m, Mesh):
        _, mid, u = _on_all_nodes(m, u)
        return float(np.tile(m.tri_area / 3.0, 3) @ np.abs(mid @ u) ** p)
    return float(m.weight @ np.abs(u) ** p)


def _point(
    ops: _Operators, m2: np.ndarray, p: float, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``v`` scaled to unit p-norm, with its triangle gradients, its
    edge-midpoint values and its Rayleigh quotient.  Energy and norm are
    homogeneous, so the quotient is taken before the scaling."""
    gu, y = ops.grad @ v, ops.mid @ v
    nrm = pnorm_p(ops, y, p)
    if nrm <= 0.0:
        raise ValueError("candidate field vanishes identically")
    lam = _energy(ops.area, m2, p, gu) / nrm
    scale = nrm ** (-1.0 / p)
    return v * scale, gu * scale, y * scale, lam


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
    w = (lam * p) * ops.weight * np.sign(y) * np.abs(y) ** (p - 1.0)
    return ops.grad_t @ flux.ravel() - ops.mid_t @ w


def _inverse_iteration(
    stiff: sp.csc_matrix, mass: sp.csc_matrix, lu: SuperLU, opts: SolverOptions
) -> tuple[np.ndarray, int, bool]:
    """Smallest eigenpair of K u = lam M u by inverse iteration with the
    factorization ``lu`` of K, stopped when the relative eigenvalue change
    reaches ``opts.tol``.  Returns (u, iterations, converged); the caller
    decides what a miss means."""
    u = np.ones(stiff.shape[0])
    u /= math.sqrt(u @ (mass @ u))
    lam_prev = None
    res = math.inf
    for it in range(1, opts.max_iter + 1):
        w = lu.solve(mass @ u)
        w /= math.sqrt(w @ (mass @ w))
        lam = float(w @ (stiff @ w))
        u = w
        if lam_prev is not None:
            res = abs(lam - lam_prev) / lam
        lam_prev = lam
        if res <= opts.tol:
            break
    return u, it, res <= opts.tol


def _factor(a: sp.csc_matrix) -> SuperLU:
    """Sparse LU of a stiffness matrix.  It is symmetric positive definite: a
    symmetric ordering and diagonal pivots give less fill than the default
    column ordering."""
    return splu(
        a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def _lagged_stiffness(ops: _Operators, m2: np.ndarray, p: float, gu: np.ndarray) -> sp.csc_matrix:
    """K_w = G^T (m2 (x) diag(|T| q_T^((p-2)/2))) G, the stiffness of the
    p-Laplacian's diffusivity frozen at the field whose triangle gradients
    are ``gu``, with q_T = Q(grad u|_T) floored at LAGGED_Q_FLOOR times its
    mean."""
    g = gu.reshape(2, -1)
    q = (g * (m2 @ g)).sum(axis=0)
    w = ops.area * np.maximum(q, LAGGED_Q_FLOOR * q.mean()) ** (0.5 * p - 1.0)
    return (ops.grad_t @ (sp.kron(m2, sp.diags(w), format="csr") @ ops.grad)).tocsc()


def _descent(
    ops: _Operators, m2: np.ndarray, p: float, u0: np.ndarray, bound: float, max_iter: int,
    stiff: sp.csc_matrix, lu: SuperLU,
) -> tuple[np.ndarray, float, float, int]:
    """Projected Sobolev-gradient descent on the unit p-norm sphere.

    Each step moves along d = B^-1 g, the gradient of the quotient in the
    metric B.  For p >= LAGGED_P_CUTOFF, B is the form's p = 2 stiffness K
    (``stiff``, factorized as ``lu``).  For p < LAGGED_P_CUTOFF it is the
    lagged-diffusivity stiffness K_w of the start (``_lagged_stiffness``),
    factorized once here.  The cut-off is measured: interleaved in-process
    ``solve_p`` timings of the identity form on the L5 and L6 L-shape and
    disk (2-vCPU machine) find K_w faster on all four at p = 1.5 and 1.55
    but the L5 L-shape, on two of four at p = 1.6 (by at most 4 %, and 26 %
    slower on the L6 disk), and slower on all four from p = 1.7 on.  Below
    the cut-off the iterations saved outweigh the second factorization and
    the second solve per iteration.

    The step length starts from the Barzilai-Borwein value s.Bs / s.y, and is
    halved until the Armijo condition on g.d holds.  The iterates move on the
    whole sphere: the ground state of an anisotropic form may change sign at
    a few nodes of a P1 mesh, and replacing an iterate by |u| would pin those
    nodes at 0 and can raise the quotient.  The quotient is even in u; the
    start ``u0`` is flipped, if need be, to a nonnegative sum.  The accepted
    trial's gradients and midpoint values give the next gradient.

    An iteration is one gradient and one solve with K, plus one with K_w
    below the cut-off.  The dual-norm residual sqrt(g.K^-1 g) / (p lam) stays
    in the metric of K in both cases.  The descent stops as soon as it is at
    most ``bound``, at ``max_iter`` iterations, or when the line search finds
    no decrease.  Returns (u, lam, residual, iterations) of the last iterate;
    the caller compares the residual with the bound."""
    u, gu, y, lam = _point(ops, m2, p, u0 if u0.sum() >= 0.0 else -u0)
    if p < LAGGED_P_CUTOFF:
        metric = _lagged_stiffness(ops, m2, p, gu)
        metric_lu = _factor(metric)
    else:
        metric, metric_lu = stiff, lu
    u_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    t = 1.0 / (1.0 + abs(lam))
    it = 0
    while True:
        it += 1
        g = _gradient(ops, m2, p, gu, y, lam)
        d = lu.solve(g)
        residual = math.sqrt(max(float(g @ d), 0.0)) / (p * lam)
        if residual <= bound or it == max_iter:
            return u, lam, residual, it
        if metric_lu is not lu:
            d = metric_lu.solve(g)
        gd = max(float(g @ d), 0.0)
        if u_prev is not None:
            s = u - u_prev
            sy = float(s @ (g - g_prev))
            t0 = float(s @ (metric @ s)) / sy if sy > 0.0 else 2.0 * t
        else:
            t0 = t
        t0 = min(max(t0, 1e-18), 1e8)
        u_prev, g_prev = u, g

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


def solve_p(m: Mesh, q: QuadForm, p: float, opts: SolverOptions | None = None) -> EigenResult:
    """Fundamental frequency for p > 1.

    The operators of ``m`` come from its record, built by the first solve on
    ``m``; the form's p = 2 stiffness K is the three-term sum of its pieces.
    One factorization of K serves the inverse iteration, the reported
    residual and, for p >= LAGGED_P_CUTOFF, the descent's metric; below the
    cut-off the descent factors its lagged-diffusivity metric K_w as well.
    The inverse iteration on the p = 2 pencil stops at the relative
    eigenvalue change ``opts.tol`` and is the result at p = 2.  For other p
    its ground state is the start of one projected descent at p, stopped at
    the residual bound sqrt(opts.tol / RESIDUAL_SAFETY).  Raises
    ``SolverConvergenceError``, carrying the last iterate, when the inverse
    iteration at p = 2 misses ``opts.tol`` or the descent misses its bound;
    ``iterations`` counts the iterations of both.  Either way the result's
    ``residual`` is the dual-norm residual of the returned pair, in the
    metric of K.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    opts = opts or SolverOptions()
    m2 = q.matrix()
    ops = _operators(m)
    stiff = ops.stiffness(m2)
    lu = _factor(stiff)
    u, iterations, converged = _inverse_iteration(stiff, ops.mass, lu, opts)
    if p == 2.0:
        failure = f"inverse iteration did not reach tol {opts.tol} in {opts.max_iter} iterations"
        u, gu, y, lam = _point(ops, m2, p, u)
        g = _gradient(ops, m2, p, gu, y, lam)
        residual = math.sqrt(max(float(g @ lu.solve(g)), 0.0)) / (p * lam)
    else:
        bound = math.sqrt(opts.tol / RESIDUAL_SAFETY)
        u, lam, residual, it = _descent(ops, m2, p, u, bound, opts.max_iter, stiff, lu)
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
