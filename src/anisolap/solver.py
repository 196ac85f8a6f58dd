"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions.  The gradient energy is exact per
triangle (the integrand is constant); |u|^p is integrated with the 3-point
edge-midpoint rule, which reproduces the consistent mass matrix at p = 2.

One path for every p > 1, built on one direct sparse factorization of the
form's p = 2 stiffness K.  Inverse iteration on the generalized symmetric
pencil (K, M) gives the p = 2 ground state.  At p = 2 that is the answer.
For any other p it is the warm start of projected descent on the unit p-norm
sphere, marched through a geometric continuation in p from 2 to p.  The
descent steps along the Sobolev gradient K^-1 g (Neuberger; for
p-eigenvalues, Horak, EJDE 2011), so its iteration count stays nearly flat
under mesh refinement where a plain l2 gradient step needs O(h^-2) steps.

Every result reports the dual-norm residual sqrt(g . K^-1 g) / (p lam) of the
returned pair, g being the nodal gradient of E(u) - lam N(u) (E the gradient
energy, N the p-norm to the p).  It measures how far the pair is from
satisfying the discrete eigenvalue equation, whatever stopping rule ended
the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .mesh import Mesh, interior_dof_map
from .quadform import QuadForm

# Smoothing floor inside Q(grad u)^((p-2)/2) factors for p < 2; the reported
# eigenvalue is always the unsmoothed quotient of the final iterate.
GRAD_FLOOR = 1e-12

# Number of geometric continuation steps 2 -> p.
CONTINUATION_STEPS = 6

_AXIS_MATS = {
    "x": np.array([[1.0, 0.0], [0.0, 0.0]]),
    "y": np.array([[0.0, 0.0], [0.0, 1.0]]),
}


@dataclass
class SolverOptions:
    tol: float = 1e-9           # relative eigenvalue change per step that stops an iteration
    max_iter: int = 20000       # budget of the inverse iteration and of each descent stage

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class EigenResult:
    lam: float                # eigenvalue estimate
    u: np.ndarray             # nodal eigenfunction, unit p-norm: at p = 2 the pencil
                              # eigenvector (it may change sign), otherwise nonnegative
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


def _form_matrix(q: QuadForm) -> np.ndarray:
    return np.array([[q.alpha, q.beta], [q.beta, q.gamma]])


def _tri_gradients(m: Mesh, u: np.ndarray) -> np.ndarray:
    return np.einsum("tij,tj->ti", m.grad_map, u[m.triangles])


def _energy_m2(m: Mesh, m2: np.ndarray, p: float, u: np.ndarray) -> float:
    g = _tri_gradients(m, u)
    q = np.maximum(np.einsum("ti,ij,tj->t", g, m2, g), 0.0)
    return float(m.tri_area @ q ** (0.5 * p))


def energy(m: Mesh, q: QuadForm, p: float, u: np.ndarray) -> float:
    """Anisotropic gradient energy of a nodal field, exact per triangle."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.n_nodes,):
        raise ValueError(f"field has {u.shape} entries, mesh has {m.n_nodes} nodes")
    return _energy_m2(m, _form_matrix(q), p, u)


def pnorm_p(m: Mesh, u: np.ndarray, p: float) -> float:
    """Integral of |u|^p of the linear interpolant (edge-midpoint rule)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (m.n_nodes,):
        raise ValueError(f"field has {u.shape} entries, mesh has {m.n_nodes} nodes")
    uv = u[m.triangles]
    mids = 0.5 * (uv + uv[:, [1, 2, 0]])
    return float((m.tri_area / 3.0) @ (np.abs(mids) ** p).sum(axis=1))


def _energy_gradient(m: Mesh, m2: np.ndarray, p: float, u: np.ndarray) -> np.ndarray:
    g = _tri_gradients(m, u)
    q = np.maximum(np.einsum("ti,ij,tj->t", g, m2, g), 0.0)
    if p < 2.0:
        q = np.maximum(q, GRAD_FLOOR)
    flux = (g @ m2.T) * (p * m.tri_area * q ** (0.5 * p - 1.0))[:, None]
    contrib = np.einsum("ti,tij->tj", flux, m.grad_map)
    return np.bincount(m.triangles.ravel(), weights=contrib.ravel(), minlength=m.n_nodes)


def _pnorm_gradient(m: Mesh, p: float, u: np.ndarray) -> np.ndarray:
    uv = u[m.triangles]
    mids = 0.5 * (uv + uv[:, [1, 2, 0]])
    w = (m.tri_area / 3.0)[:, None] * (0.5 * p) * np.sign(mids) * np.abs(mids) ** (p - 1.0)
    contrib = w.copy()
    contrib[:, [1, 2, 0]] += w
    return np.bincount(m.triangles.ravel(), weights=contrib.ravel(), minlength=m.n_nodes)


def _rayleigh_grad(m: Mesh, m2: np.ndarray, p: float, u: np.ndarray, lam: float) -> np.ndarray:
    """Nodal gradient of the Rayleigh quotient (boundary rows zeroed) at a field
    of unit p-norm whose quotient is ``lam``; the unit norm removes the
    quotient's division by it."""
    g = _energy_gradient(m, m2, p, u) - lam * _pnorm_gradient(m, p, u)
    g[m.boundary_node] = 0.0
    return g


def _assemble_quadratic(m: Mesh, m2: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Stiffness (weighted by the form) and consistent mass on interior nodes."""
    idx, _ = interior_dof_map(m)
    interior = np.flatnonzero(idx >= 0)
    g = m.grad_map
    block_k = np.einsum("tai,ab,tbj->tij", g, m2, g) * m.tri_area[:, None, None]
    mass_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    block_m = mass_local[None, :, :] * m.tri_area[:, None, None]
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()
    n = m.n_nodes
    k_full = sp.coo_matrix((block_k.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    m_full = sp.coo_matrix((block_m.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return (
        k_full[interior][:, interior].tocsr(),
        m_full[interior][:, interior].tocsr(),
        interior,
    )


def _precondition(lu: SuperLU, interior: np.ndarray, g: np.ndarray) -> np.ndarray:
    """K^-1 g on the interior nodes, zero on the boundary."""
    d = np.zeros_like(g)
    d[interior] = lu.solve(g[interior])
    return d


def _finalize(
    m: Mesh,
    m2: np.ndarray,
    u: np.ndarray,
    p: float,
    form: QuadForm,
    iterations: int,
    lu: SuperLU,
    interior: np.ndarray,
) -> EigenResult:
    u = u / pnorm_p(m, u, p) ** (1.0 / p)
    lam = _energy_m2(m, m2, p, u)
    g = _rayleigh_grad(m, m2, p, u, lam)
    residual = math.sqrt(max(float(g @ _precondition(lu, interior, g)), 0.0)) / (p * lam)
    return EigenResult(lam, u, iterations, residual, p, form)


def _inverse_iteration(
    m: Mesh,
    stiff: sp.csr_matrix,
    mass: sp.csr_matrix,
    lu: SuperLU,
    interior: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, int, bool]:
    """Smallest eigenpair of K u = lam M u on interior nodes by inverse
    iteration with the factorization ``lu`` of K, stopped when the relative
    eigenvalue change reaches ``opts.tol``.  Returns (nodal field,
    iterations, converged); the caller decides what a miss means."""
    u = np.ones(len(interior))
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
    full = np.zeros(m.n_nodes)
    full[interior] = u
    return full, it, res <= opts.tol


def _project(m: Mesh, p: float, u: np.ndarray) -> np.ndarray:
    v = np.abs(u)
    v[m.boundary_node] = 0.0
    nrm = pnorm_p(m, v, p)
    if nrm <= 0.0:
        raise ValueError("candidate field vanishes identically")
    return v / nrm ** (1.0 / p)


def _descent(
    m: Mesh,
    m2: np.ndarray,
    p: float,
    u0: np.ndarray,
    tol: float,
    max_iter: int,
    stiff: sp.csr_matrix,
    lu: SuperLU,
    interior: np.ndarray,
) -> tuple[np.ndarray, int, bool]:
    """Projected Sobolev-gradient descent on the unit p-norm sphere.

    Each step moves along d = K^-1 g, the gradient of the quotient in the
    metric of the form's p = 2 stiffness K (factorized as ``lu``), so the
    iteration count stays nearly flat under mesh refinement.  The step length
    starts from the Barzilai-Borwein value s.Ks / s.y, measured in the same
    metric, and is halved until the Armijo condition on g.d holds.
    Nonnegativity is enforced by taking absolute values each iterate (the
    quotient never increases under that replacement).  Convergence is declared
    when the relative eigenvalue change stays below ``tol`` for three
    consecutive steps.  Returns (u, iterations, converged)."""
    u = _project(m, p, u0)
    lam = _energy_m2(m, m2, p, u)
    u_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    t = 1.0 / (1.0 + abs(lam))
    small = 0
    it = 0
    while it < max_iter:
        it += 1
        g = _rayleigh_grad(m, m2, p, u, lam)
        d = _precondition(lu, interior, g)
        gd = float(g @ d)
        if math.sqrt(max(gd, 0.0)) <= 1e-14 * (1.0 + abs(lam)):
            return u, it, True
        if u_prev is not None:
            s = (u - u_prev)[interior]
            sy = float(s @ (g - g_prev)[interior])
            t0 = float(s @ (stiff @ s)) / sy if sy > 0.0 else 2.0 * t
        else:
            t0 = t
        t0 = min(max(t0, 1e-18), 1e8)
        u_prev, g_prev = u, g

        t = t0
        for _ in range(60):
            v = _project(m, p, u - t * d)
            lam_v = _energy_m2(m, m2, p, v)
            if lam_v <= lam - 1e-4 * t * gd:
                break
            t *= 0.5
        else:
            # Flat direction (or floating-point limit): the quotient cannot
            # be decreased along the gradient, treat as stationary.
            if lam_v < lam:
                u = v
            return u, it, True

        res = (lam - lam_v) / max(abs(lam_v), 1e-300)
        u, lam = v, lam_v
        if abs(res) <= tol:
            small += 1
            if small >= 3:
                return u, it, True
        else:
            small = 0
    return u, it, False


def _continuation_schedule(p: float) -> list[float]:
    return [2.0 * (p / 2.0) ** (k / CONTINUATION_STEPS) for k in range(1, CONTINUATION_STEPS + 1)]


def _solve(
    m: Mesh, m2: np.ndarray, p: float, opts: SolverOptions, form: QuadForm, tol: float
) -> EigenResult:
    """The solver path shared by every energy.

    One factorization of the form's p = 2 stiffness K serves the inverse
    iteration, the descent's preconditioner and the reported residual.  The
    inverse iteration stops at ``opts.tol`` and is the result at p = 2.  For
    other p it is only the warm start, so a miss there is not an error; the
    continuation stages stop at max(tol, 1e-7), the final one at ``tol``.  A
    miss of the last step (the inverse iteration at p = 2, the final stage
    otherwise) raises.  Every stage has ``opts.max_iter`` iterations;
    ``iterations`` counts all of them."""
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    stiff, mass, interior = _assemble_quadratic(m, m2)
    lu = splu(stiff.tocsc())
    u, total_it, converged = _inverse_iteration(m, stiff, mass, lu, interior, opts)
    failure = f"inverse iteration did not reach tol {opts.tol}"
    if p != 2.0:
        schedule = _continuation_schedule(p)
        for i, pk in enumerate(schedule):
            tol_k = tol if i == len(schedule) - 1 else max(tol, 1e-7)
            u, it, converged = _descent(m, m2, pk, u, tol_k, opts.max_iter, stiff, lu, interior)
            total_it += it
        failure = f"descent did not reach tol {tol} at p={p}"
    result = _finalize(m, m2, u, p, form, total_it, lu, interior)
    if not converged:
        raise SolverConvergenceError(f"{failure} in {opts.max_iter} iterations", result)
    return result


def solve_p(m: Mesh, q: QuadForm, p: float, opts: SolverOptions | None = None) -> EigenResult:
    """Fundamental frequency for p > 1.

    Inverse iteration on the p = 2 pencil of the form gives the result at
    p = 2.  For other p its ground state is marched by projected descent
    through a geometric schedule in p from 2 to p.  Raises
    ``SolverConvergenceError``, carrying the last iterate, when the inverse
    iteration at p = 2 or the final descent stage exhausts ``opts.max_iter``.
    Either way the result's ``residual`` is the dual-norm residual of the
    returned pair.
    """
    opts = opts or SolverOptions()
    return _solve(m, _form_matrix(q), p, opts, q, opts.tol)


def directional_constant(
    m: Mesh, p: float, axis: str, opts: SolverOptions | None = None
) -> float:
    """Infimum of the single-derivative energy sum_T |T| |(grad u)_axis|^p over
    zero-trace fields with unit p-norm.

    The same solver path as ``solve_p``, with the degenerate axis form.
    Because the functional controls only one derivative, its minimizers can
    concentrate on the widest cross-section and the descent tail decays as a
    power law; the descent tolerance is therefore floored at 1e-7 and the
    iterate is accepted when the iteration cap is reached (the value is an
    upper estimate of the discrete infimum, stable to a fraction of a
    percent)."""
    if axis not in _AXIS_MATS:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    opts = opts or SolverOptions()
    marker = QuadForm.identity()  # result metadata only; the energy uses the axis form
    try:
        return _solve(m, _AXIS_MATS[axis], p, opts, marker, max(opts.tol, 1e-7)).lam
    except SolverConvergenceError as exc:
        return exc.best.lam

