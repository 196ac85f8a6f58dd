"""Fundamental-frequency solvers for quadratic-form p-Laplace energies.

The discrete problem minimizes the Rayleigh quotient

    R(u) = sum_T |T| Q(grad u|_T)^(p/2) / ||u||_p^p

over zero-trace piecewise-linear functions.  The gradient energy is exact per
triangle (the integrand is constant); |u|^p is integrated with the 3-point
edge-midpoint rule, which reproduces the consistent mass matrix at p = 2.

One path for every p > 1: inverse iteration on the generalized symmetric
pencil (K, M), with a direct sparse factorization of the stiffness operator,
gives the p = 2 ground state.  At p = 2 that is the answer.  For any other p
it is the warm start of projected gradient descent on the unit p-norm sphere
with backtracking line search, marched through a geometric continuation in p
from 2 to p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import DomainSpec, rotate, shear_y
from .mesh import Mesh, build_mesh, interior_dof_map
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
    tol: float = 1e-9           # relative eigenvalue change at termination
    max_iter: int = 20000       # budget of the inverse iteration and of each descent stage

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class EigenResult:
    lam: float                # eigenvalue estimate
    u: np.ndarray             # nodal eigenfunction, nonnegative, unit p-norm
    iterations: int
    residual: float           # relative eigenvalue change when the last stage stopped
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


def _finalize(
    m: Mesh,
    m2: np.ndarray,
    u_full: np.ndarray,
    p: float,
    form: QuadForm,
    iterations: int,
    residual: float,
) -> EigenResult:
    u = np.abs(u_full)
    u[m.boundary_node] = 0.0
    u = u / pnorm_p(m, u, p) ** (1.0 / p)
    lam = _energy_m2(m, m2, p, u)
    return EigenResult(lam, u, iterations, residual, p, form)


def _inverse_iteration(m: Mesh, m2: np.ndarray, opts: SolverOptions, form: QuadForm) -> EigenResult:
    """Smallest eigenpair of K u = lam M u on interior nodes by inverse
    iteration with a direct sparse factorization of K.  The result's residual
    tells whether it reached ``opts.tol``; the caller decides what a miss means."""
    stiff, mass, interior = _assemble_quadratic(m, m2)
    lu = splu(stiff.tocsc())
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
    return _finalize(m, m2, full, 2.0, form, it, res)


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
) -> tuple[np.ndarray, float, int, float, bool]:
    """Projected gradient descent on the unit p-norm sphere.

    Nonnegativity is enforced by taking absolute values each iterate (the
    quotient never increases under that replacement).  Convergence is declared
    when the relative eigenvalue change stays below ``tol`` for three
    consecutive steps, or when the average change over a trailing window drops
    below ``tol`` (flat directions of degenerate energies shrink the quotient
    in persistent sub-tolerance steps).  Returns
    (u, lam, iterations, residual, converged)."""
    u = _project(m, p, u0)
    lam = _energy_m2(m, m2, p, u)
    u_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    t = 1.0 / (1.0 + abs(lam))
    res = math.inf
    small = 0
    it = 0
    window = 10
    history: list[float] = [lam]
    while it < max_iter:
        it += 1
        g = _rayleigh_grad(m, m2, p, u, lam)
        gn2 = float(g @ g)
        if math.sqrt(gn2) <= 1e-14 * (1.0 + abs(lam)):
            return u, lam, it, 0.0, True
        if u_prev is not None:
            s = u - u_prev
            y = g - g_prev
            sy = float(s @ y)
            t0 = float(s @ s) / sy if sy > 0.0 else 2.0 * t
        else:
            t0 = t
        t0 = min(max(t0, 1e-18), 1e8)
        u_prev, g_prev = u, g

        t = t0
        for _ in range(60):
            v = _project(m, p, u - t * g)
            lam_v = _energy_m2(m, m2, p, v)
            if lam_v <= lam - 1e-4 * t * gn2:
                break
            t *= 0.5
        else:
            # Flat direction (or floating-point limit): the quotient cannot
            # be decreased along the gradient, treat as stationary.
            if lam_v < lam:
                u, lam = v, lam_v
            return u, lam, it, 0.0, True

        res = (lam - lam_v) / max(abs(lam_v), 1e-300)
        u, lam = v, lam_v
        if abs(res) <= tol:
            small += 1
            if small >= 3:
                return u, lam, it, abs(res), True
        else:
            small = 0
        history.append(lam)
        if len(history) > window + 1:
            history.pop(0)
            avg = (history[0] - lam) / (window * max(abs(lam), 1e-300))
            if abs(avg) <= tol:
                return u, lam, it, abs(avg), True
    return u, lam, it, abs(res) if math.isfinite(res) else math.inf, False


def _continuation_schedule(p: float) -> list[float]:
    return [2.0 * (p / 2.0) ** (k / CONTINUATION_STEPS) for k in range(1, CONTINUATION_STEPS + 1)]


def _solve(
    m: Mesh, m2: np.ndarray, p: float, opts: SolverOptions, form: QuadForm, tol: float
) -> EigenResult:
    """The solver path shared by every energy.

    The inverse iteration stops at ``opts.tol`` and is the result at p = 2.
    For other p it is only the warm start, so a miss there is not an error;
    the continuation stages stop at max(tol, 1e-7), the final one at ``tol``,
    and a miss of the final stage raises.  Every stage has ``opts.max_iter``
    iterations; ``iterations`` counts all of them."""
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    base = _inverse_iteration(m, m2, opts, form)
    if p == 2.0:
        if base.residual > opts.tol:
            raise SolverConvergenceError(
                f"inverse iteration did not reach tol {opts.tol} in {opts.max_iter} iterations",
                base,
            )
        return base

    u = base.u
    total_it = base.iterations
    schedule = _continuation_schedule(p)
    for i, pk in enumerate(schedule):
        tol_k = tol if i == len(schedule) - 1 else max(tol, 1e-7)
        u, _, it, res, converged = _descent(m, m2, pk, u, tol_k, opts.max_iter)
        total_it += it
    result = _finalize(m, m2, u, p, form, total_it, res)
    if not converged:
        raise SolverConvergenceError(
            f"descent did not reach tol {tol} in {opts.max_iter} iterations at p={p}", result
        )
    return result


def solve_p(m: Mesh, q: QuadForm, p: float, opts: SolverOptions | None = None) -> EigenResult:
    """Fundamental frequency for p > 1.

    Inverse iteration on the p = 2 pencil of the form gives the result at
    p = 2.  For other p its ground state is marched by projected descent
    through a geometric schedule in p from 2 to p.  Raises
    ``SolverConvergenceError``, carrying the last iterate, when the inverse
    iteration at p = 2 or the final descent stage exhausts ``opts.max_iter``.
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


def lambda_anisotropic_two_routes(
    d: DomainSpec,
    a: float,
    theta: float,
    p: float,
    opts: SolverOptions | None = None,
    *,
    level: int = 5,
    n_boundary: int = 128,
) -> tuple[float, float]:
    """The same anisotropic frequency along two independent pipelines.

    Route 1 solves the anisotropic problem with the extremal diagonal form on
    the rotated domain; route 2 solves the isotropic problem on the sheared
    rotated domain and scales by a^(p/2).  The two agree at the continuum by
    change of variables; discrete values differ by the meshing error only.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"need a in (0, 1], got {a}")
    opts = opts or SolverOptions()
    rotated = rotate(d, theta)
    mesh1 = build_mesh(rotated, level, n_boundary)
    r1 = solve_p(mesh1, QuadForm(a, 0.0, 1.0), p, opts).lam
    sheared = shear_y(rotated, a, n_boundary=n_boundary)
    mesh2 = build_mesh(sheared, level, n_boundary)
    r2 = a ** (0.5 * p) * solve_p(mesh2, QuadForm.identity(), p, opts).lam
    return r1, r2
