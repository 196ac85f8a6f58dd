"""Answer checks for the benchmark jobs, against oracles computed here.

Nothing in this file calls the anisolap solvers: the eigenfunction residual is
assembled from the written CSV and the public ``Mesh`` arrays, and the
eigenvalue oracles are closed forms.  Each check returns the job's answer
error (``answer_err``), the numbers behind it and the reasons it failed.
"""

from __future__ import annotations

import io
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# First zero of the Bessel function J0, squared: the Dirichlet eigenvalue of
# the unit disk at p = 2.
J01_SQ = 5.783185962946784
# Tall rectangle [-1, 1] x [-2, 2] at level a = 0.25, p = 2: its sheared image
# at theta = 0 is the square [-1, 1]^2, so lambda_min = a * pi^2 / 2 there.
RECT_A = 0.25
RECT_LAMBDA_MIN = RECT_A * math.pi**2 / 2.0

LAMBDA_RTOL = 1e-2   # relative eigenvalue error against a closed-form oracle
RESIDUAL_TOL = 1e-3  # dual-norm residual; a 0.3 % eigenvalue error exceeds it
THETA_TOL = 2e-2     # rad; a wrong grid bracket is off by at least pi/32
VERIFY_ENTRIES = 12  # five suites at one p


def dual_residual(mesh, u: np.ndarray, lam: float, p: float) -> float:
    """sqrt(r . K^-1 r) / lam for the eigenpair (u, lam).

    r is the gradient of E(u)/p - lam N(u)/p on interior nodes, with E the
    isotropic gradient energy sum_T |T| |grad u|^p and N the edge-midpoint
    quadrature of |u|^p; K is the p = 2 stiffness on interior nodes."""
    tri, area, gmap = mesh.triangles, mesh.tri_area, mesh.grad_map
    n = mesh.n_nodes
    g = np.einsum("tij,tj->ti", gmap, u[tri])
    q = np.einsum("ti,ti->t", g, g)
    weight = np.zeros_like(q)
    pos = q > 0.0
    weight[pos] = q[pos] ** (0.5 * p - 1.0)
    flux = g * (area * weight)[:, None]
    e_grad = np.bincount(
        tri.ravel(), weights=np.einsum("ti,tij->tj", flux, gmap).ravel(), minlength=n
    )
    uv = u[tri]
    mids = 0.5 * (uv + uv[:, [1, 2, 0]])  # edges (0,1), (1,2), (2,0)
    phi = (area / 3.0)[:, None] * np.sign(mids) * np.abs(mids) ** (p - 1.0)
    node_w = 0.5 * (phi + phi[:, [2, 0, 1]])  # node j lies on edges j and j-1
    n_grad = np.bincount(tri.ravel(), weights=node_w.ravel(), minlength=n)

    interior = np.flatnonzero(~mesh.boundary_node)
    block = np.einsum("tai,taj->tij", gmap, gmap) * area[:, None, None]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    stiff = sp.coo_matrix((block.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    stiff = stiff[interior][:, interior].tocsc()
    r = (e_grad - lam * n_grad)[interior]
    return math.sqrt(float(r @ splu(stiff).solve(r))) / lam


def check_eigen(payload: dict, csv_text: str, mesh, oracle: float | None) -> tuple[float, dict, list[str]]:
    """An ``eigen`` job: status, one CSV row per node at the node's
    coordinates, dual residual, and the eigenvalue oracle where one exists.
    The answer error is the eigenvalue error, or the residual without one."""
    if payload.get("status") != "ok":
        return 1.0, {}, [f"status {payload.get('status')!r}"]
    table = np.loadtxt(io.StringIO(csv_text), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (mesh.n_nodes, 3):
        return 1.0, {}, [f"CSV has {table.shape[0]} rows, mesh has {mesh.n_nodes} nodes"]
    if not np.array_equal(table[:, :2], mesh.nodes):
        return 1.0, {}, ["CSV coordinates differ from the mesh nodes"]
    lam = float(payload["result"]["lambda"])
    p = float(payload["result"]["p"])
    values = {"lambda": lam, "eig_residual": dual_residual(mesh, table[:, 2], lam, p)}
    errors = []
    if values["eig_residual"] > RESIDUAL_TOL:
        errors.append(f"eig_residual {values['eig_residual']:.3g} > {RESIDUAL_TOL}")
    answer = values["eig_residual"]
    if oracle is not None:
        values["lambda_rel_err"] = answer = abs(lam - oracle) / oracle
        if answer > LAMBDA_RTOL:
            errors.append(f"lambda_rel_err {answer:.3g} > {LAMBDA_RTOL}")
    return answer, values, errors


def check_optimize(payload: dict, csv_text: str, grid_n: int) -> tuple[float, dict, list[str]]:
    """An ``optimize`` job on the tall rectangle: lambda_min against
    a pi^2 / 2, theta_star against the exact minimizer 0, and one profile row
    per grid angle.  The answer error is the eigenvalue error."""
    if payload.get("status") != "ok":
        return 1.0, {}, [f"status {payload.get('status')!r}"]
    res = payload["result"]
    values = {
        "lambda_min": float(res["lambda_min"]),
        "lambda_rel_err": abs(float(res["lambda_min"]) - RECT_LAMBDA_MIN) / RECT_LAMBDA_MIN,
        "theta_err_rad": abs(float(res["theta_star"])),
    }
    errors = []
    rows = len(csv_text.splitlines()) - 1
    if rows != grid_n or len(res["theta_profile"]) != grid_n:
        errors.append(f"profile has {rows} CSV rows, expected {grid_n}")
    if values["lambda_rel_err"] > LAMBDA_RTOL:
        errors.append(f"lambda_rel_err {values['lambda_rel_err']:.3g} > {LAMBDA_RTOL}")
    if values["theta_err_rad"] > THETA_TOL:
        errors.append(f"theta_err_rad {values['theta_err_rad']:.3g} > {THETA_TOL}")
    return values["lambda_rel_err"], values, errors


def check_verify(payload: dict, rc: int) -> tuple[float, dict, list[str]]:
    """A ``verify`` job: a complete report whose exit code matches it.  A
    FAIL entry is a finding about the paper's claims, not a failed job; the
    answer error is the share of entries that FAIL."""
    if payload.get("status") != "ok":
        return 1.0, {}, [f"status {payload.get('status')!r}"]
    report = payload["report"]
    entries = report["entries"]
    failed = [e["name"] for e in entries if not e["passed"]]
    values = {"verify_failed": len(failed), "failed_entries": failed}
    errors = []
    if len(entries) != VERIFY_ENTRIES or report["n_entries"] != VERIFY_ENTRIES:
        errors.append(f"report has {len(entries)} entries, expected {VERIFY_ENTRIES}")
    if rc != (1 if failed else 0):
        errors.append(f"exit code {rc} with {len(failed)} FAIL entries")
    return len(failed) / max(len(entries), 1), values, errors
