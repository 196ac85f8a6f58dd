import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.optimize
import scipy.special
from scipy.sparse.linalg import eigsh, spsolve

from anisolap import (
    Disk,
    Mesh,
    QuadForm,
    Rectangle,
    SolverConvergenceError,
    Polygon,
    build_mesh,
    directional_constant,
    energy,
    extremal_form,
    interior_dof_map,
    longest_chord,
    lshape,
    pnorm_p,
    random_member,
    solve_p,
    spectral,
)
from anisolap import solver
from anisolap.quadform import _member
from anisolap.solver import (
    _RECORDS,
    DEFAULT_TOL,
    _BandCholesky,
    LAGGED_Q_FLOOR,
    RESIDUAL_SAFETY,
    START_TOL,
    _factor,
    _gradient,
    _lagged_weights,
    _maps,
    _operators,
    _point,
)

PI2_HALF = math.pi**2 / 2.0
J01_SQ = scipy.special.jn_zeros(0, 1)[0] ** 2
SQUARE_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
# counterclockwise rotation by pi / 8
ROT_PI_8 = np.array(
    [[math.cos(math.pi / 8), -math.sin(math.pi / 8)], [math.sin(math.pi / 8), math.cos(math.pi / 8)]]
)


# -------------------------------------------------------------------- energy


def test_energy_zero_field():
    m = build_mesh(Rectangle(1.0, 1.0), 2)
    assert energy(m, QuadForm.identity(), 2.0, np.zeros(m.n_nodes)) == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_energy_affine_field(p):
    # u = x has unit gradient along x everywhere, boundary values retained
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    q = QuadForm(0.5, 0.25, 0.5)
    u = m.nodes[:, 0].copy()
    assert energy(m, q, p, u) == pytest.approx(q.alpha ** (0.5 * p) * 4.0, rel=1e-12)


def test_energy_p_homogeneous():
    m = build_mesh(lshape(), 2)
    rng = np.random.default_rng(0)
    u = rng.normal(size=m.n_nodes)
    for p in (1.5, 2.0, 3.0):
        e1 = energy(m, QuadForm.identity(), p, u)
        e2 = energy(m, QuadForm.identity(), p, 2.0 * u)
        assert e2 == pytest.approx(2.0**p * e1, rel=1e-12)


def test_energy_dimension_mismatch():
    m = build_mesh(Rectangle(1.0, 1.0), 2)
    with pytest.raises(ValueError):
        energy(m, QuadForm.identity(), 2.0, np.zeros(3))


def test_pnorm_quadrature_exact_for_quadratics():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    ones = np.ones(m.n_nodes)
    assert pnorm_p(m, ones, 2.0) == pytest.approx(4.0, rel=1e-12)
    u = m.nodes[:, 0].copy()
    # integral of x^2 over the square is 4/3; the rule is degree-2 exact
    assert pnorm_p(m, u, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


# ------------------------------------------------------------------ p=2 path


def test_square_eigenvalue_oracle():
    m = build_mesh(Rectangle(1.0, 1.0), 5)
    res = solve_p(m, QuadForm.identity(), 2.0)
    assert res.lam == pytest.approx(PI2_HALF, rel=5e-3)
    assert res.lam > PI2_HALF  # conforming space overestimates


def test_disk_eigenvalue_oracle():
    m = build_mesh(Disk(1.0), 4)
    res = solve_p(m, QuadForm.identity(), 2.0)
    assert res.lam == pytest.approx(J01_SQ, rel=1e-2)


@pytest.mark.parametrize(
    "domain, exact", [(Disk(1.0), J01_SQ), (Rectangle(1.0, 1.0), PI2_HALF)], ids=["disk", "square"]
)
def test_mesh_convergence_rate(domain, exact):
    # P1 eigenvalues converge as O(h^2): each refinement level divides the
    # error by 4 (disk 3.99 and 4.00 over L3 -> L4 -> L5)
    errors = [
        abs(solve_p(build_mesh(domain, lv), QuadForm.identity(), 2.0).lam - exact) / exact
        for lv in (3, 4, 5)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_scalar_form_scales_exactly():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    base = solve_p(m, QuadForm.identity(), 2.0)
    scaled = solve_p(m, QuadForm(0.5, 0.0, 0.5), 2.0)
    assert scaled.lam == pytest.approx(0.5 * base.lam, rel=1e-11)


def test_refinement_decreases_eigenvalue():
    vals = [solve_p(build_mesh(Rectangle(1.0, 1.0), lv), QuadForm.identity(), 2.0).lam for lv in (3, 4, 5)]
    assert vals[0] >= vals[1] >= vals[2]


def test_eigenresult_invariants():
    m = build_mesh(lshape(), 3)
    q = _member(0.25, 0.6)
    res = solve_p(m, q, 2.0)
    assert res.lam > 0
    assert np.all(res.u >= 0.0)
    assert np.all(res.u[m.boundary_node] == 0.0)
    assert pnorm_p(m, res.u, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert res.lam == pytest.approx(energy(m, q, 2.0, res.u), rel=1e-10)
    assert res.form == q and res.p == 2.0


def test_nonconvergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    with pytest.raises(SolverConvergenceError) as info:
        solve_p(m, QuadForm.identity(), 2.0)
    best = info.value.best
    assert math.isfinite(best.lam) and best.lam > 0
    assert math.isfinite(best.residual)


# -------------------------------------------------------------- general p path


def smallest_pencil_eigenvalue(m, m2) -> float:
    ops = _operators(m)
    return float(
        eigsh(ops._matrix(ops.k_data(m2)), k=1, M=ops.mass, sigma=0.0, which="LM", return_eigenvectors=False)[0]
    )


@pytest.mark.parametrize("domain", [Rectangle(1.0, 1.0), lshape()], ids=["square", "lshape"])
def test_solve_p2_matches_eigsh(domain, monkeypatch):
    m = build_mesh(domain, 4)
    q = _member(0.25, 0.6)
    res = solve_p(m, q, 2.0)
    assert res.lam == pytest.approx(smallest_pencil_eigenvalue(m, q.matrix()), rel=1e-8)
    # p = 2 is the inverse iteration alone: its count exhausts a budget of one
    # fewer iteration, and no descent step is added to it
    monkeypatch.setattr(solver, "MAX_ITER", res.iterations)
    assert solve_p(m, q, 2.0).lam == res.lam
    monkeypatch.setattr(solver, "MAX_ITER", res.iterations - 1)
    with pytest.raises(SolverConvergenceError):
        solve_p(m, q, 2.0)


def test_solve_p_rejects_bad_exponent():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    with pytest.raises(ValueError):
        solve_p(m, QuadForm.identity(), 1.0)


def test_solve_p_rejects_bad_tol():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            solve_p(m, QuadForm.identity(), 2.0, tol)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize(
    "make_start, match",
    [
        (lambda m: np.ones(m.n_nodes - 1), "shape"),
        (lambda m: np.ones((m.n_nodes, 1)), "shape"),
        (lambda m: np.where(np.arange(m.n_nodes) == m.n_nodes // 2, np.nan, 1.0), "finite"),
        (lambda m: np.where(np.arange(m.n_nodes) == 0, np.inf, 1.0), "finite"),
        (lambda m: np.where(m.boundary_node, 1.0, 0.0), "vanishes"),
    ],
    ids=["short", "column", "nan", "inf", "zero-inside"],
)
def test_solve_p_rejects_bad_start(make_start, match, p):
    m = build_mesh(Rectangle(1.0, 1.0), 2)
    with pytest.raises(ValueError, match=match):
        solve_p(m, QuadForm.identity(), p, start=make_start(m))


@pytest.mark.parametrize("p, its", [(1.5, 1), (2.0, 2), (3.0, 1)])
def test_start_at_the_solution_costs_only_the_stopping_test(p, its):
    # from its own eigenfunction a solve needs only the iterations that its
    # stopping rule reads: one descent step, whose residual is below the
    # bound, and no inverse iteration; at p = 2 two inverse steps, the first
    # change of the eigenvalue being taken between them, which may still
    # move the eigenvalue within tol
    m = build_mesh(lshape(), 3)
    q = _member(0.25, 0.6)
    cold = solve_p(m, q, p)
    warm = solve_p(m, q, p, start=cold.u)
    assert warm.iterations == its < cold.iterations
    assert warm.lam == pytest.approx(cold.lam, rel=DEFAULT_TOL if p == 2.0 else 1e-14)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_cold_start_stops_at_start_tol(monkeypatch, p):
    # without a start, a solve at p != 2 stops the p = 2 inverse iteration
    # that gives its descent's start at START_TOL, not at tol: 5 steps on the
    # L5 L-shape instead of 14, and the eigenvalue stays within DEFAULT_TOL
    # of a solve at tol 1e-12
    steps = []
    inverse = solver._inverse_iteration

    def counting(*args):
        out = inverse(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(solver, "_inverse_iteration", counting)
    m = build_mesh(lshape(), 5)
    res = solve_p(m, QuadForm.identity(), p)
    assert steps == [steps[0]] and steps[0] <= 6
    exact = solve_p(m, QuadForm.identity(), p, tol=1e-12)
    assert exact.residual <= math.sqrt(1e-12 / RESIDUAL_SAFETY)
    assert res.lam == pytest.approx(exact.lam, rel=DEFAULT_TOL)
    assert START_TOL > DEFAULT_TOL


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_start_from_a_neighbouring_form(p):
    # the ground state of the form at a nearby angle starts a solve that
    # ends where a solve without a start ends, within tol, in fewer
    # iterations; a start of either sign will do, the quotient being even
    m = build_mesh(lshape(), 4)
    q = extremal_form(0.25, 0.5)
    near = solve_p(m, extremal_form(0.25, 0.4), p)
    cold = solve_p(m, q, p)
    for start in (near.u, -near.u):
        warm = solve_p(m, q, p, start=start)
        assert warm.lam == pytest.approx(cold.lam, rel=DEFAULT_TOL)
        assert warm.iterations < cold.iterations


def test_domain_scaling_homogeneity():
    # doubling the domain scales the frequency by exactly 2^-p discretely
    p = 3.0
    small = build_mesh(Rectangle(1.0, 1.0), 3)
    large = build_mesh(Rectangle(2.0, 2.0), 3)
    lam_small = solve_p(small, QuadForm.identity(), p).lam
    lam_large = solve_p(large, QuadForm.identity(), p).lam
    assert lam_large == pytest.approx(2.0 ** (-p) * lam_small, rel=1e-10)


def test_general_p_invariants():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    q = _member(0.25, 0.8)
    res = solve_p(m, q, 2.5)
    assert np.all(res.u >= 0.0)
    assert pnorm_p(m, res.u, 2.5) == pytest.approx(1.0, abs=1e-10)
    assert res.lam == pytest.approx(energy(m, q, 2.5, res.u), rel=1e-10)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_iterations_flat_under_refinement(p):
    # the Sobolev-gradient step does not slow down as h shrinks; an l2
    # gradient step needs about 4x the iterations per level.  At p = 1.5 the
    # p = 2 stiffness as the metric took 51 -> 179 iterations from L4 to L6;
    # the lagged-diffusivity metric takes 41 -> 60.  At p = 4 the descent in
    # the metric of K alone took 44 -> 100 from L3 to L5; with its shifted
    # Newton finish it takes 17 -> 23
    for coarse, fine in ((3, 5), (4, 6)):
        counts = [
            solve_p(build_mesh(lshape(), lv), QuadForm.identity(), p).iterations
            for lv in (coarse, fine)
        ]
        assert counts[1] <= 2 * counts[0], (coarse, fine, counts)


def test_lagged_descent_iterations_stay_within_30_percent_under_refinement():
    # cold p = 1.5 solves of the L4, L5 and L6 L-shape: the least count is
    # within 30 % of the most.  Barzilai-Borwein steps in K_w took 24 / 33 /
    # 47; the L-BFGS directions take 23 / 25 / 30
    counts = [
        solve_p(build_mesh(lshape(), lv), QuadForm.identity(), 1.5).iterations
        for lv in (4, 5, 6)
    ]
    assert min(counts) >= 0.7 * max(counts), counts


def test_l5_lshape_at_p_1_3_converges_in_200_iterations():
    # Barzilai-Borwein steps in K_w took 732 iterations; the L-BFGS
    # directions take 136.  solve_p raises if the descent misses its bound
    res = solve_p(build_mesh(lshape(), 5), QuadForm.identity(), 1.3)
    assert res.iterations <= 200
    assert res.residual <= math.sqrt(DEFAULT_TOL / RESIDUAL_SAFETY)


# The L5 L-shape with extremal_form(0.25, 0.4) at p = 4 (ROADMAP item 11).
# Its reference is a solve at tol 1e-13 by Newton steps on the energy's exact
# Hessian (the inverse power method of Biezuner, Ercole and Martins, J. Funct.
# Anal. 2009), which earlier solvers reproduced to 2e-12
P4_CASE_LAMBDA = 11.0134829091171


def test_p4_case_meets_its_tol():
    # the descent in the metric of K alone stopped 2.8e-9 off at the default
    # tol, and at tol 1e-12 its line search stalled after 760 iterations
    m = build_mesh(lshape(), 5)
    q = extremal_form(0.25, 0.4)
    assert solve_p(m, q, 4.0).lam == pytest.approx(P4_CASE_LAMBDA, rel=DEFAULT_TOL)
    assert solve_p(m, q, 4.0, tol=1e-12).lam == pytest.approx(P4_CASE_LAMBDA, rel=1e-11)


@pytest.mark.parametrize("p", [10.0, 20.0])
def test_large_p_converges_on_the_l4_lshape(p):
    # the descent in the metric of K alone took 3,234 and 13,283 iterations
    # here; its shifted Newton finish takes 68 and 150
    res = solve_p(build_mesh(lshape(), 4), QuadForm.identity(), p)
    assert res.iterations <= 300
    assert res.residual <= math.sqrt(DEFAULT_TOL / RESIDUAL_SAFETY)


def test_shift_halves_until_the_shifted_hessian_factors(monkeypatch):
    # above 1 the shift makes F = H - shift lam H_N indefinite (u^T F u is
    # about p (p-1) (1 - shift) lam at the unit-norm u), and dpbtrf fails: the
    # shift is halved from 4 to 0.5 before F factors, and the solve still
    # ends where the unpatched one does
    m = build_mesh(lshape(), 4)
    q = QuadForm.identity()
    ref = solve_p(m, q, 3.0)
    shifts = []
    newton = solver._newton_factor

    def recording(*args):
        out = newton(*args)
        shifts.append((args[-1], out[1]))
        return out

    monkeypatch.setattr(solver, "SHIFT_FRACTION", 4.0)
    monkeypatch.setattr(solver, "_newton_factor", recording)
    res = solve_p(m, q, 3.0)
    assert shifts[0] == (4.0, 0.5)
    assert res.lam == pytest.approx(ref.lam, rel=DEFAULT_TOL)


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_hessians_match_second_differences(p):
    # v^T H v and v^T H_N v against central second differences of the energy
    # and of the p-norm, at a field whose q and y^2 lie above their floors;
    # H_N also equals p (p-1) Mid^T diag(w |y|^(p-2)) Mid as a sparse product
    m = build_mesh(lshape(), 3)
    q = _member(0.25, 0.6)
    ops = _operators(m)
    interior = np.flatnonzero(~m.boundary_node)
    rng = np.random.default_rng(17)
    u = 1.0 + rng.random(len(interior))
    h, hn = solver._hessians(ops, q.matrix(), p, u)
    split = 2 * len(ops.area)
    y = (ops.a @ u)[split:]
    mid = ops.a[split:]
    ref = (mid.T @ sp.diags(p * (p - 1.0) * ops.weight * np.abs(y) ** (p - 2.0)) @ mid).toarray()
    assert np.max(np.abs(ops._matrix(hn).toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    full = np.zeros(m.n_nodes)
    full[interior] = u
    for _ in range(3):
        v = np.zeros(m.n_nodes)
        v[interior] = rng.normal(size=len(interior))
        step = 1e-4
        for data, f in ((h, lambda w: energy(m, q, p, w)), (hn, lambda w: pnorm_p(m, w, p))):
            second = (f(full + step * v) - 2.0 * f(full) + f(full - step * v)) / step**2
            vi = v[interior]
            assert vi @ (ops._matrix(data) @ vi) == pytest.approx(second, rel=1e-5)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_lshape_profile_converges_at_every_angle(p):
    # on the L3 L-shape the discrete ground state of Q_alpha at p > 2 changes
    # sign at a few nodes for some angles; the descent must reach its residual
    # bound there too, rather than stall with those nodes pinned at 0
    mesh = build_mesh(lshape(), 3)
    sign_changes = 0
    for theta in np.linspace(0.0, 0.5 * math.pi, 17):
        res = solve_p(mesh, extremal_form(0.25, float(theta)), p)
        sign_changes += bool(np.any(res.u < 0.0))
    assert sign_changes > 0


def independent_dual_residual(m, u: np.ndarray, lam: float, p: float) -> float:
    """sqrt(r . K^-1 r) / lam for the isotropic energy, assembled from the node
    coordinates alone: r is the gradient of E(u)/p - lam N(u)/p on interior
    nodes and K the isotropic p = 2 stiffness there."""
    xy = m.nodes[m.triangles]
    edges = np.stack([xy[:, 1] - xy[:, 0], xy[:, 2] - xy[:, 0]], axis=1)
    area = 0.5 * np.linalg.det(edges)
    inv = np.linalg.inv(edges)  # columns: gradients of the barycentrics 1 and 2
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2).transpose(0, 2, 1)
    du = np.einsum("tj,tji->ti", u[m.triangles], grads)
    norm = np.linalg.norm(du, axis=1)
    weight = np.zeros_like(norm)
    weight[norm > 0.0] = norm[norm > 0.0] ** (p - 2.0)
    r = np.zeros(m.n_nodes)
    np.add.at(r, m.triangles, (area * weight)[:, None] * np.einsum("ti,tji->tj", du, grads))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        mid = 0.5 * (u[m.triangles[:, a]] + u[m.triangles[:, b]])
        share = lam * area / 6.0 * np.sign(mid) * np.abs(mid) ** (p - 1.0)
        np.subtract.at(r, m.triangles[:, a], share)
        np.subtract.at(r, m.triangles[:, b], share)
    block = area[:, None, None] * np.einsum("tia,tja->tij", grads, grads)
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()
    stiff = sp.csr_matrix((block.ravel(), (rows, cols)), shape=(m.n_nodes,) * 2)
    keep = np.flatnonzero(~m.boundary_node)
    r = r[keep]
    return math.sqrt(r @ spsolve(stiff[keep][:, keep].tocsc(), r)) / lam


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_residual_is_dual_norm(p):
    # in the metric of the p = 2 stiffness K at every p, also where the
    # descent steps in the lagged-diffusivity metric (p = 1.5)
    for domain in (lshape(), Disk(1.0)):
        m = build_mesh(domain, 4)
        q = QuadForm.identity()
        res = solve_p(m, q, p)
        lam = energy(m, q, p, res.u) / pnorm_p(m, res.u, p)
        assert res.lam == pytest.approx(lam, rel=1e-12)
        assert res.residual == pytest.approx(independent_dual_residual(m, res.u, lam, p), rel=1e-8)
        assert res.residual <= 1e-4


@pytest.mark.parametrize("case", ["lshape", "lshape-alpha", "disk", "warm", "superlu"])
def test_p2_answer_is_its_p_laplacian_evaluation(monkeypatch, case):
    # at p = 2 the solve reports the inverse iteration's own quotient and the
    # residual of r = Ku - lam Mu, Ku carried by its last step; the
    # p-Laplacian evaluation of the returned field through A (``_point`` and
    # ``_gradient``) gives the same lambda and residual, on a band factor
    # and on SuperLU's
    if case == "superlu":
        monkeypatch.setattr(solver, "BAND_CUTOFF", -1)
    m = build_mesh(Disk(1.0) if case == "disk" else lshape(), 5)
    q = extremal_form(0.25, 0.4) if case in ("lshape-alpha", "warm") else QuadForm.identity()
    start = solve_p(m, extremal_form(0.25, 0.5), 2.0).u if case == "warm" else None
    res = solve_p(m, q, 2.0, start=start)
    ops = _operators(m)
    assert (ops.band_slot is None) == (case == "superlu")
    pt = _point(ops, q.matrix(), 2.0, res.u[~m.boundary_node])
    assert pt.scale == pytest.approx(1.0, rel=1e-13)
    assert res.lam == pytest.approx(pt.lam, rel=1e-13)
    lu = ops.factor(ops.k_data(q.matrix()))
    ref = solver._k_residual(lu, _gradient(ops, 2.0, pt), 2.0, pt.lam)
    assert res.residual == pytest.approx(ref, rel=1e-6)


def test_p2_solve_leaves_the_map_unbuilt():
    # the record builds A, A^T and the midpoint weights on their first read:
    # a p = 2 solve and its form gradient read none of them, and a p = 3
    # solve reads all three.  The p = 2 form gradient from the stiffness
    # pieces is sum_T |T| g_T g_T^T from the triangle gradients through A
    m = build_mesh(lshape(), 3)
    q = extremal_form(0.25, 0.4)
    maps = {"a", "a_t", "weight"}
    res = solve_p(m, q, 2.0)
    s = solver._form_gradient(m, res)
    assert maps.isdisjoint(vars(_RECORDS[m]))
    solve_p(m, q, 3.0)
    assert maps.issubset(vars(_RECORDS[m]))
    ops = _operators(m)
    g = triangle_gradients(m, res.u[~m.boundary_node]).reshape(2, -1)
    ref = np.einsum("it,jt->ij", g * ops.area, g)
    assert np.allclose(s, ref, rtol=1e-13, atol=0.0)


def test_disk_general_p_converges():
    m = build_mesh(Disk(1.0), 4)
    res = solve_p(m, QuadForm.identity(), 1.5)
    assert res.residual <= 1e-4


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize(
    "domain", [Rectangle(1.0, 1.0), lshape(), Disk(1.0)], ids=["square", "lshape", "disk"]
)
def test_descent_meets_residual_bound(domain, p):
    # the descent stops on the dual-norm residual, not on a small change of lam
    res = solve_p(build_mesh(domain, 4), _member(0.25, 0.6), p)
    assert res.residual <= math.sqrt(DEFAULT_TOL / RESIDUAL_SAFETY)


def test_descent_budget_miss_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 5)
    with pytest.raises(SolverConvergenceError) as info:
        solve_p(build_mesh(lshape(), 4), QuadForm.identity(), 3.0)
    assert info.value.best.residual > math.sqrt(DEFAULT_TOL / RESIDUAL_SAFETY)
    assert info.value.best.iterations <= 2 * solver.MAX_ITER


def triangle_gradients(m, v: np.ndarray) -> np.ndarray:
    """G v, the stacked x and y gradients of interior values ``v`` on the
    triangles with an interior node."""
    ops = _operators(m)
    return (ops.a @ v)[: 2 * len(ops.area)]


def test_quadratic_matrices_match_element_assembly():
    # K = alpha K_xx + beta (K_xy + K_yx) + gamma K_yy and M from the mesh's
    # operator record against a triangle-by-triangle assembly of the P1
    # stiffness and the consistent mass, for the identity and forms with
    # beta > 0 and beta < 0; likewise the lagged-diffusivity stiffness K_w of
    # a field that vanishes on x < 0, where its floored q_T is active.  M, and
    # K and K_w of the forms with beta != 0, have the record's one pattern;
    # the identity's K and K_w drop its exact zeros.  Each holds its own copy
    # of the pattern, and the record's is left as it was
    m = build_mesh(lshape(), 3)
    idx, n_int = interior_dof_map(m)
    ops = _operators(m)
    pattern = ops.indices.copy(), ops.indptr.copy()
    p = 1.5
    u = np.random.default_rng(3).normal(size=m.n_nodes)
    u[m.boundary_node | (m.nodes[:, 0] < 0.0)] = 0.0
    for m2 in (np.eye(2), QuadForm(0.7, 0.3, 1.1).matrix(), np.array([[0.9, -0.4], [-0.4, 0.5]])):
        stiff_ref = np.zeros((n_int, n_int))
        lagged_ref = np.zeros((n_int, n_int))
        mass_ref = np.zeros((n_int, n_int))
        elements = []
        for tri in m.triangles:
            affine = np.column_stack([np.ones(3), m.nodes[tri]])
            grads = np.linalg.inv(affine)[1:, :]  # column i: gradient of hat function i
            du = grads @ u[tri]
            elements.append((tri, grads, 0.5 * abs(np.linalg.det(affine)), du @ m2 @ du))
        # the mean runs over the triangles with an interior node, the record's
        q_floor = LAGGED_Q_FLOOR * np.mean([q for tri, *_, q in elements if idx[tri].max() >= 0])
        for tri, grads, area, q in elements:
            lag = area * max(q, q_floor) ** (0.5 * p - 1.0)
            for a in range(3):
                for b in range(3):
                    i, j = idx[tri[a]], idx[tri[b]]
                    if i >= 0 and j >= 0:
                        stiff_ref[i, j] += area * grads[:, a] @ m2 @ grads[:, b]
                        lagged_ref[i, j] += lag * grads[:, a] @ m2 @ grads[:, b]
                        mass_ref[i, j] += area / 12.0 * (2.0 if a == b else 1.0)
        weights = _lagged_weights(ops, m2, p, triangle_gradients(m, u[~m.boundary_node]))[0]
        lagged = ops._matrix(ops.tensor_data(m2[[0, 0, 1], [0, 1, 1]][:, None] * weights))
        assert any(q < q_floor for *_, q in elements)
        for got, ref in ((ops._matrix(ops.k_data(m2)), stiff_ref), (ops.mass, mass_ref), (lagged, lagged_ref)):
            assert np.max(np.abs(got.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
            same = [np.array_equal(getattr(got, f), getattr(ops, f)) for f in ("indices", "indptr")]
            assert all(same) == (got is ops.mass or m2[0, 1] != 0.0)
            assert not np.shares_memory(got.indices, ops.indices)
            assert not np.shares_memory(got.indptr, ops.indptr)
    assert np.array_equal(ops.indices, pattern[0]) and np.array_equal(ops.indptr, pattern[1])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_metric_curvature_from_triangle_gradients(p):
    # the descent's Barzilai-Borwein curvature s.Bs is the p = 2 energy of s
    # with the metric's triangle weights: |T| for K, the lagged weights for K_w
    m = build_mesh(lshape(), 4)
    ops = _operators(m)
    m2 = _member(0.25, 0.6).matrix()
    rng = np.random.default_rng(5)
    s = rng.normal(size=ops.a.shape[1])
    lagged = _lagged_weights(ops, m2, p, triangle_gradients(m, rng.normal(size=s.shape)))[0]
    gs = triangle_gradients(m, s).reshape(2, -1)
    for b in (ops.area, lagged):
        data = ops.k_data(m2) if b is ops.area else ops.tensor_data(m2[[0, 0, 1], [0, 1, 1]][:, None] * b)
        exact = s @ (ops._matrix(data) @ s)
        assert np.einsum("t,it,it->", b, gs, m2 @ gs) == pytest.approx(exact, rel=1e-13)


def test_identity_form_factors_without_the_patterns_zeros():
    # this pins the SuperLU path (``_factor``), which factors the meshes whose
    # band is wider than BAND_CUTOFF: on the L5 L-shape, whose right angles
    # give the identity form's K exact zeros, the LU of K has the fill of the
    # matrix less its zeros, not that of the whole pattern
    ops = _operators(build_mesh(lshape(), 5))
    data = ops.k_data(np.eye(2))
    k = ops._matrix(data)
    full = sp.csc_matrix((ops.pieces[0] + ops.pieces[2], ops.indices, ops.indptr), shape=k.shape)
    assert k.nnz < full.nnz
    # dropping the zeros compacts a copy, not the caller's data
    assert np.array_equal(data, full.data)
    fills = [lu.L.nnz + lu.U.nnz for lu in (_factor(k), _factor(full))]
    assert fills == [46298, 61528]


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize(
    "domain", [Rectangle(1.0, 1.0), Disk(1.0), lshape()], ids=["square", "disk", "lshape"]
)
def test_band_solves_match_superlu(monkeypatch, domain, level):
    # the banded Cholesky factor of K and of the lagged K_w, for the identity
    # and for forms with beta > 0 and beta < 0, and of the Newton finish's H
    # and H - 0.5 lam H_N at the p = 3 ground state, solves as SuperLU's LU
    # of the same matrix does, in the mesh's node order and in the record's
    # reverse Cuthill-McKee order, where a record above BAND_CUTOFF factors it
    m = build_mesh(domain, level)
    ops = _operators(m)
    assert ops.band_slot is not None and ops.lu_entries is None
    monkeypatch.setattr(solver, "BAND_CUTOFF", -1)
    ordered = _operators(build_mesh(domain, level))
    assert ordered.band_slot is None
    assert np.array_equal(ordered.order, ops.order)
    # the ordered pattern is the pattern with its rows and columns permuted
    perm = sp.csc_matrix((ordered.lu_entries + 1.0, ordered.lu_indices, ordered.lu_indptr), shape=ops.mass.shape)
    full = sp.csc_matrix((np.arange(1.0, len(ops.indices) + 1), ops.indices, ops.indptr), shape=ops.mass.shape)
    assert np.array_equal(perm.toarray(), full[ops.order][:, ops.order].toarray())
    assert perm.has_sorted_indices
    rng = np.random.default_rng(level)
    gu = triangle_gradients(m, rng.normal(size=ops.a.shape[1]))
    datas = []
    for m2 in (np.eye(2), _member(0.25, 0.6).matrix(), np.array([[0.9, -0.4], [-0.4, 0.5]])):
        for b in (None, _lagged_weights(ops, m2, 1.5, gu)[0]):
            datas.append(ops.k_data(m2) if b is None else ops.tensor_data(m2[[0, 0, 1], [0, 1, 1]][:, None] * b))
    res = solve_p(m, _member(0.25, 0.6), 3.0)
    h, hn = solver._hessians(ops, res.form.matrix(), 3.0, res.u[~m.boundary_node])
    datas += [h, h - 0.5 * res.lam * hn]
    for data in datas:
        band, lu, sparse = ops.factor(data), _factor(ops._matrix(data)), ordered.factor(data)
        assert isinstance(band, _BandCholesky)
        assert isinstance(sparse, solver._SparseLU)
        for _ in range(2):
            r = rng.normal(size=ops.a.shape[1])
            ref = lu.solve(r)
            for got in (band.solve(r), sparse.solve(r)):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "domain, natural, ordered", [(Disk(1.0), 2261, 63), (lshape(), 1493, 62)], ids=["disk", "lshape"]
)
def test_band_order_narrows_the_level5_band(domain, natural, ordered):
    # the reverse Cuthill-McKee order of the interior nodes takes the band of
    # the L5 stiffness pattern from its width in node order to a few dozen
    ops = _operators(build_mesh(domain, 5))
    cols = np.repeat(np.arange(len(ops.indptr) - 1), np.diff(ops.indptr))
    assert np.max(np.abs(ops.indices - cols)) == natural
    assert ops.bandwidth == ordered <= solver.BAND_CUTOFF
    assert np.array_equal(np.sort(ops.order), np.arange(len(ops.order)))


def test_superlu_fallback_is_the_old_path(monkeypatch):
    # with no mesh admitted to the band, the solve goes through SuperLU.  Its
    # values were pinned from the code before the band existed, which summed
    # its dot products by BLAS, so ``_dot`` is swapped back to BLAS for the
    # second solve: numpy's loop sums in another order, which moves lambda by
    # one ulp and this residual by 2.4e-11 relative.  They were re-pinned
    # when Mid went from three rows per triangle to one per edge: the p-norm
    # and the gradient now sum each midpoint once, which moved the BLAS
    # solve's residual by 8.6e-11 relative and left its lambda as it was.
    # They were re-pinned again when the descent's start stopped at START_TOL
    # and each trial took one power per array: lambda moved by 2.0e-12
    # relative, the iterations went 26 -> 23 and the residual 6.34e-7 ->
    # 5.74e-7.  The inverse iteration's dot products now go through ``_dot``
    # as well, so the second solve sums all of them by BLAS.  They were
    # re-pinned when G lost the rows of the triangles with no interior node:
    # the energy's sums lost their zero terms, which moved lambda by one ulp
    # and the residuals by 1.2e-10 and 9.5e-11 relative.  They were re-pinned
    # when SuperLU went to factoring the matrix in the record's reverse
    # Cuthill-McKee order, as the band does: its pivots and so its rounding
    # changed, which moved lambda by two ulps and the residuals by 1.9e-11
    # and 5.6e-11 relative, and left the iterations at 23.  The descent's
    # Newton finish does not run here, on SuperLU, so the descent steps along
    # the L-BFGS direction of its secant pairs: they were re-pinned when it
    # did, which took the iterations 23 -> 17, the residuals 5.74e-7 ->
    # 6.70e-7 and lambda from 4.303018529281342 to 4.303018529274074, 2.3e-12
    # relative from its tol-1e-13 value 4.3030185292643415 (4.0e-12 before).
    # The two-loop's dot products go through ``_dot`` too, and BLAS's order
    # moves this lambda by one ulp
    monkeypatch.setattr(solver, "BAND_CUTOFF", 0)
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    assert _operators(m).band_slot is None
    res = solve_p(m, _member(0.25, 0.6), 3.0)
    assert (res.lam, res.iterations) == (4.303018529274074, 17)
    assert res.residual == pytest.approx(6.700715711143973e-07, rel=1e-10)
    monkeypatch.setattr(solver, "_dot", lambda x, y: float(x @ y))
    res = solve_p(m, _member(0.25, 0.6), 3.0)
    assert (res.lam, res.residual, res.iterations) == (4.303018529274073, 6.700715709674892e-07, 17)


@pytest.mark.parametrize("n", [7, 384, 10001])
def test_dot_matches_blas(n):
    # the energy's, the p-norm's and the descent's sums, in numpy's order
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n)
    assert solver._dot(x, y) == pytest.approx(x @ y, rel=1e-13, abs=1e-13 * np.abs(x) @ np.abs(y))


def test_band_factor_rejects_a_matrix_that_is_not_positive_definite():
    ops = _operators(build_mesh(Rectangle(1.0, 1.0), 3))
    with pytest.raises(np.linalg.LinAlgError):
        ops.factor(ops.k_data(-np.eye(2)))


def edge_table(m):
    """The mesh's edges as sorted node pairs, in sorted order, built by a set."""
    return sorted({tuple(sorted(int(x) for x in e)) for t in m.triangles for e in (t[:2], t[1:], t[::2])})


@pytest.mark.parametrize("interior", [True, False], ids=["interior", "all-nodes"])
@pytest.mark.parametrize("domain", [Rectangle(1.0, 1.0), lshape(), Disk(1.0)], ids=["square", "lshape", "disk"])
def test_maps_match_coo_assembly(domain, interior):
    # G and Mid, built directly as CSR, equal a COO-built reference exactly:
    # the same rows, column order, stored zeros and values.  G has rows for
    # the triangles with a column only: the convex corners of the square and
    # the L-shape have triangles with three boundary nodes, the disk none.
    # Mid has one row per edge with a column at either end, in sorted edge
    # order
    m = build_mesh(domain, 3)
    cols = interior_dof_map(m)[0] if interior else np.arange(m.n_nodes)
    n_cols = int(cols.max()) + 1
    c = cols[m.triangles]
    live = c.max(axis=1) >= 0
    dead = 2 if interior and not isinstance(domain, Disk) else 0
    assert np.count_nonzero(~live) == dead
    c, nt = c[live], np.count_nonzero(live)

    def coo(rows, idx, vals, n_rows):
        rows, idx, vals = np.broadcast_arrays(rows, idx, vals)
        keep = idx >= 0
        return sp.coo_matrix((vals[keep], (rows[keep], idx[keep])), shape=(n_rows, n_cols)).tocsr()

    grad_ref = coo(np.arange(2 * nt).reshape(2, nt, 1), c, m.grad_map[live].transpose(1, 0, 2), 2 * nt)
    ends = cols[np.array(edge_table(m))]
    ends = ends[ends.max(axis=1) >= 0]
    mid_ref = coo(np.arange(len(ends))[:, None], ends, 0.5, len(ends))
    got, _, got_live, got_grad_map = _maps(m, cols)
    ref = sp.vstack((grad_ref, mid_ref), format="csr")
    assert np.array_equal(got_live, live)
    assert np.array_equal(got_grad_map, m.grad_map[live])
    assert got.shape == ref.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(ref, field))


@pytest.mark.parametrize(
    "domain", [Rectangle(1.0, 2.0), lshape(), Disk(1.0)], ids=["rectangle", "lshape", "disk"]
)
def test_one_midpoint_per_edge(domain):
    # Mid has one row per edge with an interior end, weighted by the summed
    # |T|/3 of its triangles: the same edge-midpoint rule as three midpoints
    # per triangle, and the same consistent mass
    m = build_mesh(domain, 3)
    ops = _operators(m)
    edges = np.array(edge_table(m))
    mid = ops.a[2 * len(ops.area) :]
    assert mid.shape[0] == len(ops.weight) == np.count_nonzero(~m.boundary_node[edges].all(axis=1))
    lumped = (mid.T @ sp.diags(ops.weight) @ mid).toarray()
    assert np.max(np.abs(lumped - ops.mass.toarray())) <= 1e-14 * np.max(np.abs(ops.mass))
    rng = np.random.default_rng(11)
    u = rng.normal(size=m.n_nodes)
    uv = u[m.triangles]
    mids = 0.5 * (uv + uv[:, [1, 2, 0]])
    for p in (1.5, 2.0, 3.0):
        per_triangle = np.sum(m.tri_area[:, None] / 3.0 * np.abs(mids) ** p)
        assert pnorm_p(m, u, p) == pytest.approx(per_triangle, rel=1e-14)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "domain",
    [lshape(), Rectangle(1.0, 2.0), Disk(1.5, (0.5, -0.25))],
    ids=["lshape", "rectangle", "offset-disk"],
)
def test_mid_data_of_the_weights_is_the_mass(domain, level):
    # Mid^T diag(w) Mid, assembled on the pattern through the Mid slots that
    # ``_pattern`` reads from the edge table, is the consistent mass: the
    # edge-midpoint rule is exact for products of P1 functions, so one edge
    # whose slots were wrong would show
    ops = _operators(build_mesh(domain, level))
    got = ops._matrix(ops.mid_data(ops.weight))
    assert got.nnz == ops.mass.nnz
    assert abs(got - ops.mass).max() <= 1e-15 * abs(ops.mass).max()


@pytest.mark.parametrize(
    "domain", [Rectangle(1.0, 2.0), lshape(), Disk(1.0)], ids=["rectangle", "lshape", "disk"]
)
def test_edge_pattern_matches_unique_reference(domain):
    # the stiffness pattern and its slots, built from the edge table, equal
    # the distinct CSC keys column * n + row of the 9 n_tri block entries and
    # each entry's rank among them (an entry with a boundary node at nnz)
    m = build_mesh(domain, 3)
    ops = _operators(m)
    cols, n = interior_dof_map(m)
    c = cols[m.triangles].T
    rows, columns = np.repeat(c, 3, axis=0), np.tile(c, (3, 1))
    keys = np.where((rows < 0) | (columns < 0), n * n, columns * n + rows)
    unique, slot = np.unique(keys, return_inverse=True)
    unique = unique[unique < n * n]
    # the record keeps the slots of the triangles with an interior node
    assert np.array_equal(ops.slot, slot.reshape(keys.shape)[:, c.max(axis=0) >= 0])
    assert np.array_equal(ops.indices, unique % n)
    assert np.array_equal(ops.indptr, np.searchsorted(unique, n * np.arange(n + 1)))
    assert (ops.indices.dtype, ops.indptr.dtype) == (np.int32, np.int32)


def _digest(arrays) -> str:
    """SHA-256 over each named array's name, dtype, shape and C-order bytes
    (a missing one as None)."""
    h = hashlib.sha256()
    for name, arr in arrays:
        h.update(name.encode())
        if arr is None:
            h.update(b"None")
            continue
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# Digests of every Mesh field and of every array of its operator record, with
# the data that k_data, tensor_data and mid_data build on it (_digest).  Only
# +, -, *, / and sums enter them, so they are as portable as the goldens.
LAYOUT_DIGESTS = {
    "lshape-L2": (
        "2e73227210baf4b1299e1738fe74f87de3bde502e561cb70758abd9ab72804be",
        "6d562619107358884f748de688fbb4399dcd117b07e0040bbf360dd7eb758a5b",
    ),
    "lshape-L3": (
        "e2c353a60050afbe0d4fe1ee2e24809223c488fd05499f2e1e243a713d17b229",
        "aa49958e736bd535d2225fef4772bb8d02054f60cd7a9b07968b6584ca8b365b",
    ),
    "lshape-L4": (
        "b637250d2829683a2490a99ea5da2310585632b1e176c38543e9065175829aec",
        "e796a771e57483e0af440eebccc6ebc55b1b8df522762f0a630b46491d5c0a9d",
    ),
    "lshape-L5": (
        "2bc7708c335231ffc3427f936866ad7739cffe13665ce3c3ef4ffa35a047e57d",
        "8bd8e4e81e0e6a7892188a12671d300c90606928c341ff8bd51bb1e6fe8bfbec",
    ),
    "rectangle-L2": (
        "c00d2394c200ea37e4277892230e238177248c2c0cb61ff01214cc783779c0ae",
        "551c39f8173a6f4c8af0b2596eda60f5f7b9b91c2cacea1dcd76eba63ed13679",
    ),
    "rectangle-L3": (
        "c297f9754187b01c099e465fa4b5cc84b8f748f934c4ed3fc6cd81027a8f963d",
        "3e1a7c0d86d156c2790419ee7b435a1a343fcc607205b3297bf94135d62ecd7a",
    ),
    "rectangle-L4": (
        "03c02f52cc4316c0c45ea67d6f111285cbd9a0f9182c57eefdc209fe9fbbe845",
        "f16492616a6e6778383f7737976680e19c9cc2daf1fbdacaa9a4253d0202adb4",
    ),
    "rectangle-L5": (
        "1f35b6981f7a5bbab83da40e7e0c31d454f6c1bf8c5e3c83e53cf4839877e6ca",
        "1952d05002ccd1933e8c4fc745dc450ecfd9ae76f851ef433081b2d4bb084098",
    ),
    "disk-L2": (
        "e18850b720356aade091df4466fe01b04f0d6f79336c95c7abaa25833f50a9e2",
        "927e498a359260e55e69ccacde1a33585562c04f37b77b73545a869fb6c8fd7a",
    ),
    "disk-L3": (
        "05f296ecf5e7c9ed243e5a3ffc62a893eb06237ce0a1c1b3c8070d3060b4af77",
        "200f9089404be3d65440d3bd912cee5dc436751ad5db7f104cf76f6602c09f53",
    ),
    "disk-L4": (
        "e5149cec1b3f89943a89bdb587507ec22a4e75cc2fa4e9d5d709ac15b2506178",
        "fdea683f2c7f115dad54504433c305e6678fa2058d12cbf705be05f619925b69",
    ),
    "disk-L5": (
        "6500c54123fcb7c07d0a29cbb29521a3e99b35be6783bab53582f3a8be0e0c5e",
        "be3ad76507afc46188e78b27a9f6b26faf36af401c4ecc0e83a81117b72aaae2",
    ),
    "offset-disk-L2": (
        "ed859e7a34750dbd524694b02fa5faab268f9d335a6c6e575684fe8ef2fd04ff",
        "f50e61488aa475121938e751679d6caa2731f07de27a105cb0794102a6659647",
    ),
    "offset-disk-L3": (
        "45b68e48498dca1b7866285b614077466f50bda5a190ab6fc4693daaedbaccb1",
        "15a9f8b04588f8caeff8dcb529507c6d1e0534240cb36b7096772f25843e40f1",
    ),
    "offset-disk-L4": (
        "02ca4565a5a1504677648e71a2a7224d86211765d6b64d102633853dc7936bf9",
        "53ae660fb968f149d7d575083b59bc38e65a4d44fb403249ff40778476a80b65",
    ),
    "offset-disk-L5": (
        "74be4dbc8bb2bf8f3f60bd42b4bf3dd09409894045d4faca6bcb0ebf47d3b1c7",
        "40a22ebe060bb34a24ce4ba0bf3640fbc6af0fd15c80d6b655a17e6a91041093",
    ),
}


def test_mesh_and_record_arrays_are_pinned():
    # every array a mesh and its record hold, bit for bit: how they are laid
    # out in memory while built may change, their values may not
    mesh_fields = ("nodes", "triangles", "boundary_node", "tri_area", "grad_map", "edges", "tri_edge")
    record_fields = ("area", "weight", "grad_map", "slot", "mid_slot", "indices", "indptr", "pieces",
                     "order", "rank", "band_entries", "band_slot", "lu_entries", "lu_indices", "lu_indptr")
    domains = {"lshape": lshape(), "rectangle": Rectangle(1.0, 2.0), "disk": Disk(1.0),
               "offset-disk": Disk(1.5, (0.5, -0.25))}
    m2 = np.array([[1.3, 0.2], [0.2, 0.7]])
    got = {}
    for name, domain in domains.items():
        for level in (2, 3, 4, 5):
            m = build_mesh(domain, level)
            ops = _operators(m)
            record = [(f"{matrix}.{part}", getattr(getattr(ops, matrix), part))
                      for matrix in ("a", "mass") for part in ("data", "indices", "indptr")]
            record += [(f, getattr(ops, f)) for f in record_fields]
            w = np.array([ops.area, 0.1 * ops.area, 2.0 * ops.area])
            record += [("bandwidth", np.array(ops.bandwidth)), ("k", ops.k_data(m2)),
                       ("tensor", ops.tensor_data(w)), ("mid", ops.mid_data(ops.weight))]
            got[f"{name}-L{level}"] = (_digest((f, getattr(m, f)) for f in mesh_fields), _digest(record))
    assert got == LAYOUT_DIGESTS


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_solve_keeps_no_hidden_state(p):
    # a mesh that has served other forms gives the same solve, bit for bit,
    # as a fresh copy of it; its operator record is released with it
    m = build_mesh(lshape(), 3)
    q = _member(0.25, 0.6)
    for other in (QuadForm.identity(), _member(0.5, 0.7)):
        solve_p(m, other, p)
    used = solve_p(m, q, p)
    fresh = solve_p(Mesh.from_arrays(m.nodes, m.triangles), q, p)
    assert used.lam == fresh.lam
    assert np.array_equal(used.u, fresh.u)
    assert used.iterations == fresh.iterations
    assert used.residual == fresh.residual
    record = weakref.ref(_RECORDS[m])
    del m
    gc.collect()
    assert record() is None


def test_descent_direction_matches_finite_differences():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    p = 2.5
    q = _member(0.25, 0.7)
    m2 = q.matrix()
    ops = _operators(m)
    rng = np.random.default_rng(13)
    interior = np.flatnonzero(~m.boundary_node)
    base = solve_p(m, QuadForm.identity(), 2.0).u
    for trial in range(3):
        u = np.abs(base + 0.1 * (trial + 1) * rng.normal(size=m.n_nodes))
        u[m.boundary_node] = 0.0
        pt = _point(ops, m2, p, u[interior])
        u[interior] = pt.u
        grad = _gradient(ops, p, pt)
        h = 1e-6
        for j in rng.choice(len(interior), size=5, replace=False):
            up, um = u.copy(), u.copy()
            up[interior[j]] += h
            um[interior[j]] -= h
            fd = (
                energy(m, q, p, up) / pnorm_p(m, up, p) - energy(m, q, p, um) / pnorm_p(m, um, p)
            ) / (2.0 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_from_trial_values_matches_fresh_evaluation(p):
    # the descent takes the next gradient from the accepted trial's unscaled
    # powers and flux times one factor s^(p-1); a point taken at the scaled
    # field itself (scale 1) must give the same gradient and quotient
    m = build_mesh(lshape(), 3)
    q = _member(0.25, 0.6)
    m2 = q.matrix()
    ops = _operators(m)
    rng = np.random.default_rng(7)
    u = np.abs(rng.normal(size=ops.a.shape[1]))
    d = rng.normal(size=u.shape)
    pt = _point(ops, m2, p, np.abs(u - 0.3 * d))
    reused = _gradient(ops, p, pt)
    full = np.zeros(m.n_nodes)
    full[~m.boundary_node] = pt.u
    again = _point(ops, m2, p, pt.u)
    assert again.scale == pytest.approx(1.0, rel=1e-14)
    fresh = _gradient(ops, p, again)
    assert pnorm_p(m, full, p) == pytest.approx(1.0, rel=1e-14)
    assert pt.lam == pytest.approx(energy(m, q, p, full), rel=1e-14)
    assert np.max(np.abs(reused - fresh)) <= 1e-14 * np.max(np.abs(fresh))


@pytest.mark.parametrize(
    "level, p, form, iterations, lam",
    [
        (5, 1.5, QuadForm.identity(), 25, 5.701648941266391),
        (4, 3.0, _member(0.25, 0.6), 15, 8.436815126914194),
    ],
    ids=["L5-p1.5-identity", "L4-p3-alpha"],
)
def test_descent_trajectory_is_pinned(level, p, form, iterations, lam):
    # L-shape: iteration count (inverse iteration + descent) and eigenvalue.
    # At p = 3 the descent finishes with shifted Newton steps: 41 -> 15
    # iterations, and lambda moved from 8.4368151285493 to within 2e-14 of
    # its tol-1e-13 value.  At p = 1.5 it steps along the L-BFGS direction
    # of its secant pairs: 33 -> 25 iterations, and lambda moved from
    # 5.701648941261642 by 8.3e-13 relative
    res = solve_p(build_mesh(lshape(), level), form, p)
    assert res.iterations == iterations
    assert res.lam == pytest.approx(lam, rel=1e-10)


def count_descent_k_solves(monkeypatch) -> list:
    """Patch ``_descent`` to count the solves with K, the factorization it is
    passed; returns the list that gains one entry per solve."""
    calls = []
    descent = solver._descent

    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            calls.append(1)
            return self.lu.solve(b)

    monkeypatch.setattr(
        solver, "_descent", lambda ops, m2, p, u0, bound, lu: descent(ops, m2, p, u0, bound, Counting(lu))
    )
    return calls


@pytest.mark.parametrize(
    "case",
    ["lshape-identity", "lshape-extremal", "disk", "warm-start", "superlu"],
)
def test_skipped_k_solves_change_nothing(monkeypatch, case):
    # below LAGGED_P_CUTOFF an iteration solves with K only when the skip
    # test w_min g.K_w^-1 g > 2 (bound p lam)^2 fails; with w_min = 0 it
    # never holds and every iteration solves with K.  The two runs give the
    # same solve, bit for bit, and the skip saves K solves
    p = 1.5
    level = 3 if case == "superlu" else 5
    m = build_mesh(Disk(1.0) if case == "disk" else lshape(), level)
    q = extremal_form(0.25, 0.4) if case in ("lshape-extremal", "warm-start") else QuadForm.identity()
    start = solve_p(m, extremal_form(0.25, 0.5), p).u if case == "warm-start" else None
    if case == "superlu":
        monkeypatch.setattr(solver, "BAND_CUTOFF", 0)
        assert _operators(m).band_slot is None
    calls = count_descent_k_solves(monkeypatch)
    skipping = solve_p(m, q, p, start=start)
    skipped = len(calls)
    lagged = solver._lagged_weights
    monkeypatch.setattr(solver, "_lagged_weights", lambda *args: (lagged(*args)[0], 0.0))
    every = solve_p(m, q, p, start=start)
    assert skipping.lam == every.lam
    assert np.array_equal(skipping.u, every.u)
    assert skipping.residual == every.residual
    assert skipping.iterations == every.iterations
    assert skipped < len(calls) - skipped


def test_lshape_descent_solves_with_k_at_most_8_times(monkeypatch):
    # the L5 L-shape at p = 1.5 takes 20 descent iterations; the skip test
    # holds on all but the last few, so K is solved with 2 times
    calls = count_descent_k_solves(monkeypatch)
    solve_p(build_mesh(lshape(), 5), QuadForm.identity(), 1.5)
    assert 0 < len(calls) <= 8


# ----------------------------------------------------- form-ordering structure


def test_monotone_under_pointwise_ordering():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    rng = np.random.default_rng(19)
    for _ in range(5):
        q2 = random_member(0.25, rng)
        q1 = extremal_form(0.25, spectral(q2).theta)
        lam1 = solve_p(m, q1, 2.0, 1e-12).lam
        lam2 = solve_p(m, q2, 2.0, 1e-12).lam
        assert lam1 <= lam2 + 1e-9


def test_monotone_at_general_p():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    q1 = _member(0.25, 0.5)
    lam1 = solve_p(m, q1, 3.0).lam
    lam2 = solve_p(m, QuadForm.identity(), 3.0).lam
    assert lam1 <= lam2 + 1e-9


def test_bracketing_between_scaled_isotropic_values():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    a = 0.25
    iso = solve_p(m, QuadForm.identity(), 2.0).lam
    rng = np.random.default_rng(23)
    for _ in range(10):
        q = random_member(a, rng)
        lam = solve_p(m, q, 2.0).lam
        assert a * iso - 1e-9 <= lam <= iso + 1e-9


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_negative_beta_is_the_mirrored_domain(p):
    # the change of variables y -> -y maps the form (alpha, -beta, gamma) on
    # a domain to (alpha, beta, gamma) on its mirror image in y
    q = extremal_form(0.25, 0.1946)
    mirrored = Polygon(lshape().vertices[::-1] * [1.0, -1.0])
    lam = solve_p(build_mesh(lshape(), 3), QuadForm(q.alpha, -q.beta, q.gamma), p).lam
    assert lam == pytest.approx(solve_p(build_mesh(mirrored, 3), q, p).lam, rel=2 * DEFAULT_TOL)


# ------------------------------------------------------- directional constants


def test_directional_constant_square_quadratic():
    # chord 2 of the square [-1, 1]^2 along x: (pi / 2)^2 at p = 2
    chord = longest_chord(Rectangle(1.0, 1.0), (0.0, 0.0))
    assert directional_constant(chord, 2.0) == pytest.approx(math.pi**2 / 4.0, rel=1e-14)


@pytest.mark.parametrize(
    "domain, axis, rel",
    [
        (Rectangle(1.0, 1.0), 0, 3e-3),
        (Rectangle(1.0, 1.0), 1, 3e-3),
        (Polygon(SQUARE_CORNERS @ ROT_PI_8.T), 0, 5e-3),
        (lshape(), 0, 6e-3),
    ],
    ids=["x", "y", "rotated-square-x", "lshape-x"],
)
def test_directional_constant_quadratic_matches_eigsh(domain, axis, rel):
    # the smallest eigenvalue of the P1 pencil of the one-derivative form
    # |d_axis u|^2 minimizes over a subspace, so it lies above the continuum
    # constant, and at L5 it is within the mesh error of it (square x: 2.4733
    # against pi^2/4 = 2.4674)
    m2 = np.zeros((2, 2))
    m2[axis, axis] = 1.0
    discrete = smallest_pencil_eigenvalue(build_mesh(domain, 5), m2)
    angle = 0.5 * math.pi * axis
    exact = directional_constant(longest_chord(domain, (angle, angle)), 2.0)
    assert exact <= discrete <= (1.0 + rel) * exact


def test_directional_constant_ignores_transverse_extent():
    chord = longest_chord(Rectangle(1.0, 2.0), (0.0, 0.0))
    assert directional_constant(chord, 2.0) == pytest.approx(math.pi**2 / 4.0, rel=1e-14)


def one_d_rayleigh_minimum(p: float, length: float, n: int = 200) -> float:
    """Minimum of int |u'|^p / int |u|^p over piecewise-linear u on n interior
    nodes of [0, length] with zero ends, by L-BFGS (trapezoid rule for the
    norm)."""
    h = length / (n + 1)

    def quotient(u):
        du = np.diff(np.concatenate([[0.0], u, [0.0]])) / h
        energy_, norm = h * np.sum(np.abs(du) ** p), h * np.sum(np.abs(u) ** p)
        flux = p * np.sign(du) * np.abs(du) ** (p - 1.0)
        grad_norm = h * p * np.sign(u) * np.abs(u) ** (p - 1.0)
        r = energy_ / norm
        return r, (-np.diff(flux) - r * grad_norm) / norm

    start = np.sin(math.pi * np.arange(1, n + 1) / (n + 1))
    opts = {"maxiter": 5000, "gtol": 1e-12, "ftol": 1e-15}
    return float(scipy.optimize.minimize(quotient, start, jac=True, method="L-BFGS-B", options=opts).fun)


def test_directional_constant_general_p_one_d_oracle():
    # the closed form (p - 1) (pi_p / l)^p against a discrete minimization of
    # the one-dimensional quotient on an interval of length 2
    for p in (1.5, 3.0):
        assert directional_constant(2.0, p) == pytest.approx(one_d_rayleigh_minimum(p, 2.0), rel=1e-4)


def test_directional_constant_rejects_bad_input():
    for chord, p in ((0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            directional_constant(chord, p)
