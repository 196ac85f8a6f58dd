import math

import numpy as np
import pytest
import scipy.special
from scipy.sparse.linalg import eigsh

from anisolap import (
    Disk,
    QuadForm,
    Rectangle,
    SolverConvergenceError,
    SolverOptions,
    build_mesh,
    compose_rotation,
    decompose,
    directional_constant,
    energy,
    lambda_anisotropic_two_routes,
    lshape,
    make_Q_alpha,
    pnorm_p,
    random_member,
    rotate,
    shear_y,
    solve_p,
)
from anisolap.solver import (
    _AXIS_MATS,
    _assemble_quadratic,
    _energy_m2,
    _form_matrix,
    _rayleigh_grad,
)

PI2_HALF = math.pi**2 / 2.0


def one_d_p_eigenvalue(p: float, halfwidth: float = 1.0) -> float:
    """First Dirichlet eigenvalue of the one-dimensional p-Laplacian on
    [-halfwidth, halfwidth]: (p - 1) (pi_p / (2 halfwidth))^p with
    pi_p = 2 pi / (p sin(pi / p))."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / (2.0 * halfwidth)) ** p


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
    m = build_mesh(Disk(1.0), 4, 64)
    res = solve_p(m, QuadForm.identity(), 2.0)
    target = scipy.special.jn_zeros(0, 1)[0] ** 2
    assert res.lam == pytest.approx(target, rel=1e-2)


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
    q = make_Q_alpha(0.25, 0.6)
    res = solve_p(m, q, 2.0)
    assert res.lam > 0
    assert np.all(res.u >= 0.0)
    assert np.all(res.u[m.boundary_node] == 0.0)
    assert pnorm_p(m, res.u, 2.0) == pytest.approx(1.0, abs=1e-10)
    assert res.lam == pytest.approx(energy(m, q, 2.0, res.u), rel=1e-10)
    assert res.form == q and res.p == 2.0


def test_nonconvergence_carries_best_iterate():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    with pytest.raises(SolverConvergenceError) as info:
        solve_p(m, QuadForm.identity(), 2.0, SolverOptions(max_iter=1))
    best = info.value.best
    assert math.isfinite(best.lam) and best.lam > 0


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)


# -------------------------------------------------------------- general p path


def smallest_pencil_eigenvalue(m, m2) -> float:
    stiff, mass, _ = _assemble_quadratic(m, m2)
    return float(eigsh(stiff, k=1, M=mass, sigma=0.0, which="LM", return_eigenvectors=False)[0])


@pytest.mark.parametrize("domain", [Rectangle(1.0, 1.0), lshape()], ids=["square", "lshape"])
def test_solve_p2_matches_eigsh(domain):
    m = build_mesh(domain, 4)
    q = make_Q_alpha(0.25, 0.6)
    res = solve_p(m, q, 2.0)
    assert res.lam == pytest.approx(smallest_pencil_eigenvalue(m, _form_matrix(q)), rel=1e-8)
    # p = 2 is the inverse iteration alone: its count exhausts a budget of one
    # fewer iteration, and no descent step is added to it
    assert solve_p(m, q, 2.0, SolverOptions(max_iter=res.iterations)).lam == res.lam
    with pytest.raises(SolverConvergenceError):
        solve_p(m, q, 2.0, SolverOptions(max_iter=res.iterations - 1))


def test_solve_p_rejects_bad_exponent():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    with pytest.raises(ValueError):
        solve_p(m, QuadForm.identity(), 1.0)


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
    q = make_Q_alpha(0.25, 0.8)
    res = solve_p(m, q, 2.5)
    assert np.all(res.u >= 0.0)
    assert pnorm_p(m, res.u, 2.5) == pytest.approx(1.0, abs=1e-10)
    assert res.lam == pytest.approx(energy(m, q, 2.5, res.u), rel=1e-10)


def test_descent_direction_matches_finite_differences():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    p = 2.5
    m2 = _form_matrix(make_Q_alpha(0.25, 0.7))
    rng = np.random.default_rng(13)
    interior = np.flatnonzero(~m.boundary_node)
    base = solve_p(m, QuadForm.identity(), 2.0).u
    for trial in range(3):
        u = np.abs(base + 0.1 * (trial + 1) * rng.normal(size=m.n_nodes))
        u[m.boundary_node] = 0.0
        u /= pnorm_p(m, u, p) ** (1.0 / p)
        lam = _energy_m2(m, m2, p, u)
        grad = _rayleigh_grad(m, m2, p, u, lam)
        nodes = rng.choice(interior, size=5, replace=False)
        h = 1e-6
        for j in nodes:
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            fd = (
                _energy_m2(m, m2, p, up) / pnorm_p(m, up, p)
                - _energy_m2(m, m2, p, um) / pnorm_p(m, um, p)
            ) / (2.0 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)


# ----------------------------------------------------- form-ordering structure


def test_monotone_under_pointwise_ordering():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    opts = SolverOptions(tol=1e-12)
    rng = np.random.default_rng(19)
    for _ in range(5):
        q2 = random_member(0.25, rng)
        dec = decompose(q2, 0.25)
        q1 = make_Q_alpha(0.25, dec.alpha_param)
        lam1 = solve_p(m, q1, 2.0, opts).lam
        lam2 = solve_p(m, q2, 2.0, opts).lam
        assert lam1 <= lam2 + 1e-9


def test_monotone_at_general_p():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    q1 = make_Q_alpha(0.25, 0.5)
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


def test_rotation_covariance():
    # rotating the form on a fixed domain matches the diagonal form on the
    # rotated domain, up to independent meshing errors
    theta = math.pi / 8
    q_rot = compose_rotation(QuadForm(0.25, 0.0, 1.0), theta)
    lam_direct = solve_p(build_mesh(Rectangle(1.0, 1.0), 5), q_rot, 2.0).lam
    lam_rotated = solve_p(
        build_mesh(rotate(Rectangle(1.0, 1.0), theta), 5), QuadForm(0.25, 0.0, 1.0), 2.0
    ).lam
    assert lam_direct == pytest.approx(lam_rotated, rel=1e-2)


# ------------------------------------------------------- directional constants


def test_directional_constant_square_quadratic():
    m = build_mesh(Rectangle(1.0, 1.0), 5)
    c = directional_constant(m, 2.0, "x")
    assert c == pytest.approx(math.pi**2 / 4.0, rel=1e-2)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_directional_constant_quadratic_matches_eigsh(axis):
    # the 1e-7 floor of the descent stages leaves the p = 2 inverse iteration
    # at the caller's tolerance
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    ref = smallest_pencil_eigenvalue(m, _AXIS_MATS[axis])
    assert directional_constant(m, 2.0, axis) == pytest.approx(ref, rel=1e-7)
    opts = SolverOptions(tol=1e-12)
    assert directional_constant(m, 2.0, axis, opts) == pytest.approx(ref, rel=1e-10)


def test_directional_constant_axis_symmetry():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    opts = SolverOptions(tol=1e-11)
    cx = directional_constant(m, 2.0, "x", opts)
    cy = directional_constant(m, 2.0, "y", opts)
    assert cx == pytest.approx(cy, rel=1e-6)


def test_directional_constant_ignores_transverse_extent():
    m = build_mesh(Rectangle(1.0, 2.0), 5)
    c = directional_constant(m, 2.0, "x")
    assert c == pytest.approx(math.pi**2 / 4.0, rel=1e-2)


def test_directional_constant_general_p_one_d_oracle():
    m = build_mesh(Rectangle(1.0, 1.0), 4)
    for p in (1.5, 3.0):
        c = directional_constant(m, p, "x")
        assert c == pytest.approx(one_d_p_eigenvalue(p), rel=2e-2)
        assert c >= one_d_p_eigenvalue(p) - 1e-9  # discrete value from above


def test_directional_constant_rejects_bad_axis():
    m = build_mesh(Rectangle(1.0, 1.0), 3)
    with pytest.raises(ValueError):
        directional_constant(m, 2.0, "z")


# ----------------------------------------------------------------- two routes


def test_two_routes_trivial_at_full_coercivity():
    r1, r2 = lambda_anisotropic_two_routes(Rectangle(1.0, 1.0), 1.0, 0.3, 2.0, level=4)
    assert r1 == pytest.approx(r2, rel=1e-9)


def test_two_routes_square_general_p():
    r1, r2 = lambda_anisotropic_two_routes(Rectangle(1.0, 1.0), 0.5, 0.0, 3.0, level=4)
    assert r1 == pytest.approx(r2, rel=1e-2)


def test_two_routes_disk_matches_ellipse_reference():
    a = 0.25
    r1, r2 = lambda_anisotropic_two_routes(Disk(1.0), a, 0.5, 2.0, level=4, n_boundary=32)
    ellipse = shear_y(Disk(1.0), a, n_boundary=32)
    ref = a * solve_p(build_mesh(ellipse, 4, 32), QuadForm.identity(), 2.0).lam
    assert r2 == pytest.approx(ref, rel=1e-8)
    assert r1 == pytest.approx(r2, rel=1e-2)


def test_two_routes_rejects_bad_level():
    with pytest.raises(ValueError):
        lambda_anisotropic_two_routes(Rectangle(1.0, 1.0), 0.0, 0.0, 2.0, level=3)
