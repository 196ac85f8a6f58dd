import json
import math

import numpy as np
import pytest

from anisolap import (
    Disk,
    EigenResult,
    Mesh,
    OptimizeResult,
    Polygon,
    QuadForm,
    Rectangle,
    SolverConvergenceError,
    build_mesh,
    energy,
    extremal_form,
    lambda_min,
    longest_chord,
    lshape,
    pnorm_p,
    random_member,
    run_verification,
    solve_p,
    spectral,
    verify_Q0_limit,
    verify_disk,
    verify_quantitative,
    verify_rectangle,
    verify_rigidity,
)
from anisolap import optimizer, solver
from anisolap.mesh import mirror_permutation
from anisolap.optimizer import DEFAULT_THETA_TOL, X_ARC, Y_ARC, profile_value
from anisolap.solver import DEFAULT_TOL

PI2_HALF = math.pi**2 / 2.0
SQUARE = Rectangle(1.0, 1.0)
# the tall rectangle has no diagonal mirror, so its searches solve every
# angle: a fake profile asymmetric about pi/4 may stand in for its solves
RECT_TALL = Rectangle(1.0, 2.0)
# a quadrilateral with no symmetry
QUAD = Polygon(((0.0, 0.0), (2.0, 0.0), (2.5, 1.5), (0.3, 1.2)))
# ``run_verification`` arguments of a small run on the square
VERIFY_ARGS = {
    "a": 0.25,
    "b": 0.5,
    "p_list": [2.0],
    "level": 3,
    "grid_n": 9,
    "n_samples": 5,
    "n_pairs": 8,
    "a_sequence": [0.5, 0.25],
    "seed": 0,
    "suites": ["rigidity", "quantitative", "relaxation", "disk", "rectangle"],
}


def fake_solve(lam: float, dlam: float, residual: float = 0.0) -> tuple[EigenResult, float]:
    """What a fake ``profile_value`` returns: a solve's value and residual,
    with no eigenfunction for the next solve to start from, and the value's
    derivative in theta."""
    return EigenResult(lam, None, 0, residual, 2.0, QuadForm.identity()), dlam


def bowl(theta: float, c: float, residual: float = 0.0) -> tuple[EigenResult, float]:
    """The fake solve of exp(s) - s, s = 4 (theta - c), unimodal and
    asymmetric with minimum 1 at c, and its derivative 4 (exp(s) - 1)."""
    s = 4.0 * (theta - c)
    return fake_solve(math.exp(s) - s, 4.0 * (math.exp(s) - 1.0), residual)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("theta", [0.0, 0.4, 1.2])
@pytest.mark.parametrize("domain", [SQUARE, lshape(), Disk(1.0)], ids=["square", "lshape", "disk"])
def test_profile_value_affine_invariance(domain, theta, p):
    # the extremal form at theta on a mesh is a^(p/2) times the isotropic
    # problem on the image of that mesh under A = diag(1, sqrt(a)) R, R the
    # counterclockwise rotation by theta: P1 elements make this exact
    a = 0.25
    mesh = build_mesh(domain, 4)
    c, s = math.cos(theta), math.sin(theta)
    affine = np.diag([1.0, math.sqrt(a)]) @ np.array([[c, -s], [s, c]])
    mapped = Mesh.from_arrays(mesh.nodes @ affine.T, mesh.triangles)
    value = profile_value(mesh, theta, a, p)[0].lam
    iso = solve_p(mapped, QuadForm.identity(), p).lam
    assert value == pytest.approx(a ** (0.5 * p) * iso, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("domain", [lshape(), QUAD], ids=["lshape", "quadrilateral"])
def test_form_gradient_matches_central_differences(domain, p):
    # dlam = tr(S dQ) with S from the solve alone (Danskin's theorem), against
    # central differences of solves at tol 1e-12, h = 1e-4: along theta at
    # 0.6, as profile_value's derivative, and along a, where dQ/da =
    # R^T diag(1, 0) R.  At p < 2 a triangle whose nodes all lie on the
    # boundary has q_T = 0, and S is finite only through the floor of q_T
    a, theta, h, tol = 0.25, 0.6, 1e-4, 1e-12
    mesh = build_mesh(domain, 4)
    res, dlam = profile_value(mesh, theta, a, p, tol)
    s = solver._form_gradient(mesh, res)
    assert np.isfinite(s).all()
    c, sn = math.cos(theta), math.sin(theta)
    for derivative, form in (
        (dlam, lambda t: extremal_form(a, theta + t)),
        (float(np.sum(s * np.outer((c, -sn), (c, -sn)))), lambda t: extremal_form(a + t, theta)),
    ):
        plus, minus = (solve_p(mesh, form(t), p, tol, start=res.u).lam for t in (h, -h))
        assert derivative == pytest.approx((plus - minus) / (2.0 * h), rel=1e-5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("domain", [SQUARE, lshape()], ids=["square", "lshape"])
def test_profile_is_symmetric_on_a_mirrored_mesh(domain, p):
    # the reflection about the mesh's diagonal swaps alpha and gamma of a form
    # and keeps beta, so it maps the form at theta to the one at pi/2 - theta:
    # cold solves at the two angles agree, and the reflected eigenfunction
    # has the same energy under the swapped form, and the same p-norm.  The
    # derivatives in theta are opposite, as a mirror read stores them
    a, theta = 0.25, 0.3
    mesh = build_mesh(domain, 3)
    perm = mirror_permutation(mesh)
    (res, dlam), (twin, twin_dlam) = (
        profile_value(mesh, th, a, p) for th in (theta, 0.5 * math.pi - theta)
    )
    assert twin.lam == pytest.approx(res.lam, rel=2 * DEFAULT_TOL)
    assert twin_dlam == pytest.approx(-dlam, rel=1e-5)
    q = extremal_form(a, theta)
    swapped = QuadForm(q.gamma, q.beta, q.alpha)
    assert energy(mesh, swapped, p, res.u[perm]) == pytest.approx(
        energy(mesh, q, p, res.u), rel=1e-13
    )
    assert pnorm_p(mesh, res.u[perm], p) == pytest.approx(pnorm_p(mesh, res.u, p), rel=1e-13)


def test_lambda_min_square_invariants():
    a = 0.25
    res = lambda_min(SQUARE, a, 2.0, grid_n=9, level=4)
    assert res.lambda_min <= res.lambda_max + 1e-9
    iso = res.lambda_max
    assert res.lambda_min >= a * iso - 10 * res.residual - 1e-9
    # the extremizer has eigenvalues (a, 1) and is diagonalized by theta_star
    s = spectral(res.extremizer)
    assert s.mu_min == pytest.approx(a, abs=1e-12)
    assert s.mu_max == pytest.approx(1.0, abs=1e-12)
    assert res.alpha_star == res.extremizer.alpha
    assert res.alpha_star == pytest.approx(1.0 - (1.0 - a) * math.cos(res.theta_star) ** 2, abs=1e-10)
    assert s.theta == pytest.approx(res.theta_star, abs=1e-10)
    # profile stored at grid resolution
    assert len(res.theta_profile) == 9
    assert res.theta_profile[0][0] == 0.0
    assert res.theta_profile[-1][0] == pytest.approx(math.pi / 2)


def test_alpha_star_is_the_extremizers_alpha():
    # at theta_star = 0, 1 - (1 - a) rounds below a = 0.1; alpha_star is the
    # extremizer's clamped leading coefficient, so it lies in [a, 1]
    res = lambda_min(Rectangle(1.0, 1.0 / math.sqrt(0.1)), 0.1, 2.0, 9, level=3)
    assert res.theta_star == 0.0
    assert res.alpha_star == res.extremizer.alpha == 0.1


def test_lambda_min_square_profile_symmetry():
    res = lambda_min(SQUARE, 0.25, 2.0, grid_n=9, level=4)
    vals = [v for _, v in res.theta_profile]
    for i in range(len(vals)):
        assert vals[i] == pytest.approx(vals[-1 - i], rel=1e-2)


def test_lambda_min_tends_to_isotropic_as_class_shrinks():
    res = lambda_min(SQUARE, 0.999, 2.0, grid_n=9, level=4)
    assert res.lambda_min == pytest.approx(res.lambda_max, rel=5e-3)


def test_lambda_min_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lambda_min(SQUARE, 1.0, 2.0)
    with pytest.raises(ValueError):
        lambda_min(SQUARE, 0.25, 2.0, grid_n=5)
    with pytest.raises(ValueError, match="theta_tol"):
        lambda_min(SQUARE, 0.25, 2.0, theta_tol=0.0)  # the refinement would never stop


def test_lambda_min_failure_carries_profile_so_far(monkeypatch):
    # the first grid solve misses its budget, so no grid value precedes it
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    with pytest.raises(SolverConvergenceError) as info:
        lambda_min(SQUARE, 0.25, 2.0, grid_n=9, level=2)
    assert info.value.theta_profile == []
    assert math.isfinite(info.value.best.lam)


def test_lambda_min_disk_flat_profile():
    res = lambda_min(Disk(1.0), 0.25, 2.0, grid_n=9, level=3)
    vals = np.array([v for _, v in res.theta_profile])
    assert (vals.max() - vals.min()) / vals.mean() < 1e-3


def test_lambda_min_rectangle_axis_minimum():
    # the sheared rotated tall rectangle is a square exactly at angle zero,
    # and the square minimizes among the swept quadrilaterals
    res = lambda_min(Rectangle(1.0, 2.0), 0.25, 2.0, grid_n=9, level=6, theta_tol=1e-4)
    assert res.theta_star <= 1e-3
    assert res.lambda_min == pytest.approx(0.25 * PI2_HALF, rel=1e-2)
    # the quarter-turn endpoint is a thin rectangle, far from optimal
    assert res.theta_profile[-1][1] > 1.5 * res.lambda_min


def test_strict_chain_square_and_lshape():
    a = 0.25
    for dom in (SQUARE, lshape()):
        res = lambda_min(dom, a, 2.0, grid_n=9, level=4)
        floor = 3.0 * max(res.residual, 1e-9 * res.lambda_min)
        assert a * res.lambda_max < res.lambda_min - floor
        assert res.lambda_min < res.lambda_max - floor


def test_non_normalized_bounds():
    # scaled members stay bracketed by the scaled optimal constants
    a = 0.25
    mesh = build_mesh(SQUARE, 3)
    res = lambda_min(SQUARE, a, 2.0, grid_n=9, level=3)
    rng = np.random.default_rng(51)
    for _ in range(20):
        scale = rng.uniform(0.3, 3.0)
        q = random_member(a, rng)
        scaled = QuadForm(scale * q.alpha, scale * q.beta, scale * q.gamma)
        qmax = spectral(scaled).mu_max
        lam = solve_p(mesh, scaled, 2.0).lam
        slack = 1e-6 * lam + 10 * res.residual
        assert res.lambda_min * qmax - slack <= lam <= res.lambda_max * qmax + slack


def test_optimize_result_serializable():
    res = lambda_min(SQUARE, 0.25, 2.0, grid_n=9, level=3)
    payload = json.dumps(res.to_dict())
    assert "lambda_min" in payload


# ---------------------------------------------------------------- angle refinement


def refined(monkeypatch, c: float, theta_tol: float = 1e-4):
    """``lambda_min`` at grid_n = 9 with ``optimizer.profile_value`` replaced
    by ``bowl`` about c: the result and the number of profile calls beyond
    the grid."""
    calls = []

    def profile(mesh, theta, a, p, tol=None, start=None):
        calls.append(float(theta))
        return bowl(theta, c)

    monkeypatch.setattr(optimizer, "profile_value", profile)
    res = lambda_min(RECT_TALL, 0.25, 2.0, 9, level=2, theta_tol=theta_tol)
    assert len(res.tied_minima) == 1
    return res, len(calls) - 9


def test_refinement_finds_off_grid_interior_minimum(monkeypatch):
    c = 0.3  # between the grid angles pi/16 and pi/8
    res, extra = refined(monkeypatch, c)
    assert abs(res.theta_star - c) <= 1e-4
    assert res.lambda_min == pytest.approx(1.0, abs=1e-7)
    assert 0 < extra <= 6
    # the first-order certificate: the second derivative is 16 at c
    assert abs(res.dlam_dtheta) <= 16.0 * 1e-4


@pytest.mark.parametrize("c, end", [(-0.2, 0), (2.0, -1)], ids=["zero", "quarter"])
def test_refinement_endpoint_minimum_costs_no_call(monkeypatch, c, end):
    # the derivative at the end points out of [0, pi/2]: the end is the answer
    res, extra = refined(monkeypatch, c)
    assert extra == 0
    assert (res.theta_star, res.lambda_min) == res.theta_profile[end]
    assert res.dlam_dtheta == bowl(res.theta_star, c)[1]
    assert (res.dlam_dtheta > 0.0) == (end == 0)


@pytest.mark.parametrize(
    "c, end", [(3e-4, 0), (0.5 * math.pi - 3e-4, -1)], ids=["zero", "quarter"]
)
def test_refinement_minimum_near_endpoint_is_found(monkeypatch, c, end):
    # 3 tol inside the endpoint: the derivative there points into the range,
    # so the search brackets the minimum with the end's grid neighbour
    res, extra = refined(monkeypatch, c)
    assert extra > 0
    assert abs(res.theta_star - c) <= 1e-4
    assert res.lambda_min < res.theta_profile[end][1]


@pytest.mark.parametrize("c", [0.3, -0.2], ids=["interior", "endpoint"])
def test_refinement_skipped_when_grid_resolves_tolerance(monkeypatch, c):
    h = 0.5 * math.pi / 8
    res, extra = refined(monkeypatch, c, theta_tol=h)
    assert extra == 0
    assert res.theta_star in [t for t, _ in res.theta_profile]


def test_lambda_min_residual_covers_refinement_solves(monkeypatch):
    # only the solves off the grid report a residual: their bound residual *
    # lam reaches the result, and the tie tolerance stays that of the grid
    grid = set(np.linspace(0.0, 0.5 * math.pi, 9).tolist())

    def profile(mesh, theta, a, p, tol=None, start=None):
        return bowl(theta, 0.3, 0.0 if float(theta) in grid else 0.5)

    monkeypatch.setattr(optimizer, "profile_value", profile)
    res = lambda_min(RECT_TALL, 0.25, 2.0, 9, level=2)
    assert res.residual >= 0.5 * res.lambda_min
    assert len(res.tied_minima) == 1


def test_lambda_min_rectangle_spends_no_refinement_solve(monkeypatch):
    # the minimizer theta = 0 is an endpoint whose derivative points out of
    # [0, pi/2]: the grid's solve there is the answer
    calls = []
    real = optimizer.profile_value

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "profile_value", counting)
    res = lambda_min(Rectangle(1.0, 2.0), 0.25, 2.0, grid_n=9, level=3)
    assert len(calls) == 9
    assert res.theta_star == 0.0 and res.dlam_dtheta > 0.0


def test_lambda_min_lshape_tied_minima_are_symmetric():
    # the L-shape is symmetric about the line y = -x, which maps the form at
    # theta to the form at pi/2 - theta: its two minimizers tie, on one
    # level (3) and on two (4, with the profile at 3).  One is refined, and
    # the other is its mirror image
    for level in (3, 4):
        res = lambda_min(lshape(), 0.25, 2.0, level=level)
        assert res.multiple_minima and res.mirrored
        (t1, v1), (t2, v2) = res.tied_minima
        assert t2 == 0.5 * math.pi - t1
        assert v1 == v2


def mirrored_search(monkeypatch, domain, c: float, grid_n: int = 9):
    """``lambda_min`` on ``domain`` at level 2 with ``optimizer.profile_value``
    replaced by exp(s) - s, s = 4 (|theta - pi/4| - (pi/4 - c)): symmetric
    about pi/4, with minimum 1 at c and at pi/2 - c, and unimodal on either
    side of pi/4, with its derivative.  The result and the angles of the
    profile calls."""
    calls = []

    def profile(mesh, theta, a, p, tol=None, start=None):
        calls.append(float(theta))
        s = 4.0 * (abs(theta - 0.25 * math.pi) - (0.25 * math.pi - c))
        u = np.zeros(mesh.n_nodes)  # a mirror read reflects it
        dlam = 4.0 * (math.exp(s) - 1.0) * float(np.sign(theta - 0.25 * math.pi))
        return EigenResult(math.exp(s) - s, u, 0, 0.0, 2.0, QuadForm.identity()), dlam

    monkeypatch.setattr(optimizer, "profile_value", profile)
    return lambda_min(domain, 0.25, 2.0, grid_n, level=2), calls


def test_lambda_min_refines_one_of_each_mirror_pair(monkeypatch):
    # the square is mirrored: its search solves the grid angles up to pi/4
    # alone, refines the minimum at c = 0.3 and reports its mirror image,
    # with the same value.  The tall rectangle is not: it refines both, and
    # its refinement at c spends the calls that the square's does
    square, calls = mirrored_search(monkeypatch, SQUARE, 0.3)
    assert square.mirrored
    assert all(t <= 0.25 * math.pi for t in calls)
    (t1, v1), (t2, v2) = square.tied_minima
    assert abs(t1 - 0.3) <= DEFAULT_THETA_TOL
    assert (t2, v2) == (0.5 * math.pi - t1, v1)
    rect, rect_calls = mirrored_search(monkeypatch, RECT_TALL, 0.3)
    assert not rect.mirrored and len(rect.tied_minima) == 2
    grid = np.linspace(0.0, 0.5 * math.pi, 9).tolist()
    refinement = [t for t in rect_calls if t not in grid and t < 0.25 * math.pi]
    assert calls == grid[:5] + refinement


def test_lambda_min_minimum_at_quarter_turn_is_not_refined(monkeypatch):
    # a unimodal profile symmetric about pi/4 has its minimizer there: the
    # grid angle pi/4 is the answer, for no call beyond the grid's five
    res, calls = mirrored_search(monkeypatch, SQUARE, 0.25 * math.pi)
    assert len(calls) == 5
    assert res.tied_minima == [(0.25 * math.pi, 1.0)]


def test_lambda_min_minimum_next_to_quarter_turn_is_refined(monkeypatch):
    # at c = 0.62 the walk from the grid angle below pi/4 finds a higher value
    # at pi/4: the minimizer lies between them, where the derivative, 0 at
    # pi/4 by symmetry, changes sign, and it is refined there
    res, calls = mirrored_search(monkeypatch, SQUARE, 0.62)
    assert all(t <= 0.25 * math.pi for t in calls) and len(calls) > 5
    (t1, v1), (t2, v2) = res.tied_minima
    assert abs(t1 - 0.62) <= DEFAULT_THETA_TOL
    assert res.lambda_min == pytest.approx(1.0, abs=1e-7)
    assert (t2, v2) == (0.5 * math.pi - t1, v1)


def test_lambda_min_bracket_across_quarter_turn_reports_one_minimum(monkeypatch):
    # at grid_n = 10 the grid minima at indices 4 and 5 are mirror images
    # whose brackets both hold pi/4: one is refined, and reported once
    res, calls = mirrored_search(monkeypatch, SQUARE, 0.25 * math.pi, grid_n=10)
    assert all(t <= 0.25 * math.pi for t in calls) and len(calls) > 5
    assert len(res.tied_minima) == 1
    assert abs(res.theta_star - 0.25 * math.pi) <= DEFAULT_THETA_TOL
    assert res.lambda_min == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------- two-level search


@pytest.mark.parametrize(
    "domain, p, lam, argmins",
    [
        (RECT_TALL, 2.0, 1.236674518143308, [0.0]),
        (SQUARE, 3.0, 3.559898173179352, [0.25 * math.pi]),
        (lshape(), 2.0, 4.665185486160885, [0.20434098471634723, 1.3664553420785492]),
    ],
    ids=["rectangle-p2", "square-p3", "lshape-p2"],
)
def test_lambda_min_two_level_keeps_the_answer(domain, p, lam, argmins):
    # the answer of the warm-started search; a search that solves every angle
    # from nothing, and one sampling its grid on the level-5 mesh itself,
    # agree within 2e-10.  The L-shape's mirror minimum is pi/2 minus the
    # refined one, with its value
    res = lambda_min(domain, 0.25, p, level=5)
    assert (res.mesh_level, res.profile_level) == (5, 4)
    assert res.lambda_min == pytest.approx(lam, rel=1e-12)
    assert sorted(t for t, _ in res.tied_minima) == pytest.approx(argmins, rel=1e-12, abs=1e-15)
    assert res.theta_star == res.tied_minima[0][0]
    # the search keeps Python floats, as the table's grid angles are
    assert {type(x) for pair in res.tied_minima for x in pair} == {float}
    assert type(res.dlam_dtheta) is float


def test_lambda_min_two_level_solve_count(monkeypatch):
    # the grid is sampled on the level-4 mesh; the level-5 mesh sees the
    # coarse argmin theta = 0 alone, whose derivative points out of [0, pi/2]
    calls = {}
    real = optimizer.profile_value

    def counting(mesh, theta, *args, **kwargs):
        calls.setdefault(mesh.n_nodes, []).append(float(theta))
        return real(mesh, theta, *args, **kwargs)

    monkeypatch.setattr(optimizer, "profile_value", counting)
    res = lambda_min(RECT_TALL, 0.25, 2.0, level=5)
    coarse, fine = build_mesh(RECT_TALL, 4).n_nodes, build_mesh(RECT_TALL, 5).n_nodes
    assert sorted(calls) == sorted([coarse, fine])
    assert len(calls[coarse]) == 17
    assert calls[fine] == [0.0]
    assert res.theta_star == 0.0
    assert res.lambda_min_coarse == res.theta_profile[0][1]


@pytest.mark.parametrize(
    "domain, p, level, grid_n, counts",
    [
        (RECT_TALL, 2.0, 5, 17, [17, 1]),
        (SQUARE, 3.0, 3, 9, [5]),
        (lshape(), 2.0, 4, 17, [10, 5]),
        (Disk(1.0), 3.0, 3, 9, [10]),
    ],
    ids=["rectangle-p2-L5", "square-p3-L3", "lshape-p2-L4", "disk-p3-L3"],
)
def test_lambda_min_solves_each_angle_once(monkeypatch, domain, p, level, grid_n, counts):
    # profile solves per mesh, the grid's first: on one level the walks and
    # the coarse value at theta_star reread the grid's solves.  The
    # square and the L-shape are mirrored: each solves its grid angles in
    # [0, pi/4] alone, and the square's grid minimum at pi/4 is not refined
    calls = []
    real = optimizer.profile_value

    def counting(mesh, theta, *args, **kwargs):
        calls.append((id(mesh), float(theta)))
        return real(mesh, theta, *args, **kwargs)

    monkeypatch.setattr(optimizer, "profile_value", counting)
    lambda_min(domain, 0.25, p, grid_n, level=level)
    assert len(set(calls)) == len(calls)
    per_mesh: dict[int, int] = {}
    for mesh_id, _ in calls:
        per_mesh[mesh_id] = per_mesh.get(mesh_id, 0) + 1
    assert list(per_mesh.values()) == counts


def test_lambda_min_one_level_failure_in_refinement_keeps_the_grid(monkeypatch):
    # on one level the refinement's angles share the table with the grid;
    # the third of them fails, and the error carries the grid pairs alone
    grid = np.linspace(0.0, 0.5 * math.pi, 9).tolist()
    best = solve_p(build_mesh(RECT_TALL, 2), QuadForm.identity(), 2.0)
    off_grid = []

    def profile(mesh, theta, a, p, tol=None, start=None):
        if theta not in grid:
            off_grid.append(theta)
            if len(off_grid) == 3:
                raise SolverConvergenceError("descent stopped", best)
        return bowl(theta, 0.3)

    monkeypatch.setattr(optimizer, "profile_value", profile)
    with pytest.raises(SolverConvergenceError) as info:
        lambda_min(RECT_TALL, 0.25, 2.0, 9, level=2)
    assert len(off_grid) == 3
    assert info.value.theta_profile == [(t, bowl(t, 0.3)[0].lam) for t in grid]


def test_lambda_min_moves_bracket_to_lower_fine_neighbour(monkeypatch):
    # the coarse profile puts its minimum at 0.75, the fine one at 0.3: the
    # fine derivative walks the grid minimum down to the fine bracket
    fine_nodes = build_mesh(RECT_TALL, 4).n_nodes

    def profile(mesh, theta, a, p, tol=None, start=None):
        return bowl(theta, 0.3 if mesh.n_nodes == fine_nodes else 0.75)

    monkeypatch.setattr(optimizer, "profile_value", profile)
    res = lambda_min(RECT_TALL, 0.25, 2.0, 9, level=4)
    assert len(res.tied_minima) == 1
    assert abs(res.theta_star - 0.3) <= DEFAULT_THETA_TOL
    assert res.lambda_min == pytest.approx(1.0, abs=1e-7)
    # one coarse solve off the grid gives the coarse value at theta_star
    s = 4.0 * (res.theta_star - 0.75)
    assert res.lambda_min_coarse == pytest.approx(math.exp(s) - s, rel=1e-15)
    assert res.error_estimate == abs(res.lambda_min_coarse - res.lambda_min)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("domain", [SQUARE, lshape(), Disk(1.0)], ids=["square", "lshape", "disk"])
def test_warm_search_agrees_with_cold(monkeypatch, domain, p):
    # every profile solve but the first on each level starts from its nearest
    # solved neighbour; a search whose profile solves all start from nothing
    # finds the same minimum within tol, or its mirror on a tied pair, and
    # needs more iterations for it.  Not at p = 4, where a solve's error can
    # exceed tol (the RESIDUAL_SAFETY comment)
    real = optimizer.profile_value
    iterations = []
    starts = []

    def counted(*args, start=None, **kwargs):
        starts.append(start is not None)
        res, dlam = real(*args, start=start, **kwargs)
        iterations.append(res.iterations)
        return res, dlam

    def cold(*args, start=None, **kwargs):
        return counted(*args, **kwargs)

    monkeypatch.setattr(optimizer, "profile_value", counted)
    warm = lambda_min(domain, 0.25, p, level=4)
    warm_iterations, warm_starts = sum(iterations), starts[:]
    iterations.clear()
    starts.clear()
    monkeypatch.setattr(optimizer, "profile_value", cold)
    ref = lambda_min(domain, 0.25, p, level=4)

    # the first solve on each level, the coarse grid's and the fine one at
    # the coarse argmin, starts from nothing
    assert warm_starts.count(False) == 2 and not any(starts)
    assert warm.lambda_min == pytest.approx(ref.lambda_min, rel=2 * DEFAULT_TOL)
    for res, other in ((warm, ref), (ref, warm)):
        assert any(abs(res.theta_star - t) <= DEFAULT_THETA_TOL for t, _ in other.tied_minima)
    assert warm_iterations < sum(iterations)


def test_lambda_min_one_level_has_no_error_estimate():
    res = lambda_min(RECT_TALL, 0.25, 2.0, 9, level=3)
    assert res.profile_level == res.mesh_level == 3
    assert res.lambda_min_coarse == res.lambda_min
    assert res.error_estimate is None


def test_error_estimate_bounds_rectangle_error():
    # at theta = 0 the sheared tall rectangle is the square [-1, 1]^2, whose
    # continuum value at p = 2 is a pi^2 / 2
    res = lambda_min(RECT_TALL, 0.25, 2.0, level=5)
    error = abs(res.lambda_min - 0.25 * PI2_HALF)  # 0.00297
    assert error <= res.error_estimate <= 4.0 * error  # 0.00894, O(h^2) gives 3


def test_error_estimate_bounds_square_error():
    # no closed form at theta* = pi/4; the reference is the Richardson value
    # of levels 5 and 6 at that angle (2.8344; levels 4 and 5 give 2.8353)
    res = lambda_min(SQUARE, 0.25, 2.0, level=5)
    lam5, lam6 = (
        profile_value(build_mesh(SQUARE, level), 0.25 * math.pi, 0.25, 2.0)[0].lam
        for level in (5, 6)
    )
    error = abs(res.lambda_min - (4.0 * lam6 - lam5) / 3.0)  # 0.0207
    assert error <= res.error_estimate <= 4.0 * error  # 0.0592


# ---------------------------------------------------------------- suites


def test_verify_rigidity_entries():
    entries = verify_rigidity(
        SQUARE, 0.25, 2.0, 1e-9, level=3, n_samples=5, n_pairs=6, seed=1
    )
    names = [e["name"] for e in entries]
    assert names == ["isotropic_maximizer_strict", "monotone_form_ordering"]
    for e in entries:
        assert e["passed"], e
        assert "mesh_level" in e and "solver_residual" in e


def test_verify_rigidity_reports_largest_error_bound(monkeypatch):
    # like every other entry, the rigidity entries report an absolute error
    # bound, residual * lam, the largest over the suite's solves
    results = []

    def recording(*args, **kwargs):
        results.append(solve_p(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(optimizer, "solve_p", recording)
    entries = verify_rigidity(
        SQUARE, 0.25, 2.0, 1e-9, level=3, n_samples=3, n_pairs=3, seed=1
    )
    iso = results[0]
    assert len(results) == 1 + 3 + 2 * 3
    for e in entries:
        assert e["solver_residual"] >= iso.residual * iso.lam
        assert e["solver_residual"] == max(res.residual * res.lam for res in results)


def test_verify_rigidity_rejects_no_pairs():
    # with no pair the worst gap would stay infinite, which no report can hold
    with pytest.raises(ValueError, match="n_pairs"):
        verify_rigidity(
            SQUARE, 0.25, 2.0, 1e-9, level=2, n_samples=1, n_pairs=0, seed=0
        )


@pytest.fixture(scope="module")
def square_optima():
    """The optima that ``run_verification`` judges, on the square at level 3,
    and the square's longest chords over the two quarter-arcs (its diagonal)."""
    optima = {
        a: lambda_min(SQUARE, a, 2.0, 9, 1e-9, level=3, theta_tol=1e-3) for a in (0.5, 0.25)
    }
    chords = {"x": longest_chord(SQUARE, X_ARC), "y": longest_chord(SQUARE, Y_ARC)}
    return optima, chords


def chord_of(constant: float) -> float:
    """The chord whose directional constant at p = 2 is ``constant``."""
    return math.pi / math.sqrt(constant)


def optimum(a: float, value: float, p: float = 2.0) -> OptimizeResult:
    """A synthetic optimum for judging, no solver involved."""
    return OptimizeResult(
        lambda_min=value,
        lambda_max=5.0,
        theta_star=0.0,
        alpha_star=a,
        extremizer=QuadForm(a, 0.0, 1.0),
        theta_profile=[],
        a=a,
        p=p,
        mesh_level=3,
        residual=1e-9,
    )


def test_verify_quantitative_entries(square_optima):
    optima, chords = square_optima
    entries = verify_quantitative(optima[0.25], optima[0.5], chords["x"])
    by_name = {e["name"]: e for e in entries}
    # c0 of the square rotated over [0, pi/2]: the diagonal 2 sqrt(2) gives pi^2 / 8
    assert by_name["lower_difference_bound"]["measured"]["c0"] == pytest.approx(math.pi**2 / 8.0)
    assert by_name["upper_ratio_bound"]["passed"]
    assert by_name["lower_difference_bound"]["passed"]
    assert by_name["lower_constant_monotone_in_level"]["passed"]
    measured = by_name["upper_ratio_bound"]["measured"]
    assert measured["measured"] <= measured["bound"]


def test_verify_quantitative_equal_levels_degenerate(square_optima):
    optima, _ = square_optima
    entries = verify_quantitative(optima[0.25], optima[0.25], 2.0 * math.sqrt(2.0))
    for e in entries:
        assert e["passed"]
        assert e["measured"].get("measured", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_verify_quantitative_fails_on_decrease():
    entries = verify_quantitative(optimum(0.25, 2.0), optimum(0.5, 1.9), 1.0)
    by_name = {e["name"]: e for e in entries}
    assert by_name["upper_ratio_bound"]["passed"]
    assert not by_name["lower_difference_bound"]["passed"]
    assert not by_name["lower_constant_monotone_in_level"]["passed"]
    with pytest.raises(ValueError):
        verify_quantitative(optimum(0.5, 1.9), optimum(0.25, 2.0), 1.0)


def test_verify_relaxation_entries(square_optima):
    optima, chords = square_optima
    entries = verify_Q0_limit([optima[0.5], optima[0.25]], chords["y"])
    assert all(e["passed"] for e in entries)
    vals = entries[0]["measured"]["values"]
    assert vals[0] >= vals[1]


def test_verify_relaxation_fails_on_increase():
    entries = verify_Q0_limit([optimum(0.5, 2.0), optimum(0.25, 2.1)], chord_of(1.0))
    by_name = {e["name"]: e for e in entries}
    assert not by_name["lower_constant_nonincreasing_in_relaxation"]["passed"]
    assert by_name["lower_constant_positive_floor"]["passed"]
    with pytest.raises(ValueError):
        verify_Q0_limit([optimum(0.25, 2.0), optimum(0.5, 2.1)], 1.0)


def test_verify_relaxation_floor_has_two_percent_slack():
    results = [optimum(0.5, 2.0), optimum(0.25, 1.97)]
    floor = verify_Q0_limit(results, chord_of(2.0))[1]
    assert floor["name"] == "lower_constant_positive_floor" and floor["passed"]
    assert not verify_Q0_limit(results, chord_of(2.02))[1]["passed"]  # 1.97 < 0.98 * 2.02


def test_run_verification_shares_optima(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return lambda_min(*args, **kwargs)

    monkeypatch.setattr(optimizer, "lambda_min", counting)
    report = run_verification(
        SQUARE,
        1e-9,
        **{**VERIFY_ARGS, "level": 2, "p_list": [2.0, 3.0], "suites": ["quantitative", "relaxation"]},
    )
    assert [e["name"] for e in report["entries"]] == [
        "upper_ratio_bound",
        "lower_difference_bound",
        "lower_constant_monotone_in_level",
    ] * 2 + [
        "lower_constant_nonincreasing_in_relaxation",
        "lower_constant_positive_floor",
    ] * 2
    # levels {a, b} = {0.25, 0.5} and a_sequence [0.5, 0.25] share two optima per p
    assert sorted(calls) == [(0.25, 2.0), (0.25, 3.0), (0.5, 2.0), (0.5, 3.0)]


@pytest.mark.parametrize(
    "level, p_list, builds",
    # the square, the disk and the tall rectangle, each on one level below 4
    # and on two from 4 on; unshared, the square alone is meshed 4 times per p
    [(3, [3.0], 3), (4, [1.5, 3.0], 6)],
    ids=["L3-p3", "L4-p1.5-p3"],
)
def test_run_verification_meshes_and_solves_isotropic_once(monkeypatch, level, p_list, builds):
    built, cold = [], []

    def building(d, lv, *args, **kwargs):
        built.append((d, lv))
        return build_mesh(d, lv, *args, **kwargs)

    def solving(m, q, p, tol=DEFAULT_TOL, start=None):
        res = solve_p(m, q, p, tol, start=start)
        if q == QuadForm.identity() and start is None:
            cold.append((m, p, res))
        return res

    monkeypatch.setattr(optimizer, "build_mesh", building)
    monkeypatch.setattr(optimizer, "solve_p", solving)
    run_verification(SQUARE, 1e-9, **{**VERIFY_ARGS, "level": level, "p_list": p_list})
    assert len(built) == len(set(built)) == builds
    # one isotropic solve per fine mesh and p: rigidity, lambda_max of every
    # search and the rectangle suite's square read the square's one solve
    assert len(cold) == len({(id(m), p) for m, p, _ in cold}) == 3 * len(p_list)
    for m, p, res in cold:
        # every suite started from it, and none wrote into it
        assert res.u.tobytes() == solve_p(m, QuadForm.identity(), p, 1e-9).u.tobytes()


def test_run_verification_tests_each_mesh_for_a_mirror_once(monkeypatch):
    # every search of a run reads a mesh's mirror permutation from the run's
    # table; a standalone search tests each of its two meshes itself
    tested = []

    def testing(m):
        tested.append(m)
        return mirror_permutation(m)

    monkeypatch.setattr(optimizer, "mirror_permutation", testing)
    run_verification(SQUARE, 1e-9, **{**VERIFY_ARGS, "level": 4, "p_list": [2.0, 3.0]})
    # the square's, the disk's and the tall rectangle's meshes at levels 3 and 4
    assert len(tested) == len({id(m) for m in tested}) == 6
    tested.clear()
    for p in (2.0, 3.0):
        lambda_min(SQUARE, 0.25, p, grid_n=9, level=4)
    assert len(tested) == 4 and len({id(m) for m in tested}) == 4


def test_verify_disk_entries():
    entries = verify_disk(0.25, 2.0, 1e-9, level=3, grid_n=9)
    assert all(e["passed"] for e in entries)
    # one mesh of the disk carries every angle: the spread is a measurement
    assert 0.0 < entries[0]["measured"]["spread"] < 1e-3


def test_verify_rectangle_value_and_margin():
    entries = verify_rectangle(0.25, 2.0, 1e-9, level=4, grid_n=9)
    by_name = {e["name"]: e for e in entries}
    assert by_name["rectangle_min_value"]["passed"]
    assert by_name["rectangle_interior_margin"]["passed"]
    # the quarter-turn alignment is measurably non-optimal, so the claimed
    # two-element minimizer set is not observed
    assert not by_name["rectangle_axis_argmin_set"]["measured"]["both_endpoints_attained"]


def test_run_verification_deterministic():
    args = {**VERIFY_ARGS, "n_samples": 3, "n_pairs": 4, "seed": 9}
    rep1 = run_verification(SQUARE, 1e-9, **args)
    rep2 = run_verification(SQUARE, 1e-9, **args)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["n_entries"] == len(rep1["entries"])
