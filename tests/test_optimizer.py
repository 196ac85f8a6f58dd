import json
import math

import numpy as np
import pytest

from anisolap import (
    ClassTag,
    Disk,
    OptimizeResult,
    QuadForm,
    Rectangle,
    SolverOptions,
    alpha_of_theta,
    build_mesh,
    classify,
    lambda_max,
    lambda_min,
    lshape,
    normalize,
    random_member,
    run_verification,
    solve_p,
    spectral,
    theta_of_alpha,
    verify_Q0_limit,
    verify_disk,
    verify_quantitative,
    verify_rectangle,
    verify_rigidity,
)
from anisolap import optimizer
from anisolap.optimizer import _directional_floor

PI2_HALF = math.pi**2 / 2.0
SQUARE = Rectangle(1.0, 1.0)


def test_lambda_max_returns_isotropic_value():
    lam, form = lambda_max(SQUARE, 0.25, 2.0, level=4)
    ref = solve_p(build_mesh(SQUARE, 4), QuadForm.identity(), 2.0).lam
    assert form == QuadForm.identity()
    assert lam == pytest.approx(ref, rel=1e-9)


def test_lambda_max_rejects_bad_level():
    with pytest.raises(ValueError):
        lambda_max(SQUARE, 1.0, 2.0)


def test_lambda_min_square_invariants():
    a = 0.25
    res = lambda_min(SQUARE, a, 2.0, grid_n=9, level=4)
    assert res.lambda_min <= res.lambda_max + 1e-9
    iso = res.lambda_max
    assert res.lambda_min >= a * iso - 10 * res.residual - 1e-9
    assert classify(res.extremizer, a) is ClassTag.IN_QA_EXACT
    assert res.alpha_star == pytest.approx(alpha_of_theta(a, res.theta_star), abs=1e-10)
    assert res.theta_star == pytest.approx(theta_of_alpha(a, res.alpha_star), abs=1e-10)
    # profile stored at grid resolution
    assert len(res.theta_profile) == 9
    assert res.theta_profile[0][0] == 0.0
    assert res.theta_profile[-1][0] == pytest.approx(math.pi / 2)


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


def test_lambda_min_disk_flat_profile():
    res = lambda_min(Disk(1.0), 0.25, 2.0, grid_n=9, level=3, n_boundary=24)
    assert res.flat_disk_flag
    assert res.multiple_minima
    vals = np.array([v for _, v in res.theta_profile])
    assert (vals.max() - vals.min()) / vals.mean() < 1e-2
    assert len(res.tied_minima) == 9


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
        _, qmax = normalize(scaled)
        lam = solve_p(mesh, scaled, 2.0).lam
        slack = 1e-6 * lam + 10 * res.residual
        assert res.lambda_min * qmax - slack <= lam <= res.lambda_max * qmax + slack


def test_optimize_result_serializable():
    res = lambda_min(SQUARE, 0.25, 2.0, grid_n=9, level=3)
    payload = json.dumps(res.to_dict())
    assert "lambda_min" in payload


# ---------------------------------------------------------------- suites


def test_verify_rigidity_entries():
    entries = verify_rigidity(SQUARE, 0.25, 2.0, n_samples=5, level=3, n_pairs=6, seed=1)
    names = [e["name"] for e in entries]
    assert names == ["isotropic_maximizer_strict", "monotone_form_ordering"]
    for e in entries:
        assert e["passed"], e
        assert "mesh_level" in e and "solver_residual" in e


@pytest.fixture(scope="module")
def square_optima():
    """The optima and directional floors that ``run_verification`` judges,
    on the square at level 3."""
    opts = SolverOptions()
    optima = {
        a: lambda_min(SQUARE, a, 2.0, 9, opts, level=3, theta_tol=1e-3) for a in (0.5, 0.25)
    }
    floors = {
        axis: _directional_floor(SQUARE, 2.0, axis, 9, opts, level=3, n_boundary=32)
        for axis in ("x", "y")
    }
    return optima, floors


def optimum(a: float, value: float, p: float = 2.0) -> OptimizeResult:
    """A synthetic optimum for judging, no solver involved."""
    return OptimizeResult(
        lambda_min=value,
        lambda_max=5.0,
        theta_star=0.0,
        alpha_star=alpha_of_theta(a, 0.0),
        extremizer=QuadForm(a, 0.0, 1.0),
        theta_profile=[],
        flat_disk_flag=False,
        a=a,
        p=p,
        mesh_level=3,
        residual=1e-9,
    )


def test_verify_quantitative_entries(square_optima):
    optima, floors = square_optima
    entries = verify_quantitative(optima[0.25], optima[0.5], floors["x"])
    by_name = {e["name"]: e for e in entries}
    assert by_name["upper_ratio_bound"]["passed"]
    assert by_name["lower_difference_bound"]["passed"]
    assert by_name["lower_constant_monotone_in_level"]["passed"]
    measured = by_name["upper_ratio_bound"]["measured"]
    assert measured["measured"] <= measured["bound"]


def test_verify_quantitative_equal_levels_degenerate(square_optima):
    optima, _ = square_optima
    entries = verify_quantitative(optima[0.25], optima[0.25], math.nan)
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
    optima, floors = square_optima
    entries = verify_Q0_limit([optima[0.5], optima[0.25]], floors["y"])
    assert all(e["passed"] for e in entries)
    vals = entries[0]["measured"]["values"]
    assert vals[0] >= vals[1]


def test_verify_relaxation_fails_on_increase():
    entries = verify_Q0_limit([optimum(0.5, 2.0), optimum(0.25, 2.1)], 1.0)
    by_name = {e["name"]: e for e in entries}
    assert not by_name["lower_constant_nonincreasing_in_relaxation"]["passed"]
    assert by_name["lower_constant_positive_floor"]["passed"]
    with pytest.raises(ValueError):
        verify_Q0_limit([optimum(0.25, 2.0), optimum(0.5, 2.1)], 1.0)


def test_verify_relaxation_floor_has_two_percent_slack():
    results = [optimum(0.5, 2.0), optimum(0.25, 1.97)]
    floor = verify_Q0_limit(results, 2.0)[1]
    assert floor["name"] == "lower_constant_positive_floor" and floor["passed"]
    assert not verify_Q0_limit(results, 2.02)[1]["passed"]  # 1.97 < 0.98 * 2.02


def test_run_verification_shares_optima(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return lambda_min(*args, **kwargs)

    monkeypatch.setattr(optimizer, "lambda_min", counting)
    report = run_verification(
        {"level": 2, "p_list": [2.0, 3.0], "suites": ["quantitative", "relaxation"]}
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


def test_verify_disk_entries():
    entries = verify_disk(0.25, 2.0, level=3, n_boundary=24, grid_n=9)
    assert all(e["passed"] for e in entries)


def test_verify_rectangle_value_and_margin():
    entries = verify_rectangle(0.25, 2.0, level=4, grid_n=9)
    by_name = {e["name"]: e for e in entries}
    assert by_name["rectangle_min_value"]["passed"]
    assert by_name["rectangle_interior_margin"]["passed"]
    # the quarter-turn alignment is measurably non-optimal, so the claimed
    # two-element minimizer set is not observed
    assert not by_name["rectangle_axis_argmin_set"]["measured"]["both_endpoints_attained"]


def test_run_verification_deterministic():
    cfg = {"level": 3, "grid_n": 9, "n_samples": 3, "n_pairs": 4, "seed": 9}
    rep1 = run_verification(cfg)
    rep2 = run_verification(cfg)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["n_entries"] == len(rep1["entries"])
