import math

import numpy as np
import pytest

from anisolap import (
    NotPositiveDefiniteError,
    QuadForm,
    extremal_form,
    quant_lower_constant,
    quant_upper_bound,
    random_member,
    spectral,
)
from anisolap.quadform import _member


def rotated_diagonal(a: float, theta: float) -> QuadForm:
    """The form v -> a x^2 + y^2 of R v, R the counterclockwise rotation by
    theta: R^T diag(a, 1) R, built with numpy, independently of the family."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    m = rot.T @ np.diag([a, 1.0]) @ rot
    return QuadForm(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])


def unit_circle(n: int) -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([np.cos(phi), np.sin(phi)])


def evaluate(q: QuadForm, v) -> float | np.ndarray:
    """Q(v) = v^T M v from the form's matrix M, for one vector or an (n, 2) array."""
    v = np.asarray(v, dtype=float)
    out = np.einsum("...i,ij,...j->...", v, q.matrix(), v)
    return float(out) if out.ndim == 0 else out


def extremal_part(q: QuadForm, a: float) -> QuadForm:
    """The member of the level-a family at the form's own diagonalizing angle:
    the dominated part that ``verify_rigidity`` compares ``q`` with."""
    return extremal_form(a, spectral(q).theta)


def is_psd(m: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.linalg.eigvalsh(m)[0] >= -atol)


def random_form(rng) -> QuadForm:
    alpha = rng.uniform(0.1, 3.0)
    gamma = rng.uniform(0.1, 3.0)
    beta = rng.uniform(0.0, 0.98) * math.sqrt(alpha * gamma)
    return QuadForm(alpha, beta, gamma)


# ---------------------------------------------------------------------- eval


def test_eval_euclidean():
    assert evaluate(QuadForm(1, 0, 1), (3.0, 4.0)) == 25.0


def test_eval_axis():
    assert evaluate(QuadForm(0.25, 0, 1), (1.0, 0.0)) == 0.25


def test_eval_hand_expansion():
    # 0.5 + 2*0.25 + 0.5: the matrix holds beta unhalved off the diagonal
    assert evaluate(QuadForm(0.5, 0.25, 0.5), (1.0, 1.0)) == pytest.approx(1.5, abs=1e-15)


def test_eval_vectorized():
    q = QuadForm(0.7, 0.1, 1.2)
    vs = unit_circle(13)
    out = evaluate(q, vs)
    assert out.shape == (13,)
    x, y = vs.T
    np.testing.assert_allclose(out, 0.7 * x * x + 0.2 * x * y + 1.2 * y * y, rtol=0, atol=1e-15)


# -------------------------------------------------------------- construction


def test_constructor_admits_negative_beta():
    q = QuadForm(1.0, -0.5, 2.0)
    assert (q.alpha, q.beta, q.gamma) == (1.0, -0.5, 2.0)


def test_constructor_rejects_nonpositive():
    for bad in ((0.0, 0.0, 1.0), (1.0, 0.0, -1.0), (1.0, 1.1, 1.0), (1.0, -1.1, 1.0)):
        with pytest.raises(NotPositiveDefiniteError):
            QuadForm(*bad)


def test_json_round_trip():
    q = QuadForm(0.5, 0.25, 0.75)
    assert QuadForm.from_dict(q.to_dict()) == q


@pytest.mark.parametrize("coefficient", ["1", True, 10**400], ids=["string", "boolean", "huge"])
def test_from_dict_rejects_strings_and_booleans(coefficient):
    # float() would read a string or a boolean, and overflow on the integer;
    # a JSON form holding any of them is mistyped
    with pytest.raises(TypeError, match="alpha must be a number"):
        QuadForm.from_dict({"alpha": coefficient, "beta": 0.0, "gamma": 2.0})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown form key gama"):
        QuadForm.from_dict({"alpha": 1.0, "beta": 0.0, "gamma": 2.0, "gama": 3.0})


# ------------------------------------------------------------------ spectral


def test_spectral_identity_tie_break():
    s = spectral(QuadForm(1, 0, 1))
    assert s.mu_min == 1.0 and s.mu_max == 1.0 and s.theta == 0.0


def test_spectral_analytic_2x2():
    # (alpha+gamma)/2 +- sqrt(((alpha-gamma)/2)^2 + beta^2)
    s = spectral(QuadForm(0.5, 0.25, 0.5))
    assert s.mu_min == pytest.approx(0.25, abs=1e-15)
    assert s.mu_max == pytest.approx(0.75, abs=1e-15)


def test_spectral_negative_beta():
    # the conjugate by y -> -y of a form with beta > 0: the same eigenvalues,
    # and the opposite diagonalizing angle, in (-pi/2, 0)
    q = QuadForm(1.0, -0.5, 2.0)
    s = spectral(q)
    assert -0.5 * math.pi < s.theta < 0.0
    assert s.theta == -spectral(QuadForm(1.0, 0.5, 2.0)).theta
    mu = np.linalg.eigvalsh(q.matrix())
    assert s.mu_min == pytest.approx(mu[0], abs=1e-15)
    assert s.mu_max == pytest.approx(mu[1], abs=1e-15)
    c, sn = math.cos(s.theta), math.sin(s.theta)
    rot = np.array([[c, sn], [-sn, c]])
    rebuilt = rot @ np.diag([s.mu_min, s.mu_max]) @ rot.T
    np.testing.assert_allclose(rebuilt, q.matrix(), rtol=0, atol=1e-15)


def test_spectral_range_ends():
    # beta = 0 with gamma < alpha is the end pi/2 of the range, whatever the
    # sign of the zero
    for beta in (0.0, -0.0):
        assert spectral(QuadForm(2.0, beta, 1.0)).theta == 0.5 * math.pi


def test_spectral_family_member_brute_force():
    q = _member(0.25, 0.5)
    s = spectral(q)
    assert s.mu_min == pytest.approx(0.25, abs=1e-12)
    assert s.mu_max == pytest.approx(1.0, abs=1e-12)
    vals = evaluate(q, unit_circle(10_000))
    # brute-force extrema over the unit circle as an independent oracle
    assert abs(vals.min() - s.mu_min) < 1e-6
    assert abs(vals.max() - s.mu_max) < 1e-6


def test_spectral_reconstruction_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        q = random_form(rng)
        s = spectral(q)
        c, sn = math.cos(s.theta), math.sin(s.theta)
        # composing with R_theta gives the diagonal form: R^T Q R = diag
        rot = np.array([[c, sn], [-sn, c]])
        rebuilt = rot @ np.diag([s.mu_min, s.mu_max]) @ rot.T
        np.testing.assert_allclose(rebuilt, q.matrix(), rtol=0, atol=1e-12 * s.mu_max)


def test_spectral_bounds_and_attainment():
    rng = np.random.default_rng(11)
    vs = np.asarray(rng.normal(size=(10_000, 2)))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    for _ in range(20):
        q = random_form(rng)
        s = spectral(q)
        vals = evaluate(q, vs)
        assert np.all(vals >= s.mu_min - 1e-10)
        assert np.all(vals <= s.mu_max + 1e-10)
        c, snt = math.cos(s.theta), math.sin(s.theta)
        assert evaluate(q, (c, -snt)) == pytest.approx(s.mu_min, abs=1e-10)
        assert evaluate(q, (snt, c)) == pytest.approx(s.mu_max, abs=1e-10)


def test_class_inclusions_on_random_members():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = random_member(0.25, rng)
        s = spectral(q)
        assert s.mu_max == pytest.approx(1.0, abs=1e-12)
        assert s.mu_min >= 0.25 - 1e-12
        # scaling keeps the coercivity ratio, not the normalization
        doubled = spectral(QuadForm(2 * q.alpha, 2 * q.beta, 2 * q.gamma))
        assert doubled.mu_max == pytest.approx(2.0, abs=1e-12)
        assert doubled.mu_min / doubled.mu_max >= 0.25 - 1e-12


def test_random_member_stays_in_class_near_one():
    # levels above the sampler's upper end 0.995 still give members of the class
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = spectral(random_member(0.999, rng))
        assert s.mu_min >= 0.999 - 1e-12
        assert s.mu_max == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- family Q_alpha


def test_family_endpoints():
    assert extremal_form(0.25, 0.0) == QuadForm(0.25, 0.0, 1.0)
    assert extremal_form(0.25, 0.5 * math.pi) == QuadForm(1.0, 0.0, 0.25)
    # the clamp keeps alpha in [a, 1] where 1 - (1 - a) rounds below a
    assert 1.0 - (1.0 - 0.1) < 0.1
    assert extremal_form(0.1, 0.0) == QuadForm(0.1, 0.0, 1.0)


def test_family_identity_at_level_one():
    for theta in np.linspace(0.0, 0.5 * math.pi, 7):
        assert extremal_form(1.0, float(theta)) == QuadForm.identity()


def test_family_midpoint_coefficients():
    q = _member(0.25, 0.5)
    assert q.beta == pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert q.gamma == pytest.approx(0.75, abs=1e-15)
    s = spectral(q)
    assert (s.mu_min, s.mu_max) == (pytest.approx(0.25), pytest.approx(1.0))


def test_family_rejects_out_of_range():
    for a in (0.0, -0.25, 1.5, math.nan):
        with pytest.raises(ValueError, match="coercivity level"):
            extremal_form(a, 0.5)


def test_family_sweeps_exact_slice():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = rng.uniform(0.05, 0.9)
        s = spectral(extremal_form(a, rng.uniform(0.0, 0.5 * math.pi)))
        assert s.mu_min == pytest.approx(a, abs=1e-12)
        assert s.mu_max == pytest.approx(1.0, abs=1e-12)


def test_exact_slice_members_match_family():
    # generate slice members independently, by rotating the diagonal form
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = rng.uniform(0.05, 0.9)
        theta = rng.uniform(0.0, 0.5 * math.pi)
        member = rotated_diagonal(a, theta)
        rebuilt = _member(a, member.alpha)
        assert member.beta == pytest.approx(rebuilt.beta, abs=1e-12)
        assert member.gamma == pytest.approx(rebuilt.gamma, abs=1e-12)


def test_angle_index_maps_are_inverse():
    assert extremal_form(0.25, 0.25 * math.pi).alpha == pytest.approx(0.625, abs=1e-15)
    rng = np.random.default_rng(31)
    for _ in range(200):
        # the diagonalizing angle of the form at theta is theta
        a = rng.uniform(0.05, 0.9)
        theta = rng.uniform(0.0, 0.5 * math.pi)
        assert spectral(extremal_form(a, theta)).theta == pytest.approx(theta, abs=1e-12)
        alpha = a + (1.0 - a) * rng.random()
        q = extremal_form(a, spectral(_member(a, alpha)).theta)
        assert q.alpha == pytest.approx(alpha, abs=1e-12)


def test_angle_maps_reject_out_of_range():
    with pytest.raises(ValueError, match="theta"):
        extremal_form(0.25, -0.1)
    with pytest.raises(ValueError, match="theta"):
        extremal_form(0.25, 2.0)


def test_compose_rotation_matches_family():
    rng = np.random.default_rng(37)
    for _ in range(100):
        theta = rng.uniform(0.0, 0.5 * math.pi)
        rotated = rotated_diagonal(0.25, theta)
        rebuilt = extremal_form(0.25, theta)
        assert rotated.alpha == pytest.approx(rebuilt.alpha, abs=1e-12)
        assert rotated.beta == pytest.approx(rebuilt.beta, abs=1e-12)
        assert rotated.gamma == pytest.approx(rebuilt.gamma, abs=1e-12)


# --------------------------------------------------------------- decomposition


def test_decompose_exact_slice_member():
    # a member of the level-a family is its own extremal part
    q = _member(0.25, 0.7)
    part = extremal_part(q, 0.25)
    assert part.alpha == pytest.approx(0.7, abs=1e-10)
    np.testing.assert_allclose(part.matrix(), q.matrix(), rtol=0, atol=1e-10)


def test_decompose_identity_degenerate():
    # the isotropic form has the tie-break angle 0, so its part is diag(a, 1),
    # which it dominates
    part = extremal_part(QuadForm.identity(), 0.25)
    assert part == QuadForm(0.25, 0.0, 1.0)
    assert is_psd(QuadForm.identity().matrix() - part.matrix())


def test_decompose_round_trip_random():
    # q = w Q_alpha + (1 - w) I at level a, with w = (1 - b)/(1 - a): the angle
    # route to the extremal index agrees with the affine route through the
    # leading coefficient, and q dominates the part pointwise
    rng = np.random.default_rng(41)
    for _ in range(1000):
        a = rng.uniform(0.05, 0.8)
        b = rng.uniform(a, 0.99)
        alpha_bar = b + (1.0 - b) * rng.random()
        q = _member(b, alpha_bar)
        part = extremal_part(q, a)
        affine = 1.0 - (1.0 - a) * (1.0 - alpha_bar) / (1.0 - b)
        assert part.alpha == pytest.approx(affine, abs=1e-10)
        w = (1.0 - b) / (1.0 - a)
        np.testing.assert_allclose(
            w * part.matrix() + (1.0 - w) * np.eye(2), q.matrix(), rtol=0, atol=1e-12
        )
        assert is_psd(q.matrix() - part.matrix())


def test_decompose_rejects_low_coercivity():
    # below the level the ordering fails: q does not dominate its part
    q = _member(0.1, 0.5)  # smallest eigenvalue 0.1 < 0.25
    assert not is_psd(q.matrix() - extremal_part(q, 0.25).matrix())


# ------------------------------------------------------- quantitative constants


def test_upper_bound_zero_iff_equal_levels():
    assert quant_upper_bound(0.25, 0.25, 2.0) == 0.0
    assert quant_upper_bound(0.5, 0.5, 3.0) == 0.0


def test_upper_bound_formula_value():
    # 2 * sqrt(0.5 * 0.25 / (0.25^2 * 0.75))
    assert quant_upper_bound(0.25, 0.5, 2.0) == pytest.approx(3.2659863237109037, abs=1e-12)


def test_upper_bound_strictly_increasing_in_b():
    prev = 0.0
    for b in np.linspace(0.25, 0.95, 20):
        val = quant_upper_bound(0.25, float(b), 2.5)
        assert val >= prev
        if b > 0.25:
            assert val > prev
        prev = val


def test_upper_bound_rejects_bad_ranges():
    for args in ((0.5, 0.25, 2.0), (0.0, 0.5, 2.0), (0.25, 1.0, 2.0), (0.25, 0.5, 1.0)):
        with pytest.raises(ValueError):
            quant_upper_bound(*args)


def test_lower_constant_p2_reduces_to_c0():
    assert quant_lower_constant(0.25, 0.5, 2.0, 1.7, 9.0) == pytest.approx(1.7, abs=1e-15)


def test_lower_constant_p4_value():
    # p * a^((p-2)/2) / 2 = 4 * 0.25 / 2 = 0.5
    assert quant_lower_constant(0.25, 0.5, 4.0, 2.0, 9.0) == pytest.approx(1.0, abs=1e-15)


def test_lower_constant_subquadratic_value():
    # 0.75 * 0.25^0.25 with unit c0 and frequency
    expected = 0.75 * 0.25 ** 0.25
    assert quant_lower_constant(0.25, 0.25, 1.5, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5303300858899106, abs=1e-12)


def test_lower_constant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quant_lower_constant(0.25, 0.5, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        quant_lower_constant(0.25, 0.5, 2.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        quant_lower_constant(0.5, 0.25, 2.0, 1.0, 1.0)
