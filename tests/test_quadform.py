import math

import numpy as np
import pytest

from anisolap import (
    ClassTag,
    NegativeBetaError,
    NotPositiveDefiniteError,
    QuadForm,
    alpha_of_theta,
    classify,
    decompose,
    make_Q_alpha,
    normalize,
    quant_lower_constant,
    quant_upper_bound,
    random_member,
    reflect_y,
    spectral,
    theta_of_alpha,
)


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


def random_form(rng) -> QuadForm:
    alpha = rng.uniform(0.1, 3.0)
    gamma = rng.uniform(0.1, 3.0)
    beta = rng.uniform(0.0, 0.98) * math.sqrt(alpha * gamma)
    return QuadForm(alpha, beta, gamma)


# ---------------------------------------------------------------------- eval


def test_eval_euclidean():
    assert QuadForm(1, 0, 1).eval((3.0, 4.0)) == 25.0


def test_eval_axis():
    assert QuadForm(0.25, 0, 1).eval((1.0, 0.0)) == 0.25


def test_eval_hand_expansion():
    # 0.5 + 2*0.25 + 0.5
    assert QuadForm(0.5, 0.25, 0.5).eval((1.0, 1.0)) == pytest.approx(1.5, abs=1e-15)


def test_eval_vectorized():
    q = QuadForm(0.7, 0.1, 1.2)
    vs = unit_circle(13)
    out = q.eval(vs)
    assert out.shape == (13,)
    assert out[0] == pytest.approx(q.eval(vs[0]))


# -------------------------------------------------------------- construction


def test_constructor_rejects_negative_beta_distinctly():
    with pytest.raises(NegativeBetaError):
        QuadForm(1.0, -0.5, 2.0)


def test_constructor_rejects_nonpositive():
    for bad in ((0.0, 0.0, 1.0), (1.0, 0.0, -1.0), (1.0, 1.1, 1.0)):
        with pytest.raises(NotPositiveDefiniteError):
            QuadForm(*bad)


def test_reflect_y_admits_mirrored_form():
    q = reflect_y(1.0, -0.5, 2.0)
    assert (q.alpha, q.beta, q.gamma) == (1.0, 0.5, 2.0)
    s = spectral(q)
    # mirroring preserves the eigenvalues
    direct = spectral(QuadForm(1.0, 0.5, 2.0))
    assert s.mu_min == direct.mu_min and s.mu_max == direct.mu_max


def test_json_round_trip():
    q = QuadForm(0.5, 0.25, 0.75)
    assert QuadForm.from_dict(q.to_dict()) == q


# ------------------------------------------------------------------ spectral


def test_spectral_identity_tie_break():
    s = spectral(QuadForm(1, 0, 1))
    assert s.mu_min == 1.0 and s.mu_max == 1.0 and s.theta == 0.0


def test_spectral_analytic_2x2():
    # (alpha+gamma)/2 +- sqrt(((alpha-gamma)/2)^2 + beta^2)
    s = spectral(QuadForm(0.5, 0.25, 0.5))
    assert s.mu_min == pytest.approx(0.25, abs=1e-15)
    assert s.mu_max == pytest.approx(0.75, abs=1e-15)


def test_spectral_family_member_brute_force():
    q = make_Q_alpha(0.25, 0.5)
    s = spectral(q)
    assert s.mu_min == pytest.approx(0.25, abs=1e-12)
    assert s.mu_max == pytest.approx(1.0, abs=1e-12)
    vals = q.eval(unit_circle(10_000))
    # brute-force extrema over the unit circle as an independent oracle
    assert abs(vals.min() - s.mu_min) < 1e-6
    assert abs(vals.max() - s.mu_max) < 1e-6


def test_spectral_reconstruction_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(300):
        q = random_form(rng)
        r = spectral(q).form()
        scale = spectral(q).mu_max
        assert abs(r.alpha - q.alpha) <= 1e-12 * scale
        assert abs(r.beta - q.beta) <= 1e-12 * scale
        assert abs(r.gamma - q.gamma) <= 1e-12 * scale


def test_spectral_bounds_and_attainment():
    rng = np.random.default_rng(11)
    vs = np.asarray(rng.normal(size=(10_000, 2)))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    for _ in range(20):
        q = random_form(rng)
        s = spectral(q)
        vals = q.eval(vs)
        assert np.all(vals >= s.mu_min - 1e-10)
        assert np.all(vals <= s.mu_max + 1e-10)
        c, snt = math.cos(s.theta), math.sin(s.theta)
        assert q.eval((c, -snt)) == pytest.approx(s.mu_min, abs=1e-10)
        assert q.eval((snt, c)) == pytest.approx(s.mu_max, abs=1e-10)


# ----------------------------------------------------------------- normalize


def test_normalize_scalar_form():
    qn, scale = normalize(QuadForm(2, 0, 2))
    assert qn == QuadForm(1, 0, 1) and scale == 2.0


def test_normalize_diagonal():
    qn, scale = normalize(QuadForm(0.5, 0, 2))
    assert scale == pytest.approx(2.0, abs=1e-15)
    assert qn.alpha == pytest.approx(0.25) and qn.gamma == pytest.approx(1.0)


def test_normalize_idempotent_on_normalized():
    qa = QuadForm(0.25, 0, 1)
    qn, scale = normalize(qa)
    assert scale == pytest.approx(1.0, abs=1e-15)
    assert qn == qa


# ------------------------------------------------------------------ classify


def test_classify_examples():
    assert classify(QuadForm(0.25, 0, 1), 0.25) is ClassTag.IN_QA_EXACT
    assert classify(QuadForm(1, 0, 1), 0.25) is ClassTag.IN_QUPPER_A
    # 0.25 * 0.2 = 0.05 <= 0.1
    assert classify(QuadForm(0.1, 0, 0.2), 0.25) is ClassTag.IN_QNN_A
    assert classify(QuadForm(0.1, 0, 1), 0.25) is ClassTag.IN_Q0
    assert classify(QuadForm(0.1, 0, 2), 0.25) is ClassTag.NOT_NORMALIZED


def test_classify_rejects_bad_level():
    for a in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            classify(QuadForm(1, 0, 1), a)


def test_class_inclusions_on_random_members():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = random_member(0.25, rng)
        tag = classify(q, 0.25)
        assert tag in (ClassTag.IN_QA_EXACT, ClassTag.IN_QUPPER_A)
        # members of the level-a class are in particular non-normalized members
        assert classify(QuadForm(2 * q.alpha, 2 * q.beta, 2 * q.gamma), 0.25) in (
            ClassTag.IN_QNN_A,
            ClassTag.NOT_NORMALIZED,
        )


# -------------------------------------------------------------- family Q_alpha


def test_family_endpoints():
    assert make_Q_alpha(0.25, 0.25) == QuadForm(0.25, 0.0, 1.0)
    assert make_Q_alpha(0.25, 1.0) == QuadForm(1.0, 0.0, 0.25)


def test_family_midpoint_coefficients():
    q = make_Q_alpha(0.25, 0.5)
    assert q.beta == pytest.approx(math.sqrt(0.125), abs=1e-15)
    assert q.gamma == pytest.approx(0.75, abs=1e-15)
    s = spectral(q)
    assert (s.mu_min, s.mu_max) == (pytest.approx(0.25), pytest.approx(1.0))


def test_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_Q_alpha(0.25, 0.1)
    with pytest.raises(ValueError):
        make_Q_alpha(0.25, 1.2)
    with pytest.raises(ValueError):
        make_Q_alpha(1.0, 1.0)


def test_family_sweeps_exact_slice():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a = rng.uniform(0.05, 0.9)
        alpha = a + (1.0 - a) * rng.random()
        assert classify(make_Q_alpha(a, alpha), a) is ClassTag.IN_QA_EXACT


def test_exact_slice_members_match_family():
    # generate slice members independently, by rotating the diagonal form
    rng = np.random.default_rng(23)
    for _ in range(300):
        a = rng.uniform(0.05, 0.9)
        theta = rng.uniform(0.0, 0.5 * math.pi)
        member = rotated_diagonal(a, theta)
        rebuilt = make_Q_alpha(a, member.alpha)
        assert member.beta == pytest.approx(rebuilt.beta, abs=1e-12)
        assert member.gamma == pytest.approx(rebuilt.gamma, abs=1e-12)


def test_angle_index_maps_are_inverse():
    assert alpha_of_theta(0.25, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert alpha_of_theta(0.25, 0.5 * math.pi) == pytest.approx(1.0, abs=1e-15)
    assert alpha_of_theta(0.25, 0.25 * math.pi) == pytest.approx(0.625, abs=1e-15)
    rng = np.random.default_rng(31)
    for _ in range(200):
        a = rng.uniform(0.05, 0.9)
        theta = rng.uniform(0.0, 0.5 * math.pi)
        assert theta_of_alpha(a, alpha_of_theta(a, theta)) == pytest.approx(theta, abs=1e-12)
        alpha = a + (1.0 - a) * rng.random()
        assert alpha_of_theta(a, theta_of_alpha(a, alpha)) == pytest.approx(alpha, abs=1e-12)


def test_angle_maps_reject_out_of_range():
    with pytest.raises(ValueError):
        alpha_of_theta(0.25, -0.1)
    with pytest.raises(ValueError):
        alpha_of_theta(0.25, 2.0)
    with pytest.raises(ValueError):
        theta_of_alpha(0.25, 0.2)


def test_compose_rotation_matches_family():
    rng = np.random.default_rng(37)
    for _ in range(100):
        theta = rng.uniform(0.0, 0.5 * math.pi)
        rotated = rotated_diagonal(0.25, theta)
        rebuilt = make_Q_alpha(0.25, alpha_of_theta(0.25, theta))
        assert rotated.alpha == pytest.approx(rebuilt.alpha, abs=1e-12)
        assert rotated.beta == pytest.approx(rebuilt.beta, abs=1e-12)
        assert rotated.gamma == pytest.approx(rebuilt.gamma, abs=1e-12)


# --------------------------------------------------------------- decomposition


def test_decompose_exact_slice_member():
    q = make_Q_alpha(0.25, 0.7)
    dec = decompose(q, 0.25)
    assert dec.b == pytest.approx(0.25, abs=1e-12)
    assert dec.w_aniso == pytest.approx(1.0, abs=1e-12)
    assert dec.w_iso == pytest.approx(0.0, abs=1e-12)
    assert dec.alpha_param == pytest.approx(0.7, abs=1e-10)


def test_decompose_identity_degenerate():
    dec = decompose(QuadForm(1, 0, 1), 0.25)
    assert dec.b == 1.0
    assert dec.alpha_param is None
    assert dec.w_aniso == 0.0 and dec.w_iso == 1.0


def test_decompose_round_trip_random():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        a = rng.uniform(0.05, 0.8)
        b = rng.uniform(a, 0.99)
        alpha_bar = b + (1.0 - b) * rng.random()
        q = make_Q_alpha(b, alpha_bar)
        dec = decompose(q, a)
        assert dec.b == pytest.approx(b, abs=1e-12)
        part = make_Q_alpha(a, dec.alpha_param)
        assert dec.w_aniso * part.alpha + dec.w_iso == pytest.approx(q.alpha, abs=1e-12)
        assert dec.w_aniso * part.beta == pytest.approx(q.beta, abs=1e-12)
        assert dec.w_aniso * part.gamma + dec.w_iso == pytest.approx(q.gamma, abs=1e-12)
        # the difference q - part is positive semidefinite
        da, db_, dg = q.alpha - part.alpha, q.beta - part.beta, q.gamma - part.gamma
        assert da >= -1e-12 and dg >= -1e-12
        assert db_ * db_ - da * dg <= 1e-12


def test_decompose_rejects_low_coercivity():
    q = make_Q_alpha(0.1, 0.5)  # smallest eigenvalue 0.1 < 0.25
    with pytest.raises(ValueError):
        decompose(q, 0.25)


def test_decompose_rejects_non_normalized():
    with pytest.raises(ValueError):
        decompose(QuadForm(0.5, 0.0, 2.0), 0.25)


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
