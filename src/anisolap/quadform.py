"""Algebra of planar positive quadratic forms and their coercivity classes.

A form Q(x, y) = alpha*x**2 + 2*beta*x*y + gamma*y**2 is positive definite
when alpha, gamma > 0 and beta**2 < alpha*gamma; only beta >= 0 is admitted,
negative cross terms are mapped in by ``reflect_y``.  Forms are normalized so
the largest eigenvalue of [[alpha, beta], [beta, gamma]] is 1 and classified
by the size of the smallest eigenvalue (the coercivity level ``a``).

Everything here is exact closed-form algebra; floating point comparisons use
an absolute tolerance of 1e-12 after normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Membership comparisons after normalization (class boundaries are exact
# arithmetic conditions; 1e-12 separates modeling error from discretization
# error elsewhere).
CLASS_ATOL = 1e-12

# Agreement required between the two independent routes that recover the
# anisotropic index of a decomposition.
ROUTE_CHECK_ATOL = 1e-10

# Upper end of the levels ``random_member`` draws: it keeps the samples away
# from the ill-conditioned identity endpoint.
_B_MAX = 0.995


class NegativeBetaError(ValueError):
    """Cross coefficient is negative; conjugate with ``reflect_y`` first."""


class NotPositiveDefiniteError(ValueError):
    """Coefficients do not define a positive definite quadratic form."""


@dataclass(frozen=True)
class QuadForm:
    """Positive quadratic form ``alpha*x^2 + 2*beta*x*y + gamma*y^2``.

    ``beta`` is stored unhalved: it multiplies the mixed term ``2*x*y``.
    Instances are immutable and safe to share across workers.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(g)):
            raise NotPositiveDefiniteError("coefficients must be finite")
        if b < 0.0:
            raise NegativeBetaError(
                "beta must be nonnegative; apply reflect_y to conjugate the form"
            )
        if a <= 0.0 or g <= 0.0 or b * b >= a * g:
            raise NotPositiveDefiniteError(
                f"({a}, {b}, {g}) is not positive definite: need alpha, gamma > 0 "
                "and beta^2 < alpha*gamma"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    @classmethod
    def identity(cls) -> "QuadForm":
        return cls(1.0, 0.0, 1.0)

    def eval(self, v) -> float | np.ndarray:
        """Evaluate the form on a vector ``(x, y)`` or an ``(n, 2)`` array."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        out = self.alpha * x * x + 2.0 * self.beta * x * y + self.gamma * y * y
        return float(out) if out.ndim == 0 else out

    def matrix(self) -> np.ndarray:
        """Symmetric 2x2 matrix representation."""
        return np.array([[self.alpha, self.beta], [self.beta, self.gamma]])

    def is_identity(self, atol: float = CLASS_ATOL) -> bool:
        return (
            abs(self.alpha - 1.0) <= atol
            and abs(self.beta) <= atol
            and abs(self.gamma - 1.0) <= atol
        )

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, data: dict) -> "QuadForm":
        return cls(float(data["alpha"]), float(data["beta"]), float(data["gamma"]))


def reflect_y(alpha: float, beta: float, gamma: float) -> QuadForm:
    """Conjugate raw coefficients by the reflection ``y -> -y``.

    Maps a form with a negative cross coefficient to its mirror image, which
    has the same eigenvalues and the same fundamental frequency on any
    y-symmetric domain.
    """
    return QuadForm(alpha, -beta, gamma)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of a form and the rotation angle that diagonalizes it.

    ``theta`` is the angle in [0, pi/2] for which composing the form with the
    rotation R_theta = [[c, s], [-s, c]] yields diag(mu_min, mu_max).
    Isotropic forms get the deterministic tie-break theta = 0.
    """

    mu_min: float
    mu_max: float
    theta: float

    def form(self) -> QuadForm:
        """Reconstruct the quadratic form from (mu_min, mu_max, theta)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        m1, m2 = self.mu_min, self.mu_max
        return QuadForm(
            c * c * m1 + s * s * m2,
            c * s * (m2 - m1),
            s * s * m1 + c * c * m2,
        )


class ClassTag(Enum):
    """Most specific class a form belongs to at level ``a``."""

    IN_QA_EXACT = "InQa_exact"      # normalized, smallest eigenvalue == a
    IN_QUPPER_A = "InQupper_a"      # normalized, smallest eigenvalue >= a
    IN_QNN_A = "InQnn_a"            # non-normalized but a*mu_max <= mu_min
    IN_Q0 = "InQ0"                  # normalized only (coercivity below a)
    NOT_NORMALIZED = "NotNormalized"


@dataclass(frozen=True)
class Decomposition:
    """Split of a normalized form into an extremal form plus an isotropic part.

    ``w_aniso * Q_alpha + w_iso * |.|^2`` reconstructs the input exactly,
    with ``b`` the smallest eigenvalue of the input.  ``alpha_param`` is None
    on the degenerate branch ``b == 1`` (the input is the identity form and
    every extremal index is equally valid).
    """

    b: float
    alpha_param: float | None
    w_aniso: float
    w_iso: float


def spectral(q: QuadForm) -> SpectralData:
    """Eigenvalues and diagonalizing angle of the form's symmetric matrix."""
    mid = 0.5 * (q.alpha + q.gamma)
    r = math.hypot(0.5 * (q.alpha - q.gamma), q.beta)
    # atan2(0, 0) = 0 gives the theta = 0 tie-break for isotropic forms.
    theta = 0.5 * math.atan2(2.0 * q.beta, q.gamma - q.alpha)
    return SpectralData(mid - r, mid + r, theta)


def normalize(q: QuadForm) -> tuple[QuadForm, float]:
    """Scale a form so its largest eigenvalue is 1; returns (form, scale)."""
    s = spectral(q)
    scale = s.mu_max
    return QuadForm(q.alpha / scale, q.beta / scale, q.gamma / scale), scale


def _check_level_open(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise ValueError(f"coercivity level a must lie in (0, 1), got {a}")


def classify(q: QuadForm, a: float) -> ClassTag:
    """Most specific class membership of ``q`` at coercivity level ``a``."""
    if not 0.0 < a <= 1.0:
        raise ValueError(f"coercivity level a must lie in (0, 1], got {a}")
    s = spectral(q)
    if abs(s.mu_max - 1.0) <= CLASS_ATOL:
        if abs(s.mu_min - a) <= CLASS_ATOL:
            return ClassTag.IN_QA_EXACT
        if s.mu_min >= a - CLASS_ATOL:
            return ClassTag.IN_QUPPER_A
        return ClassTag.IN_Q0
    if s.mu_min / s.mu_max >= a - CLASS_ATOL:
        return ClassTag.IN_QNN_A
    return ClassTag.NOT_NORMALIZED


def make_Q_alpha(a: float, alpha: float) -> QuadForm:
    """The extremal family member with leading coefficient ``alpha``.

    Coefficients are beta(alpha) = sqrt((1 - alpha)(alpha - a)) and
    gamma(alpha) = 1 + a - alpha; the result has eigenvalues (a, 1) for every
    alpha in [a, 1].
    """
    _check_level_open(a)
    if alpha < a - 1e-15 or alpha > 1.0 + 1e-15:
        raise ValueError(f"alpha must lie in [{a}, 1], got {alpha}")
    alpha = min(max(alpha, a), 1.0)
    beta = math.sqrt(max((1.0 - alpha) * (alpha - a), 0.0))
    return QuadForm(alpha, beta, 1.0 + a - alpha)


def alpha_of_theta(a: float, theta: float) -> float:
    """Extremal index swept by the rotation angle: ``1 - (1 - a) cos^2(theta)``."""
    _check_level_open(a)
    if theta < -1e-12 or theta > 0.5 * math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    c = math.cos(min(max(theta, 0.0), 0.5 * math.pi))
    return 1.0 - (1.0 - a) * c * c


def theta_of_alpha(a: float, alpha: float) -> float:
    """Inverse of ``alpha_of_theta`` on [a, 1] -> [0, pi/2]."""
    _check_level_open(a)
    if alpha < a - 1e-15 or alpha > 1.0 + 1e-15:
        raise ValueError(f"alpha must lie in [{a}, 1], got {alpha}")
    ratio = (1.0 - min(max(alpha, a), 1.0)) / (1.0 - a)
    return math.acos(math.sqrt(min(max(ratio, 0.0), 1.0)))


def decompose(q: QuadForm, a: float) -> Decomposition:
    """Write a normalized form as a convex-like combination of an extremal
    family member at level ``a`` and the isotropic form.

    Requires the form to be normalized with smallest eigenvalue at least
    ``a``.  The extremal index is recovered from the diagonalizing angle and
    cross-validated against the affine reparametrization of the leading
    coefficient; disagreement beyond 1e-10 is an internal-consistency error.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"coercivity level a must lie in (0, 1], got {a}")
    s = spectral(q)
    if abs(s.mu_max - 1.0) > CLASS_ATOL:
        raise ValueError("form must be normalized (largest eigenvalue 1)")
    if s.mu_min < a - CLASS_ATOL:
        raise ValueError(
            f"form has coercivity {s.mu_min}, below the requested level {a}"
        )
    b = min(max(s.mu_min, a), 1.0)

    if b >= 1.0 - CLASS_ATOL:
        # Degenerate endpoint: the form is the identity and the extremal index
        # is undefined (the defining relation divides by 1 - b).
        if not q.is_identity(10.0 * CLASS_ATOL):
            raise RuntimeError("internal inconsistency: b = 1 but form != identity")
        return Decomposition(b=1.0, alpha_param=None, w_aniso=0.0, w_iso=1.0)

    alpha_from_theta = alpha_of_theta(a, s.theta)
    alpha_affine = (1.0 - a) / (1.0 - b) * q.alpha + (a - b) / (1.0 - b)
    if abs(alpha_from_theta - alpha_affine) > ROUTE_CHECK_ATOL:
        raise RuntimeError(
            "internal inconsistency: extremal index routes disagree "
            f"({alpha_from_theta} vs {alpha_affine})"
        )
    return Decomposition(
        b=b,
        alpha_param=alpha_from_theta,
        w_aniso=(1.0 - b) / (1.0 - a),
        w_iso=(b - a) / (1.0 - a),
    )


def quant_upper_bound(a: float, b: float, p: float) -> float:
    """Closed-form upper bound on the relative growth of the optimal lower
    constant when the coercivity level rises from ``a`` to ``b``.

    Equals ``p * sqrt(b^(p-1) (b - a) / (a^p (1 - a)))``; zero iff b == a.
    """
    if not 0.0 < a <= b < 1.0:
        raise ValueError(f"need 0 < a <= b < 1, got a={a}, b={b}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    return p * math.sqrt(b ** (p - 1.0) * (b - a) / (a ** p * (1.0 - a)))


def quant_lower_constant(a: float, b: float, p: float, c0: float, lam1p: float) -> float:
    """Constant in the lower bound on the growth of the optimal lower constant.

    Piecewise in p: ``p a^{(p-2)/2} c0 / 2`` for p >= 2 and
    ``p b^{(2-p)/2} lam1p^{(p-2)/2} c0^{2/p} / 2`` for 1 < p < 2, where ``c0``
    is the directional constant of the domain and ``lam1p`` its isotropic
    fundamental frequency.  For a domain whose longest chord along the
    direction is l, c0 is the one-dimensional p-eigenvalue of an interval of
    length l, (p - 1) (pi_p / l)^p with pi_p = 2 pi / (p sin(pi / p))
    (``solver.directional_constant``).
    """
    if not 0.0 < a <= b < 1.0:
        raise ValueError(f"need 0 < a <= b < 1, got a={a}, b={b}")
    if p <= 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if c0 <= 0.0:
        raise ValueError(f"directional constant must be positive, got {c0}")
    if lam1p <= 0.0:
        raise ValueError(f"fundamental frequency must be positive, got {lam1p}")
    if p >= 2.0:
        return 0.5 * p * a ** (0.5 * (p - 2.0)) * c0
    return 0.5 * p * b ** (0.5 * (2.0 - p)) * lam1p ** (0.5 * (p - 2.0)) * c0 ** (2.0 / p)


def random_member(a: float, rng: np.random.Generator) -> QuadForm:
    """Random normalized form with coercivity at least ``a``, never the identity.

    Samples a level b in [a, _B_MAX) and a uniform extremal index at that
    level.
    """
    _check_level_open(a)
    b = a + (_B_MAX - a) * rng.random()
    alpha_bar = b + (1.0 - b) * rng.random()
    return make_Q_alpha(b, alpha_bar)
