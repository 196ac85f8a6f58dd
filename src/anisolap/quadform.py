"""Planar positive quadratic forms and the extremal family at a coercivity level.

A form Q(x, y) = alpha*x**2 + 2*beta*x*y + gamma*y**2 is positive definite
when alpha, gamma > 0 and beta**2 < alpha*gamma; every such form is admitted,
whatever the sign of beta.  The extremal family at level ``a`` is
Q_theta = R_theta^T diag(a, 1) R_theta, the forms with eigenvalues (a, 1),
built by ``extremal_form(a, theta)`` for theta in [0, pi/2], the angles that
give beta >= 0.  ``spectral`` gives the eigenvalues and diagonalizing angle
of any form, and ``random_member`` draws forms with largest eigenvalue 1 and
smallest at least ``a``.

Everything here is exact closed-form algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import read_number

# Upper end of the levels ``random_member`` draws: it keeps the samples away
# from the ill-conditioned identity endpoint.
_B_MAX = 0.995


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

    def matrix(self) -> np.ndarray:
        """Symmetric 2x2 matrix representation."""
        return np.array([[self.alpha, self.beta], [self.beta, self.gamma]])

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, data: dict) -> "QuadForm":
        """The form of a JSON object; its coefficients must be numbers, and it
        holds no other key."""
        unknown = [str(key) for key in data if key not in ("alpha", "beta", "gamma")]
        if unknown:
            raise ValueError("unknown form key " + ", ".join(unknown))
        return cls(*(read_number(data[key], key) for key in ("alpha", "beta", "gamma")))


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of a form and the rotation angle that diagonalizes it.

    ``theta`` is the angle in (-pi/2, pi/2] for which composing the form with
    the rotation R_theta = [[c, s], [-s, c]] yields diag(mu_min, mu_max).  It
    is negative exactly when beta is.  Isotropic forms get the deterministic
    tie-break theta = 0.
    """

    mu_min: float
    mu_max: float
    theta: float


def spectral(q: QuadForm) -> SpectralData:
    """Eigenvalues and diagonalizing angle of the form's symmetric matrix."""
    mid = 0.5 * (q.alpha + q.gamma)
    r = math.hypot(0.5 * (q.alpha - q.gamma), q.beta)
    # atan2(0, 0) = 0 gives the theta = 0 tie-break for isotropic forms;
    # adding 0.0 turns a beta of -0.0 into 0.0, so theta = -pi/2 never occurs.
    theta = 0.5 * math.atan2(2.0 * q.beta + 0.0, q.gamma - q.alpha)
    return SpectralData(mid - r, mid + r, theta)


def _member(a: float, alpha: float) -> QuadForm:
    """The level-``a`` extremal form with leading coefficient ``alpha`` in
    [a, 1] (clamped there): beta = sqrt((1 - alpha)(alpha - a)) >= 0 and
    gamma = 1 + a - alpha."""
    alpha = min(max(alpha, a), 1.0)
    beta = math.sqrt(max((1.0 - alpha) * (alpha - a), 0.0))
    return QuadForm(alpha, beta, 1.0 + a - alpha)


def extremal_form(a: float, theta: float) -> QuadForm:
    """R_theta^T diag(a, 1) R_theta, R_theta the counterclockwise rotation by
    ``theta`` in [0, pi/2], at a level ``a`` in (0, 1].

    Its leading coefficient is alpha = 1 - (1 - a) cos^2(theta).  At a < 1 its
    diagonalizing angle (``spectral``) is theta; at a = 1 it is the identity.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"coercivity level a must lie in (0, 1], got {a}")
    if theta < -1e-12 or theta > 0.5 * math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    c = math.cos(min(max(theta, 0.0), 0.5 * math.pi))
    return _member(a, 1.0 - (1.0 - a) * c * c)


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

    Samples a level b in [a, max(a, _B_MAX)) and a uniform extremal index at
    that level; for a >= _B_MAX the level is a itself.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"coercivity level a must lie in (0, 1), got {a}")
    b = a + max(_B_MAX - a, 0.0) * rng.random()
    return _member(b, b + (1.0 - b) * rng.random())
