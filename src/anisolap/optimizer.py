"""Extremal anisotropies over the coercivity class at level ``a``.

The largest frequency needs no search (the isotropic form is the unique
maximizer); the smallest reduces to a one-parameter search over rotation
angles in [0, pi/2]: for each angle the rotated domain is sheared to an
isotropic problem whose frequency, scaled by a^(p/2), gives the profile
value.  A coarse uniform grid plus golden-section refinement in the best
bracket locates the minimizing angle; grid minima that tie within twice the
largest solver error bound are all refined and reported.

The solver's error bound on a value lam is ``residual * lam``: the dual-norm
residual of the eigenpair times its eigenvalue.  The eigenvalue error of a
near-eigenpair is of the order of the squared residual, so the bound is
conservative.  It sets the tie tolerance of ``lambda_min`` and the margin
floors of the verify suites.

The verify_* functions evaluate the structural claims (strict maximizer,
monotonicity, profile shape on disks and rectangles, quantitative bounds,
behaviour as the coercivity level is relaxed) on concrete meshes and return
report entries rather than raising.  The quantitative and relaxation suites
are judges only: they take optima that ``run_verification`` computes once per
level and exponent, so the levels both suites use are searched once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Disk, DomainSpec, Rectangle, rotate, shear_y
from .mesh import build_mesh
from .quadform import (
    QuadForm,
    alpha_of_theta,
    decompose,
    make_Q_alpha,
    quant_lower_constant,
    quant_upper_bound,
    random_member,
)
from .solver import SolverOptions, solve_p, directional_constant

# Relative spread below which a rotation profile counts as constant
# (re-meshing noise across angles dominates genuine variation there).
FLAT_PROFILE_RTOL = 1e-2

DEFAULT_GRID_N = 17
DEFAULT_THETA_TOL = 1e-4

# Relative slack of the suites' lower bounds (the directional floors are
# computed on the same coarse meshes as the optima they bound).
SLACK = 0.02

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class OptimizeResult:
    lambda_min: float
    lambda_max: float
    theta_star: float
    alpha_star: float
    extremizer: QuadForm
    theta_profile: list[tuple[float, float]]
    flat_disk_flag: bool
    tied_minima: list[tuple[float, float]] = field(default_factory=list)
    multiple_minima: bool = False
    a: float = math.nan
    p: float = math.nan
    mesh_level: int = -1
    residual: float = math.nan

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "theta_star": self.theta_star,
            "alpha_star": self.alpha_star,
            "extremizer": self.extremizer.to_dict(),
            "theta_profile": [[t, v] for t, v in self.theta_profile],
            "flat_disk_flag": self.flat_disk_flag,
            "tied_minima": [[t, v] for t, v in self.tied_minima],
            "multiple_minima": self.multiple_minima,
            "a": self.a,
            "p": self.p,
            "mesh_level": self.mesh_level,
            "residual": self.residual,
        }


def profile_value(
    d: DomainSpec,
    theta: float,
    a: float,
    p: float,
    opts: SolverOptions | None = None,
    *,
    level: int = 5,
    n_boundary: int = 128,
) -> tuple[float, float]:
    """Frequency of the extremal diagonal form on the rotated domain, computed
    through the sheared isotropic problem.  Returns (value, solver residual)."""
    opts = opts or SolverOptions()
    dom = shear_y(rotate(d, theta), a, n_boundary=n_boundary)
    res = solve_p(build_mesh(dom, level, n_boundary), QuadForm.identity(), p, opts)
    return a ** (0.5 * p) * res.lam, res.residual


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
    the rotated domain; route 2 is ``profile_value``, the isotropic problem on
    the sheared rotated domain scaled by a^(p/2).  The two agree at the
    continuum by change of variables; discrete values differ by the meshing
    error only.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError(f"need a in (0, 1], got {a}")
    opts = opts or SolverOptions()
    mesh = build_mesh(rotate(d, theta), level, n_boundary)
    r1 = solve_p(mesh, QuadForm(a, 0.0, 1.0), p, opts).lam
    r2, _ = profile_value(d, theta, a, p, opts, level=level, n_boundary=n_boundary)
    return r1, r2


def lambda_max(
    d: DomainSpec,
    a: float,
    p: float,
    opts: SolverOptions | None = None,
    *,
    level: int = 5,
    n_boundary: int = 128,
) -> tuple[float, QuadForm]:
    """Largest frequency over the class: the isotropic value, no search."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"need a in [0, 1), got {a}")
    opts = opts or SolverOptions()
    res = solve_p(build_mesh(d, level, n_boundary), QuadForm.identity(), p, opts)
    return res.lam, QuadForm.identity()


def _golden_min(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi]; returns the best point seen."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    while hi - lo > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def lambda_min(
    d: DomainSpec,
    a: float,
    p: float,
    grid_n: int = DEFAULT_GRID_N,
    opts: SolverOptions | None = None,
    *,
    level: int = 5,
    n_boundary: int = 128,
    theta_tol: float = DEFAULT_THETA_TOL,
) -> OptimizeResult:
    """Smallest frequency over the coercivity class at level ``a``.

    Samples the rotation profile on a uniform grid, golden-section refines
    every bracket whose grid value ties with the minimum within twice the
    solver residual, and reports the recovered extremal form.  A profile that
    is constant within ``FLAT_PROFILE_RTOL`` (disks) sets ``flat_disk_flag``
    and skips refinement, every grid angle being minimizing.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"need a in (0, 1), got {a}")
    if grid_n < 9:
        raise ValueError(f"grid_n must be at least 9, got {grid_n}")
    opts = opts or SolverOptions()

    thetas = np.linspace(0.0, 0.5 * math.pi, grid_n)
    values = np.empty(grid_n)
    residuals = np.empty(grid_n)
    for i, th in enumerate(thetas):
        values[i], residuals[i] = profile_value(
            d, th, a, p, opts, level=level, n_boundary=n_boundary
        )
    profile = [(float(t), float(v)) for t, v in zip(thetas, values)]

    iso = solve_p(build_mesh(d, level, n_boundary), QuadForm.identity(), p, opts)
    max_residual = float(max(np.max(residuals * values), iso.residual * iso.lam))

    vmin = float(np.min(values))
    vmean = float(np.mean(values))
    spread = (float(np.max(values)) - vmin) / vmean
    flat = spread < FLAT_PROFILE_RTOL

    if flat:
        i_star = int(np.argmin(values))
        theta_star, lam_min = float(thetas[i_star]), vmin
        tied = profile[:]
        multiple = True
    else:
        tie_tol = 2.0 * max_residual
        tied_idx = np.flatnonzero(values <= vmin + tie_tol)
        # merge adjacent grid indices into brackets, refine each
        groups: list[list[int]] = []
        for i in tied_idx:
            if groups and i == groups[-1][-1] + 1:
                groups[-1].append(int(i))
            else:
                groups.append([int(i)])
        tied = []
        for grp in groups:
            i_best = grp[int(np.argmin(values[grp]))]
            lo = thetas[max(i_best - 1, 0)]
            hi = thetas[min(i_best + 1, grid_n - 1)]
            th_hat, v_hat = _golden_min(
                lambda t: profile_value(d, t, a, p, opts, level=level, n_boundary=n_boundary)[0],
                float(lo),
                float(hi),
                theta_tol,
            )
            if values[i_best] < v_hat:
                th_hat, v_hat = float(thetas[i_best]), float(values[i_best])
            tied.append((th_hat, v_hat))
        tied.sort(key=lambda tv: tv[1])
        theta_star, lam_min = tied[0]
        multiple = len(groups) > 1

    alpha_star = alpha_of_theta(a, theta_star)
    extremizer = make_Q_alpha(a, alpha_star)
    return OptimizeResult(
        lambda_min=lam_min,
        lambda_max=iso.lam,
        theta_star=theta_star,
        alpha_star=alpha_star,
        extremizer=extremizer,
        theta_profile=profile,
        flat_disk_flag=flat,
        tied_minima=tied,
        multiple_minima=multiple,
        a=a,
        p=p,
        mesh_level=level,
        residual=max_residual,
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _entry(
    name: str,
    claim: str,
    measured: dict,
    tolerance: float,
    passed: bool,
    level: int,
    residual: float,
    note: str | None = None,
) -> dict:
    out = {
        "name": name,
        "claim": claim,
        "measured": measured,
        "tolerance": tolerance,
        "passed": bool(passed),
        "mesh_level": level,
        "solver_residual": residual,
    }
    if note is not None:
        out["note"] = note
    return out


def verify_rigidity(
    d: DomainSpec,
    a: float,
    p: float,
    n_samples: int = 20,
    opts: SolverOptions | None = None,
    *,
    level: int = 4,
    n_boundary: int = 128,
    n_pairs: int = 20,
    seed: int = 0,
) -> list[dict]:
    """Strict dominance of the isotropic form, and discrete monotonicity of the
    frequency under pointwise ordering of forms, on random samples."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    opts = opts or SolverOptions()
    rng = np.random.default_rng(seed)
    mesh = build_mesh(d, level, n_boundary)
    iso = solve_p(mesh, QuadForm.identity(), p, opts)
    margin_floor = 3.0 * max(iso.residual * iso.lam, opts.tol * iso.lam)

    margins = []
    skipped = 0
    for _ in range(n_samples):
        q = random_member(a, rng)
        if q.is_identity():
            skipped += 1  # equality case, nothing to test
            continue
        lam_q = solve_p(mesh, q, p, opts).lam
        margins.append(iso.lam - lam_q)
    strict_ok = bool(margins) and all(mg > margin_floor for mg in margins)
    entries = [
        _entry(
            "isotropic_maximizer_strict",
            "every sampled non-isotropic form has strictly smaller frequency",
            {
                "lambda_isotropic": iso.lam,
                "min_margin": min(margins) if margins else math.nan,
                "n_tested": len(margins),
                "n_skipped_identity": skipped,
            },
            margin_floor,
            strict_ok,
            level,
            iso.residual,
            note="identity samples are equality cases and are skipped" if skipped else None,
        )
    ]

    violations = 0
    worst = math.inf
    for _ in range(n_pairs):
        q2 = random_member(a, rng)
        dec = decompose(q2, a)
        if dec.alpha_param is None:
            q1 = QuadForm.identity()
        elif rng.random() < 0.5:
            q1 = make_Q_alpha(a, dec.alpha_param)  # dominated extremal part
        else:
            w = rng.random()
            q1 = q2
            q2 = QuadForm(
                w * q1.alpha + (1 - w),
                w * q1.beta,
                w * q1.gamma + (1 - w),
            )  # blend toward the isotropic form dominates
        lam1 = solve_p(mesh, q1, p, opts).lam
        lam2 = solve_p(mesh, q2, p, opts).lam
        gap = lam2 - lam1
        worst = min(worst, gap)
        if gap < -1e-9:
            violations += 1
    entries.append(
        _entry(
            "monotone_form_ordering",
            "pointwise-ordered forms give ordered discrete frequencies",
            {"n_pairs": n_pairs, "violations": violations, "worst_gap": worst},
            1e-9,
            violations == 0,
            level,
            iso.residual,
        )
    )
    return entries


def _directional_floor(
    d: DomainSpec,
    p: float,
    axis: str,
    grid_n: int,
    opts: SolverOptions,
    *,
    level: int,
    n_boundary: int,
) -> float:
    """Smallest directional constant along ``axis`` over ``grid_n`` rotations
    of the domain spread evenly over [0, pi/2]."""
    return min(
        directional_constant(build_mesh(rotate(d, float(th)), level, n_boundary), p, axis, opts)
        for th in np.linspace(0.0, 0.5 * math.pi, grid_n)
    )


def verify_quantitative(res_a: OptimizeResult, res_b: OptimizeResult, c0: float) -> list[dict]:
    """Upper ratio bound and lower difference bound on the growth of the
    optimal lower constant between the levels of ``res_a`` and ``res_b``
    (a <= b, same p).  ``c0`` is the minimized horizontal directional
    constant of the rotated domain; the isotropic frequency in the lower bound
    is ``res_a.lambda_max``."""
    a, b, p, level = res_a.a, res_b.a, res_a.p, res_a.mesh_level
    if not a <= b or res_b.p != p:
        raise ValueError(f"need levels a <= b at one p, got ({a}, {b}) at p = ({p}, {res_b.p})")
    if b == a:
        ratio_excess, diff = 0.0, 0.0
        bound_up = 0.0
        lower_rhs = 0.0
        residual = res_a.residual
    else:
        ratio_excess = res_b.lambda_min / res_a.lambda_min - 1.0
        diff = res_b.lambda_min - res_a.lambda_min
        bound_up = quant_upper_bound(a, b, p)
        lower_rhs = quant_lower_constant(a, b, p, c0, res_a.lambda_max) * (b - a)
        residual = max(res_a.residual, res_b.residual)
    return [
        _entry(
            "upper_ratio_bound",
            "relative growth of the lower constant is within the closed-form bound",
            {"a": a, "b": b, "p": p, "measured": ratio_excess, "bound": bound_up},
            0.0,
            ratio_excess <= bound_up + 1e-12,
            level,
            residual,
        ),
        _entry(
            "lower_difference_bound",
            "growth of the lower constant dominates the directional-constant bound",
            {
                "a": a,
                "b": b,
                "p": p,
                "measured": diff,
                "bound": lower_rhs,
                "c0": c0 if b > a else math.nan,
            },
            SLACK,
            diff >= (1.0 - SLACK) * lower_rhs - 1e-12,
            level,
            residual,
        ),
        _entry(
            "lower_constant_monotone_in_level",
            "the optimal lower constant does not decrease with the coercivity level",
            {"a": a, "b": b, "p": p, "difference": diff},
            1e-9,
            diff >= -1e-9,
            level,
            residual,
        ),
    ]


def verify_Q0_limit(results: list[OptimizeResult], d0: float) -> list[dict]:
    """Behaviour as the coercivity level is relaxed toward zero: the optimal
    lower constants of ``results`` (levels strictly decreasing, one p)
    decrease but stay above ``d0``, the minimized vertical directional
    constant of the (unsheared) rotated domain."""
    a_sequence = [res.a for res in results]
    if not results or any(a2 >= a1 for a1, a2 in zip(a_sequence, a_sequence[1:])):
        raise ValueError(f"need a non-empty, strictly decreasing a_sequence, got {a_sequence}")
    vals = [res.lambda_min for res in results]
    residual = max(res.residual for res in results)
    level = results[0].mesh_level
    nonincreasing = all(
        v2 <= v1 * (1.0 + 1e-9) for v1, v2 in zip(vals, vals[1:])
    )
    above = all(v >= (1.0 - SLACK) * d0 for v in vals)

    return [
        _entry(
            "lower_constant_nonincreasing_in_relaxation",
            "the optimal lower constant does not increase as the level decreases",
            {"a_sequence": a_sequence, "values": vals},
            1e-9,
            nonincreasing,
            level,
            residual,
        ),
        _entry(
            "lower_constant_positive_floor",
            "all values stay above the minimized vertical directional constant",
            {"values": vals, "directional_floor": d0},
            SLACK,
            above,
            level,
            residual,
        ),
    ]


def verify_disk(
    a: float,
    p: float,
    opts: SolverOptions | None = None,
    *,
    level: int = 4,
    n_boundary: int = 32,
    grid_n: int = 9,
) -> list[dict]:
    """On the unit disk every rotation is equivalent: the profile is flat and the
    optimum equals the scaled isotropic frequency of the sheared disk."""
    opts = opts or SolverOptions()
    disk = Disk(1.0)
    res = lambda_min(disk, a, p, grid_n, opts, level=level, n_boundary=n_boundary)
    values = np.array([v for _, v in res.theta_profile])
    spread = float((values.max() - values.min()) / values.mean())

    ellipse = shear_y(disk, a, n_boundary=n_boundary)
    lam_ell = solve_p(build_mesh(ellipse, level, n_boundary), QuadForm.identity(), p, opts).lam
    target = a ** (0.5 * p) * lam_ell
    rel_err = abs(res.lambda_min - target) / target

    return [
        _entry(
            "disk_profile_flat",
            "rotation profile of a centered disk is constant within 1%",
            {"spread": spread, "flat_flag": res.flat_disk_flag},
            FLAT_PROFILE_RTOL,
            res.flat_disk_flag and spread < FLAT_PROFILE_RTOL,
            level,
            res.residual,
        ),
        _entry(
            "disk_min_equals_scaled_ellipse",
            "optimal value equals a^(p/2) times the sheared-disk frequency",
            {"lambda_min": res.lambda_min, "scaled_ellipse": target, "rel_err": rel_err},
            0.01,
            rel_err < 0.01,
            level,
            res.residual,
        ),
    ]


def verify_rectangle(
    a: float,
    p: float,
    opts: SolverOptions | None = None,
    *,
    level: int = 4,
    grid_n: int = DEFAULT_GRID_N,
) -> list[dict]:
    """The tall rectangle with aspect 1/sqrt(a): its sheared image at angle 0
    is a square, which quadrilateral symmetrization singles out as optimal."""
    opts = opts or SolverOptions()
    if not 0.0 < a < 1.0:
        raise ValueError(f"need a in (0, 1), got {a}")
    rect = Rectangle(1.0, 1.0 / math.sqrt(a))
    res = lambda_min(rect, a, p, grid_n, opts, level=level)

    square = Rectangle(1.0, 1.0)
    lam_sq = solve_p(build_mesh(square, level), QuadForm.identity(), p, opts).lam
    target = a ** (0.5 * p) * lam_sq
    rel_err = abs(res.lambda_min - target) / target

    argmins = [t for t, _ in res.tied_minima]
    atol = 1e-3  # distance within which an argmin counts as an axis alignment
    endpoints = {0.0, 0.5 * math.pi}
    found_set_ok = all(
        min(abs(t - e) for e in endpoints) <= atol for t in argmins
    )
    both_endpoints = all(
        any(abs(t - e) <= atol for t in argmins) for e in endpoints
    )

    interior = [
        v for t, v in res.theta_profile
        if DEFAULT_THETA_TOL < t < 0.5 * math.pi - DEFAULT_THETA_TOL
    ]
    margin = min(interior) - res.lambda_min if interior else math.nan
    margin_floor = 3.0 * max(res.residual, opts.tol * res.lambda_min)

    return [
        _entry(
            "rectangle_min_value",
            "optimal value equals a^(p/2) times the square frequency",
            {"lambda_min": res.lambda_min, "scaled_square": target, "rel_err": rel_err},
            0.01,
            rel_err < 0.01,
            level,
            res.residual,
        ),
        _entry(
            "rectangle_axis_argmin_set",
            "the minimizing rotations are exactly the two axis alignments",
            {
                "argmins": argmins,
                "within_endpoints": found_set_ok,
                "both_endpoints_attained": both_endpoints,
                "profile_end_value": res.theta_profile[-1][1],
            },
            atol,
            found_set_ok and both_endpoints,
            level,
            res.residual,
        ),
        _entry(
            "rectangle_interior_margin",
            "interior rotations are strictly worse than the optimum",
            {"interior_min_margin": margin, "floor": margin_floor},
            margin_floor,
            bool(interior) and margin > margin_floor,
            level,
            res.residual,
        ),
    ]


# The ``verify`` configuration that ``run_verification`` starts from.
VERIFY_DEFAULTS = {
    "domain": "square",
    "a": 0.25,
    "b": 0.5,
    "p_list": [2.0],
    "level": 3,
    "grid_n": 9,
    "n_boundary": 32,
    "n_samples": 5,
    "n_pairs": 8,
    "a_sequence": [0.5, 0.25],
    "seed": 0,
    "tol": 1e-9,
    "suites": ["rigidity", "quantitative", "relaxation", "disk", "rectangle"],
}


def run_verification(config: dict | None = None) -> dict:
    """Run the verification suites described by ``config`` and assemble a
    deterministic report (used by the command-line ``verify`` command).

    The quantitative and relaxation suites judge optimal lower constants at
    the levels {a, b} and ``a_sequence``; each of those optima is computed
    once per p, at angle resolution 1e-3, and shared by both suites."""
    cfg = {**copy.deepcopy(VERIFY_DEFAULTS), **(config or {})}
    from .geometry import domain_from_json

    d = domain_from_json(cfg["domain"])
    opts = SolverOptions(tol=float(cfg["tol"]))
    level = int(cfg["level"])
    grid_n = int(cfg["grid_n"])
    nb = int(cfg["n_boundary"])
    suites = cfg["suites"]
    a, b = float(cfg["a"]), float(cfg["b"])
    a_sequence = [float(x) for x in cfg["a_sequence"]]
    entries: list[dict] = []
    p_list = [float(p) for p in cfg["p_list"]]

    levels = []
    if "quantitative" in suites:
        levels += [a, b]
    if "relaxation" in suites:
        levels += a_sequence
    optima = {
        (lv, p): lambda_min(d, lv, p, grid_n, opts, level=level, n_boundary=nb, theta_tol=1e-3)
        for p in p_list
        for lv in dict.fromkeys(levels)
    }

    def floor(p: float, axis: str) -> float:
        return _directional_floor(d, p, axis, grid_n, opts, level=level, n_boundary=nb)

    if "rigidity" in suites:
        for p in p_list:
            entries += verify_rigidity(
                d, a, p, int(cfg["n_samples"]), opts,
                level=level, n_boundary=nb, n_pairs=int(cfg["n_pairs"]),
                seed=int(cfg["seed"]),
            )
    if "quantitative" in suites:
        for p in p_list:
            c0 = floor(p, "x") if b > a else math.nan
            entries += verify_quantitative(optima[a, p], optima[b, p], c0)
    if "relaxation" in suites:
        for p in p_list:
            entries += verify_Q0_limit([optima[x, p] for x in a_sequence], floor(p, "y"))
    if "disk" in suites:
        for p in p_list:
            entries += verify_disk(a, p, opts, level=level, n_boundary=nb, grid_n=grid_n)
    if "rectangle" in suites:
        for p in p_list:
            entries += verify_rectangle(a, p, opts, level=level, grid_n=grid_n)

    return {
        "config": cfg,
        "entries": entries,
        "n_entries": len(entries),
        "n_passed": sum(1 for e in entries if e["passed"]),
        "all_passed": all(e["passed"] for e in entries),
    }
