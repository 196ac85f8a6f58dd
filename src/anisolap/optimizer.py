"""Extremal anisotropies over the coercivity class at level ``a``.

The largest frequency needs no search (the isotropic form is the unique
maximizer); the smallest reduces to a one-parameter search over rotation
angles theta in [0, pi/2].  With R the counterclockwise rotation by theta,
the profile value at theta is the frequency of the form
R^T diag(a, 1) R = extremal_form(a, theta) on one mesh of the unmoved
domain.  The change of variables x -> diag(1, sqrt(a)) R x makes
it a^(p/2) times the isotropic frequency of the rotated, sheared domain, and
the identity is exact for P1 elements on the mapped mesh, so a search meshes
its domain once per level rather than once per angle.

The angles in [0, pi/2] give the extremal forms with beta >= 0 only.  The
forms at theta in (-pi/2, 0) have beta < 0 and are the conjugates of those at
-theta by the reflection y -> -y, which moves the domain too.  So the search
covers the whole class exactly on a domain that the reflection maps onto a
translate of itself, such as a disk or a rectangle; on another polygon a
minimum over the class can have beta < 0 (ROADMAP item 14).

``lambda_min`` searches on two nested levels.  It samples the profile on a
uniform grid of angles on the coarse mesh, one level below the requested
(fine) one, and solves on the fine mesh only where the answer needs it.
``refine`` splits each triangle into four, so the coarse profile locates the
grid minima at about a quarter of the fine cost.  At level
``MIN_COARSE_LEVEL`` and below the coarse mesh is the fine mesh itself.
A search keeps one table of solved values, their error bounds, their
eigenfunctions and their derivatives in theta, keyed by (mesh level,
theta), and solves a value the first time it is read.  So no (level, theta)
is solved twice, and on one level the grid values are the fine values.
Each solve but the first on a level starts from the eigenfunction of the
nearest angle in the table on that level, the smaller angle on a tie
(``solve_p``'s ``start``): a neighbouring form's ground state is close to
the new one, so the solve skips the p = 2 inverse iteration at p != 2, and
its own iteration takes fewer steps.  The order of the solves is fixed, so
the starts, and the results, repeat bit for bit.

A reflection about a diagonal swaps alpha and gamma of a form and keeps
beta, so it maps the form at theta to the form at pi/2 - theta.  On a mesh
that the reflection about the 45 or 135 degree line through its centroid maps
onto itself (``mirror_permutation``), such as the square's or the L-shape's,
the profile is therefore symmetric about pi/4, and the eigenfunction at
pi/2 - theta is the one at theta with its nodes permuted.  A search whose
meshes are all mirrored (``mirrored``) solves the angles in [0, pi/4] only.
The grid value at index n - 1 - k is the one at index k, paired by index,
because the grid of ``np.linspace`` does not mirror exactly; an angle above
pi/4 off the grid reads the solve at pi/2 - theta.  Either read carries the
permuted eigenfunction and the negated derivative.

Every solve also gives the derivative of its value in theta
(``profile_value``), and each coarse grid minimum is refined by a walk on
the fine level: the sign of the derivative at the grid point picks its
downhill neighbour, and the walk moves on while the derivative keeps its
sign and the value falls.  It ends on a grid point whose derivative points
out of [0, pi/2], at no solve, or before a value that does not fall;
otherwise on the two neighbours between which the derivative changes sign.
A mirrored search stores the derivative at the grid angle pi/4 as 0, by
symmetry, and a walk stops at it: if the value falls, at pi/4 itself for no
refinement solve, because a profile unimodal on its bracket and symmetric
about pi/4 has its minimizer there, and else on the bracket below it.  A
safeguarded regula falsi on the derivative shrinks the bracket until it is
at most ``theta_tol`` wide.  The contract is that the fine profile is
unimodal on the grid bracket (the grid point and its two neighbours) where
the walk ends: then the returned angle lies within ``theta_tol`` of a
minimizer.  A mirrored search refines one grid minimum of each mirror pair,
the one in [0, pi/4], and reports the image (pi/2 - theta, value) of its
result with it, unless the two are one minimum: the result is pi/4, or its
bracket's ends are mirror images.  The walk moves only to lower values, and
on a unimodal bracket each regula falsi step lowers the end it replaces, so
a refined value never exceeds the fine value at its grid point.  The coarse
values of the grid minima are shifted from their fine values by up to the
coarse/fine gap, so coarse minima that tie within twice the largest solver
error bound plus the gap measured at the coarse argmin are all refined and
reported: a near-tie at the fine level is never dropped.

The solver's error bound on a value lam is ``residual * lam``: the dual-norm
residual of the eigenpair times its eigenvalue.  The eigenvalue error of a
near-eigenpair is of the order of the squared residual, so the bound is
conservative.  The tie tolerance of ``lambda_min`` takes the largest bound
in the table once the grid and the fine solve at the coarse argmin are in
it, together with the isotropic solve's; its result's ``residual`` is the
largest once the search is done.  That sets the margin floors of the verify
suites.  The coarse value at the optimum, ``lambda_min_coarse``, and its
distance from ``lambda_min``, ``error_estimate``, compare two nested levels.
When the difference between successive levels shrinks by a factor r >= 2 per
level (r = 4 for an O(h^2) error), the estimate is about r - 1 times the
true error of the fine value, so it bounds that error.

The verify_* functions evaluate the structural claims (strict maximizer,
monotonicity, profile shape on disks and rectangles, quantitative bounds,
behaviour as the coercivity level is relaxed) on concrete meshes and return
report entries rather than raising.  The quantitative and relaxation suites
are judges only: they take optima that ``run_verification`` computes once per
level and exponent, so the levels both suites use are searched once.  One run
also shares its meshes, one per (domain, level), and its isotropic solves, one
per (mesh, p): the rigidity suite's maximizer, the ``lambda_max`` of every
search and the rectangle suite's square are one solve wherever they share a
mesh.  Each is made the first time it is asked for, by the same call as
without sharing, so the report does not change.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .geometry import Disk, DomainSpec, Rectangle, longest_chord
from .mesh import Mesh, build_mesh, mirror_permutation
from .quadform import (
    QuadForm,
    extremal_form,
    quant_lower_constant,
    quant_upper_bound,
    random_member,
    spectral,
)
from .solver import (
    DEFAULT_TOL,
    EigenResult,
    SolverConvergenceError,
    _form_gradient,
    directional_constant,
    solve_p,
)

DEFAULT_GRID_N = 17
DEFAULT_THETA_TOL = 1e-4
# Coarsest mesh level on which ``lambda_min`` samples its profile for a finer
# level; a search at this level or below samples on its own mesh.
MIN_COARSE_LEVEL = 3

# Relative slack of the lower difference bound and the directional floor.
# The directional constants are exact continuum values (closed form on the
# longest chord), not mesh values; the optima they are compared with are
# conforming finite-element values, which lie above their continuum values.
SLACK = 0.02

# Directions, in the unrotated domain, of the x and the y axis of the domain
# rotated by theta in [0, pi/2]: R_theta^T e_x = (cos, -sin) sweeps the first
# arc, R_theta^T e_y = (sin, cos) the second.
X_ARC = (-0.5 * math.pi, 0.0)
Y_ARC = (0.0, 0.5 * math.pi)

@dataclass
class OptimizeResult:
    lambda_min: float
    lambda_max: float
    theta_star: float
    alpha_star: float
    extremizer: QuadForm
    theta_profile: list[tuple[float, float]]
    tied_minima: list[tuple[float, float]] = field(default_factory=list)
    multiple_minima: bool = False
    a: float = math.nan
    p: float = math.nan
    mesh_level: int = -1              # level of the mesh behind lambda_min and lambda_max
    profile_level: int = -1           # level of the mesh behind theta_profile
    lambda_min_coarse: float = math.nan  # the profile's value at theta_star
    error_estimate: float | None = None  # |lambda_min_coarse - lambda_min|; None on one level
    residual: float = math.nan        # largest error bound of any solve, coarse ones included
    mirrored: bool = False            # the profile above pi/4 was read from its mirror image
    dlam_dtheta: float = math.nan     # d lambda_min / d theta at theta_star

    def to_dict(self) -> dict:
        return asdict(self)


class _Shared:
    """The meshes, keyed by (domain, level), their ``mirror_permutation``,
    keyed by mesh, and the cold isotropic solves, keyed by (mesh, p, tol),
    of one run.  Each is built, tested or solved the first time it is asked
    for.  A shared solve's eigenfunction is read-only, because several
    suites start their solves from it."""

    def __init__(self) -> None:
        self.meshes: dict[tuple[DomainSpec, int], Mesh] = {}
        self.mirrors: dict[Mesh, np.ndarray | None] = {}
        self.solves: dict[tuple[Mesh, float, float], EigenResult] = {}

    def mesh(self, d: DomainSpec, level: int) -> Mesh:
        if (d, level) not in self.meshes:
            self.meshes[d, level] = build_mesh(d, level)
        return self.meshes[d, level]

    def mirror(self, mesh: Mesh) -> np.ndarray | None:
        if mesh not in self.mirrors:
            self.mirrors[mesh] = mirror_permutation(mesh)
        return self.mirrors[mesh]

    def isotropic(self, mesh: Mesh, p: float, tol: float) -> EigenResult:
        if (mesh, p, tol) not in self.solves:
            res = solve_p(mesh, QuadForm.identity(), p, tol)
            res.u.setflags(write=False)
            self.solves[mesh, p, tol] = res
        return self.solves[mesh, p, tol]


def profile_value(
    mesh: Mesh,
    theta: float,
    a: float,
    p: float,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> tuple[EigenResult, float]:
    """The solve on ``mesh`` of ``extremal_form(a, theta)``, which at a = 1
    is the isotropic form, from ``solve_p``'s ``start``, and the derivative
    of its eigenvalue in theta.  That is tr(S dQ/dtheta), S the solve's
    ``_form_gradient`` and dQ/dtheta = (1 - a) [[sin 2 theta, cos 2 theta],
    [cos 2 theta, -sin 2 theta]]."""
    res = solve_p(mesh, extremal_form(a, theta), p, tol, start=start)
    s = _form_gradient(mesh, res)
    sin2, cos2 = math.sin(2.0 * theta), math.cos(2.0 * theta)
    return res, float((1.0 - a) * ((s[0, 0] - s[1, 1]) * sin2 + 2.0 * s[0, 1] * cos2))


def _walk(f, thetas: list[float], i: int, axis: int) -> tuple[int, int]:
    """The indices (lo, hi), hi - lo <= 1, of the grid bracket that the walk
    from ``thetas[i]`` down the fine profile ends in, as the module docstring
    describes.  ``f(theta)`` is the fine (value, derivative), and ``axis``
    the index of pi/4 on a mirrored search, where a walk stops, or -1."""
    lam, dlam = f(thetas[i])
    while i != axis:
        j = i + (1 if dlam < 0.0 else -1)
        if not 0 <= j < len(thetas):  # an end of the range, whose derivative points out of it
            break
        lam_j, dlam_j = f(thetas[j])
        if j == axis:  # a minimizer short of pi/4 unless the value falls there
            return (j, j) if lam_j < lam else (i, j)
        if (dlam_j < 0.0) != (dlam < 0.0):
            return min(i, j), max(i, j)
        if lam_j >= lam:
            break
        i, lam, dlam = j, lam_j, dlam_j
    return i, i


def _regula_falsi(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """(theta, value) at the end of lower value of the bracket [lo, hi] once
    it is at most ``tol`` wide.  ``f(theta)`` is the fine (value,
    derivative), negative at ``lo`` and not at ``hi`` unless lo = hi.  Each
    step goes to the zero of the derivative's chord, at least tol/2 inside
    the bracket, and replaces the end whose derivative has the new one's
    sign; an end kept twice in a row has its derivative halved (the Illinois
    variant: Dowell and Jarratt, BIT 1971).  While the derivative at ``hi``
    is 0 (pi/4 on a mirrored search), the chord's zero is hi: go halfway."""
    (f_lo, d_lo), (f_hi, d_hi) = f(lo), f(hi)
    kept = 0  # +1 after the lower end was kept, -1 after the upper one
    while hi - lo > tol:
        x = 0.5 * (lo + hi) if d_hi == 0.0 else lo - d_lo * (hi - lo) / (d_hi - d_lo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx, dx = f(x)
        if dx < 0.0:
            lo, f_lo, d_lo = x, fx, dx
            if kept < 0:
                d_hi *= 0.5
            kept = -1
        else:
            hi, f_hi, d_hi = x, fx, dx
            if kept > 0:
                d_lo *= 0.5
            kept = 1
    return (lo, f_lo) if f_lo <= f_hi else (hi, f_hi)


def lambda_min(
    d: DomainSpec,
    a: float,
    p: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    *,
    level: int = 5,
    theta_tol: float = DEFAULT_THETA_TOL,
    shared: _Shared | None = None,
) -> OptimizeResult:
    """Smallest frequency over the coercivity class at level ``a``, searched
    as the module docstring describes.

    The profile is sampled at ``grid_n`` uniform angles in [0, pi/2] on the
    coarse mesh: the domain's mesh at ``level`` - 1 when that is at least
    ``MIN_COARSE_LEVEL``, else the level-``level`` mesh itself.  The fine
    mesh gets the isotropic solve, which gives ``lambda_max`` and starts
    from nothing, and the solves of the walks and the regula falsi steps.
    Both meshes and the isotropic solve come from ``shared``, the tables of
    the run that calls the search (``run_verification``); without it the
    search makes its own.
    Every profile value is read from the search's table, which calls
    ``profile_value`` once per (level, theta), started as the module
    docstring describes, and keeps its value and its derivative in theta.
    Provided the fine profile is unimodal on the grid bracket where each
    walk ends, every angle in ``tied_minima`` lies within ``theta_tol`` of a
    minimizer; the least gives ``theta_star`` and the recovered extremal
    form.  ``dlam_dtheta`` is the fine derivative at ``theta_star``, a
    first-order certificate: about 0 at an interior minimum, and pointing
    out of [0, pi/2] at an end.

    ``mirror_permutation`` is called once per mesh of ``shared``.  When
    every level is mirrored, the search solves angles in [0, pi/4] only and
    reads the rest from their mirror images, as the module docstring
    describes, and ``mirrored`` is True; ``theta_profile`` still holds every
    grid angle, and ``tied_minima`` both minima of a mirror pair.

    ``lambda_min_coarse`` is the coarse value at ``theta_star``: a grid
    value, or one coarse solve off the grid.  ``error_estimate`` is its
    distance from ``lambda_min``, and None on one level, where the two are
    one table entry.  A ``SolverConvergenceError`` from any solve is
    re-raised with the (theta, value) grid pairs in the table as its
    ``theta_profile``, and with ``mirrored``.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"need a in (0, 1), got {a}")
    if grid_n < 9:
        raise ValueError(f"grid_n must be at least 9, got {grid_n}")
    if not theta_tol > 0.0:
        raise ValueError(f"theta_tol must be positive, got {theta_tol}")

    shared = shared or _Shared()
    profile_level = level - 1 if level - 1 >= MIN_COARSE_LEVEL else level
    meshes = {lv: shared.mesh(d, lv) for lv in (level, profile_level)}
    perms = {lv: shared.mirror(m) for lv, m in meshes.items()}
    mirrored = all(perm is not None for perm in perms.values())
    thetas = np.linspace(0.0, 0.5 * math.pi, grid_n).tolist()
    # the mirror angle pi/2 - theta, by index on the grid
    twins = dict(zip(thetas, reversed(thetas)))
    # (level, theta) -> (value, error bound, eigenfunction, derivative in theta)
    solved: dict[tuple[int, float], tuple[float, float, np.ndarray, float]] = {}

    def twin(theta: float) -> float:
        return twins.get(theta, 0.5 * math.pi - theta)

    def value(lv: int, theta: float) -> tuple[float, float]:
        """The table's value and derivative at (lv, theta), solved on a miss
        from the eigenfunction of the nearest angle in the table on level
        ``lv``.  On a mirrored search an angle above pi/4 is read from its
        twin, with the reflected eigenfunction and the negated derivative."""
        if (lv, theta) not in solved:
            if mirrored and twin(theta) < theta:
                value(lv, twin(theta))
                lam, bound, u, dlam = solved[lv, twin(theta)]
                solved[lv, theta] = lam, bound, u[perms[lv]], -dlam
                return lam, -dlam
            near = min(
                (th for solved_lv, th in solved if solved_lv == lv),
                key=lambda th: (abs(th - theta), th),
                default=None,
            )
            start = None if near is None else solved[lv, near][2]
            res, dlam = profile_value(meshes[lv], theta, a, p, tol, start=start)
            if mirrored and twin(theta) == theta:  # pi/4, where symmetry makes it 0
                dlam = 0.0
            solved[lv, theta] = res.lam, res.residual * res.lam, res.u, dlam
        return solved[lv, theta][0], solved[lv, theta][3]

    coarse, fine = partial(value, profile_level), partial(value, level)
    try:
        values = np.array([coarse(th)[0] for th in thetas])
        i_min = int(np.argmin(values))
        vmin = float(values[i_min])
        gap = abs(fine(thetas[i_min])[0] - vmin)
        iso = shared.isotropic(meshes[level], p, tol)
        iso_bound = iso.residual * iso.lam
        tie_tol = 2.0 * max(iso_bound, *(entry[1] for entry in solved.values())) + gap
        tied_idx = np.flatnonzero(values <= vmin + tie_tol)
        if mirrored:  # one of each mirror pair of grid minima
            tied_idx = tied_idx[2 * tied_idx <= grid_n - 1]
        # merge adjacent grid indices into groups, walk from each group's
        # least coarse value to its fine grid bracket
        groups: list[list[int]] = []
        for i in tied_idx:
            if groups and i == groups[-1][-1] + 1:
                groups[-1].append(int(i))
            else:
                groups.append([int(i)])
        axis = (grid_n - 1) // 2 if mirrored and grid_n % 2 else -1
        brackets = dict.fromkeys(
            _walk(fine, thetas, grp[int(np.argmin(values[grp]))], axis) for grp in groups
        )
        tied = []
        for lo, hi in brackets:
            theta, lam = _regula_falsi(fine, thetas[lo], thetas[hi], theta_tol)
            tied.append((theta, lam))
            if mirrored and lo + hi != grid_n - 1 and twin(theta) != theta:  # two minima
                tied.append((twin(theta), lam))
        tied.sort(key=lambda tv: tv[1])
        theta_star, lam_min = tied[0]
        dlam_dtheta = fine(theta_star)[1]
        lam_coarse = coarse(theta_star)[0]
    except SolverConvergenceError as exc:
        exc.theta_profile = [
            (th, solved[profile_level, th][0]) for th in thetas if (profile_level, th) in solved
        ]
        exc.mirrored = mirrored
        raise

    extremizer = extremal_form(a, theta_star)
    return OptimizeResult(
        lambda_min=lam_min,
        lambda_max=iso.lam,
        theta_star=theta_star,
        alpha_star=extremizer.alpha,
        extremizer=extremizer,
        theta_profile=[(th, solved[profile_level, th][0]) for th in thetas],
        tied_minima=tied,
        multiple_minima=len(tied) > 1,
        a=a,
        p=p,
        mesh_level=level,
        profile_level=profile_level,
        lambda_min_coarse=lam_coarse,
        error_estimate=None if profile_level == level else abs(lam_coarse - lam_min),
        residual=float(max(iso_bound, *(entry[1] for entry in solved.values()))),
        mirrored=mirrored,
        dlam_dtheta=dlam_dtheta,
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
) -> dict:
    return {
        "name": name,
        "claim": claim,
        "measured": measured,
        "tolerance": tolerance,
        "passed": bool(passed),
        "mesh_level": level,
        "solver_residual": residual,
    }


def verify_rigidity(
    d: DomainSpec,
    a: float,
    p: float,
    tol: float,
    *,
    level: int,
    n_samples: int,
    n_pairs: int,
    seed: int,
    shared: _Shared | None = None,
) -> list[dict]:
    """Strict dominance of the isotropic form, and discrete monotonicity of the
    frequency under pointwise ordering of forms, on random samples.  Both
    entries report the largest error bound ``residual * lam`` of the suite's
    solves.  Every solve of a sampled or paired form starts from the
    isotropic eigenfunction (``solve_p``'s ``start``).  The mesh and the
    isotropic solve come from ``shared``, as in ``lambda_min``."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    shared = shared or _Shared()
    rng = np.random.default_rng(seed)
    mesh = shared.mesh(d, level)
    iso = shared.isotropic(mesh, p, tol)
    lam_iso = iso.lam
    bounds = [iso.residual * lam_iso]  # the error bound of every solve

    def frequency(q: QuadForm) -> float:
        res = solve_p(mesh, q, p, tol, start=iso.u)
        bounds.append(res.residual * res.lam)
        return res.lam

    margin_floor = 3.0 * max(bounds[0], tol * lam_iso)

    # random_member never draws the identity, the equality case
    margins = [lam_iso - frequency(random_member(a, rng)) for _ in range(n_samples)]

    violations = 0
    worst = math.inf
    for _ in range(n_pairs):
        q2 = random_member(a, rng)
        if rng.random() < 0.5:
            q1 = extremal_form(a, spectral(q2).theta)  # dominated extremal part
        else:
            w = rng.random()
            q1 = q2
            q2 = QuadForm(
                w * q1.alpha + (1 - w),
                w * q1.beta,
                w * q1.gamma + (1 - w),
            )  # blend toward the isotropic form dominates
        lam1 = frequency(q1)
        gap = frequency(q2) - lam1
        worst = min(worst, gap)
        if gap < -1e-9:
            violations += 1
    residual = max(bounds)
    return [
        _entry(
            "isotropic_maximizer_strict",
            "every sampled non-isotropic form has strictly smaller frequency",
            {"lambda_isotropic": lam_iso, "min_margin": min(margins), "n_tested": len(margins)},
            margin_floor,
            all(mg > margin_floor for mg in margins),
            level,
            residual,
        ),
        _entry(
            "monotone_form_ordering",
            "pointwise-ordered forms give ordered discrete frequencies",
            {"n_pairs": n_pairs, "violations": violations, "worst_gap": worst},
            1e-9,
            violations == 0,
            level,
            residual,
        ),
    ]


def verify_quantitative(res_a: OptimizeResult, res_b: OptimizeResult, chord: float) -> list[dict]:
    """Upper ratio bound and lower difference bound on the growth of the
    optimal lower constant between the levels of ``res_a`` and ``res_b``
    (a <= b, same p).

    ``chord`` is the longest chord of the domain over the directions that the
    x axis takes under the rotations in [0, pi/2] (``X_ARC``).  The minimized
    horizontal directional constant of the rotated domain is then the closed
    form c0 = ``directional_constant(chord, p)``.  The isotropic frequency in
    the lower bound is ``res_a.lambda_max``."""
    a, b, p, level = res_a.a, res_b.a, res_a.p, res_a.mesh_level
    if not a <= b or res_b.p != p:
        raise ValueError(f"need levels a <= b at one p, got ({a}, {b}) at p = ({p}, {res_b.p})")
    c0 = directional_constant(chord, p)
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
                "c0": c0,
                "chord": chord,
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


def verify_Q0_limit(results: list[OptimizeResult], chord: float) -> list[dict]:
    """Behaviour as the coercivity level is relaxed toward zero: the optimal
    lower constants of ``results`` (levels strictly decreasing, one p)
    decrease but stay above d0, the minimized vertical directional constant
    of the (unsheared) rotated domain.

    ``chord`` is the longest chord of the domain over the directions that the
    y axis takes under the rotations in [0, pi/2] (``Y_ARC``), and d0 is the
    closed form ``directional_constant(chord, p)``."""
    a_sequence = [res.a for res in results]
    if not results or any(a2 >= a1 for a1, a2 in zip(a_sequence, a_sequence[1:])):
        raise ValueError(f"need a non-empty, strictly decreasing a_sequence, got {a_sequence}")
    d0 = directional_constant(chord, results[0].p)
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
            {"values": vals, "directional_floor": d0, "chord": chord},
            SLACK,
            above,
            level,
            residual,
        ),
    ]


def verify_disk(
    a: float,
    p: float,
    tol: float,
    *,
    level: int,
    grid_n: int,
    shared: _Shared | None = None,
) -> list[dict]:
    """On the unit disk every rotation is equivalent: the profile is flat and
    the optimum equals the scaled isotropic frequency of the sheared disk.
    That target is the profile value at angle 0, a^(p/2) times the isotropic
    frequency on the sheared image of the profile's mesh, so it is compared
    with the optimum's value on that mesh, ``lambda_min_coarse``."""
    res = lambda_min(Disk(1.0), a, p, grid_n, tol, level=level, shared=shared)
    values = np.array([v for _, v in res.theta_profile])
    spread = float((values.max() - values.min()) / values.mean())
    target = res.theta_profile[0][1]
    rel_err = abs(res.lambda_min_coarse - target) / target

    return [
        _entry(
            "disk_profile_flat",
            "rotation profile of a centered disk is constant within 1%",
            {"spread": spread},
            0.01,
            spread < 0.01,
            level,
            res.residual,
        ),
        _entry(
            "disk_min_equals_scaled_ellipse",
            "optimal value equals a^(p/2) times the sheared-disk frequency",
            {"lambda_min": res.lambda_min_coarse, "scaled_ellipse": target, "rel_err": rel_err},
            0.01,
            rel_err < 0.01,
            level,
            res.residual,
        ),
    ]


def verify_rectangle(
    a: float,
    p: float,
    tol: float,
    *,
    level: int,
    grid_n: int,
    shared: _Shared | None = None,
) -> list[dict]:
    """The tall rectangle with aspect 1/sqrt(a): its sheared image at angle 0
    is a square, which quadrilateral symmetrization singles out as optimal.
    The square's mesh and isotropic solve come from ``shared``, as in
    ``lambda_min``."""
    if not 0.0 < a < 1.0:
        raise ValueError(f"need a in (0, 1), got {a}")
    shared = shared or _Shared()
    rect = Rectangle(1.0, 1.0 / math.sqrt(a))
    res = lambda_min(rect, a, p, grid_n, tol, level=level, shared=shared)

    lam_sq = shared.isotropic(shared.mesh(Rectangle(1.0, 1.0), level), p, tol).lam
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
    # profile values and the optimum on one mesh, the profile's
    margin = min(interior) - res.lambda_min_coarse if interior else math.nan
    margin_floor = 3.0 * max(res.residual, tol * res.lambda_min)

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


def run_verification(
    d: DomainSpec,
    tol: float,
    *,
    a: float,
    b: float,
    p_list: list[float],
    level: int,
    grid_n: int,
    n_samples: int,
    n_pairs: int,
    a_sequence: list[float],
    seed: int,
    suites: list[str],
) -> dict:
    """Run the named ``suites`` on mesh ``level`` at each exponent in
    ``p_list`` and assemble a deterministic report of their entries.

    The rigidity suite samples ``n_samples`` forms and ``n_pairs`` ordered
    pairs at level ``a`` from ``seed``; the disk and rectangle suites search
    ``grid_n`` angles at level ``a``.  The quantitative and relaxation suites
    judge optimal lower constants at the levels {a, b} and ``a_sequence``;
    each of those optima is computed once per p, at angle resolution 1e-3,
    and shared by both suites.  Every search and suite of the run takes its
    meshes and isotropic solves from one table of each, so a (domain, level)
    is meshed once and a (mesh, p) solved once in the whole run."""
    shared = _Shared()
    entries: list[dict] = []
    levels = []
    if "quantitative" in suites:
        levels += [a, b]
    if "relaxation" in suites:
        levels += a_sequence
    optima = {
        (lv, p): lambda_min(d, lv, p, grid_n, tol, level=level, theta_tol=1e-3, shared=shared)
        for p in p_list
        for lv in dict.fromkeys(levels)
    }

    if "rigidity" in suites:
        for p in p_list:
            entries += verify_rigidity(
                d, a, p, tol, level=level, n_samples=n_samples, n_pairs=n_pairs, seed=seed,
                shared=shared,
            )
    if "quantitative" in suites:
        chord = longest_chord(d, X_ARC)
        for p in p_list:
            entries += verify_quantitative(optima[a, p], optima[b, p], chord)
    if "relaxation" in suites:
        chord = longest_chord(d, Y_ARC)
        for p in p_list:
            entries += verify_Q0_limit([optima[x, p] for x in a_sequence], chord)
    if "disk" in suites:
        for p in p_list:
            entries += verify_disk(a, p, tol, level=level, grid_n=grid_n, shared=shared)
    if "rectangle" in suites:
        for p in p_list:
            entries += verify_rectangle(a, p, tol, level=level, grid_n=grid_n, shared=shared)

    return {
        "entries": entries,
        "n_entries": len(entries),
        "n_passed": sum(1 for e in entries if e["passed"]),
        "all_passed": all(e["passed"] for e in entries),
    }
