"""Hyperbolic rotational linear Weingarten profile curves in Euclidean space.

Integrates the arc-length profile system

    x' = cos(theta),  z' = sin(theta),
    theta' = (a cos(theta) - 2 z) / (a z + 2 b cos(theta))

for the relation a*H + b*K = 1 with a^2 + 4b < 0 (hyperbolic family, c
normalized to 1), locates the angular period, verifies the conserved
quantity and the closed-form height, checks the proved slope bounds and
periodicity, analyzes the curve's structure (monotonicity, extrema,
self-intersections, Gauss-curvature sign), and revolves the profile into a
surface patch that is cross-checked against the relation with geomcore.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geomcore, meshes, odekit
from .csvio import write_csv
from .errors import DegeneratePointError, GuardViolationError
from .geomcore import SurfacePatch, WeingartenParams, cos_sin, grid_vec, profile_columns, profile_spec
from .odekit import Event, find_root, integrate

BOUND_SLACK = 1e-9
DEFAULT_SAMPLES_PER_PERIOD = 2000
CHECK_SAMPLES = 2000  # uniform samples of the first-integral and slope-bound checks
N_OFFSETS = 50        # offsets s at which periodicity_check compares y(s + T) - y(s)


def validate_params(params: WeingartenParams) -> WeingartenParams:
    """Normalize c to 1 and reject anything outside the hyperbolic family
    studied here (a > 0, b != 0, a^2 + 4b < 0)."""
    if params.c <= 0:
        raise ValueError(f"requires c > 0 (got c={params.c}); scale the relation first")
    p = params if params.c == 1.0 else params.normalized()
    if p.a <= 0:
        raise ValueError(f"requires a > 0 after normalization (got a={p.a})")
    if p.b == 0:
        raise ValueError("b = 0 is the constant-mean-curvature case, out of scope here")
    if p.discriminant >= 0:
        raise ValueError(
            f"not hyperbolic: a^2 + 4b = {p.discriminant} >= 0 (needs a^2 + 4bc < 0)"
        )
    return p


def min_initial_height(params: WeingartenParams) -> float:
    """Initial heights must exceed -2b/a."""
    return -2.0 * params.b / params.a


def height_shift(params: WeingartenParams, z0: float) -> float:
    """f(z0) = z0^2 - a z0 - b, the conserved combination's constant."""
    return z0 * z0 - params.a * z0 - params.b


def _height(p: WeingartenParams, z0: float, ct):
    """Closed-form height at cos(theta) = ct on the profile through (0, z0)."""
    return 0.5 * (p.a * ct + np.sqrt((p.a * p.a + 4 * p.b) * ct * ct + 4 * height_shift(p, z0)))


def closed_form_height(params: WeingartenParams, z0: float, theta) -> np.ndarray:
    """Height as an explicit function of the turning angle."""
    return _height(params, z0, np.cos(theta))


def _theta_prime(p: WeingartenParams, z, ct):
    """theta' at height z and cos(theta) = ct."""
    return (p.a * ct - 2 * z) / (p.a * z + 2 * p.b * ct)


def slope(params: WeingartenParams, z, theta):
    """theta' from the governing system."""
    return _theta_prime(params, z, np.cos(theta))


@dataclass(frozen=True)
class SlopeBounds:
    """Constants bounding theta' away from zero and from -infinity.

    M = eta2/delta2 is the textbook constant; its derivation silently assumes
    the denominator bound delta2 which only holds for cos(theta) >= 0, so M
    is a true bound only when it is no tighter than the sharp bound M_sharp
    obtained by maximizing theta' along the closed-form height curve.
    ``formula_bound_valid`` records whether M applies to these parameters.
    """

    f_z0: float
    eta: float      # numerator lower bound: a cos(theta) - 2z >= eta
    delta2: float   # claimed denominator upper bound (valid for cos(theta) >= 0)
    eta2: float     # numerator upper bound
    M: float        # eta2 / delta2
    M_sharp: float  # max of theta' over the closed-form curve; always valid
    formula_bound_valid: bool


def _sharp_slope_bound(params: WeingartenParams, z0: float) -> float:
    c = np.linspace(-1.0, 1.0, 4097)
    tp = _theta_prime(params, _height(params, z0, c), c)
    k = int(np.argmax(tp))
    if 0 < k < len(c) - 1:
        # parabolic refinement of the grid maximum
        y0, y1, y2 = tp[k - 1], tp[k], tp[k + 1]
        denom = y0 - 2 * y1 + y2
        if denom < 0:
            dc = 0.5 * (y0 - y2) / denom
            return float(y1 - 0.25 * (y0 - y2) * dc)
    return float(tp[k])


def slope_bounds(params: WeingartenParams, z0: float) -> SlopeBounds:
    a, b = params.a, params.b
    f_z0 = height_shift(params, z0)
    f_turn = height_shift(params, min_initial_height(params))
    eta = -2.0 * math.sqrt(f_z0)
    delta2 = a * math.sqrt(f_z0)
    eta2 = -math.sqrt((a * a + 4 * b) + 4 * f_turn)
    M = eta2 / delta2
    M_sharp = _sharp_slope_bound(params, z0)
    return SlopeBounds(
        f_z0=f_z0, eta=eta, delta2=delta2, eta2=eta2, M=M,
        M_sharp=M_sharp, formula_bound_valid=bool(M_sharp <= M + 1e-12),
    )


@dataclass
class HyperbolicProfile:
    """Integrated profile curve over n_periods angular periods."""

    params: WeingartenParams
    z0: float
    n_periods: int
    tol: float
    trajectory: odekit.Trajectory
    period: float
    quarter_times: tuple[float, float, float]
    bounds: SlopeBounds

    @property
    def s_end(self) -> float:
        return self.trajectory.s_end

    def sample(self, n: int):
        """Uniform dense sampling: (s, x, z, theta, theta_prime)."""
        s = np.linspace(0.0, self.s_end, n)
        states = self.trajectory(s)
        x, z, theta = states[:, 0], states[:, 1], states[:, 2]
        return s, x, z, theta, slope(self.params, z, theta)


def _solve(p: WeingartenParams, z0: float, tol: float, s_end: float, events=()) -> odekit.Trajectory:
    """Integrate the profile system from (x, z, theta) = (0, z0, 0) towards
    s_end; theta' is admissible where a z + 2 b cos(theta) > 0."""
    a, b = p.a, p.b
    theta_prime = lambda z, ct, st: _theta_prime(p, z, ct) if a * z + 2 * b * ct > 0.0 else None
    return integrate(profile_spec(theta_prime, z0, tol, events), s_end)


def integrate_profile(
    params: WeingartenParams,
    z0: float,
    n_periods: int = 3,
    tol: float = 1e-10,
) -> HyperbolicProfile:
    """Integrate the profile over ``n_periods`` full turns of theta.

    Raises GuardViolationError if the positivity of the denominator or the
    strict negativity of theta' fails (the theory proves both cannot happen for
    admissible parameters, so a trigger means a bug or bad input).
    """
    if n_periods < 1:
        raise ValueError(f"n_periods = {n_periods} must be >= 1")
    p = validate_params(params)
    z_min0 = min_initial_height(p)
    if not z0 > z_min0:
        raise ValueError(
            f"initial height z0={z0} must exceed -2b/a = {z_min0} for this family"
        )
    bounds = slope_bounds(p, z0)
    theta_goal = -2.0 * math.pi * n_periods
    full_turns = Event(fn=lambda s, y: y[2] - theta_goal, direction=-1, name="full_turns")
    # theta' <= M < 0, so each turn takes at most 2*pi/|M|.
    horizon = 2.0 * math.pi * n_periods / abs(bounds.M) * 1.05 + 1.0
    traj = _solve(p, z0, tol, horizon, events=(full_turns,))

    if traj.reason == odekit.GUARD_STOP:
        raise GuardViolationError(
            "denominator a z + 2 b cos(theta) lost positivity; parameters violate the preconditions"
        )
    if traj.reason != odekit.EVENT_STOP:
        raise GuardViolationError(
            f"profile failed to complete {n_periods} turns before s={horizon} (reason={traj.reason})"
        )

    tp = slope(p, traj.states[:, 1], traj.states[:, 2])
    if np.any(tp >= 0):
        k = int(np.argmax(tp >= 0))
        raise GuardViolationError(
            f"theta' = {tp[k]} >= 0 at s = {traj.s[k]}; monotone turning violated"
        )

    # theta is strictly decreasing, so each angle is reached exactly once.
    period = traj.time_at(2, -2.0 * math.pi)
    quarter_times = tuple(traj.time_at(2, t) for t in (-math.pi / 2, -math.pi, -3 * math.pi / 2))
    return HyperbolicProfile(
        params=p, z0=z0, n_periods=n_periods, tol=tol,
        trajectory=traj, period=period, quarter_times=quarter_times, bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservationReport:
    max_residual: float
    max_closed_form_deviation: float


def _first_integral_defect(profile: HyperbolicProfile, z, theta):
    """z^2 - a z cos(theta) - b cos^2(theta) - f(z0); zero on exact solutions."""
    p = profile.params
    ct = np.cos(theta)
    return z * z - p.a * z * ct - p.b * ct * ct - profile.bounds.f_z0


def first_integral_residual(profile: HyperbolicProfile) -> ConservationReport:
    """Residual of the first integral along the trajectory, plus the worst
    deviation from the closed-form height."""
    _, _, z, theta, _ = profile.sample(CHECK_SAMPLES)
    res = _first_integral_defect(profile, z, theta)
    dev = z - closed_form_height(profile.params, profile.z0, theta)
    return ConservationReport(float(np.max(np.abs(res))), float(np.max(np.abs(dev))))


@dataclass(frozen=True)
class BoundsReport:
    """Measured extremes of the bounded quantities; the bounds themselves
    are ``profile.bounds``."""

    max_theta_prime: float
    min_numerator: float
    violations: tuple  # (name, s, value) of the first sample breaking each bound


def theta_prime_bounds_check(profile: HyperbolicProfile) -> BoundsReport:
    """Verify the slope bounds at all samples.

    Always checks theta' <= M_sharp (the closed-form bound) and the
    numerator bound a cos(theta) - 2z >= eta; additionally checks the
    textbook constant M = eta2/delta2 when it is a valid bound for these
    parameters (see SlopeBounds). Violations signal implementation bugs.
    """
    b = profile.bounds
    p = profile.params
    s, _, z, theta, tp = profile.sample(CHECK_SAMPLES)
    numerator = p.a * np.cos(theta) - 2 * z
    violations = []
    if b.formula_bound_valid:
        bad_m = tp > b.M + BOUND_SLACK
        if np.any(bad_m):
            k = int(np.argmax(bad_m))
            violations.append(("theta_prime_above_M", float(s[k]), float(tp[k])))
    bad_sharp = tp > b.M_sharp + 1e-8
    if np.any(bad_sharp):
        k = int(np.argmax(bad_sharp))
        violations.append(("theta_prime_above_sharp_bound", float(s[k]), float(tp[k])))
    bad_eta = numerator < b.eta - BOUND_SLACK
    if np.any(bad_eta):
        k = int(np.argmax(bad_eta))
        violations.append(("numerator_below_eta", float(s[k]), float(numerator[k])))
    return BoundsReport(
        max_theta_prime=float(np.max(tp)),
        min_numerator=float(np.min(numerator)),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PeriodicityReport:
    T: float
    x_T: float
    z_return_deviation: float    # |z(T) - z0|
    theta_return_deviation: float
    translation_defect: float    # worst of the three shift identities over sampled s


def periodicity_check(profile: HyperbolicProfile) -> PeriodicityReport:
    if profile.n_periods < 2:
        raise ValueError("periodicity check needs at least 2 integrated periods")
    T = profile.period
    traj = profile.trajectory
    x_T, z_T, th_T = traj(T)
    s = np.linspace(0.0, profile.s_end - T, N_OFFSETS)
    return PeriodicityReport(
        T=T,
        x_T=float(x_T),
        z_return_deviation=float(abs(z_T - profile.z0)),
        theta_return_deviation=float(abs(th_T + 2 * math.pi)),
        translation_defect=traj.shift_defect(T, s, (x_T, 0.0, -2 * math.pi)),
    )


# ---------------------------------------------------------------------------
# Structure analysis
# ---------------------------------------------------------------------------

def _crossings(p0, p1, q0, q1):
    """Batched crossing test of the segment pairs p0p1 and q0q1 (each array
    of shape (m, 2)).

    Returns the indices k of the pairs that cross, in increasing order, and
    their local parameters t (along p0p1) and w (along q0q1). Nearly
    parallel pairs (|det| < 1e-30) never cross.
    """
    d1 = p1 - p0
    d2 = q1 - q0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    k = np.nonzero(~(np.abs(det) < 1e-30))[0]
    d1, d2, r, det = d1[k], d2[k], (q0 - p0)[k], det[k]
    t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    w = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / det
    hit = (0.0 <= t) & (t <= 1.0) & (0.0 <= w) & (w <= 1.0)
    return k[hit], t[hit], w[hit]


def polyline_self_intersections(points: np.ndarray):
    """All crossings of non-adjacent segments of an open polyline.

    Returns a list of (i, t, j, w) with i + 2 <= j: segment indices and the
    local parameters of the crossing along each, ordered by i, then j.

    Sort-and-sweep on the x extents: with the segments sorted by their left
    end, the candidates of each segment are the contiguous run of later
    segments that start before it ends. The candidate pairs are filtered on
    their y extents and tested for a crossing in one batch.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 4:
        return []
    starts, ends = pts[:-1], pts[1:]
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    order = np.argsort(lo[:, 0], kind="stable")
    first = np.arange(1, len(order) + 1)
    counts = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - first
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    a = order[np.repeat(first - 1, counts)]
    b = order[np.repeat(first, counts) + offsets]
    i, j = np.minimum(a, b), np.maximum(a, b)
    keep = (j >= i + 2) & (lo[j, 1] <= hi[i, 1]) & (hi[j, 1] >= lo[i, 1])
    i, j = i[keep], j[keep]
    rank = np.lexsort((j, i))
    i, j = i[rank], j[rank]
    k, t, w = _crossings(starts[i], ends[i], starts[j], ends[j])
    return list(zip(i[k].tolist(), t.tolist(), j[k].tolist(), w.tolist()))


def self_intersections(profile: HyperbolicProfile):
    """Profile self-intersections as (s_a, s_b, point) with s_a < s_b.

    Found by exact segment-segment intersection over the dense polyline
    (DEFAULT_SAMPLES_PER_PERIOD points per period), then refined by re-sampling
    the dense output locally around each candidate. The curve continues to
    s < 0 as its mirror image about x = 0, so a return of x to zero at some
    s* > 0 is a crossing of the parameter pair (-s*, s*); those axis
    crossings are included (with a negative first parameter).
    """
    n = DEFAULT_SAMPLES_PER_PERIOD * profile.n_periods + 1
    s, x, z, _, _ = profile.sample(n)
    ds = s[1] - s[0]
    raw = polyline_self_intersections(np.column_stack([x, z]))
    results = []
    traj = profile.trajectory

    crossings = np.nonzero(np.diff(np.signbit(x[1:])))[0] + 1
    for k in crossings:
        s_star = find_root(lambda ss: traj(ss)[0], (float(s[k]), float(s[k + 1])), tol=1e-12)
        results.append((-float(s_star), float(s_star), (0.0, float(traj(s_star)[1]))))
    for i, t, j, w in raw:
        sa, sb = s[i] + t * ds, s[j] + w * ds
        # local refinement on the dense output
        fine = 32
        ga = np.linspace(max(sa - ds, 0.0), min(sa + ds, profile.s_end), fine)
        gb = np.linspace(max(sb - ds, 0.0), min(sb + ds, profile.s_end), fine)
        pa = traj(ga)[:, :2]
        pb = traj(gb)[:, :2]
        ii, jj = np.divmod(np.arange((fine - 1) ** 2), fine - 1)
        k, tt, ww = _crossings(pa[ii], pa[ii + 1], pb[jj], pb[jj + 1])
        if len(k):  # the first crossing in (ii, jj) row-major order
            ia, ib = ii[k[0]], jj[k[0]]
            sa = ga[ia] + tt[0] * (ga[ia + 1] - ga[ia])
            sb = gb[ib] + ww[0] * (gb[ib + 1] - gb[ib])
        point = traj(sa)[:2]
        results.append((float(sa), float(sb), (float(point[0]), float(point[1]))))
    return results


_QUARTER_EXPECTATION = (
    ("increasing", "decreasing"),
    ("decreasing", "decreasing"),
    ("decreasing", "increasing"),
    ("increasing", "increasing"),
)


@dataclass
class StructureReport:
    monotonicity: list            # per quarter: {"x": bool, "z": bool}
    monotonicity_ok: bool
    z_max_at_start: bool
    z_min_at_half_period: bool
    vertical_points: list
    one_vertical_per_half: bool
    intersections: list
    intersections_per_period: list
    gauss_sign_arcs: list         # (s_lo, s_hi, sign, expected_sign)
    gauss_sign_ok: bool
    symmetry_defect: float


def _monotone(values: np.ndarray, direction: str) -> bool:
    d = np.diff(values)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(values))))
    return bool(np.all(d >= -tol)) if direction == "increasing" else bool(np.all(d <= tol))


def structure_report(profile: HyperbolicProfile) -> StructureReport:
    """Check the tabulated monotonicity pattern, the extrema and vertical
    points of one period, locate self-intersections, verify the sign of the
    Gauss curvature on the arcs separated by vertical points (via geomcore on
    the revolved surface), and measure the mirror-symmetry defect about x=0
    by backward integration."""
    T = profile.period
    T1, T2, T3 = profile.quarter_times
    traj = profile.trajectory

    monotonicity = []
    edges = [0.0, T1, T2, T3, T]
    for k in range(4):
        s = np.linspace(edges[k], edges[k + 1], 250)
        states = traj(s)
        verdict = {
            "x": _monotone(states[:, 0], _QUARTER_EXPECTATION[k][0]),
            "z": _monotone(states[:, 1], _QUARTER_EXPECTATION[k][1]),
        }
        monotonicity.append(verdict)
    monotonicity_ok = all(v["x"] and v["z"] for v in monotonicity)

    s_period = np.linspace(0.0, T, 4 * DEFAULT_SAMPLES_PER_PERIOD)
    states_period = traj(s_period)
    z_period = states_period[:, 1]
    z_max_at_start = bool(profile.z0 >= np.max(z_period) - 1e-9)
    z_min_at_half = bool(traj(T2)[1] <= np.min(z_period) + 1e-9)

    # Vertical tangents are the roots of cos(theta) inside the period.
    theta_period = states_period[:, 2]
    ct = np.cos(theta_period)
    crossings = np.nonzero(np.diff(np.signbit(ct)))[0]
    vertical_points = []
    for k in crossings:
        vertical_points.append(
            find_root(lambda s: math.cos(traj(s)[2]), (float(s_period[k]), float(s_period[k + 1])), tol=1e-12)
        )
    in_first_half = [v for v in vertical_points if 0 < v < T2]
    in_second_half = [v for v in vertical_points if T2 < v < T]
    one_vertical_per_half = len(in_first_half) == 1 and len(in_second_half) == 1

    # Self-intersection loops can straddle period boundaries (their crossing
    # midpoints typically sit at multiples of T), so a finite window cuts the
    # first and last loop in half. Fold midpoints modulo T and count crossing
    # classes: by the separately verified translation invariance, each class
    # occurs once in every period of the periodic extension.
    intersections = self_intersections(profile)
    folded = sorted(((sa + sb) / 2) % T for sa, sb, _ in intersections)
    classes = []
    for m in folded:
        wrapped = min(m, T - m)  # distance to 0 for boundary-straddling classes
        if any(abs(m - c) < 1e-3 * T or abs(wrapped - min(c, T - c)) < 1e-3 * T for c in classes):
            continue
        classes.append(m)
    per_period = [len(classes)] * profile.n_periods

    # Gauss-curvature sign on the arcs bounded by vertical points, sampled
    # through geomcore on the revolved surface, seven points per arc.
    arcs = [(0.0, T1, 1), (T1, T3, -1), (T3, T, 1)]
    ss = np.concatenate([np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 7) for lo, hi, _ in arcs])
    gauss = geomcore.curvature_field(profile_patch(profile), ss, [0.5]).K.reshape(len(arcs), 7)
    gauss_arcs = []
    gauss_ok = True
    for (s_lo, s_hi, expected), ks in zip(arcs, gauss):
        sign = 1 if all(k > 0 for k in ks) else (-1 if all(k < 0 for k in ks) else 0)
        gauss_arcs.append((float(s_lo), float(s_hi), sign, expected))
        gauss_ok = gauss_ok and sign == expected

    # Mirror symmetry about x = 0: integrate backward and compare.
    back = _solve(profile.params, profile.z0, profile.tol, -T / 2)
    dx, dz, _ = geomcore.mirror_defects(traj, back, np.linspace(0.0, T / 2, 200))
    symmetry_defect = float(dx + dz)

    return StructureReport(
        monotonicity=monotonicity,
        monotonicity_ok=monotonicity_ok,
        z_max_at_start=z_max_at_start,
        z_min_at_half_period=z_min_at_half,
        vertical_points=vertical_points,
        one_vertical_per_half=one_vertical_per_half,
        intersections=intersections,
        intersections_per_period=per_period,
        gauss_sign_arcs=gauss_arcs,
        gauss_sign_ok=gauss_ok,
        symmetry_defect=symmetry_defect,
    )


# ---------------------------------------------------------------------------
# Revolution surface
# ---------------------------------------------------------------------------

@dataclass
class RevolvedSurface:
    patch: SurfacePatch
    vertices: np.ndarray
    faces: np.ndarray


def profile_patch(profile: HyperbolicProfile) -> SurfacePatch:
    """X(s, phi) = (x(s), z(s) cos phi, z(s) sin phi) with partials assembled
    from the trajectory interpolant; second s-derivatives use theta' from the
    governing system. Parameter order (s, phi) realizes the normal for which
    a*H + b*K = 1 holds with no sign flip.

    Requires z > 0 along the profile (DegeneratePointError otherwise).
    """
    _, _, z, _, _ = profile.sample(8 * DEFAULT_SAMPLES_PER_PERIOD // 10)
    if np.min(z) <= 0:
        raise DegeneratePointError(
            f"profile height reaches z = {np.min(z):.6g} <= 0; surface of revolution is singular"
        )
    p = profile.params
    traj = profile.trajectory

    def pos(s, phi):
        (x, z, _, _, _), (cp, sp) = profile_columns(traj(s)), cos_sin(phi)
        return grid_vec(s, phi, x, z * cp, z * sp)

    def partials(s, phi):
        (_, z, th, ct, st), (cp, sp) = profile_columns(traj(s)), cos_sin(phi)
        tp = slope(p, z, th)
        return (
            grid_vec(s, phi, ct, st * cp, st * sp),
            grid_vec(s, phi, 0.0, -z * sp, z * cp),
            grid_vec(s, phi, -st * tp, ct * tp * cp, ct * tp * sp),
            grid_vec(s, phi, 0.0, -st * sp, st * cp),
            grid_vec(s, phi, 0.0, -z * cp, -z * sp),
        )

    return SurfacePatch(u_range=(0.0, profile.s_end), v_range=(0.0, 2 * math.pi), position=pos, partials=partials)


def revolve(profile: HyperbolicProfile, phi_samples: int = 64, s_samples: int = 200) -> RevolvedSurface:
    """Revolve the profile about the x-axis into a quad mesh + patch.

    Requires z > 0 along the profile (DegeneratePointError otherwise). The
    relation a*H + b*K = 1 on the patch is the ``surface_relation`` verdict
    of ``report``.
    """
    patch = profile_patch(profile)
    verts, faces = meshes.sample_grid_mesh(patch, s_samples, phi_samples, wrap_v=True)
    return RevolvedSurface(patch=patch, vertices=verts, faces=faces)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def export_curve_csv(profile: HyperbolicProfile, path, samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD) -> None:
    if samples_per_period < 1:
        raise ValueError(f"samples_per_period = {samples_per_period} must be at least 1")
    s, x, z, theta, tp = profile.sample(samples_per_period * profile.n_periods + 1)
    write_csv(path, ["s", "x", "z", "theta", "theta_prime", "first_integral_residual"],
              [s, x, z, theta, tp, _first_integral_defect(profile, z, theta)])


def report(profile: HyperbolicProfile, structure: StructureReport = None) -> dict:
    """JSON-ready verification report; the only place that decides the
    verdicts of a rotational profile."""
    cons = first_integral_residual(profile)
    bounds_rep = theta_prime_bounds_check(profile)
    per = periodicity_check(profile) if profile.n_periods >= 2 else None
    if structure is None:
        structure = structure_report(profile)
    u = np.linspace(0.0, profile.s_end, 25 * profile.n_periods)
    v = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    res, _ = geomcore.weingarten_residual(profile_patch(profile), profile.params, u, v)
    bounds = profile.bounds
    verdicts = {
        "first_integral": cons.max_residual < 1e-8,
        "closed_form_height": cons.max_closed_form_deviation < 1e-8,
        "theta_prime_bounds": len(bounds_rep.violations) == 0,
        "z_period_return": per is None or per.z_return_deviation < 1e-6,
        "translation_invariance": per is None or per.translation_defect < 1e-6,
        "monotonicity_table": structure.monotonicity_ok,
        "extrema": structure.z_max_at_start and structure.z_min_at_half_period,
        "vertical_points": structure.one_vertical_per_half,
        "self_intersections": all(c >= 1 for c in structure.intersections_per_period),
        "gauss_sign": structure.gauss_sign_ok,
        "mirror_symmetry": structure.symmetry_defect < 1e-7,
        "surface_relation": res < 1e-6,
    }
    return {
        "report": "rot_r3",
        "params": {"a": profile.params.a, "b": profile.params.b, "c": profile.params.c,
                   "discriminant": profile.params.discriminant},
        "z0": profile.z0,
        "n_periods": profile.n_periods,
        "tol": profile.tol,
        "T": profile.period,
        "T1": profile.quarter_times[0],
        "T2": profile.quarter_times[1],
        "T3": profile.quarter_times[2],
        "bounds": {"eta": bounds.eta, "delta2": bounds.delta2, "eta2": bounds.eta2,
                   "M": bounds.M, "M_sharp": bounds.M_sharp,
                   "formula_bound_valid": bounds.formula_bound_valid},
        "first_integral_residual": cons.max_residual,
        "closed_form_deviation": cons.max_closed_form_deviation,
        "periodicity": None if per is None else {
            "x_T": per.x_T,
            "z_return_deviation": per.z_return_deviation,
            "theta_return_deviation": per.theta_return_deviation,
            "translation_defect": per.translation_defect,
        },
        "self_intersections": len(structure.intersections),
        "intersections_per_period": structure.intersections_per_period,
        "symmetry_defect": structure.symmetry_defect,
        "surface_relation_residual": res,
        "verdicts": verdicts,
    }
