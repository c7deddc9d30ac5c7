"""Parabolic linear Weingarten profile curves in the upper half-space model
of hyperbolic 3-space.

The invariant surface is X(s, t) = (x(s), t, z(s)) with z > 0; with respect
to the unit normal (-sin(theta), 0, cos(theta)) its principal curvatures are

    kappa1 = z(s) theta'(s) + cos(theta),   kappa2 = cos(theta),

and the relation a*H + b*K = 1 (c normalized to 1, K the intrinsic Gauss
curvature kappa1*kappa2 - 1 of the ambient-curvature Gauss equation) reduces
to the turning-angle equation

    theta' = 2 (1 - a cos(theta) + b sin^2(theta)) / (z (a + 2b cos(theta))).

This module integrates that equation with event handling for the
finite-time breakdown cases, classifies parameter pairs into the six named
cases, solves the circle and boundary-angle subproblems, and verifies the
differentiated-relation identity along trajectories.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import odekit
from .csvio import write_csv
from .errors import (
    DegeneratePointError,
    NoRootError,
    NotCircleCaseError,
    OutOfScopeParamsError,
    StepUnderflowError,
)
from .geomcore import SurfacePatch, cos_sin, grid_vec, profile_columns, profile_spec, reversal_defect
from .odekit import Event, find_root, integrate

CASE_DEGENERATE_LINE = "DegenerateLine"
CASE_EUCLIDEAN_CIRCLE = "EuclideanCircle"
CASE_COMPLETE_CONCAVE_GRAPH = "CompleteConcaveGraph"
CASE_INCOMPLETE_GRAPH = "IncompleteGraph"
CASE_PERIODIC_COMPLETE = "PeriodicComplete"
CASE_INCOMPLETE_NON_GRAPH = "IncompleteNonGraph"

HARD_DENOMINATOR_FLOOR = 1e-9
Z_FLOOR = 1e-8  # height at which the z -> 0 breakdown event fires
DEN_FLOOR = 1e-6  # |a + 2b cos(theta)| at which the denominator event fires
MAX_TURNS = 2.0  # full turns of theta before the angle_span event stops a run
CIRCLE_TOL = 1e-12
# Base step of the derivative identity's finite differences, and the largest
# contribution their estimated error may make to a sample's residual.
FD_STEP = 1e-5
FD_BUDGET = 1e-7


def circle_invariant(a: float, b: float) -> float:
    """a^2 + 4b^2 + 4b; zero exactly on the Euclidean-circle family."""
    return a * a + 4 * b * b + 4 * b


def _den(a: float, b: float, ct):
    """The angular denominator a + 2b cos(theta) at cos(theta) = ct."""
    return a + 2 * b * ct


def _theta_prime(a: float, b: float, z, ct, st):
    """theta' at height z, cos(theta) = ct and sin(theta) = st (c = 1)."""
    return 2.0 * (1.0 - a * ct + b * st * st) / (z * _den(a, b, ct))


def initial_slope(a: float, b: float, z0: float, c: float = 1.0) -> float:
    den = _den(a, b, 1.0)
    if abs(den) < 1e-12:
        raise OutOfScopeParamsError(f"a + 2b = {den}: boundary equality, not classified")
    return (2.0 / z0) * (c - a) / den


def slope(a: float, b: float, z, theta):
    """theta' from the reduced relation (c = 1)."""
    return _theta_prime(a, b, z, np.cos(theta), np.sin(theta))


def relation_residual(a: float, b: float, z, theta, theta_prime):
    """Pointwise residual of (a/2 + b cos)z theta' + a cos - b sin^2 - 1."""
    ct = np.cos(theta)
    st = np.sin(theta)
    return (a / 2 + b * ct) * z * theta_prime + a * ct - b * st * st - 1.0


@dataclass
class ParabolicProfile:
    """Forward branch of the profile; the backward branch is its mirror
    image about x = 0 (uniqueness of the initial value problem)."""

    a: float
    b: float
    z0: float
    tol: float
    trajectory: odekit.Trajectory
    cause: str  # horizon | z_floor | denominator | angle_span | guard | step_underflow

    @property
    def s_max(self) -> float:
        return self.trajectory.s_end

    @property
    def s_bar(self) -> float:
        """Estimated maximal-interval endpoint; inf when no breakdown occurred."""
        if self.cause in ("z_floor", "denominator", "step_underflow", "guard"):
            return self.s_max
        return math.inf

    def sample(self, n: int):
        """(s, x, z, theta, theta_prime, kappa1, kappa2) on the forward branch."""
        s = np.linspace(0.0, self.s_max, n)
        st = self.trajectory(s)
        x, z, theta = st[:, 0], st[:, 1], st[:, 2]
        tp = slope(self.a, self.b, z, theta)
        k2 = np.cos(theta)
        k1 = z * tp + k2
        return s, x, z, theta, tp, k1, k2

    def mirrored_sample(self, n: int):
        """Full symmetric curve on [-s_max, s_max]."""
        s_f, x, z, theta, tp, k1, k2 = self.sample((n + 1) // 2)
        s = np.concatenate([-s_f[:0:-1], s_f])
        return (
            s,
            np.concatenate([-x[:0:-1], x]),
            np.concatenate([z[:0:-1], z]),
            np.concatenate([-theta[:0:-1], theta]),
            np.concatenate([tp[:0:-1], tp]),
            np.concatenate([k1[:0:-1], k1]),
            np.concatenate([k2[:0:-1], k2]),
        )

    def max_relation_residual(self) -> float:
        _, _, z, theta, tp, _, _ = self.sample(2000)
        return float(np.max(np.abs(relation_residual(self.a, self.b, z, theta, tp))))


def _admissible_theta_prime(a: float, b: float):
    """theta'(z, cos(theta), sin(theta)) of the profile system where z > 0 and
    |a + 2b cos(theta)| > HARD_DENOMINATOR_FLOOR, None elsewhere."""

    def theta_prime(z, ct, st):
        if z > 0.0 and abs(_den(a, b, ct)) > HARD_DENOMINATOR_FLOOR:
            return _theta_prime(a, b, z, ct, st)
        return None

    return theta_prime


def _check_z0(z0: float) -> None:
    """Refuse a start at or below the z -> 0 breakdown height: it is already
    past the breakdown that the z_floor event reports.

    Just above the floor (z0 = 2e-8) theta' ~ 1/z0 is so large against
    atol that odekit's starting step is below the minimum step;
    ``integrate_parabolic`` then raises StepUnderflowError."""
    if not z0 > Z_FLOOR:
        raise ValueError(f"z0 = {z0} must exceed the z floor {Z_FLOOR} (upper half-space)")


def integrate_parabolic(
    a: float,
    b: float,
    z0: float,
    tol: float = 1e-11,
    horizon: float = 1000.0,
) -> ParabolicProfile:
    """Integrate the profile forward until the horizon, MAX_TURNS full turns,
    or one of the breakdown events (z -> 0, vanishing angular denominator).
    Requires z0 > Z_FLOOR (ValueError otherwise); raises StepUnderflowError
    when the step control cannot take a first step.

    The breakdown events encode the finite maximal-interval cases of the
    classification; they terminate the run cleanly and are recorded in
    ``cause``. The right-hand side returns None (a blocked stage) where
    z <= 0 or |a + 2b cos(theta)| <= 1e-9.
    """
    _check_z0(z0)
    initial_slope(a, b, z0)  # validates the a + 2b boundary equality

    events = (
        Event(fn=lambda s, y: y[1] - Z_FLOOR, name="z_floor"),
        Event(fn=lambda s, y: abs(_den(a, b, math.cos(y[2]))) - DEN_FLOOR, name="denominator"),
        Event(fn=lambda s, y: 2 * math.pi * MAX_TURNS - abs(y[2]), name="angle_span"),
    )
    traj = integrate(profile_spec(_admissible_theta_prime(a, b), z0, tol, events), horizon)
    if traj.reason == odekit.UNDERFLOW and len(traj.s) == 1:
        raise StepUnderflowError(f"the first step from z0 = {z0} underflows: nothing to verify", trajectory=traj)
    causes = {odekit.REACHED_END: "horizon", odekit.GUARD_STOP: "guard", odekit.UNDERFLOW: "step_underflow"}
    cause = causes.get(traj.reason) or traj.event.name

    profile = ParabolicProfile(a=a, b=b, z0=z0, tol=tol, trajectory=traj, cause=cause)

    # The turning dichotomy: theta' never changes sign unless it vanishes
    # identically (straight line). At an ideal-boundary endpoint both the
    # numerator and z vanish, so theta' -> 0 there and roundoff can wiggle
    # its sign in the terminal layer. At a denominator stop the event root
    # can sit inside the last step, so the end state may have crossed
    # a + 2b cos(theta) = 0, where theta' has blown up with the other sign.
    # The check covers the open interior.
    _, _, z, _, tp, _, ct = profile.sample(500)
    if cause == "z_floor":
        interior = z > 100 * Z_FLOOR
    elif cause == "denominator":
        interior = np.abs(_den(a, b, ct)) > 100 * DEN_FLOOR
    else:
        interior = np.ones_like(z, dtype=bool)
    tp0 = initial_slope(a, b, z0)
    if tp0 != 0.0 and np.any(tp[interior] * np.sign(tp0) < -1e-12):
        raise OutOfScopeParamsError(
            f"theta' changed sign along the trajectory at tol = {tol:g}: the parameters are outside"
            " the studied families, or the sign change is integration error at that tolerance"
        )
    return profile


# ---------------------------------------------------------------------------
# Explicit subcases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleSolution:
    center: tuple[float, float]
    radius: float
    theta_prime: float
    max_deviation: float
    dips_below_boundary: bool


def circle_solution(a: float, b: float, z0: float, profile: ParabolicProfile = None) -> CircleSolution:
    """Constant-curvature solution on the family a^2 + 4b^2 + 4b = 0.

    The relation collapses to -2bz theta' = a + 2b cos(theta), whose
    differentiation forces theta'' = 0: the profile is the Euclidean circle
    through (0, z0) with horizontal tangent and curvature -(a+2b)/(2b z0).
    Reports the integrated trajectory's max distance from that circle.
    """
    if b == 0 or abs(circle_invariant(a, b)) >= CIRCLE_TOL:
        raise NotCircleCaseError(
            f"a^2 + 4b^2 + 4b = {circle_invariant(a, b)} is not ~0 (or b = 0)"
        )
    tp = -(a + 2 * b) / (2 * b * z0)
    if tp == 0:
        raise NotCircleCaseError("constant curvature is zero: straight line, not a circle")
    radius = 1.0 / abs(tp)
    center = (0.0, z0 + 1.0 / tp)
    if profile is None:
        profile = integrate_parabolic(a, b, z0)
    _, x, z, _, _, _, _ = profile.sample(2000)
    dist = np.hypot(x - center[0], z - center[1])
    return CircleSolution(
        center=center,
        radius=radius,
        theta_prime=tp,
        max_deviation=float(np.max(np.abs(dist - radius))),
        dips_below_boundary=bool(center[1] - radius <= 0.0),
    )


def boundary_angle(a: float, b: float) -> float:
    """Ideal-boundary contact angle theta1 in (-pi/2, 0): the root of
    a cos(theta) - b sin^2(theta) - 1 = 0 of smallest |theta| (the first one
    reached by the decreasing angle), located by bracketing refinement."""
    disc = circle_invariant(a, b)

    def g(theta):
        return a * math.cos(theta) - b * math.sin(theta) ** 2 - 1.0

    candidates = []
    if disc >= 0 and b != 0:
        # quadratic in cos(theta): b c^2 + a c - (b + 1) = 0
        root = math.sqrt(disc)
        for cval in ((-a + root) / (2 * b), (-a - root) / (2 * b)):
            if 1e-12 < cval < 1.0 - 1e-12:
                candidates.append(-math.acos(cval))
    candidates.sort(key=abs)
    for theta_est in candidates:
        delta = 1e-6
        while delta < math.pi / 2:
            lo = max(theta_est - delta, -math.pi / 2 + 1e-9)
            hi = min(theta_est + delta, -1e-9)
            if g(lo) * g(hi) < 0:
                return find_root(g, (lo, hi), tol=1e-12)
            delta *= 4
    raise NoRootError(
        f"a cos(t) - b sin^2(t) - 1 has no root in (-pi/2, 0) for a={a}, b={b}"
    )


def boundary_angle_statement_equation(a: float, b: float) -> Optional[float]:
    """Root in (-pi/2, 0) of the alternative published form
    2 cos(theta) - b sin^2(theta) = 0, reported alongside theta1 so the
    discrepancy between the two equations stays visible. None if no root."""
    if b == 0:
        return None
    disc = 4 + 4 * b * b
    for cval in ((-2 + math.sqrt(disc)) / (2 * b), (-2 - math.sqrt(disc)) / (2 * b)):
        if 1e-12 < cval < 1.0 - 1e-12:
            return -math.acos(cval)
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class ParabClassification:
    label: str
    a: float
    b: float
    z0: float
    theta_prime_0: float
    circle_invariant: float
    threshold_low: Optional[float]   # -(1+sqrt(1-a^2))/2
    threshold_high: Optional[float]  # -(1-sqrt(1-a^2))/2
    a_plus_2b: float
    a_minus_2b: float
    theta1: Optional[float]
    theta1_statement_equation: Optional[float]
    termination_cause: str
    corroborated: bool
    corroboration: dict


def _corroborate(profile: ParabolicProfile, label: str, theta1: Optional[float]) -> tuple[bool, dict]:
    """Cross-validate the decision-tree label against the integrated
    trajectory's termination cause and shape."""
    notes: dict = {"termination_cause": profile.cause}
    _, x, z, theta, tp, _, _ = profile.sample(1500)

    if label == CASE_DEGENERATE_LINE:
        ok = profile.cause == "horizon" and float(np.max(np.abs(tp))) < 1e-9
        notes["max_abs_theta_prime"] = float(np.max(np.abs(tp)))
        return ok, notes

    if label == CASE_EUCLIDEAN_CIRCLE:
        sol = circle_solution(profile.a, profile.b, profile.z0, profile=profile)
        notes["circle_deviation"] = sol.max_deviation
        return profile.cause == "angle_span" and sol.max_deviation < 1e-8, notes

    if label == CASE_COMPLETE_CONCAVE_GRAPH:
        notes["z_end"] = float(z[-1])
        notes["theta_end"] = float(theta[-1])
        notes["theta1_gap"] = abs(float(theta[-1]) - theta1) if theta1 is not None else None
        # z'' = theta' cos(theta) < 0 (concave vertical graph), and the
        # denominator stays below -sqrt(a^2 + 4b^2 + 4b). Checked on the open
        # interior: at the ideal-boundary endpoint theta' -> 0 and roundoff
        # wiggles its sign.
        interior = z > 100 * Z_FLOOR
        concave = bool(np.all(tp[interior] * np.cos(theta[interior]) < 1e-12))
        notes["concave"] = concave
        inv = circle_invariant(profile.a, profile.b)
        den_envelope = bool(
            np.all(_den(profile.a, profile.b, np.cos(theta[interior])) < -math.sqrt(inv) + 1e-9)
        )
        notes["denominator_envelope"] = den_envelope
        ok = (
            profile.cause == "z_floor"
            and concave
            and den_envelope
            and theta1 is not None
            and abs(float(theta[-1]) - theta1) < 1e-3
        )
        return ok, notes

    if label == CASE_INCOMPLETE_GRAPH:
        half_den_end = profile.a / 2 + profile.b * math.cos(float(theta[-1]))
        notes["z_end"] = float(z[-1])
        notes["half_denominator_end"] = half_den_end
        # 1 - a cos + b sin^2 stays above the positive floor inv/(4b).
        inv = circle_invariant(profile.a, profile.b)
        floor = inv / (4 * profile.b)
        num = 1 - profile.a * np.cos(theta) + profile.b * np.sin(theta) ** 2
        num_floor_ok = bool(floor > 0 and np.all(num >= floor - 1e-9))
        notes["numerator_floor"] = floor
        notes["numerator_floor_ok"] = num_floor_ok
        ok = (
            profile.cause in ("denominator", "step_underflow")
            and float(z[-1]) > 10 * Z_FLOOR
            and abs(half_den_end) < 1e-5
            and num_floor_ok
        )
        return ok, notes

    if label == CASE_PERIODIC_COMPLETE:
        reached_pi = float(np.max(theta)) >= math.pi - 1e-9
        notes["reached_pi"] = reached_pi
        if not (profile.cause == "angle_span" and reached_pi):
            return False, notes
        # translation invariance over the two integrated periods
        traj = profile.trajectory
        T = traj.time_at(2, 2 * math.pi)
        ss = np.linspace(0.0, min(T, profile.s_max - T), 40)
        defect = traj.shift_defect(T, ss, (traj(T)[0], 0.0, 2 * math.pi))
        notes["period"] = float(T)
        notes["translation_defect"] = defect
        return defect < 1e-6, notes

    if label == CASE_INCOMPLETE_NON_GRAPH:
        passed_vertical = float(np.max(theta)) > math.pi / 2
        notes["passed_vertical"] = passed_vertical
        notes["z_end"] = float(z[-1])
        ok = (
            profile.cause in ("denominator", "step_underflow")
            and passed_vertical
            and float(z[-1]) > 0
        )
        return ok, notes

    return False, notes


def classify(a: float, b: float, z0: float, tol: float = 1e-11) -> ParabClassification:
    """Decision tree over (a, b, z0) with c = 1.

    Degenerate-line and circle tests apply for any a; the four-way tree
    requires 0 < a < 1 and b != 0. Boundary equalities and parameters
    outside that range raise OutOfScopeParamsError rather than guessing.
    z0 must exceed the z floor of the integration (ValueError otherwise);
    the corroborating run integrates with tolerance ``tol``.
    """
    _check_z0(z0)
    tp0 = initial_slope(a, b, z0)  # raises on a + 2b = 0
    inv = circle_invariant(a, b)

    label = None
    theta1 = None
    if tp0 == 0.0:
        label = CASE_DEGENERATE_LINE
    elif abs(inv) < CIRCLE_TOL and b != 0:
        label = CASE_EUCLIDEAN_CIRCLE

    thr_low = thr_high = None
    if 0 < a < 1:
        root = math.sqrt(1 - a * a)
        thr_low = -(1 + root) / 2
        thr_high = -(1 - root) / 2

    if label is None:
        if not (0 < a < 1):
            raise OutOfScopeParamsError(
                f"a = {a} outside (0, 1): the non-degenerate classification covers 0 < a < 1 only"
            )
        if b == 0:
            raise OutOfScopeParamsError("b = 0 (constant mean curvature) is not classified here")
        if a + 2 * b < 0:
            if b < thr_low:
                label = CASE_COMPLETE_CONCAVE_GRAPH
                theta1 = boundary_angle(a, b)
            elif thr_low < b < -a / 2:
                label = CASE_INCOMPLETE_GRAPH
            else:  # pragma: no cover - b == thr_low is the circle case, caught above
                raise OutOfScopeParamsError(f"b = {b} sits on a classification boundary")
        else:
            label = CASE_PERIODIC_COMPLETE if a - 2 * b > 0 else CASE_INCOMPLETE_NON_GRAPH

    profile = integrate_parabolic(a, b, z0, tol=tol)
    corroborated, notes = _corroborate(profile, label, theta1)

    return ParabClassification(
        label=label,
        a=a, b=b, z0=z0,
        theta_prime_0=tp0,
        circle_invariant=inv,
        threshold_low=thr_low,
        threshold_high=thr_high,
        a_plus_2b=a + 2 * b,
        a_minus_2b=a - 2 * b,
        theta1=theta1,
        theta1_statement_equation=boundary_angle_statement_equation(a, b),
        termination_cause=profile.cause,
        corroborated=corroborated,
        corroboration=notes,
    )


# ---------------------------------------------------------------------------
# Differentiated-relation identity
# ---------------------------------------------------------------------------

def derivative_identity_residual(profile: ParabolicProfile) -> float:
    """Residual of the s-derivative of the defining relation,

        -theta' sin(theta) [b z theta' + (a/2 + b cos(theta))]
            + (a/2 + b cos(theta)) z theta'' = 0,

    with theta'' from Richardson-extrapolated central differences of theta'
    (base step FD_STEP) on the dense output. Sampled at dense-segment
    midpoints so the stencil never straddles an interpolation knot, and
    restricted to the resolvable interior: samples where the estimated
    finite-difference error contributes more than FD_BUDGET to the residual
    (the curvature blow-up layer near a finite maximal interval) carry no
    information about the identity and are skipped. A NaN sample is kept and
    ignored by the maximum, which is 0.0 over no samples. Vanishes along
    exact solutions.
    """
    a, b = profile.a, profile.b
    traj = profile.trajectory
    s0, s1 = traj.s[:-1], traj.s[1:]
    wide = np.abs(s1 - s0) >= 4 * FD_STEP
    m = 0.5 * (s0[wide] + s1[wide])

    def tp_at(s):
        _, z, th = traj(s).T
        return slope(a, b, z, th)

    d_full = (tp_at(m + FD_STEP) - tp_at(m - FD_STEP)) / (2 * FD_STEP)
    d_half = (tp_at(m + FD_STEP / 2) - tp_at(m - FD_STEP / 2)) / FD_STEP
    tpp = (4 * d_half - d_full) / 3
    fd_err = np.abs(d_half - d_full) / 3
    _, z, th = traj(m).T
    ct, st = cos_sin(th)
    half = a / 2 + b * ct
    keep = ~(fd_err * np.abs(half * z) > FD_BUDGET)
    tp = slope(a, b, z, th)
    res = -tp * st * (b * z * tp + half) + half * z * tpp
    return float(np.fmax.reduce(np.abs(res[keep]), initial=0.0))


# ---------------------------------------------------------------------------
# Invariant surface patch
# ---------------------------------------------------------------------------

@dataclass
class ParabolicPatch:
    """Euclidean patch X(s, t) = (x(s), t, z(s)) plus the hyperbolic
    curvature data of the invariant surface. Hyperbolic principal curvatures
    come from the explicit formulas, not from the Euclidean engine."""

    patch: SurfacePatch
    profile: ParabolicProfile
    relation_residual_max: float


def parab_patch(profile: ParabolicProfile, t_range=(-1.0, 1.0)) -> ParabolicPatch:
    """Build the invariant-surface patch and verify a*H + b*K = 1 pointwise
    with H = (k1+k2)/2 and K = k1*k2 - 1 (Gauss equation in curvature -1)."""
    traj = profile.trajectory
    a, b = profile.a, profile.b

    _, _, z, theta, tp, k1, k2 = profile.sample(400)
    if np.min(z) <= 0:
        raise DegeneratePointError("profile leaves the upper half-space")
    H = 0.5 * (k1 + k2)
    K = k1 * k2 - 1.0
    residual = float(np.max(np.abs(a * H + b * K - 1.0)))

    def pos(s, t):
        x, z_, _, _, _ = profile_columns(traj(s))
        return grid_vec(s, t, x, t, z_)

    def partials(s, t):
        _, z_, th, ct, st = profile_columns(traj(s))
        tp_ = slope(a, b, z_, th)
        zero = grid_vec(s, t, 0.0, 0.0, 0.0)
        return (
            grid_vec(s, t, ct, 0.0, st),
            grid_vec(s, t, 0.0, 1.0, 0.0),
            grid_vec(s, t, -st * tp_, 0.0, ct * tp_),
            zero,
            zero,
        )

    patch = SurfacePatch(u_range=(0.0, profile.s_max), v_range=tuple(t_range), position=pos, partials=partials)
    return ParabolicPatch(patch=patch, profile=profile, relation_residual_max=residual)


def mirror_defect(profile: ParabolicProfile) -> float:
    """Mirror-symmetry defect about x = 0: the reversal defect of the profile
    system (``geomcore.reversal_defect``) at 200 states on [0, 0.999 s_max]."""
    s = np.linspace(0.0, 0.999 * profile.s_max, 200)
    return reversal_defect(_admissible_theta_prime(profile.a, profile.b), s, profile.trajectory(s))


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def export_curve_csv(profile: ParabolicProfile, path) -> None:
    """Full symmetric curve at 2001 samples:
    s,x,z,theta,theta_prime,kappa1,kappa2,relation_residual."""
    s, x, z, theta, tp, k1, k2 = profile.mirrored_sample(2001)
    write_csv(path, ["s", "x", "z", "theta", "theta_prime", "kappa1", "kappa2", "relation_residual"],
              [s, x, z, theta, tp, k1, k2, relation_residual(profile.a, profile.b, z, theta, tp)])


def profile_report(profile: ParabolicProfile) -> dict:
    """JSON-ready verification report of an integrated profile. Every
    verdict is false on an empty trajectory (s_max = 0)."""
    relation = profile.max_relation_residual()
    mirror = mirror_defect(profile)
    identity = derivative_identity_residual(profile)
    evaluated = profile.s_max > 0
    return {
        "report": "parab_h3_profile",
        "params": {"a": profile.a, "b": profile.b, "c": 1.0},
        "z0": profile.z0,
        "tol": profile.tol,
        "s_max": profile.s_max,
        "s_bar": profile.s_bar if math.isfinite(profile.s_bar) else None,
        "termination_cause": profile.cause,
        "relation_residual": relation,
        "mirror_defect": mirror,
        "derivative_identity_residual": identity,
        "verdicts": {
            "relation_residual": evaluated and relation < 1e-9,
            "mirror_symmetry": evaluated and mirror < 1e-7,
            "derivative_identity": evaluated and identity < 1e-5,
        },
    }


def classification_json(cls: ParabClassification) -> dict:
    return {
        "report": "parab_h3_classification",
        "params": {"a": cls.a, "b": cls.b, "c": 1.0},
        "z0": cls.z0,
        "label": cls.label,
        "thresholds": {
            "theta_prime_0": cls.theta_prime_0,
            "circle_invariant": cls.circle_invariant,
            "lower": cls.threshold_low,
            "upper": cls.threshold_high,
            "a_plus_2b": cls.a_plus_2b,
            "a_minus_2b": cls.a_minus_2b,
        },
        "theta1": cls.theta1,
        "theta1_statement_equation": cls.theta1_statement_equation,
        "termination_cause": cls.termination_cause,
        "corroborated": cls.corroborated,
    }
