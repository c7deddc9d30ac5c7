"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from weingarten import cyclic_r3, geomcore, parab_h3, rot_r3
from weingarten.geomcore import WeingartenParams

FIG3 = WeingartenParams(2, -2, 1)


def _verdict(num: int, description: str, checks: dict):
    ok = all(checks.values())
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="module")
def timed_fig3():
    t0 = time.perf_counter()
    profile = rot_r3.integrate_profile(FIG3, 3.0, n_periods=3, tol=1e-10)
    return profile, time.perf_counter() - t0


def test_criterion_1_rotational_figure(timed_fig3):
    profile, elapsed = timed_fig3
    cons = rot_r3.first_integral_residual(profile)
    per = rot_r3.periodicity_check(profile)
    structure = rot_r3.structure_report(profile)

    # extrema counts inside one period: z' = sin(theta) vanishes once in (0, T)
    T = profile.period
    s = np.linspace(0.0, T, 8000)
    z_prime = np.sin(profile.trajectory(s)[:, 2])
    interior_extrema = int(np.sum(np.diff(np.signbit(z_prime[1:-1])) != 0))

    checks = {
        "runtime_under_1s": elapsed < 1.0,
        "first_integral_below_1e8": cons.max_residual < 1e-8,
        "z_period_return_below_1e6": per.z_return_deviation < 1e-6,
        "translation_defect_below_1e6": per.translation_defect < 1e-6,
        "self_intersection_per_period": all(c >= 1 for c in structure.intersections_per_period),
        "one_max_at_start": structure.z_max_at_start,
        "one_min_at_T2": structure.z_min_at_half_period,
        "exactly_one_interior_extremum": interior_extrema == 1,
        "monotonicity_all_quarters": structure.monotonicity_ok,
    }
    _verdict(1, "rotational profile a=2 b=-2 z0=3 over 3 periods", checks)


def test_criterion_2_slope_bounds(timed_fig3):
    profile, _ = timed_fig3
    rep = rot_r3.theta_prime_bounds_check(profile)
    M = profile.bounds.M
    checks = {
        "M_matches_formula_1e12": abs(M - (-1 / math.sqrt(5))) < 1e-12,
        "theta_prime_below_M": rep.max_theta_prime <= M + 1e-9,
        "no_bound_violations": rep.violations == (),
        "initial_slope_minus_2": abs(rot_r3.slope(FIG3, 3.0, 0.0) + 2.0) < 1e-9,
    }
    _verdict(2, "slope bounds M = -1/sqrt(5), theta' <= M, theta'(0) = -2", checks)


def test_criterion_3_revolved_surface_relation(timed_fig3):
    profile, _ = timed_fig3
    u = np.linspace(0.0, profile.s_end, 30 * profile.n_periods)
    v = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    res, _ = geomcore.weingarten_residual(rot_r3.profile_patch(profile), profile.params, u, v)
    checks = {"relation_residual_below_1e6": res < 1e-6}
    _verdict(3, "revolved surface satisfies a*H + b*K = 1 under geomcore", checks)


def test_criterion_4_classification_suite():
    expected = {
        (0.5, -1.0): "CompleteConcaveGraph",
        (0.5, -0.8): "IncompleteGraph",
        (0.5, -0.2): "PeriodicComplete",
        (0.5, 0.3): "IncompleteNonGraph",
    }
    a = 0.5
    root = math.sqrt(1 - a * a)
    checks = {}
    for (aa, bb), want in expected.items():
        cls = parab_h3.classify(aa, bb, 1.0)
        checks[f"label_{bb}"] = cls.label == want
        checks[f"corroborated_{bb}"] = bool(cls.corroborated)
        checks[f"thresholds_{bb}"] = (
            abs(cls.threshold_low - (-(1 + root) / 2)) < 1e-12
            and abs(cls.threshold_high - (-(1 - root) / 2)) < 1e-12
        )
    _verdict(4, "four-case classification with trajectory corroboration", checks)


def test_criterion_5_boundary_angle():
    theta1 = parab_h3.boundary_angle(0.5, -1.0)
    checks = {"theta1_is_minus_pi_third": abs(theta1 - (-math.pi / 3)) < 1e-9}
    _verdict(5, "boundary angle of the complete concave graph", checks)


def test_criterion_6_circle_case():
    checks = {"invariant_zero": abs(parab_h3.circle_invariant(0.8, -0.2)) < 1e-12}
    sol = parab_h3.circle_solution(0.8, -0.2, 1.0)
    checks["radius_one"] = abs(sol.radius - 1.0) < 1e-12
    checks["distance_below_1e8"] = sol.max_deviation < 1e-8
    _verdict(6, "a=0.8 b=-0.2 trajectory lies on the unit circle", checks)


def test_criterion_7_derivative_identity():
    checks = {}
    for a, b in [(0.5, -1.0), (0.5, -0.8), (0.5, -0.2), (0.5, 0.3)]:
        prof = parab_h3.integrate_parabolic(a, b, 1.0)
        checks[f"identity_{b}"] = parab_h3.derivative_identity_residual(prof) < 1e-5
    circle = parab_h3.integrate_parabolic(0.8, -0.2, 1.0)
    checks["identity_circle"] = parab_h3.derivative_identity_residual(circle) < 1e-6
    _verdict(7, "differentiated-relation identity along all five trajectories", checks)


def test_criterion_8_cyclic_suite(poly_jets):
    checks = {}
    cone = cyclic_r3.generalized_cone(0, 0.3, 0, 0.4, 1, 0.5)
    _, max_k = cyclic_r3.max_curvature_magnitudes(cone)
    checks["cone_flat_below_1e9"] = max_k < 1e-9

    for lam, mu in [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)]:
        spec = cyclic_r3.riemann_example(lam, mu, 1.0, 0.0, (-1, 1))
        max_h, _ = cyclic_r3.max_curvature_magnitudes(spec)
        checks[f"minimal_H_{lam}_{mu}"] = max_h < 1e-6
        checks[f"radius_identity_{lam}_{mu}"] = cyclic_r3.riemann_identity_residual(spec) < 1e-8

    sphere = cyclic_r3.sphere_slice(1.0)
    tc = cyclic_r3.trig_coefficients(sphere, WeingartenParams(2, 0, 2), u=0.3, n_max=12)
    checks["sphere_coefficients_below_1e8"] = tc.max_abs < 1e-8

    perturbed = cyclic_r3.CyclicSurfaceSpec((0.0, 1.0), poly_jets([0.0, 0.3], [0.0, 0.4], [1.0, 0.5, 0.1]))
    tcn = cyclic_r3.trig_coefficients(perturbed, WeingartenParams(0, 1, 0), u=0.5)
    checks["perturbed_cone_above_1e3"] = tcn.max_abs > 1e-3
    _verdict(8, "cyclic suite: flat cones, minimal families, Fourier controls", checks)


def draw_rot_triple(rng):
    a = rng.uniform(0.8, 2.2)
    b = -a * a / 4 - rng.uniform(0.15, 0.9)
    z0 = max(-2 * b / a, a) * 1.02 + rng.uniform(0.05, 0.4)
    return a, b, z0


def draw_parab_pair(rng):
    while True:
        a = rng.uniform(0.15, 0.85)
        b = rng.uniform(-1.4, 0.9)
        if abs(a + 2 * b) < 0.08 or abs(a - 2 * b) < 0.08 or abs(b) < 0.05:
            continue
        if abs(parab_h3.circle_invariant(a, b)) < 5e-3:
            continue
        if abs(b - (-(1 + math.sqrt(1 - a * a)) / 2)) < 0.03:
            continue
        return a, b


def test_criterion_9_property_sweeps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    checks = {}

    rot_ok = True
    for i in range(20):
        a, b, z0 = draw_rot_triple(rng)
        prof = rot_r3.integrate_profile(WeingartenParams(a, b, 1), z0, n_periods=3, tol=1e-10)
        cons = rot_r3.first_integral_residual(prof)
        bounds = rot_r3.theta_prime_bounds_check(prof)
        per = rot_r3.periodicity_check(prof)
        surf = rot_r3.revolve(prof, phi_samples=12, s_samples=40)
        u = np.linspace(0.0, prof.s_end, 40)
        v = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
        res, _ = geomcore.weingarten_residual(surf.patch, prof.params, u, v)
        good = (
            cons.max_residual < 1e-8
            and cons.max_closed_form_deviation < 1e-8
            and not bounds.violations
            and per.z_return_deviation < 1e-6
            and per.translation_defect < 1e-6
            and res < 1e-6
        )
        if not good:
            rot_ok = False
            print(f"  rot sweep failure at (a={a}, b={b}, z0={z0})")
    checks["rot_sweep_20_triples"] = rot_ok

    parab_ok = True
    for i in range(20):
        a, b = draw_parab_pair(rng)
        cls = parab_h3.classify(a, b, 1.0)
        prof = parab_h3.integrate_parabolic(a, b, 1.0)
        good = (
            bool(cls.corroborated)
            and prof.max_relation_residual() < 1e-9
            and parab_h3.mirror_defect(prof) < 1e-7
        )
        if not good:
            parab_ok = False
            print(f"  parab sweep failure at (a={a}, b={b}): {cls.label}")
    checks["parab_sweep_20_pairs"] = parab_ok

    elapsed = time.perf_counter() - t0
    checks["sweep_runtime_under_60s"] = elapsed < 60.0
    print(f"  sweep wall time: {elapsed:.1f}s")
    _verdict(9, "seeded admissible parameter sweeps (20 + 20)", checks)
