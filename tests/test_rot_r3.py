import dataclasses
import math

import numpy as np
import pytest

from weingarten import geomcore, odekit, rot_r3
from weingarten.errors import DegeneratePointError
from weingarten.geomcore import SurfacePatch, WeingartenParams, grid_vec

FIG3 = WeingartenParams(2, -2, 1)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_rejects_elliptic_and_tube_params():
    with pytest.raises(ValueError, match="not hyperbolic"):
        rot_r3.validate_params(WeingartenParams(1, 1, 1))
    with pytest.raises(ValueError, match="not hyperbolic"):
        rot_r3.validate_params(WeingartenParams(2, -1, 1))


def test_rejects_trivial_cases():
    with pytest.raises(ValueError, match="b = 0"):
        rot_r3.validate_params(WeingartenParams(1, 0, 1))
    with pytest.raises(ValueError, match="a > 0"):
        rot_r3.validate_params(WeingartenParams(-2, -2, 1))
    with pytest.raises(ValueError, match="c > 0"):
        rot_r3.validate_params(WeingartenParams(2, -2, 0))


def test_normalizes_general_c():
    p = rot_r3.validate_params(WeingartenParams(4, -4, 2))
    assert p.c == 1 and p.a == 2 and p.b == -2


def test_rejects_low_initial_height():
    # z0 must exceed -2b/a = 2 for the Fig. 3 coefficients.
    with pytest.raises(ValueError, match="initial height"):
        rot_r3.integrate_profile(FIG3, 1.9)


# ---------------------------------------------------------------------------
# Integration and conserved quantities
# ---------------------------------------------------------------------------

def test_initial_slope_hand_value():
    # theta'(0) = (a - 2 z0)/(a z0 + 2b) = (2-6)/(6-4) = -2.
    assert rot_r3.slope(FIG3, 3.0, 0.0) == -2.0


def test_closed_form_reproduces_initial_height():
    # At theta = 0: ((2 + sqrt(-4 + 4*5))/2) = 3 = z0.
    assert abs(rot_r3.closed_form_height(FIG3, 3.0, 0.0) - 3.0) < 1e-14


def test_first_integral_residual_zero_at_start(fig3_profile):
    p = fig3_profile.params
    z, th = 3.0, 0.0
    res = z * z - p.a * z * math.cos(th) - p.b * math.cos(th) ** 2 - fig3_profile.bounds.f_z0
    assert res == 0.0


def test_first_integral_conserved(fig3_profile):
    rep = rot_r3.first_integral_residual(fig3_profile)
    assert rep.max_residual < 1e-8
    assert rep.max_closed_form_deviation < 1e-8


def test_coarse_tolerance_canary():
    prof = rot_r3.integrate_profile(FIG3, 3.0, n_periods=3, tol=1e-3)
    rep = rot_r3.first_integral_residual(prof)
    assert rep.max_residual > 1e-6


def test_one_cosine_per_rhs_call(monkeypatch):
    # The Fig. 3 solve tests its admissible region (a z + 2b cos(theta) > 0)
    # on the right-hand side's own cosine: one math.cos per RHS call.
    counts = {"cos": 0, "rhs": 0}
    cos = math.cos

    def counted_cos(x):
        counts["cos"] += 1
        return cos(x)

    def counted_integrate(spec, s_end, guard=None):
        def rhs(s, y):
            counts["rhs"] += 1
            return spec.rhs(s, y)

        with monkeypatch.context() as m:
            m.setattr(math, "cos", counted_cos)
            return odekit.integrate(dataclasses.replace(spec, rhs=rhs), s_end, guard)

    monkeypatch.setattr(rot_r3, "integrate", counted_integrate)
    rot_r3.integrate_profile(FIG3, 3.0, n_periods=3, tol=1e-10)
    assert counts["rhs"] > 1000
    assert counts["cos"] == counts["rhs"]


def test_solve_stops_where_the_denominator_vanishes():
    # Outside the studied parameters a z + 2b cos(theta) reaches 0: the run
    # ends just before it with reason guard. A start outside the region is
    # refused.
    p = WeingartenParams(-2, 2, 1)
    traj = rot_r3._solve(p, -3.0, 1e-10, 30.0)
    assert traj.reason == odekit.GUARD_STOP
    z, theta = traj.states[-1, 1:]
    assert 0.0 < p.a * z + 2 * p.b * math.cos(theta) < 1e-5
    with pytest.raises(ValueError, match="admissible region"):
        rot_r3._solve(FIG3, 0.5, 1e-10, 30.0)


def test_theta_strictly_decreasing(fig3_profile):
    _, _, _, theta, tp = fig3_profile.sample(3000)
    assert np.all(np.diff(theta) < 0)
    assert np.all(tp < 0)


# ---------------------------------------------------------------------------
# Slope bounds
# ---------------------------------------------------------------------------

def test_bound_constants_hand_values(fig3_profile):
    # f(3) = 5, f(2) = 2, delta2 = 2 sqrt5, eta2 = -2, M = -1/sqrt5, eta = -2 sqrt5.
    b = fig3_profile.bounds
    assert abs(b.f_z0 - 5.0) < 1e-14
    assert abs(b.delta2 - 2 * math.sqrt(5)) < 1e-14
    assert abs(b.eta2 - (-2.0)) < 1e-14
    assert abs(b.M - (-1 / math.sqrt(5))) < 1e-12
    assert abs(b.eta - (-2 * math.sqrt(5))) < 1e-14
    # eta2 agrees with its algebraic simplification (a^2+4b)/a
    assert abs(b.eta2 - (FIG3.a**2 + 4 * FIG3.b) / FIG3.a) < 1e-14
    assert b.formula_bound_valid


def test_theta_prime_bounds_hold(fig3_profile):
    rep = rot_r3.theta_prime_bounds_check(fig3_profile)
    b = fig3_profile.bounds
    assert rep.violations == ()
    assert rep.max_theta_prime <= b.M + 1e-9
    assert rep.min_numerator >= b.eta - 1e-9
    # theta'(0) = -2 is below the upper bound
    assert -2.0 <= b.M


def test_formula_bound_invalid_configs_fall_back_to_sharp():
    # For these coefficients the textbook constant is not a true bound
    # (denominator bound fails for cos(theta) < 0); the check must use the
    # closed-form sharp bound and report no violation.
    prof = rot_r3.integrate_profile(WeingartenParams(1.1076, -1.8245, 1), 4.4359, n_periods=1, tol=1e-9)
    rep = rot_r3.theta_prime_bounds_check(prof)
    b = prof.bounds
    assert not b.formula_bound_valid
    assert rep.violations == ()
    assert rep.max_theta_prime <= b.M_sharp + 1e-8
    assert rep.max_theta_prime > b.M  # the formula bound really is violated


def test_bound_violation_detected_on_corrupted_profile(fig3_profile, fig3_structure):
    # Corrupting the bound constants must trip the checker and the verdict.
    bad_bounds = dataclasses.replace(fig3_profile.bounds, M=-10.0, M_sharp=-10.0)
    bad = dataclasses.replace(fig3_profile, bounds=bad_bounds)
    rep = rot_r3.theta_prime_bounds_check(bad)
    assert [v[0] for v in rep.violations] == ["theta_prime_above_M", "theta_prime_above_sharp_bound"]
    assert rot_r3.report(bad, structure=fig3_structure)["verdicts"]["theta_prime_bounds"] is False


# ---------------------------------------------------------------------------
# Periodicity
# ---------------------------------------------------------------------------

def test_periodicity_triple(fig3_profile):
    rep = rot_r3.periodicity_check(fig3_profile)
    assert rep.z_return_deviation < 1e-6
    assert rep.theta_return_deviation < 1e-9
    assert rep.translation_defect < 1e-6


def test_quarter_time_angles(fig3_profile):
    traj = fig3_profile.trajectory
    T1, T2, T3 = fig3_profile.quarter_times
    assert abs(traj(T1)[2] + math.pi / 2) < 1e-9
    assert abs(traj(T2)[2] + math.pi) < 1e-9
    assert abs(traj(T3)[2] + 3 * math.pi / 2) < 1e-9
    assert 0 < T1 < T2 < T3 < fig3_profile.period


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def test_structure_monotonicity_table(fig3_structure):
    assert fig3_structure.monotonicity_ok
    assert len(fig3_structure.monotonicity) == 4


def test_structure_extrema_and_vertical_points(fig3_structure):
    assert fig3_structure.z_max_at_start
    assert fig3_structure.z_min_at_half_period
    assert fig3_structure.one_vertical_per_half
    assert len(fig3_structure.vertical_points) == 2


def test_structure_self_intersections(fig3_structure):
    assert all(c >= 1 for c in fig3_structure.intersections_per_period)
    assert len(fig3_structure.intersections) >= 2


def brute_force_self_intersections(points):
    """Reference: every pair i + 2 <= j in (i, j) order, with the bounding-box
    prefilter and the parametric crossing test of the library."""
    pts = [tuple(p) for p in np.asarray(points, dtype=float).tolist()]
    out = []
    for i in range(len(pts) - 1):
        (ax, ay), (bx, by) = pts[i], pts[i + 1]
        for j in range(i + 2, len(pts) - 1):
            (cx, cy), (dx, dy) = pts[j], pts[j + 1]
            if not (min(cx, dx) <= max(ax, bx) and max(cx, dx) >= min(ax, bx)
                    and min(cy, dy) <= max(ay, by) and max(cy, dy) >= min(ay, by)):
                continue
            d1x, d1y, d2x, d2y = bx - ax, by - ay, dx - cx, dy - cy
            det = d1x * d2y - d1y * d2x
            if abs(det) < 1e-30:
                continue
            rx, ry = cx - ax, cy - ay
            t = (rx * d2y - ry * d2x) / det
            w = (rx * d1y - ry * d1x) / det
            if 0.0 <= t <= 1.0 and 0.0 <= w <= 1.0:
                out.append((i, t, j, w))
    return out


def random_polylines(seed):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 3, 4):
        yield rng.normal(size=(n, 2))
    for _ in range(20):
        n = int(rng.integers(5, 80))
        walk = np.cumsum(rng.normal(size=(n, 2)), axis=0)
        yield walk
        yield np.round(walk)                       # touching and collinear segments
        yield np.repeat(np.round(walk, 1), rng.integers(1, 3, size=n), axis=0)  # repeated points


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polyline_sweep_matches_brute_force(seed):
    n_hits = 0
    for pts in random_polylines(seed):
        got = rot_r3.polyline_self_intersections(pts)
        assert got == brute_force_self_intersections(pts)
        n_hits += len(got)
    assert n_hits > 100  # the polylines do cross


def test_structure_gauss_sign(fig3_structure):
    # K > 0 on the arcs containing the maximum, K < 0 on the arc with the minimum.
    assert fig3_structure.gauss_sign_ok
    signs = [arc[2] for arc in fig3_structure.gauss_sign_arcs]
    assert signs == [1, -1, 1]


def test_structure_mirror_symmetry(fig3_structure):
    assert fig3_structure.symmetry_defect < 1e-7


# ---------------------------------------------------------------------------
# Revolution surface
# ---------------------------------------------------------------------------

def revolved_relation_residual(profile):
    """max |a H + b K - 1| on the revolved patch, on a 30 n_periods x 8 grid."""
    u = np.linspace(0.0, profile.s_end, 30 * profile.n_periods)
    v = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    res, _ = geomcore.weingarten_residual(rot_r3.profile_patch(profile), profile.params, u, v)
    return res


def test_revolve_satisfies_relation(fig3_profile):
    assert revolved_relation_residual(fig3_profile) < 1e-6


def test_revolve_mesh_vertex_count(fig3_profile):
    surf = rot_r3.revolve(fig3_profile, phi_samples=24, s_samples=50)
    assert len(surf.vertices) == 24 * 50
    assert all(len(f) == 4 for f in surf.faces)


def test_revolve_rejects_nonpositive_height():
    # Admissible parameters whose profile dips through z = 0: the surface of
    # revolution is singular and must be refused.
    prof = rot_r3.integrate_profile(WeingartenParams(2, -1.5, 1), 1.8, n_periods=1, tol=1e-9)
    with pytest.raises(DegeneratePointError):
        rot_r3.revolve(prof)


def test_report_rejects_nonpositive_height():
    # Admissible triple (a^2 + 4b = -2, z0 > -2b/a = 1.5) whose height dips
    # to about -0.30: the revolved patch the report checks is singular.
    prof = rot_r3.integrate_profile(WeingartenParams(2, -1.5, 1), 1.7, n_periods=2)
    assert np.min(prof.trajectory.states[:, 1]) < -0.29
    with pytest.raises(DegeneratePointError):
        rot_r3.profile_patch(prof)
    with pytest.raises(DegeneratePointError):
        rot_r3.report(prof)


def test_revolve_cylinder_limit():
    # Degenerate sanity: a constant-height profile revolved is a cylinder,
    # K = 0 everywhere on the mesh.
    z0 = 2.0
    patch = SurfacePatch(
        u_range=(0.0, 1.0),
        v_range=(0.0, 2 * math.pi),
        position=lambda s, p: grid_vec(s, p, s[:, None], z0 * np.cos(p), z0 * np.sin(p)),
        partials=lambda s, p: (
            grid_vec(s, p, 1.0, 0.0, 0.0),
            grid_vec(s, p, 0.0, -z0 * np.sin(p), z0 * np.cos(p)),
            grid_vec(s, p, 0.0, 0.0, 0.0),
            grid_vec(s, p, 0.0, 0.0, 0.0),
            grid_vec(s, p, 0.0, -z0 * np.cos(p), -z0 * np.sin(p)),
        ),
    )
    for s in (0.1, 0.5, 0.9):
        assert abs(geomcore.curvatures(patch, s, 1.0).K) < 1e-14


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_curve_csv_rejects_empty_sampling(fig3_profile, tmp_path):
    with pytest.raises(ValueError):
        rot_r3.export_curve_csv(fig3_profile, tmp_path / "curve.csv", samples_per_period=0)
    assert not (tmp_path / "curve.csv").exists()


def test_curve_csv_columns(fig3_profile, tmp_path):
    out = tmp_path / "curve.csv"
    rot_r3.export_curve_csv(fig3_profile, out, samples_per_period=50)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x,z,theta,theta_prime,first_integral_residual"
    assert len(lines) == 1 + 50 * 3 + 1
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[:4] == [0.0, 0.0, 3.0, 0.0]
    assert row0[4] == -2.0


def test_report_verdicts(fig3_profile, fig3_structure):
    rep = rot_r3.report(fig3_profile, structure=fig3_structure)
    assert rep["report"] == "rot_r3"
    assert all(rep["verdicts"].values()), rep["verdicts"]
    assert abs(rep["bounds"]["M"] + 1 / math.sqrt(5)) < 1e-12


@pytest.mark.parametrize("field, value, verdict", [
    ("monotonicity_ok", False, "monotonicity_table"),
    ("z_max_at_start", False, "extrema"),
    ("z_min_at_half_period", False, "extrema"),
    ("one_vertical_per_half", False, "vertical_points"),
    ("intersections_per_period", [0, 0, 0], "self_intersections"),
    ("gauss_sign_ok", False, "gauss_sign"),
    ("symmetry_defect", 1.0, "mirror_symmetry"),
])
def test_each_structure_field_drives_its_own_verdict(fig3_profile, fig3_structure, field, value, verdict):
    structure = dataclasses.replace(fig3_structure, **{field: value})
    verdicts = rot_r3.report(fig3_profile, structure=structure)["verdicts"]
    assert len(verdicts) == 12
    assert verdicts.pop(verdict) is False
    assert all(v is True for v in verdicts.values()), verdicts


def test_mirror_symmetry_verdict_flips_on_scaled_height(fig3_profile, scaled_height):
    # The backward solve starts from the true (z0, tol), so a forward branch
    # with z scaled by 1.05 is no longer its mirror image.
    structure = rot_r3.structure_report(scaled_height(fig3_profile, 1.05))
    assert structure.symmetry_defect > 0.1
    verdicts = rot_r3.report(fig3_profile, structure=structure)["verdicts"]
    assert verdicts["mirror_symmetry"] is False


# ---------------------------------------------------------------------------
# Seeded admissible sweep (module-level smoke; the full 20-triple sweep runs
# in the acceptance suite)
# ---------------------------------------------------------------------------

def draw_admissible(rng):
    a = rng.uniform(0.8, 2.2)
    b = -a * a / 4 - rng.uniform(0.15, 0.9)
    z0 = max(-2 * b / a, a) * 1.02 + rng.uniform(0.05, 0.4)
    return a, b, z0


@pytest.mark.parametrize("seed", [3, 17])
def test_random_admissible_profiles(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        a, b, z0 = draw_admissible(rng)
        prof = rot_r3.integrate_profile(WeingartenParams(a, b, 1), z0, n_periods=3, tol=1e-10)
        cons = rot_r3.first_integral_residual(prof)
        assert cons.max_residual < 1e-8
        assert cons.max_closed_form_deviation < 1e-8
        assert rot_r3.theta_prime_bounds_check(prof).violations == ()
        per = rot_r3.periodicity_check(prof)
        assert per.z_return_deviation < 1e-6
        assert per.translation_defect < 1e-6
        assert revolved_relation_residual(prof) < 1e-6
