import dataclasses
import math

import numpy as np
import pytest

from weingarten import parab_h3
from weingarten.errors import NoRootError, NotCircleCaseError, OutOfScopeParamsError, StepUnderflowError
from weingarten.parab_h3 import (
    CASE_COMPLETE_CONCAVE_GRAPH,
    CASE_DEGENERATE_LINE,
    CASE_EUCLIDEAN_CIRCLE,
    CASE_INCOMPLETE_GRAPH,
    CASE_INCOMPLETE_NON_GRAPH,
    CASE_PERIODIC_COMPLETE,
    boundary_angle,
    circle_invariant,
    circle_solution,
    classify,
    derivative_identity_residual,
    initial_slope,
    integrate_parabolic,
    mirror_defect,
    parab_patch,
)

Z0 = 1.0


# ---------------------------------------------------------------------------
# Integration basics
# ---------------------------------------------------------------------------

def test_initial_slope_hand_value():
    # (2/z0)(c-a)/(a+2b) = 2 * 0.5 / (-1.5) = -2/3 for (0.5, -1, 1).
    assert abs(initial_slope(0.5, -1.0, 1.0) - (-2.0 / 3.0)) < 1e-15


def test_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        integrate_parabolic(0.5, -1.0, 0.0)


@pytest.mark.parametrize("z0", [1e-12, parab_h3.Z_FLOOR])
def test_rejects_height_at_or_below_z_floor(z0):
    with pytest.raises(ValueError, match="z floor"):
        integrate_parabolic(0.5, -1.0, z0)
    with pytest.raises(ValueError, match="z floor"):
        parab_h3.classify(0.5, -1.0, z0)


def test_refuses_start_whose_first_step_underflows():
    # Just above the floor the starting step falls below the minimum step,
    # so the run would end at s = 0 with nothing to classify or verify.
    with pytest.raises(StepUnderflowError, match="first step") as exc:
        integrate_parabolic(0.5, -1.0, 2e-8)
    assert exc.value.trajectory.s.tolist() == [0.0]
    with pytest.raises(StepUnderflowError):
        parab_h3.classify(0.5, -1.0, 2e-8)
    assert integrate_parabolic(0.5, -1.0, 1e-7).s_max > 0


def test_denominator_stop_past_the_pole_is_not_a_sign_change():
    # An admissible IncompleteGraph pair whose denominator event root sits
    # inside a step of about 1e-12: the end state has crossed
    # a + 2b cos(theta) = 0, so the last sample's theta' has blown up with
    # the other sign. The benchmark's parab_classify workload draws it as
    # item 1 of seed 12.
    a, b, z0 = 0.1638061218040114, -0.7756117805076038, 0.6832817126915248
    profile = integrate_parabolic(a, b, z0)
    assert profile.cause == "denominator"
    _, _, _, _, tp, _, _ = profile.sample(500)
    assert tp[0] < 0 < tp[-1]
    cls = classify(a, b, z0)
    assert cls.label == CASE_INCOMPLETE_GRAPH and cls.corroborated
    assert all(parab_h3.profile_report(profile)["verdicts"].values())


@pytest.mark.parametrize("a, b, z0, label", [
    (0.34330582560125117, 0.8416437588815375, 0.5115280980712541, CASE_INCOMPLETE_NON_GRAPH),
    (0.7867775423808142, 0.5887712342921316, 1.2503223380278465, CASE_INCOMPLETE_NON_GRAPH),
    (0.5380759957127557, -0.5385139913506788, 0.6529625220742444, CASE_INCOMPLETE_GRAPH),
], ids=["seed7-item298", "seed12-item460", "seed2-item751"])
def test_denominator_root_within_roundoff_of_the_step_end(a, b, z0, label):
    # The denominator event's g crosses at the step's end state but not on
    # the step's quartic there (the bracket is about 1e-13 wide), so the root
    # cannot be bracketed; the run stops at the step end. The ids say where
    # the benchmark's parab_classify workload draws each triple.
    cls = classify(a, b, z0)
    assert cls.label == label and cls.corroborated
    assert cls.termination_cause == "denominator"
    assert all(parab_h3.profile_report(integrate_parabolic(a, b, z0))["verdicts"].values())


@pytest.mark.parametrize("b", [-1.0, -0.8, -0.2, 0.3])
def test_turning_dichotomy_refuses_a_sign_change(b, monkeypatch):
    # theta' flipped on the middle third of the samples, away from every
    # terminal layer, must be refused whatever ended the run.
    slope = parab_h3.slope

    def flipped(*args):
        tp = slope(*args)
        if np.ndim(tp) == 0:
            return tp
        middle = np.arange(len(tp)) // (len(tp) // 3 + 1) == 1
        return np.where(middle, -tp, tp)

    integrate_parabolic(0.5, b, Z0)
    monkeypatch.setattr(parab_h3, "slope", flipped)
    with pytest.raises(OutOfScopeParamsError, match="changed sign"):
        integrate_parabolic(0.5, b, Z0)


def test_rejects_vanishing_initial_denominator():
    with pytest.raises(OutOfScopeParamsError):
        integrate_parabolic(0.5, -0.25, 1.0)


def test_concave_graph_trajectory(parab_figure_profiles):
    # theta decreasing, z decreasing, reaches z ~ 0 at finite s.
    prof = parab_figure_profiles[(0.5, -1.0)]
    assert prof.cause == "z_floor"
    assert math.isfinite(prof.s_bar)
    _, _, z, theta, tp, _, _ = prof.sample(400)
    assert np.all(np.diff(theta) < 1e-15)
    assert np.all(np.diff(z) < 1e-15)
    assert z[-1] < 1e-6
    # concavity of the graph: z'' = theta' cos(theta) < 0
    assert np.all(tp * np.cos(theta) < 1e-12)


def test_periodic_trajectory_turns_past_pi(parab_figure_profiles):
    prof = parab_figure_profiles[(0.5, -0.2)]
    assert prof.cause == "angle_span"
    _, _, _, theta, tp, _, _ = prof.sample(400)
    assert np.all(tp > 0)
    assert np.max(theta) > math.pi


def test_degenerate_line_integrates_straight():
    prof = integrate_parabolic(1.0, 0.0, 2.0)
    assert prof.cause == "horizon"
    _, x, z, theta, tp, k1, k2 = prof.sample(50)
    assert np.max(np.abs(theta)) == 0.0
    assert np.max(np.abs(z - 2.0)) == 0.0
    assert np.max(np.abs(tp)) == 0.0
    # horosphere-type: umbilic with curvature 1
    assert np.max(np.abs(k1 - 1.0)) < 1e-15
    assert np.max(np.abs(k2 - 1.0)) < 1e-15


def test_relation_holds_along_samples(parab_figure_profiles):
    for prof in parab_figure_profiles.values():
        assert prof.max_relation_residual() < 1e-9


def test_mirror_symmetry(parab_figure_profiles):
    for prof in parab_figure_profiles.values():
        assert mirror_defect(prof) < 1e-7


def test_kappa2_is_cos_theta(parab_figure_profiles):
    prof = parab_figure_profiles[(0.5, -0.8)]
    _, _, _, theta, _, _, k2 = prof.sample(100)
    assert np.array_equal(k2, np.cos(theta))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_classes():
    # The classifications of the four pinned figure configs, a = 0.5, by b.
    return {b: classify(0.5, b, Z0) for b in (-1.0, -0.8, -0.2, 0.3)}


@pytest.mark.parametrize(
    "b,label",
    [
        (-1.0, CASE_COMPLETE_CONCAVE_GRAPH),
        (-0.8, CASE_INCOMPLETE_GRAPH),
        (-0.2, CASE_PERIODIC_COMPLETE),
        (0.3, CASE_INCOMPLETE_NON_GRAPH),
    ],
)
def test_classify_figure_suite(figure_classes, b, label):
    cls = figure_classes[b]
    assert cls.label == label
    assert cls.corroborated, cls.corroboration


def test_classify_thresholds_closed_form(figure_classes):
    cls = figure_classes[-1.0]
    assert abs(cls.threshold_low - (-(1 + math.sqrt(0.75)) / 2)) < 1e-15
    assert abs(cls.threshold_high - (-(1 - math.sqrt(0.75)) / 2)) < 1e-15
    assert cls.threshold_low < -1.0 + 0.067  # -0.933...
    assert -1.0 < cls.threshold_low  # b = -1 lies below the threshold


def test_classify_incomplete_graph_evidence(figure_classes):
    cls = figure_classes[-0.8]
    assert cls.threshold_low < -0.8 < -0.25
    assert cls.label == CASE_INCOMPLETE_GRAPH


def test_classify_non_graph_sign_evidence(figure_classes):
    cls = figure_classes[0.3]
    assert cls.a_minus_2b == pytest.approx(-0.1)
    assert cls.a_minus_2b <= 0


def test_classify_degenerate_applies_for_any_a():
    cls = classify(1.0, -0.3, 2.0)
    assert cls.label == CASE_DEGENERATE_LINE
    assert cls.theta_prime_0 == 0.0
    assert cls.corroborated


def test_classify_circle_applies_for_any_a():
    cls = classify(0.8, -0.2, Z0)
    assert cls.label == CASE_EUCLIDEAN_CIRCLE
    assert abs(cls.circle_invariant) < 1e-12
    assert cls.corroborated


@pytest.mark.parametrize("a", [1.5, -0.2, 0.0])
def test_classify_out_of_scope_a(a):
    # b = -1.2 keeps these off the circle family (a^2 + 4b^2 + 4b != 0).
    with pytest.raises(OutOfScopeParamsError):
        classify(a, -1.2, Z0)


def test_classify_circle_family_includes_a_zero():
    # a = 0, b = -1 satisfies a^2 + 4b^2 + 4b = 0: the circle test applies
    # before the 0 < a < 1 restriction.
    cls = classify(0.0, -1.0, Z0)
    assert cls.label == CASE_EUCLIDEAN_CIRCLE


def test_classify_out_of_scope_boundaries():
    with pytest.raises(OutOfScopeParamsError):
        classify(0.5, -0.25, Z0)  # a + 2b = 0
    with pytest.raises(OutOfScopeParamsError):
        classify(0.5, 0.0, Z0)  # b = 0 within the tree


# ---------------------------------------------------------------------------
# Circle case
# ---------------------------------------------------------------------------

def test_circle_invariant_values():
    assert abs(circle_invariant(0.8, -0.2)) < 1e-15
    assert circle_invariant(0.5, -1.0) == pytest.approx(0.25)


def test_circle_solution_hand_values():
    # theta' = -(a+2b)/(2 b z0) = -(0.4)/(-0.4) = 1 -> radius 1, center (0, 2).
    sol = circle_solution(0.8, -0.2, 1.0)
    assert sol.theta_prime == pytest.approx(1.0)
    assert sol.radius == pytest.approx(1.0)
    assert sol.center == pytest.approx((0.0, 2.0))
    assert sol.max_deviation < 1e-8
    assert not sol.dips_below_boundary


def test_circle_solution_rejects_non_circle():
    with pytest.raises(NotCircleCaseError):
        circle_solution(0.5, -1.0, 1.0)


def test_circle_clipping_flag():
    # a = 2*sqrt(3)/5ish with larger radius than center height dips below.
    # Pick the circle family point b=-0.5: a^2 = -4b^2-4b = 1, a=1 -> theta'(0)=0
    # is degenerate, so use b=-0.9: a^2 = 0.36, a=0.6; theta' = -(0.6-1.8)/(-1.8 z0)
    a, b = 0.6, -0.9
    assert abs(circle_invariant(a, b)) < 1e-12
    sol = circle_solution(a, b, 0.5)
    # center z = z0 + 1/theta'; verify the clip flag against geometry
    assert sol.dips_below_boundary == (sol.center[1] - sol.radius <= 0)


# ---------------------------------------------------------------------------
# Boundary angle
# ---------------------------------------------------------------------------

def test_boundary_angle_factored_case():
    # a cos - b sin^2 - 1 with (0.5, -1) factors through cos(0.5 - cos): -pi/3.
    assert abs(boundary_angle(0.5, -1.0) - (-math.pi / 3)) < 1e-9


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_boundary_angle_exists_across_a(a):
    b = -(1 + math.sqrt(1 - a * a)) / 2 - 0.2
    theta1 = boundary_angle(a, b)
    assert -math.pi / 2 < theta1 < 0
    assert abs(a * math.cos(theta1) - b * math.sin(theta1) ** 2 - 1) < 1e-10


def test_boundary_angle_matches_trajectory(parab_figure_profiles):
    prof = parab_figure_profiles[(0.5, -1.0)]
    theta_end = prof.trajectory.states[-1, 2]
    assert abs(theta_end - boundary_angle(0.5, -1.0)) < 1e-3


def test_boundary_angle_no_root():
    with pytest.raises(NoRootError):
        boundary_angle(0.5, -0.1)  # not a concave-graph configuration


def test_statement_equation_discrepancy_surfaced(figure_classes):
    cls = figure_classes[-1.0]
    # With b = -1 the published statement form 2cos - b sin^2 = 0 has no root
    # in (-pi/2, 0); the proof form does. Both are reported.
    assert cls.theta1 is not None
    assert cls.theta1_statement_equation is None


# ---------------------------------------------------------------------------
# Differentiated-relation identity
# ---------------------------------------------------------------------------

def test_identity_residual_along_trajectories(parab_figure_profiles):
    for prof in parab_figure_profiles.values():
        assert derivative_identity_residual(prof) < 1e-5


def test_identity_residual_circle_case():
    prof = integrate_parabolic(0.8, -0.2, 1.0)
    assert derivative_identity_residual(prof) < 1e-6


def test_identity_residual_degenerate_line_exact_zero():
    prof = integrate_parabolic(1.0, 0.0, 2.0)
    assert derivative_identity_residual(prof) == 0.0


def loop_identity_residual(profile, fd_step=1e-5, fd_budget=1e-7):
    """Reference: the identity residual as a loop over the dense segments,
    one scalar dense-output call per stencil point, ``math`` trigonometry
    and a running ``max`` that skips NaN."""
    a, b = profile.a, profile.b
    traj = profile.trajectory
    knots = traj.s
    worst = 0.0

    def tp_at(s):
        _, z, th = traj(s)
        return parab_h3.slope(a, b, z, th)

    for i in range(len(knots) - 1):
        s0, s1 = float(knots[i]), float(knots[i + 1])
        if abs(s1 - s0) < 4 * fd_step:
            continue
        m = 0.5 * (s0 + s1)
        d_full = (tp_at(m + fd_step) - tp_at(m - fd_step)) / (2 * fd_step)
        d_half = (tp_at(m + fd_step / 2) - tp_at(m - fd_step / 2)) / fd_step
        tpp = (4 * d_half - d_full) / 3
        fd_err = abs(d_half - d_full) / 3
        _, z, th = traj(m)
        half = a / 2 + b * math.cos(th)
        if fd_err * abs(half * z) > fd_budget:
            continue
        tp = tp_at(m)
        res = -tp * math.sin(th) * (b * z * tp + half) + half * z * tpp
        worst = max(worst, abs(res))
    return float(worst)


IDENTITY_PROFILES = {
    "fig41a": (0.5, -1.0, 1.0),
    "fig41b": (0.5, -0.8, 1.0),
    "fig42a": (0.5, -0.2, 1.0),
    "fig42b": (0.5, 0.3, 1.0),
    "circle": (0.8, -0.2, 1.0),
    "line": (1.0, 0.0, 2.0),
    "seed12-item1": (0.1638061218040114, -0.7756117805076038, 0.6832817126915248),
    "seed7-item298": (0.34330582560125117, 0.8416437588815375, 0.5115280980712541),
    "seed12-item460": (0.7867775423808142, 0.5887712342921316, 1.2503223380278465),
    "seed2-item751": (0.5380759957127557, -0.5385139913506788, 0.6529625220742444),
}


@pytest.mark.parametrize("name", IDENTITY_PROFILES)
def test_identity_residual_equals_knot_loop(name):
    prof = integrate_parabolic(*IDENTITY_PROFILES[name])
    assert derivative_identity_residual(prof) == loop_identity_residual(prof)


def test_identity_residual_ignores_nan_samples_as_the_loop_does(parab_figure_profiles):
    # one interior dense segment made NaN
    prof = parab_figure_profiles[(0.5, -0.2)]
    states = prof.trajectory.states.copy()
    states[len(states) // 2] = np.nan
    prof = dataclasses.replace(prof, trajectory=dataclasses.replace(prof.trajectory, states=states))
    residual = derivative_identity_residual(prof)
    assert math.isfinite(residual) and residual > 0
    assert residual == loop_identity_residual(prof)


def test_identity_residual_makes_five_dense_calls(parab_figure_profiles, dense_call_shapes):
    derivative_identity_residual(parab_figure_profiles[(0.5, -0.2)])
    assert len(dense_call_shapes) <= 5 and all(len(shape) == 1 for shape in dense_call_shapes)


# ---------------------------------------------------------------------------
# Invariant surface patch
# ---------------------------------------------------------------------------

def test_patch_relation_pointwise(parab_figure_profiles):
    prof = parab_figure_profiles[(0.5, -1.0)]
    pp = parab_patch(prof)
    assert pp.relation_residual_max < 1e-9


def test_patch_circle_case():
    prof = integrate_parabolic(0.8, -0.2, 1.0)
    pp = parab_patch(prof)
    assert pp.relation_residual_max < 1e-8


def test_patch_horosphere_umbilic():
    pp = parab_patch(integrate_parabolic(1.0, 0.0, 2.0))
    _, _, _, _, _, k1, k2 = pp.profile.sample(201)
    assert k1 == pytest.approx(1.0, abs=1e-14)
    assert k2 == pytest.approx(1.0, abs=1e-14)
    assert pp.relation_residual_max < 1e-14


def test_patch_derivatives_consistent(parab_figure_profiles):
    from weingarten.geomcore import check_derivatives

    # The slowly turning concave-graph config keeps the finite-difference
    # truncation of the oracle below the 1e-6 consistency tolerance.
    pp = parab_patch(parab_figure_profiles[(0.5, -1.0)])
    assert check_derivatives(pp.patch, n_u=4, n_v=3) < 1e-6


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_curve_csv_columns(parab_figure_profiles, tmp_path):
    out = tmp_path / "parab.csv"
    parab_h3.export_curve_csv(parab_figure_profiles[(0.5, -1.0)], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x,z,theta,theta_prime,kappa1,kappa2,relation_residual"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    # symmetric parameter range, mirrored x and equal z
    assert rows[0][0] == -rows[-1][0]
    assert rows[0][1] == pytest.approx(-rows[-1][1], abs=1e-15)
    assert rows[0][2] == pytest.approx(rows[-1][2], abs=1e-15)


def test_classification_json_fields(figure_classes):
    rep = parab_h3.classification_json(figure_classes[-1.0])
    assert rep["report"] == "parab_h3_classification"
    assert rep["label"] == CASE_COMPLETE_CONCAVE_GRAPH
    assert rep["theta1"] == pytest.approx(-math.pi / 3, abs=1e-9)
    assert rep["termination_cause"] == "z_floor"
    assert rep["corroborated"] is True


# ---------------------------------------------------------------------------
# Seeded admissible sweep (module smoke; full sweep in acceptance)
# ---------------------------------------------------------------------------

def draw_admissible_pair(rng):
    while True:
        a = rng.uniform(0.15, 0.85)
        b = rng.uniform(-1.4, 0.9)
        if abs(a + 2 * b) < 0.08 or abs(a - 2 * b) < 0.08 or abs(b) < 0.05:
            continue
        if abs(circle_invariant(a, b)) < 5e-3:
            continue
        if abs(b - (-(1 + math.sqrt(1 - a * a)) / 2)) < 0.03:
            continue
        return a, b


def test_random_pairs_classify_and_corroborate():
    rng = np.random.default_rng(11)
    for _ in range(4):
        a, b = draw_admissible_pair(rng)
        cls = classify(a, b, Z0)
        assert cls.corroborated, (a, b, cls.label, cls.corroboration)
        prof = integrate_parabolic(a, b, Z0)
        assert prof.max_relation_residual() < 1e-9
        assert mirror_defect(prof) < 1e-7


# ---------------------------------------------------------------------------
# Profile report verdicts
# ---------------------------------------------------------------------------

def test_profile_report_verdicts_flip_on_scaled_height(parab_figure_profiles, scaled_height):
    prof = parab_figure_profiles[(0.5, -0.2)]
    assert parab_h3.profile_report(prof)["verdicts"] == {
        "relation_residual": True, "mirror_symmetry": True, "derivative_identity": True,
    }
    verdicts = parab_h3.profile_report(scaled_height(prof, 1.05))["verdicts"]
    assert verdicts["derivative_identity"] is False


def test_mirror_symmetry_flips_on_an_irreversible_system(parab_figure_profiles, monkeypatch):
    # theta' + eps sin(theta) is not even in theta, so the system the check
    # evaluates is not reversible: the defect is 2 eps max|sin(theta)| over
    # the 200 states sampled on [0, 0.999 s_max].
    prof = parab_figure_profiles[(0.5, -0.2)]
    assert mirror_defect(prof) == 0.0
    eps = 1e-6
    admissible = parab_h3._admissible_theta_prime

    def mutated(a, b):
        theta_prime = admissible(a, b)
        return lambda z, ct, st: theta_prime(z, ct, st) + eps * st

    monkeypatch.setattr(parab_h3, "_admissible_theta_prime", mutated)
    theta = prof.trajectory(np.linspace(0.0, 0.999 * prof.s_max, 200))[:, 2]
    assert mirror_defect(prof) == pytest.approx(2 * eps * np.max(np.abs(np.sin(theta))), rel=1e-6)
    assert parab_h3.profile_report(prof)["verdicts"] == {
        "relation_residual": True, "mirror_symmetry": False, "derivative_identity": True,
    }


def test_one_integration_per_profile_report_and_per_classification(integrate_calls):
    # integrate_parabolic solves the profile once and profile_report checks
    # it without solving again; classify solves once to corroborate.
    parab_h3.profile_report(integrate_parabolic(0.5, -0.2, 1.0))
    assert len(integrate_calls) == 1
    classify(0.5, -0.2, 1.0)
    assert len(integrate_calls) == 2


def test_profile_report_fails_on_empty_trajectory():
    # a zero horizon leaves the trajectory at s = 0, so no residual has any
    # interval to be measured on.
    prof = integrate_parabolic(0.5, -1.0, 1.0, horizon=0.0)
    assert prof.s_max == 0.0
    verdicts = parab_h3.profile_report(prof)["verdicts"]
    assert verdicts == {"relation_residual": False, "mirror_symmetry": False, "derivative_identity": False}
