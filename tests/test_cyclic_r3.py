import dataclasses
import math

import numpy as np
import pytest

from weingarten import cyclic_r3 as cyclic
from weingarten import geomcore
from weingarten.cyclic_r3 import (
    CurveFunc,
    CyclicSurfaceSpec,
    cyclic_patch,
    generalized_cone,
    max_curvature_magnitudes,
    riemann_example,
    riemann_identity_residual,
    sphere_slice,
    trig_coefficients,
)
from weingarten.errors import NonPositiveRadiusError
from weingarten.geomcore import WeingartenParams


def unit_cylinder_spec():
    return CyclicSurfaceSpec(
        u_range=(0.0, 1.0),
        center_x=CurveFunc.constant(0.0),
        center_y=CurveFunc.constant(0.0),
        radius=CurveFunc.constant(1.0),
    )


def perturbed_cone_spec():
    # radius picks up a quadratic term: no longer flat
    return CyclicSurfaceSpec(
        u_range=(0.0, 1.0),
        center_x=CurveFunc.linear(0.0, 0.3),
        center_y=CurveFunc.linear(0.0, 0.4),
        radius=CurveFunc.poly([1.0, 0.5, 0.1]),
    )


# ---------------------------------------------------------------------------
# Patch assembly
# ---------------------------------------------------------------------------

def test_cylinder_patch_curvatures():
    H, K = max_curvature_magnitudes(unit_cylinder_spec(), 8, 16)
    assert abs(H - 0.5) < 1e-12
    assert K < 1e-14


def test_cone_patch_is_regular():
    patch = cyclic_patch(generalized_cone(0, 0.3, 0, 0.4, 1, 0.5))
    forms = geomcore.fundamental_forms(patch, 0.5, 1.2)
    assert forms.E * forms.G - forms.F**2 > 0


def test_patch_derivatives_consistent_with_fd():
    spec = riemann_example(1.0, 0.0, 1.0, 0.0, (-1, 1))
    assert geomcore.check_derivatives(cyclic_patch(spec), n_u=4, n_v=4) < 1e-6


# ---------------------------------------------------------------------------
# Minimal circle-foliated family
# ---------------------------------------------------------------------------

def test_rotational_case_is_catenary_radius():
    spec = riemann_example(0.0, 0.0, 1.0, 0.0, (-1, 1))
    us = np.array([-0.8, -0.3, 0.4, 0.9])
    for u, r, f in zip(us.tolist(), spec.radius.value(us), spec.center_x.value(us)):
        assert abs(r - math.cosh(u)) < 1e-10
        assert abs(f) == 0.0
    H, _ = max_curvature_magnitudes(spec, 20, 24)
    assert H < 1e-6


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)])
def test_minimal_family_has_vanishing_mean_curvature(lam, mu):
    spec = riemann_example(lam, mu, 1.0, 0.0, (-1, 1))
    H, _ = max_curvature_magnitudes(spec, 25, 32)
    assert H < 1e-6
    assert riemann_identity_residual(spec) < 1e-8


def test_center_drift_law_exact():
    spec = riemann_example(1.0, 0.0, 1.0, 0.0, (-1, 1))
    us = np.linspace(-0.9, 0.9, 7)
    for f1, g1, r in zip(spec.center_x.d1(us), spec.center_y.d1(us), spec.radius.value(us).tolist()):
        assert f1 == pytest.approx(r ** 2, rel=1e-15)
        assert g1 == 0.0


def test_symmetric_parameters_give_equal_centers():
    spec = riemann_example(0.5, 0.5, 1.0, 0.0, (-1, 1))
    us = np.linspace(-0.9, 0.9, 9)
    for f, g, f1, g1 in zip(spec.center_x.value(us), spec.center_y.value(us),
                            spec.center_x.d1(us), spec.center_y.d1(us)):
        assert f == g
        assert f1 == g1


def test_radius_stays_positive_by_first_integral():
    # 1 + r'^2 = r^2 (I0 + c4 r^2) forces a positive minimum radius.
    spec = riemann_example(1.0, 0.0, 1.0, -0.5, (-2, 2))
    us = np.linspace(*spec.u_range, 200)
    assert min(spec.radius.value(us)) > 0


def test_riemann_rejects_nonpositive_radius():
    with pytest.raises(NonPositiveRadiusError):
        riemann_example(1.0, 0.0, 0.0, 0.0)


def test_empty_u_range_is_rejected():
    with pytest.raises(ValueError, match="u_min < u_max"):
        riemann_example(1.0, 0.0, 1.0, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="u_min < u_max"):
        generalized_cone(0, 0.3, 0, 0.4, 1, 0.5, (1.0, 0.0))


def test_riemann_curve_functions_refuse_u_outside_the_integrated_range():
    spec = riemann_example(1.0, 0.5, 1.0, 0.1, (-0.5, 1.0))
    lo, hi = spec.u_range
    inside = np.array([lo, 0.0, hi])
    for fn in (spec.center_x.value, spec.center_y.d1, spec.radius.d2):
        assert len(fn(inside)) == 3
        for u in (lo - 1e-6, hi + 1e-6, 3.0):
            with pytest.raises(ValueError, match=f"u = {u} is outside"):
                fn(np.array([0.0, u]))


def test_sphere_radius_names_the_first_u_without_a_circle():
    with pytest.raises(NonPositiveRadiusError, match=r"at u = 1\.0$"):
        sphere_slice(1.0).radius.value(np.array([0.5, 1.0, -2.0]))


def test_radius_identity_ignores_nan_points():
    # a running max skips NaN; the residual must not turn NaN with one point
    spec = riemann_example(1.0, 0.5, 1.0, 0.1)
    r = spec.radius
    holed = CurveFunc(lambda u: np.where(u > 0.5, np.nan, r.value(u)), r.d1, r.d2)
    residual = riemann_identity_residual(dataclasses.replace(spec, radius=holed))
    assert math.isfinite(residual) and residual <= riemann_identity_residual(spec)


# numpy's ** differs from Python's (libm pow) at some of these points: on
# the Riemann radius below at 5 squares and 567 fourth powers, on the sphere
# at 491 cubes (numpy 2.4.6). The curve functions keep Python's.
N_POW = 10001


def test_curve_functions_equal_per_point_formulas():
    def check(curve, us, value, d1, d2):
        for fn, ref in zip((curve.value, curve.d1, curve.d2), (value, d1, d2)):
            assert fn(us).tolist() == [ref(u) for u in us.tolist()]

    us = np.linspace(-0.9, 0.9, 201)
    check(CurveFunc.constant(1.5), us, lambda u: 1.5, lambda u: 0.0, lambda u: 0.0)
    check(CurveFunc.linear(0.3, -0.7), us, lambda u: 0.3 + -0.7 * u, lambda u: -0.7, lambda u: 0.0)
    p = np.polynomial.Polynomial([1.0, 0.5, 0.1, -0.2])
    check(CurveFunc.poly([1.0, 0.5, 0.1, -0.2]), us,
          lambda u: float(p(u)), lambda u: float(p.deriv()(u)), lambda u: float(p.deriv().deriv()(u)))
    R = 1.3
    check(sphere_slice(R).radius, np.linspace(-0.9, 0.9, N_POW), lambda u: math.sqrt(R * R - u * u),
          lambda u: -u / math.sqrt(R * R - u * u), lambda u: -R * R / math.sqrt(R * R - u * u) ** 3)


def test_riemann_derivatives_equal_per_point_formulas():
    lam, mu = 1.0, 0.5
    spec = riemann_example(lam, mu, 1.0, 0.1)
    us = np.linspace(*spec.u_range, N_POW)
    r, rp = spec.radius.value(us).tolist(), spec.radius.d1(us).tolist()
    c4 = lam * lam + mu * mu
    for coef, center in ((lam, spec.center_x), (mu, spec.center_y)):
        assert center.d1(us).tolist() == [coef * v ** 2 for v in r]
        assert center.d2(us).tolist() == [2.0 * coef * v * w for v, w in zip(r, rp)]
    assert spec.radius.d2(us).tolist() == [(1.0 + c4 * v ** 4 + w * w) / v for v, w in zip(r, rp)]


def test_riemann_partials_make_no_scalar_dense_call(cyclic_specs, dense_call_shapes):
    spec = cyclic_specs["riemann"]
    cyclic_patch(spec).partials(np.linspace(*spec.u_range, 30), np.linspace(0.0, 6.0, 8))
    assert dense_call_shapes and all(len(shape) == 1 for shape in dense_call_shapes)


# ---------------------------------------------------------------------------
# Generalized cones
# ---------------------------------------------------------------------------

def test_cone_is_flat():
    _, K = max_curvature_magnitudes(generalized_cone(0, 0.3, 0, 0.4, 1, 0.5), 30, 36)
    assert K < 1e-9


def test_constant_cone_is_cylinder():
    H, K = max_curvature_magnitudes(generalized_cone(0, 0, 0, 0, 1, 0), 8, 16)
    assert abs(H - 0.5) < 1e-12
    assert K < 1e-14


def test_perturbed_radius_is_not_flat():
    _, K = max_curvature_magnitudes(perturbed_cone_spec(), 20, 24)
    assert K > 1e-3


def test_cone_rejects_nonpositive_radius():
    with pytest.raises(NonPositiveRadiusError):
        generalized_cone(0, 0.3, 0, 0.4, 1.0, -1.5)  # radius hits 0 inside [0, 1]


# ---------------------------------------------------------------------------
# Fourier coefficients of the relation residual
# ---------------------------------------------------------------------------

def test_sphere_coefficients_vanish():
    # Unit sphere satisfies 2H = 2 with this parametrization's normal.
    spec = sphere_slice(1.0)
    tc = trig_coefficients(spec, WeingartenParams(2, 0, 2), u=0.3)
    assert tc.n_max == 12
    assert tc.max_abs < 1e-8


def test_zero_radius_raises_from_the_radius_derivative():
    # At the pole of a sphere slice r = 0: the partials evaluate r' = -u/r
    # before anything else, so its NonPositiveRadiusError is what a curvature
    # query there raises.
    spec = sphere_slice(1.0, u_range=(-1.0, 1.0))
    called = []

    def logged(name, fn):
        def wrapper(u):
            called.append(name)
            return fn(u)
        return wrapper

    r = spec.radius
    radius = CurveFunc(logged("value", r.value), logged("d1", r.d1), logged("d2", r.d2))
    with pytest.raises(NonPositiveRadiusError):
        geomcore.curvature_field(cyclic_patch(dataclasses.replace(spec, radius=radius)), [1.0], [0.0, 1.0])
    assert called == ["d1"]


def test_sphere_radius_two_coefficients_vanish():
    spec = sphere_slice(2.0)
    tc = trig_coefficients(spec, WeingartenParams(2, 0, 1), u=0.5)
    assert tc.max_abs < 1e-8


def test_cone_coefficients_vanish_for_flat_relation():
    tc = trig_coefficients(generalized_cone(0, 0.3, 0, 0.4, 1, 0.5), WeingartenParams(0, 1, 0), u=0.5)
    assert tc.max_abs < 1e-8


def test_riemann_coefficients_vanish_for_minimal_relation():
    spec = riemann_example(1.0, 0.0, 1.0, 0.0, (-1, 1))
    tc = trig_coefficients(spec, WeingartenParams(1, 0, 0), u=0.4)
    assert tc.max_abs < 1e-6


def test_coefficients_detect_perturbations():
    rng = np.random.default_rng(5)
    for which in ("center_x", "center_y", "radius"):
        fields = {
            "center_x": CurveFunc.linear(0.0, 0.3),
            "center_y": CurveFunc.linear(0.0, 0.4),
            "radius": CurveFunc.linear(1.0, 0.5),
        }
        cubic = CurveFunc.poly([0.0, 0.0, 0.0, 0.1 * rng.uniform(0.5, 1.5)])
        base = fields[which]
        fields[which] = CurveFunc(
            value=lambda u, a=base, p=cubic: a.value(u) + p.value(u),
            d1=lambda u, a=base, p=cubic: a.d1(u) + p.d1(u),
            d2=lambda u, a=base, p=cubic: a.d2(u) + p.d2(u),
        )
        spec = CyclicSurfaceSpec((0.0, 1.0), fields["center_x"], fields["center_y"], fields["radius"])
        tc = trig_coefficients(spec, WeingartenParams(0, 1, 0), u=0.5)
        assert tc.max_abs > 1e-3, which


def test_fourier_reconstruction_completeness():
    # The residual is smooth and 2pi-periodic; its spectrum decays fast
    # enough that 60 harmonics reproduce 256 samples to machine precision.
    spec = perturbed_cone_spec()
    params = WeingartenParams(1.0, 0.7, 0.3)
    tc = trig_coefficients(spec, params, u=0.5, n_samples=256, n_max=60)
    vs, res = cyclic.residual_samples(spec, params, u=0.5, n_samples=256)
    assert np.max(np.abs(tc.reconstruct(vs) - res)) < 1e-9


def test_coefficient_sample_count_validated():
    with pytest.raises(ValueError):
        trig_coefficients(unit_cylinder_spec(), WeingartenParams(2, 0, 1), u=0.5, n_samples=20, n_max=12)


def test_coefficients_json_and_csv(tmp_path):
    spec = generalized_cone(0, 0.3, 0, 0.4, 1, 0.5)
    tc = trig_coefficients(spec, WeingartenParams(0, 1, 0), u=0.5)
    rep = cyclic.coefficients_json(tc)
    assert rep["report"] == "cyclic_coefficients"
    assert rep["verdict"] is True
    assert len(rep["A"]) == 13 and len(rep["B"]) == 13

    out = tmp_path / "residual.csv"
    cyclic.export_residual_csv(spec, WeingartenParams(0, 1, 0), out, n_u=4, n_v=8)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,residual"
    assert len(lines) == 1 + 4 * 8


def test_reports_decide_verdicts_and_they_can_fail():
    cone = generalized_cone(0, 0.3, 0, 0.4, 1, 0.5)
    coeffs = ((0, 0.3), (0, 0.4), (1, 0.5))
    rep = cyclic.cone_json(cone, *coeffs)
    assert rep["f"] == [0, 0.3] and rep["r"] == [1, 0.5] and rep["verdicts"] == {"flat": True}
    bent = dataclasses.replace(cone, radius=CurveFunc.poly([1.0, 0.5, 0.1]))
    assert cyclic.cone_json(bent, *coeffs)["verdicts"] == {"flat": False}

    minimal = riemann_example(1.0, 0.5, 1.0, 0.1, (-0.5, 0.5))
    rep = cyclic.riemann_json(minimal)
    assert rep["lam"] == 1.0 and rep["verdicts"] == {"minimal": True, "radius_identity": True}
    # a radius off the minimal-surface system breaks both relations
    off = dataclasses.replace(minimal, radius=CurveFunc.poly([1.0, 0.1, 0.3]))
    assert cyclic.riemann_json(off)["verdicts"] == {"minimal": False, "radius_identity": False}
