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
    for u in (-0.8, -0.3, 0.4, 0.9):
        assert abs(spec.radius.value(u) - math.cosh(u)) < 1e-10
        assert abs(spec.center_x.value(u)) == 0.0
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
    for u in np.linspace(-0.9, 0.9, 7):
        assert spec.center_x.d1(u) == pytest.approx(spec.radius.value(u) ** 2, rel=1e-15)
        assert spec.center_y.d1(u) == 0.0


def test_symmetric_parameters_give_equal_centers():
    spec = riemann_example(0.5, 0.5, 1.0, 0.0, (-1, 1))
    for u in np.linspace(-0.9, 0.9, 9):
        assert spec.center_x.value(u) == spec.center_y.value(u)
        assert spec.center_x.d1(u) == spec.center_y.d1(u)


def test_radius_stays_positive_by_first_integral():
    # 1 + r'^2 = r^2 (I0 + c4 r^2) forces a positive minimum radius.
    spec = riemann_example(1.0, 0.0, 1.0, -0.5, (-2, 2))
    us = np.linspace(*spec.u_range, 200)
    assert min(spec.radius.value(float(u)) for u in us) > 0


def test_riemann_rejects_nonpositive_radius():
    with pytest.raises(NonPositiveRadiusError):
        riemann_example(1.0, 0.0, 0.0, 0.0)


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
