import dataclasses
import math

import numpy as np
import pytest

from weingarten import cyclic_r3 as cyclic
from weingarten import geomcore
from weingarten.cyclic_r3 import (
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


@pytest.fixture
def unit_cylinder_spec(poly_jets):
    return CyclicSurfaceSpec((0.0, 1.0), poly_jets([0.0], [0.0], [1.0]))


@pytest.fixture
def perturbed_cone_spec(poly_jets):
    # radius picks up a quadratic term: no longer flat
    return CyclicSurfaceSpec((0.0, 1.0), poly_jets([0.0, 0.3], [0.0, 0.4], [1.0, 0.5, 0.1]))


# ---------------------------------------------------------------------------
# Patch assembly
# ---------------------------------------------------------------------------

def test_cylinder_patch_curvatures(unit_cylinder_spec):
    H, K = max_curvature_magnitudes(unit_cylinder_spec)
    assert abs(H - 0.5) < 1e-12
    assert K < 1e-14


def test_cone_patch_is_regular():
    patch = cyclic_patch(generalized_cone(0, 0.3, 0, 0.4, 1, 0.5))
    forms = geomcore.curvature_field(patch, [0.5], [1.2])
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
    (f, _, _), _, (r, _, _) = spec.jets(us)
    for u, r, f in zip(us.tolist(), r, f):
        assert abs(r - math.cosh(u)) < 1e-10
        assert abs(f) == 0.0
    H, _ = max_curvature_magnitudes(spec)
    assert H < 1e-6


@pytest.mark.parametrize("lam,mu", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)])
def test_minimal_family_has_vanishing_mean_curvature(lam, mu):
    spec = riemann_example(lam, mu, 1.0, 0.0, (-1, 1))
    H, _ = max_curvature_magnitudes(spec)
    assert H < 1e-6
    assert riemann_identity_residual(spec) < 1e-8


def test_center_drift_law_exact():
    spec = riemann_example(1.0, 0.0, 1.0, 0.0, (-1, 1))
    us = np.linspace(-0.9, 0.9, 7)
    (_, f1, _), (_, g1, _), (r, _, _) = spec.jets(us)
    for f1, g1, r in zip(f1, g1, r.tolist()):
        assert f1 == pytest.approx(r ** 2, rel=1e-15)
        assert g1 == 0.0


def test_symmetric_parameters_give_equal_centers():
    spec = riemann_example(0.5, 0.5, 1.0, 0.0, (-1, 1))
    us = np.linspace(-0.9, 0.9, 9)
    (f, f1, _), (g, g1, _), _ = spec.jets(us)
    for f, g, f1, g1 in zip(f, g, f1, g1):
        assert f == g
        assert f1 == g1


def test_radius_stays_positive_by_first_integral():
    # 1 + r'^2 = r^2 (I0 + c4 r^2) forces a positive minimum radius.
    spec = riemann_example(1.0, 0.0, 1.0, -0.5, (-2, 2))
    us = np.linspace(*spec.u_range, 200)
    assert min(spec.jets(us)[2][0]) > 0


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
    assert all(len(x) == 3 for jet in spec.jets(np.array([lo, 0.0, hi])) for x in jet)
    for u in (lo - 1e-6, hi + 1e-6, 3.0):
        with pytest.raises(ValueError, match=f"u = {u} is outside"):
            spec.jets(np.array([0.0, u]))


def test_sphere_radius_names_the_first_u_without_a_circle():
    with pytest.raises(NonPositiveRadiusError, match=r"at u = 1\.0$"):
        sphere_slice(1.0).jets(np.array([0.5, 1.0, -2.0]))


def test_radius_identity_ignores_nan_points():
    # a running max skips NaN; the residual must not turn NaN with one point
    spec = riemann_example(1.0, 0.5, 1.0, 0.1)

    def holed(u):
        f, g, (r, r1, r2) = spec.jets(u)
        return f, g, (np.where(u > 0.5, np.nan, r), r1, r2)

    residual = riemann_identity_residual(dataclasses.replace(spec, jets=holed))
    assert math.isfinite(residual) and residual <= riemann_identity_residual(spec)


# numpy's ** differs from Python's (libm pow) at some of these points: on
# the Riemann radius below at 5 squares and 567 fourth powers, on the sphere
# at 491 cubes (numpy 2.4.6). The jets keep Python's.
N_POW = 10001


def test_curve_functions_equal_per_point_formulas():
    def check(spec, us, refs):
        for jet, jet_refs in zip(spec.jets(us), refs, strict=True):
            for got, ref in zip(jet, jet_refs, strict=True):
                assert got.tolist() == [ref(u) for u in us.tolist()]

    def linear(c0, c1):
        return lambda u: c0 + c1 * u, lambda u: c1, lambda u: 0.0

    us = np.linspace(-0.9, 0.9, 201)
    check(generalized_cone(1.5, 0.0, 0.3, -0.7, 1.0, 0.2, (-0.9, 0.9)), us,
          (linear(1.5, 0.0), linear(0.3, -0.7), linear(1.0, 0.2)))
    R = 1.3
    zero = (lambda u: 0.0,) * 3
    check(sphere_slice(R), np.linspace(-0.9, 0.9, N_POW),
          (zero, zero, (lambda u: math.sqrt(R * R - u * u), lambda u: -u / math.sqrt(R * R - u * u),
                        lambda u: -R * R / math.sqrt(R * R - u * u) ** 3)))


def test_riemann_derivatives_equal_per_point_formulas():
    lam, mu = 1.0, 0.5
    spec = riemann_example(lam, mu, 1.0, 0.1)
    us = np.linspace(*spec.u_range, N_POW)
    (_, f1, f2), (_, g1, g2), (r, rp, r2) = spec.jets(us)
    r, rp = r.tolist(), rp.tolist()
    c4 = lam * lam + mu * mu
    for coef, d1, d2 in ((lam, f1, f2), (mu, g1, g2)):
        assert d1.tolist() == [coef * v ** 2 for v in r]
        assert d2.tolist() == [2.0 * coef * v * w for v, w in zip(r, rp)]
    assert r2.tolist() == [(1.0 + c4 * v ** 4 + w * w) / v for v, w in zip(r, rp)]


def test_riemann_grids_make_one_dense_call_per_direction(cyclic_specs, dense_call_shapes):
    # one jets call per grid: the forward and the backward dense output are
    # each read once, on the u at or above 0 and on those below 0
    spec = cyclic_specs["riemann"]
    patch, us, vs = cyclic_patch(spec), np.linspace(*spec.u_range, 30), np.linspace(0.0, 6.0, 8)
    ahead = int(np.sum(us >= 0))
    assert 0 < ahead < len(us)
    for grid in (patch.partials, patch.position):
        dense_call_shapes.clear()
        grid(us, vs)
        assert dense_call_shapes == [(ahead,), (len(us) - ahead,)], grid.__name__


# ---------------------------------------------------------------------------
# Generalized cones
# ---------------------------------------------------------------------------

def test_cone_is_flat():
    _, K = max_curvature_magnitudes(generalized_cone(0, 0.3, 0, 0.4, 1, 0.5))
    assert K < 1e-9


def test_constant_cone_is_cylinder():
    H, K = max_curvature_magnitudes(generalized_cone(0, 0, 0, 0, 1, 0))
    assert abs(H - 0.5) < 1e-12
    assert K < 1e-14


def test_perturbed_radius_is_not_flat(perturbed_cone_spec):
    _, K = max_curvature_magnitudes(perturbed_cone_spec)
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


def test_zero_radius_raises_at_the_pole():
    # At the pole of a sphere slice r = 0, where r' = -u/r has no value.
    spec = sphere_slice(1.0, u_range=(-1.0, 1.0))
    with pytest.raises(NonPositiveRadiusError):
        geomcore.curvature_field(cyclic_patch(spec), [1.0], [0.0, 1.0])


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


def test_coefficients_detect_perturbations(poly_jets):
    rng = np.random.default_rng(5)
    for which, name in enumerate(("f", "g", "r")):
        # the flat cone's linear curves; one of them gains a cubic term
        curves = [[0.0, 0.3], [0.0, 0.4], [1.0, 0.5]]
        curves[which] = curves[which] + [0.0, 0.1 * rng.uniform(0.5, 1.5)]
        spec = CyclicSurfaceSpec((0.0, 1.0), poly_jets(*curves))
        tc = trig_coefficients(spec, WeingartenParams(0, 1, 0), u=0.5)
        assert tc.max_abs > 1e-3, name


def test_fourier_reconstruction_completeness(perturbed_cone_spec):
    # The residual is smooth and 2pi-periodic; its spectrum decays fast
    # enough that 60 harmonics reproduce 256 samples to machine precision.
    spec = perturbed_cone_spec
    params = WeingartenParams(1.0, 0.7, 0.3)
    tc = trig_coefficients(spec, params, u=0.5, n_samples=256, n_max=60)
    vs, res = cyclic.residual_samples(spec, params, u=0.5, n_samples=256)
    reconstructed = np.full_like(vs, tc.A[0])
    for n in range(1, tc.n_max + 1):
        reconstructed += tc.A[n] * np.cos(n * vs) + tc.B[n] * np.sin(n * vs)
    assert np.max(np.abs(reconstructed - res)) < 1e-9


def test_coefficient_sample_count_validated(unit_cylinder_spec):
    with pytest.raises(ValueError):
        trig_coefficients(unit_cylinder_spec, WeingartenParams(2, 0, 1), u=0.5, n_samples=20, n_max=12)


def test_coefficients_json_and_csv(tmp_path):
    spec = generalized_cone(0, 0.3, 0, 0.4, 1, 0.5)
    tc = trig_coefficients(spec, WeingartenParams(0, 1, 0), u=0.5)
    rep = cyclic.coefficients_json(tc)
    assert rep["report"] == "cyclic_coefficients"
    assert rep["verdict"] is True
    assert len(rep["A"]) == 13 and len(rep["B"]) == 13

    out = tmp_path / "residual.csv"
    cyclic.export_residual_csv(spec, WeingartenParams(0, 1, 0), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,residual"
    assert len(lines) == 1 + 20 * 32
    # values round-trip through the 17-significant-digit format
    u, v, _ = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).T
    assert u.tolist() == np.repeat(np.linspace(0.0, 1.0, 20), 32).tolist()
    assert v.tolist() == np.tile(np.linspace(0.0, 2 * math.pi, 32, endpoint=False), 20).tolist()


def test_reports_decide_verdicts_and_they_can_fail(poly_jets):
    cone = generalized_cone(0, 0.3, 0, 0.4, 1, 0.5)
    coeffs = ((0, 0.3), (0, 0.4), (1, 0.5))
    rep = cyclic.cone_json(cone, *coeffs)
    assert rep["f"] == [0, 0.3] and rep["r"] == [1, 0.5] and rep["verdicts"] == {"flat": True}
    bent = dataclasses.replace(cone, jets=poly_jets([0, 0.3], [0, 0.4], [1.0, 0.5, 0.1]))
    assert cyclic.cone_json(bent, *coeffs)["verdicts"] == {"flat": False}

    minimal = riemann_example(1.0, 0.5, 1.0, 0.1, (-0.5, 0.5))
    rep = cyclic.riemann_json(minimal)
    assert rep["lam"] == 1.0 and rep["verdicts"] == {"minimal": True, "radius_identity": True}
    # a radius off the minimal-surface system breaks both relations
    off_radius = poly_jets([0.0], [0.0], [1.0, 0.1, 0.3])
    off = dataclasses.replace(minimal, jets=lambda u: (*minimal.jets(u)[:2], off_radius(u)[2]))
    assert cyclic.riemann_json(off)["verdicts"] == {"minimal": False, "radius_identity": False}
