import math

import numpy as np
import pytest

from weingarten.errors import DegeneratePointError
from weingarten.geomcore import (
    SurfacePatch,
    WeingartenParams,
    check_derivatives,
    curvature_field,
    curvatures,
    finite_difference_patch,
    fundamental_forms,
    weingarten_residual,
)


def sphere_patch(radius=1.0):
    R = radius
    return SurfacePatch(
        u_range=(0.3, math.pi - 0.3),
        v_range=(0.0, 2 * math.pi),
        position=lambda u, v: R * np.array([math.sin(u) * math.cos(v), math.sin(u) * math.sin(v), math.cos(u)]),
        du=lambda u, v: R * np.array([math.cos(u) * math.cos(v), math.cos(u) * math.sin(v), -math.sin(u)]),
        dv=lambda u, v: R * np.array([-math.sin(u) * math.sin(v), math.sin(u) * math.cos(v), 0.0]),
        duu=lambda u, v: R * np.array([-math.sin(u) * math.cos(v), -math.sin(u) * math.sin(v), -math.cos(u)]),
        duv=lambda u, v: R * np.array([-math.cos(u) * math.sin(v), math.cos(u) * math.cos(v), 0.0]),
        dvv=lambda u, v: R * np.array([-math.sin(u) * math.cos(v), -math.sin(u) * math.sin(v), 0.0]),
        name="sphere",
    )


def cylinder_patch(radius=2.0):
    r = radius
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(0.0, 2 * math.pi),
        position=lambda u, v: np.array([u, r * math.cos(v), r * math.sin(v)]),
        du=lambda u, v: np.array([1.0, 0.0, 0.0]),
        dv=lambda u, v: np.array([0.0, -r * math.sin(v), r * math.cos(v)]),
        duu=lambda u, v: np.zeros(3),
        duv=lambda u, v: np.zeros(3),
        dvv=lambda u, v: np.array([0.0, -r * math.cos(v), -r * math.sin(v)]),
        name="cylinder",
    )


def plane_patch():
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(-1.0, 1.0),
        position=lambda u, v: np.array([u, v, 0.0]),
        du=lambda u, v: np.array([1.0, 0.0, 0.0]),
        dv=lambda u, v: np.array([0.0, 1.0, 0.0]),
        duu=lambda u, v: np.zeros(3),
        duv=lambda u, v: np.zeros(3),
        dvv=lambda u, v: np.zeros(3),
        name="plane",
    )


def catenoid_patch():
    # Profile z(x) = cosh(x) revolved about the x-axis: the rotational
    # minimal surface.
    ch, sh = math.cosh, math.sinh
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(0.0, 2 * math.pi),
        position=lambda u, v: np.array([u, ch(u) * math.cos(v), ch(u) * math.sin(v)]),
        du=lambda u, v: np.array([1.0, sh(u) * math.cos(v), sh(u) * math.sin(v)]),
        dv=lambda u, v: np.array([0.0, -ch(u) * math.sin(v), ch(u) * math.cos(v)]),
        duu=lambda u, v: np.array([0.0, ch(u) * math.cos(v), ch(u) * math.sin(v)]),
        duv=lambda u, v: np.array([0.0, -sh(u) * math.sin(v), sh(u) * math.cos(v)]),
        dvv=lambda u, v: np.array([0.0, -ch(u) * math.cos(v), -ch(u) * math.sin(v)]),
        name="catenoid",
    )


def test_sphere_forms_orthogonal():
    patch = sphere_patch()
    for u, v in [(0.7, 0.3), (1.2, 2.0), (2.1, 5.5)]:
        E, F, G, e, f, g = fundamental_forms(patch, u, v)
        assert E > 0 and G > 0
        assert abs(F) < 1e-14


def test_cylinder_forms_hand_values():
    # Hand evaluation: E=1, F=0, G=4, e=f=0, |g|=2 for radius 2.
    patch = cylinder_patch(2.0)
    E, F, G, e, f, g = fundamental_forms(patch, 0.2, 1.1)
    assert abs(E - 1) < 1e-14
    assert abs(F) < 1e-14
    assert abs(G - 4) < 1e-14
    assert abs(e) < 1e-14
    assert abs(f) < 1e-14
    assert abs(abs(g) - 2) < 1e-14


def test_plane_second_form_vanishes():
    patch = plane_patch()
    _, _, _, e, f, g = fundamental_forms(patch, 0.1, -0.4)
    assert e == f == g == 0


def test_sphere_curvatures_umbilic():
    patch = sphere_patch(2.0)
    c = curvatures(patch, 1.0, 2.5)
    assert abs(abs(c.H) - 0.5) < 1e-12
    assert abs(c.K - 0.25) < 1e-12
    assert abs(c.k1 - c.k2) < 1e-10


def test_cylinder_curvatures():
    patch = cylinder_patch(2.0)
    c = curvatures(patch, 0.0, 0.7)
    assert abs(c.K) < 1e-14
    assert abs(abs(c.H) - 0.25) < 1e-14


def test_catenoid_is_minimal():
    patch = catenoid_patch()
    for u in np.linspace(-0.9, 0.9, 7):
        for v in np.linspace(0.1, 6.0, 5):
            assert abs(curvatures(patch, u, v).H) < 1e-8


def test_principal_curvature_identities():
    # k1*k2 = K and k1 + k2 = 2H to 1e-10 relative, k1 >= k2.
    for patch in (sphere_patch(1.7), cylinder_patch(0.8), catenoid_patch()):
        for u in np.linspace(*patch.u_range, 5)[1:-1]:
            for v in np.linspace(*patch.v_range, 5)[1:-1]:
                c = curvatures(patch, u, v)
                scale = max(1.0, abs(c.H), abs(c.K))
                assert abs(c.k1 + c.k2 - 2 * c.H) < 1e-10 * scale
                assert abs(c.k1 * c.k2 - c.K) < 1e-10 * scale
                assert c.k1 >= c.k2


def test_normal_flip_negates_mean_curvature():
    for patch in (sphere_patch(1.3), cylinder_patch(2.0)):
        c_plus = curvatures(patch, 0.9, 1.0)
        c_minus = curvatures(patch, 0.9, 1.0, flip_normal=True)
        assert abs(c_plus.H + c_minus.H) < 1e-13
        assert abs(c_plus.K - c_minus.K) < 1e-13
        assert abs(c_plus.k1 + c_minus.k2) < 1e-12
        assert abs(c_plus.k2 + c_minus.k1) < 1e-12


def test_finite_difference_oracle_matches_analytic():
    # H and K from numerically differentiated position agree with the
    # analytic-derivative values to 1e-5 relative (step 1e-4).
    for make in (sphere_patch, catenoid_patch):
        patch = make()
        fd = finite_difference_patch(patch.position, patch.u_range, patch.v_range, step=1e-4)
        for u, v in [(0.8, 1.0), (1.1, 3.0)]:
            ca = curvatures(patch, u, v)
            cn = curvatures(fd, u, v)
            scale = max(1.0, abs(ca.H), abs(ca.K))
            assert abs(ca.H - cn.H) < 1e-5 * scale
            assert abs(ca.K - cn.K) < 1e-5 * scale


def test_reparametrization_invariance():
    base = sphere_patch(1.0)
    k = 2.5  # rescale u by a constant factor
    patch = SurfacePatch(
        u_range=(base.u_range[0] / k, base.u_range[1] / k),
        v_range=base.v_range,
        position=lambda u, v: base.position(k * u, v),
        du=lambda u, v: k * base.du(k * u, v),
        dv=lambda u, v: base.dv(k * u, v),
        duu=lambda u, v: k * k * base.duu(k * u, v),
        duv=lambda u, v: k * base.duv(k * u, v),
        dvv=lambda u, v: base.dvv(k * u, v),
    )
    for u, v in [(0.5, 1.0), (0.9, 4.0)]:
        ca = curvatures(base, k * u, v)
        cb = curvatures(patch, u, v)
        assert abs(ca.H - cb.H) < 1e-8
        assert abs(ca.K - cb.K) < 1e-8


def test_check_derivatives_accepts_consistent_patch():
    assert check_derivatives(sphere_patch()) < 1e-6


def test_check_derivatives_rejects_wrong_partial():
    bad = sphere_patch()
    broken = SurfacePatch(
        u_range=bad.u_range,
        v_range=bad.v_range,
        position=bad.position,
        du=lambda u, v: 1.05 * bad.du(u, v),
        dv=bad.dv,
        duu=bad.duu,
        duv=bad.duv,
        dvv=bad.dvv,
    )
    with pytest.raises(ValueError):
        check_derivatives(broken)


def test_weingarten_residual_sphere():
    patch = sphere_patch(1.0)
    # With the inward normal of this parametrization H = +1; (2,0,2) matches.
    u = np.linspace(0.5, 2.5, 7)
    v = np.linspace(0.2, 6.0, 7)
    res, _ = weingarten_residual(patch, WeingartenParams(2, 0, 2), u, v, flip_normal=_sphere_flip())
    assert res < 1e-10


def _sphere_flip():
    # Determine once which orientation of the test sphere gives H = +1.
    c = curvatures(sphere_patch(1.0), 1.0, 1.0)
    return c.H < 0


def test_weingarten_residual_cylinder_exact_and_off():
    patch = cylinder_patch(1.0)
    u = np.linspace(-0.9, 0.9, 5)
    v = np.linspace(0.1, 6.1, 9)
    flip = curvatures(patch, 0.0, 0.3).H < 0
    res_ok, _ = weingarten_residual(patch, WeingartenParams(2, 0, 1), u, v, flip_normal=flip)
    assert res_ok < 1e-10
    res_off, _ = weingarten_residual(patch, WeingartenParams(2, 0, 0.9), u, v, flip_normal=flip)
    assert abs(res_off - 0.1) < 1e-10


def test_degenerate_point_raises():
    degenerate = SurfacePatch(
        u_range=(-1, 1),
        v_range=(-1, 1),
        position=lambda u, v: np.array([u, u, 0.0]),
        du=lambda u, v: np.array([1.0, 1.0, 0.0]),
        dv=lambda u, v: np.array([1.0, 1.0, 0.0]),  # parallel to du
        duu=lambda u, v: np.zeros(3),
        duv=lambda u, v: np.zeros(3),
        dvv=lambda u, v: np.zeros(3),
    )
    with pytest.raises(DegeneratePointError):
        fundamental_forms(degenerate, 0.0, 0.0)


def test_rounded_singular_metric_raises_degenerate_point():
    # |X_u x X_v| = 1 passes the normal check, but EG - F^2 rounds to 0:
    # both curvature routes must refuse the point instead of dividing by it.
    sheared = SurfacePatch(
        u_range=(-1, 1),
        v_range=(-1, 1),
        position=lambda u, v: np.array([1e8 * (u + v), 1e-8 * v, 0.0]),
        du=lambda u, v: np.array([1e8, 0.0, 0.0]),
        dv=lambda u, v: np.array([1e8, 1e-8, 0.0]),
        duu=lambda u, v: np.zeros(3),
        duv=lambda u, v: np.zeros(3),
        dvv=lambda u, v: np.zeros(3),
    )
    with pytest.raises(DegeneratePointError):
        curvatures(sheared, 0.0, 0.0)
    with pytest.raises(DegeneratePointError):
        curvature_field(sheared, [0.0], [0.0])


def test_params_discriminant_family():
    assert WeingartenParams(1, 1, 1).family == "elliptic"
    assert WeingartenParams(2, -1, 1).family == "tube"  # 4 - 4 = 0
    assert WeingartenParams(2, -2, 1).family == "hyperbolic"
    p = WeingartenParams(4, -8, 2).normalized()
    assert p.c == 1 and p.a == 2 and p.b == -4


def test_curvature_field_csv_roundtrip(tmp_path):
    patch = sphere_patch(1.0)
    field = curvature_field(patch, np.linspace(0.5, 2.5, 3), np.linspace(0.1, 6.0, 4))
    out = tmp_path / "field.csv"
    field.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,v,E,F,G,e,f,g,H,K,k1,k2"
    assert len(lines) == 1 + 12
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[0] - 0.5) < 1e-15
    # values round-trip through the 17-significant-digit format
    assert first[2] == field.E[0]
