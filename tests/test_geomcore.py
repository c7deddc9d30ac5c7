import dataclasses
import math
from collections import Counter

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


def on_grid(fn):
    """Lift fn(U, V) -> [x, y, z], an expression on meshgrid arrays whose
    components may be scalars, to the grid contract of SurfacePatch."""
    def grid(us, vs):
        U, V = np.meshgrid(us, vs, indexing="ij")
        return np.stack(np.broadcast_arrays(U, *fn(U, V))[1:], axis=-1)
    return grid


def on_grid_partials(*fns):
    """Lift the five expressions of X_u, X_v, X_uu, X_uv and X_vv, each as
    for ``on_grid``, to the ``partials`` contract of SurfacePatch."""
    grids = [on_grid(fn) for fn in fns]
    return lambda us, vs: tuple(grid(us, vs) for grid in grids)


def sphere_patch(radius=1.0):
    R = radius
    sin, cos = np.sin, np.cos
    return SurfacePatch(
        u_range=(0.3, math.pi - 0.3),
        v_range=(0.0, 2 * math.pi),
        position=on_grid(lambda u, v: [R * sin(u) * cos(v), R * sin(u) * sin(v), R * cos(u)]),
        partials=on_grid_partials(
            lambda u, v: [R * cos(u) * cos(v), R * cos(u) * sin(v), -R * sin(u)],
            lambda u, v: [-R * sin(u) * sin(v), R * sin(u) * cos(v), 0.0],
            lambda u, v: [-R * sin(u) * cos(v), -R * sin(u) * sin(v), -R * cos(u)],
            lambda u, v: [-R * cos(u) * sin(v), R * cos(u) * cos(v), 0.0],
            lambda u, v: [-R * sin(u) * cos(v), -R * sin(u) * sin(v), 0.0],
        ),
    )


def cylinder_patch(radius=2.0):
    r = radius
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(0.0, 2 * math.pi),
        position=on_grid(lambda u, v: [u, r * np.cos(v), r * np.sin(v)]),
        partials=on_grid_partials(
            lambda u, v: [1.0, 0.0, 0.0],
            lambda u, v: [0.0, -r * np.sin(v), r * np.cos(v)],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, -r * np.cos(v), -r * np.sin(v)],
        ),
    )


def plane_patch():
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(-1.0, 1.0),
        position=on_grid(lambda u, v: [u, v, 0.0]),
        partials=on_grid_partials(
            lambda u, v: [1.0, 0.0, 0.0],
            lambda u, v: [0.0, 1.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
        ),
    )


def catenoid_patch():
    # Profile z(x) = cosh(x) revolved about the x-axis: the rotational
    # minimal surface.
    ch, sh = np.cosh, np.sinh
    return SurfacePatch(
        u_range=(-1.0, 1.0),
        v_range=(0.0, 2 * math.pi),
        position=on_grid(lambda u, v: [u, ch(u) * np.cos(v), ch(u) * np.sin(v)]),
        partials=on_grid_partials(
            lambda u, v: [1.0, sh(u) * np.cos(v), sh(u) * np.sin(v)],
            lambda u, v: [0.0, -ch(u) * np.sin(v), ch(u) * np.cos(v)],
            lambda u, v: [0.0, ch(u) * np.cos(v), ch(u) * np.sin(v)],
            lambda u, v: [0.0, -sh(u) * np.sin(v), sh(u) * np.cos(v)],
            lambda u, v: [0.0, -ch(u) * np.cos(v), -ch(u) * np.sin(v)],
        ),
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

    def rescaled(xu, xv, xuu, xuv, xvv):
        return k * xu, xv, k * k * xuu, k * xuv, xvv

    patch = SurfacePatch(
        u_range=(base.u_range[0] / k, base.u_range[1] / k),
        v_range=base.v_range,
        position=lambda u, v: base.position(k * u, v),
        partials=lambda u, v: rescaled(*base.partials(k * u, v)),
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
        partials=lambda u, v: (1.05 * bad.partials(u, v)[0], *bad.partials(u, v)[1:]),
    )
    with pytest.raises(ValueError):
        check_derivatives(broken)


@pytest.mark.parametrize("k, name", enumerate(["X_u", "X_v", "X_uu", "X_uv", "X_vv"]))
def test_check_derivatives_names_the_wrong_partial(k, name):
    good = sphere_patch()

    def partials(u, v):
        out = list(good.partials(u, v))
        out[k] = out[k] + 1e-3
        return tuple(out)

    with pytest.raises(ValueError, match=f"analytic {name} deviates"):
        check_derivatives(dataclasses.replace(good, partials=partials))


def test_weingarten_residual_sphere():
    patch = sphere_patch(1.0)
    # X_u x X_v is the outward normal of this parametrization, so H = -1;
    # (-2, 0, 2) matches.
    u = np.linspace(0.5, 2.5, 7)
    v = np.linspace(0.2, 6.0, 7)
    res, _ = weingarten_residual(patch, WeingartenParams(-2, 0, 2), u, v)
    assert res < 1e-10


def test_weingarten_residual_cylinder_exact_and_off():
    patch = cylinder_patch(1.0)
    # X_u x X_v is the inward normal of this parametrization, so H = +1/2.
    u = np.linspace(-0.9, 0.9, 5)
    v = np.linspace(0.1, 6.1, 9)
    res_ok, _ = weingarten_residual(patch, WeingartenParams(2, 0, 1), u, v)
    assert res_ok < 1e-10
    res_off, _ = weingarten_residual(patch, WeingartenParams(2, 0, 0.9), u, v)
    assert abs(res_off - 0.1) < 1e-10


def test_degenerate_point_raises():
    degenerate = SurfacePatch(
        u_range=(-1, 1),
        v_range=(-1, 1),
        position=on_grid(lambda u, v: [u, u, 0.0]),
        partials=on_grid_partials(
            lambda u, v: [1.0, 1.0, 0.0],
            lambda u, v: [1.0, 1.0, 0.0],  # parallel to X_u
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
        ),
    )
    with pytest.raises(DegeneratePointError):
        fundamental_forms(degenerate, 0.0, 0.0)


def test_rounded_singular_metric_raises_degenerate_point():
    # |X_u x X_v| = 1 passes the normal check, but EG - F^2 rounds to 0:
    # both curvature routes must refuse the point instead of dividing by it.
    sheared = SurfacePatch(
        u_range=(-1, 1),
        v_range=(-1, 1),
        position=on_grid(lambda u, v: [1e8 * (u + v), 1e-8 * v, 0.0]),
        partials=on_grid_partials(
            lambda u, v: [1e8, 0.0, 0.0],
            lambda u, v: [1e8, 1e-8, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
            lambda u, v: [0.0, 0.0, 0.0],
        ),
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


# ---------------------------------------------------------------------------
# Grid engine against the per-point reference
# ---------------------------------------------------------------------------

def reference_point(patch, u, v):
    """Forms and curvatures at one point, computed as the per-point engine
    did: np.cross, @ and np.linalg.norm on length-3 vectors, then the scalar
    H/K formula in Python floats."""
    xu, xv, xuu, xuv, xvv = (d[0, 0] for d in patch.partials(np.array([u]), np.array([v])))
    n = np.cross(xu, xv)
    norm = float(np.linalg.norm(n))
    n = n / norm
    E, F, G = float(xu @ xu), float(xu @ xv), float(xv @ xv)
    e, f, g = float(xuu @ n), float(xuv @ n), float(xvv @ n)
    W = E * G - F * F
    H = (e * G - 2 * f * F + g * E) / (2 * W)
    K = (e * g - f * f) / W
    root = np.sqrt(max(H * H - K, 0.0))
    return E, F, G, e, f, g, H, K, H + root, H - root


def test_curvature_field_bit_identical_to_per_point_reference(paper_patches):
    for name, patch in paper_patches.items():
        us = np.linspace(*patch.u_range, 23)
        vs = np.linspace(*patch.v_range, 9, endpoint=False)
        field = curvature_field(patch, us, vs)
        got = np.column_stack([field.E, field.F, field.G, field.e, field.f, field.g,
                               field.H, field.K, field.k1, field.k2])
        want = np.array([reference_point(patch, u, v) for u in us for v in vs])
        assert np.array_equal(got, want), name
        assert np.array_equal(field.u, np.repeat(us, len(vs)))
        assert np.array_equal(field.v, np.tile(vs, len(us)))
        u, v = float(us[5]), float(vs[3])
        assert tuple(curvatures(patch, u, v)) == reference_point(patch, u, v)[6:], name
        assert tuple(fundamental_forms(patch, u, v)) == reference_point(patch, u, v)[:6], name


@pytest.mark.parametrize("u_grid, v_grid", [([], [0.0, 1.0]), ([0.0, 1.0], []), (np.empty(0), np.empty(0))])
def test_empty_grid_is_refused(u_grid, v_grid):
    with pytest.raises(ValueError, match="non-empty"):
        curvature_field(sphere_patch(), u_grid, v_grid)
    with pytest.raises(ValueError, match="non-empty"):
        weingarten_residual(sphere_patch(), WeingartenParams(2, 0, 2), u_grid, v_grid)


# X_u = (1e8, 0, 0) everywhere; X_v picks one of three cases per (u, v).
REGULAR = [0.0, 1.0, 0.0]
SINGULAR_METRIC = [1e8, 1e-8, 0.0]  # |X_u x X_v| = 1, but EG - F^2 rounds to 0
PARALLEL = [1e8, 0.0, 0.0]          # X_u x X_v = 0 and EG - F^2 = 0


def _table_patch(table):
    def xv(us, vs):
        return np.array([[table.get((u, v), REGULAR) for v in vs.tolist()] for u in us.tolist()])

    zero = on_grid(lambda u, v: [0.0, 0.0, 0.0])
    xu = on_grid(lambda u, v: [1e8, 0.0, 0.0])
    return SurfacePatch(u_range=(0, 1), v_range=(0, 1), position=zero,
                        partials=lambda us, vs: (xu(us, vs), xv(us, vs), *(zero(us, vs) for _ in range(3))))


def test_degeneracy_errors_follow_row_major_order():
    grid = ([0.0, 1.0], [0.0, 1.0])  # row-major: (0,0) (0,1) (1,0) (1,1)
    # the singular metric at (0, 1) comes before the singular normal at (1, 0)
    patch = _table_patch({(0.0, 1.0): SINGULAR_METRIC, (1.0, 0.0): PARALLEL})
    with pytest.raises(DegeneratePointError, match=r"EG - F\^2 = 0.0 <= 0 at \(0.0, 1.0\)"):
        curvature_field(patch, *grid)
    # swapped, the singular normal at (0, 1) comes first
    patch = _table_patch({(0.0, 1.0): PARALLEL, (1.0, 0.0): SINGULAR_METRIC})
    with pytest.raises(DegeneratePointError, match=r"\|X_u x X_v\| = 0.000e\+00 .* \(u, v\) = \(0.0, 1.0\)"):
        curvature_field(patch, *grid)
    # at one point the normal is tested before the metric
    with pytest.raises(DegeneratePointError, match=r"\|X_u x X_v\|"):
        curvatures(patch, 0.0, 1.0)
    # the forms alone test only the normal
    assert fundamental_forms(patch, 1.0, 0.0).E == 1e16
    with pytest.raises(DegeneratePointError, match=r"\|X_u x X_v\|"):
        fundamental_forms(patch, 0.0, 1.0)


def test_nan_does_not_raise():
    patch = _table_patch({(0.0, 1.0): [math.nan, 1.0, 0.0]})
    field = curvature_field(patch, [0.0, 1.0], [0.0, 1.0])
    assert np.isnan(field.H[1]) and not np.isnan(field.H[[0, 2, 3]]).any()


def test_curvature_field_calls_partials_once_and_never_position(paper_patches):
    calls = Counter()

    def counted(key, fn):
        def wrapper(us, vs):
            calls[key] += 1
            return fn(us, vs)
        return wrapper

    for name, patch in paper_patches.items():
        counting = dataclasses.replace(patch, position=counted("position", patch.position),
                                       partials=counted("partials", patch.partials))
        us = np.linspace(*patch.u_range, 7)
        vs = np.linspace(*patch.v_range, 5, endpoint=False)
        calls.clear()
        curvature_field(counting, us, vs)
        assert calls == {"partials": 1}, name
        weingarten_residual(counting, WeingartenParams(1, 0, 0), us, vs)
        curvatures(counting, float(us[3]), float(vs[2]))
        fundamental_forms(counting, float(us[3]), float(vs[2]))
        assert calls == {"partials": 4}, name
