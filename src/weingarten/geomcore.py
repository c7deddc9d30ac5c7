"""First/second fundamental forms, mean/Gauss/principal curvatures of
parametrized surface patches in Euclidean coordinates, the linear
Weingarten relation residual a*H + b*K - c, and the arc-length profile
system and its reversal check shared by the profile-curve families.

The normal convention is N = (X_u x X_v)/|X_u x X_v| throughout, so the
patch's parametrization fixes the orientation. Principal curvatures are
ordered k1 >= k2.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegeneratePointError
from .odekit import IvpSpec

DEGENERACY_EPS = 1e-12

Vec3Grid = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SurfacePatch:
    """Surface patch on a rectangle, with analytic partials up to second order.

    ``position(us, vs)`` maps 1-D arrays ``us`` (n_u,) and ``vs`` (n_v,) to
    the (n_u, n_v, 3) grid of X at every (us[i], vs[j]); ``partials(us, vs)``
    returns the tuple (X_u, X_v, X_uu, X_uv, X_vv) of such grids, so the
    per-line data they share is computed once per call. Each grid equals the
    scalar expression point by point, bit for bit, when per-line work runs
    once per u (or v) with the scalar operations: numpy ufuncs such as the
    families' ``slope`` on (n, 1) u-columns (a numpy scalar and an array run
    the same ufunc loops), ``math`` trigonometry on the axes (``cos_sin``;
    numpy's vector loops may round differently from libm), and u-columns
    meeting v-rows by broadcasting in the scalar operation order, e.g.
    ``(ct * tp)[:, None] * cos_v``; the engine's dot products keep their
    per-point BLAS calls (``_dot``). ``check_derivatives`` verifies the
    partials against central finite differences of ``position``.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    position: Vec3Grid
    partials: Callable[[np.ndarray, np.ndarray], tuple]


def grid_vec(us, vs, x, y, z) -> np.ndarray:
    """The (len(us), len(vs), 3) grid with components x, y, z, each a scalar,
    a u-column of shape (n_u, 1) or a v-row of shape (n_v,), broadcast."""
    out = np.empty((len(us), len(vs), 3))
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def cos_sin(xs):
    """``math.cos`` and ``math.sin`` of each entry of a 1-D axis."""
    xs = np.asarray(xs, dtype=float).tolist()
    return np.array([math.cos(x) for x in xs]), np.array([math.sin(x) for x in xs])


def profile_columns(states) -> list:
    """u-columns (n, 1) of x, z, theta, cos(theta) and sin(theta) from the
    (n, 3) states (x, z, theta) of an arc-length profile curve."""
    x, z, th = np.asarray(states).T
    return [c[:, None] for c in (x, z, th, *cos_sin(th))]


def profile_rhs(theta_prime):
    """The arc-length profile system x' = cos(theta), z' = sin(theta),
    theta' = theta_prime(z, cos(theta), sin(theta)) on states (x, z, theta),
    with ``math``'s trigonometry; None where theta_prime is None (outside its
    admissible region)."""

    def rhs(s, y):
        _, z, th = y
        ct = math.cos(th)
        st = math.sin(th)
        tp = theta_prime(z, ct, st)
        return None if tp is None else (ct, st, tp)

    return rhs


def profile_spec(theta_prime, z0: float, tol: float, events=()) -> IvpSpec:
    """``profile_rhs(theta_prime)`` from (x, z, theta) = (0, z0, 0), with
    relative tolerance ``tol`` and absolute tolerance tol * 1e-2."""
    return IvpSpec(rhs=profile_rhs(theta_prime), s0=0.0, y0=[0.0, z0, 0.0], rtol=tol, atol=tol * 1e-2, events=events)


def reversal_defect(theta_prime, s, states) -> float:
    """max |f(-s, R y) + R f(s, y)| over the samples (s, y) and components,
    f = ``profile_rhs(theta_prime)``, R = diag(-1, 1, -1): zero where the
    system is reversible, so that the solution through (0, z0, 0) is
    symmetric about x = 0. A sample where f is None counts as inf."""
    rhs = profile_rhs(theta_prime)
    rows = []
    for si, (x, z, th) in zip(np.asarray(s).tolist(), np.asarray(states).tolist()):
        f, g = rhs(si, (x, z, th)), rhs(-si, (-x, z, -th))
        if f is None or g is None:
            return math.inf
        rows.append((g[0] - f[0], g[1] + f[1], g[2] - f[2]))
    return float(np.max(np.abs(rows), initial=0.0))


class Curvatures(NamedTuple):
    H: float
    K: float
    k1: float
    k2: float


@dataclass(frozen=True)
class WeingartenParams:
    """Coefficient triple of the linear relation a*H + b*K = c."""

    a: float
    b: float
    c: float

    @property
    def discriminant(self) -> float:
        return self.a * self.a + 4.0 * self.b * self.c

    def residual(self, H: float, K: float) -> float:
        return self.a * H + self.b * K - self.c

    def normalized(self) -> "WeingartenParams":
        """Scale so that c = 1 (requires c != 0)."""
        if self.c == 0:
            raise ValueError("cannot normalize a relation with c = 0")
        return WeingartenParams(self.a / self.c, self.b / self.c, 1.0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the 3-vectors of two grids. A batched matmul of
    (1, 3) rows with (3, 1) columns makes the same BLAS ddot call per vector
    as ``a[i] @ b[i]``; einsum or a sum of products rounds differently."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _forms(patch: SurfacePatch, u_grid, v_grid):
    """Grid axes, the (n_u, n_v) forms E, F, G, e, f, g, and EG - F^2.
    Raises DegeneratePointError at the first point in row-major order where
    |X_u x X_v| < DEGENERACY_EPS or EG - F^2 <= 0 (the normal first); NaN
    passes both tests."""
    us = np.asarray(u_grid, dtype=float)
    vs = np.asarray(v_grid, dtype=float)
    if us.ndim != 1 or vs.ndim != 1 or us.size == 0 or vs.size == 0:
        raise ValueError(f"u and v grids must be non-empty 1-D (got shapes {us.shape} and {vs.shape})")
    xu, xv, xuu, xuv, xvv = patch.partials(us, vs)
    n = np.cross(xu, xv)
    norm = np.sqrt(_dot(n, n))
    E, F, G = _dot(xu, xu), _dot(xu, xv), _dot(xv, xv)
    W = E * G - F * F
    bad_normal = norm < DEGENERACY_EPS
    bad = bad_normal | (W <= 0)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        u, v = float(us[i]), float(vs[j])
        if bad_normal[i, j]:
            raise DegeneratePointError(
                f"|X_u x X_v| = {norm[i, j]:.3e} < {DEGENERACY_EPS} at (u, v) = ({u}, {v})"
            )
        raise DegeneratePointError(f"EG - F^2 = {float(W[i, j])} <= 0 at ({u}, {v})")
    n = n / norm[..., None]
    e, f, g = _dot(xuu, n), _dot(xuv, n), _dot(xvv, n)
    return us, vs, (E, F, G, e, f, g), W


def _curvatures(forms, W):
    """H, K, k1, k2 from the forms and W = EG - F^2 > 0."""
    E, F, G, e, f, g = forms
    H = (e * G - 2 * f * F + g * E) / (2 * W)
    K = (e * g - f * f) / W
    disc = H * H - K
    root = np.sqrt(np.where(0.0 > disc, 0.0, disc))  # max(disc, 0.0), NaN kept
    return H, K, H + root, H - root


def curvatures(patch: SurfacePatch, u: float, v: float) -> Curvatures:
    """H, K and k1 >= k2 at one point; raises DegeneratePointError where the
    parametrization or its first fundamental form is singular."""
    _, _, forms, W = _forms(patch, [u], [v])
    return Curvatures(*(float(a[0, 0]) for a in _curvatures(forms, W)))


@dataclass
class CurvatureField:
    """Per-sample fundamental forms and curvatures over a (u, v) grid."""

    u: np.ndarray
    v: np.ndarray
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    H: np.ndarray
    K: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def curvature_field(patch: SurfacePatch, u_grid, v_grid) -> CurvatureField:
    """Forms and curvatures at every (u, v) of two non-empty 1-D grids, u
    outer; ``partials`` is called once. ValueError on an empty grid."""
    us, vs, forms, W = _forms(patch, u_grid, v_grid)
    columns = [c.ravel() for c in (*forms, *_curvatures(forms, W))]
    return CurvatureField(np.repeat(us, len(vs)), np.tile(vs, len(us)), *columns)


def weingarten_residual(
    patch: SurfacePatch,
    params: WeingartenParams,
    u_grid,
    v_grid,
) -> tuple[float, CurvatureField]:
    """Max-norm residual of a*H + b*K - c over the grid, plus the sampled field."""
    field = curvature_field(patch, u_grid, v_grid)
    res = params.a * field.H + params.b * field.K - params.c
    return float(np.max(np.abs(res))), field


def finite_difference_patch(position: Vec3Grid, u_range, v_range, step: float = 1e-4) -> SurfacePatch:
    """Independent oracle: a patch whose partials are central finite
    differences of ``position``, the centre and the four axis shifts shared.
    Keeps the analytic and numeric derivative routes separate."""
    h = step
    p = position

    def partials(u, v):
        c, up, um, vp, vm = p(u, v), p(u + h, v), p(u - h, v), p(u, v + h), p(u, v - h)
        return (
            (up - um) / (2 * h),
            (vp - vm) / (2 * h),
            (up - 2 * c + um) / (h * h),
            (p(u + h, v + h) - p(u + h, v - h) - p(u - h, v + h) + p(u - h, v - h)) / (4 * h * h),
            (vp - 2 * c + vm) / (h * h),
        )

    return SurfacePatch(u_range=tuple(u_range), v_range=tuple(v_range), position=p, partials=partials)


def check_derivatives(patch: SurfacePatch, n_u: int = 5, n_v: int = 5, step: float = 1e-4, rtol: float = 1e-6) -> float:
    """Verify the patch's analytic partials against central finite
    differences of position at interior sample points. Returns the worst
    relative deviation; raises ValueError beyond ``rtol``."""
    fd = finite_difference_patch(patch.position, patch.u_range, patch.v_range, step)
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    margin_u = max(2 * step, 1e-3 * (u1 - u0))
    margin_v = max(2 * step, 1e-3 * (v1 - v0))
    us = np.linspace(u0 + margin_u, u1 - margin_u, n_u)
    vs = np.linspace(v0 + margin_v, v1 - margin_v, n_v)
    names = ("X_u", "X_v", "X_uu", "X_uv", "X_vv")
    # row-major over (u, v, partial) is the check order
    dev = np.stack([np.max(np.abs(a - b), axis=-1) / np.maximum(1.0, np.max(np.abs(a), axis=-1))
                    for a, b in zip(patch.partials(us, vs), fd.partials(us, vs))], axis=-1)
    bad = dev > rtol
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"analytic {names[k]} deviates from finite differences by {dev[i, j, k]:.2e} at ({us[i]}, {vs[j]})"
        )
    return float(np.max(dev, initial=0.0))
