"""First/second fundamental forms, mean/Gauss/principal curvatures of
parametrized surface patches in Euclidean coordinates, and the linear
Weingarten relation residual a*H + b*K - c.

The normal convention is N = (X_u x X_v)/|X_u x X_v| throughout; callers that
need the opposite geometric normal pass flip_normal=True. Principal
curvatures are ordered k1 >= k2.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .csvio import write_csv
from .errors import DegeneratePointError

DEGENERACY_EPS = 1e-12

Vec3Fn = Callable[[float, float], np.ndarray]


@dataclass(frozen=True)
class SurfacePatch:
    """Surface patch on a rectangle, with analytic partials up to second order.

    Each callable maps (u, v) to a length-3 array. The partials are trusted
    as given; ``check_derivatives`` verifies them against central finite
    differences of ``position``.
    """

    u_range: tuple[float, float]
    v_range: tuple[float, float]
    position: Vec3Fn
    du: Vec3Fn
    dv: Vec3Fn
    duu: Vec3Fn
    duv: Vec3Fn
    dvv: Vec3Fn
    name: str = ""


class FundamentalForms(NamedTuple):
    E: float
    F: float
    G: float
    e: float
    f: float
    g: float


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

    @property
    def family(self) -> str:
        d = self.discriminant
        if abs(d) < 1e-12:
            return "tube"
        return "elliptic" if d > 0 else "hyperbolic"

    def residual(self, H: float, K: float) -> float:
        return self.a * H + self.b * K - self.c

    def normalized(self) -> "WeingartenParams":
        """Scale so that c = 1 (requires c != 0)."""
        if self.c == 0:
            raise ValueError("cannot normalize a relation with c = 0")
        return WeingartenParams(self.a / self.c, self.b / self.c, 1.0)


def _normal(patch: SurfacePatch, u: float, v: float, flip: bool):
    xu = patch.du(u, v)
    xv = patch.dv(u, v)
    n = np.cross(xu, xv)
    norm = float(np.linalg.norm(n))
    if norm < DEGENERACY_EPS:
        raise DegeneratePointError(
            f"|X_u x X_v| = {norm:.3e} < {DEGENERACY_EPS} at (u, v) = ({u}, {v})"
        )
    if flip:
        return xu, xv, -n / norm
    return xu, xv, n / norm


def fundamental_forms(patch: SurfacePatch, u: float, v: float, flip_normal: bool = False) -> FundamentalForms:
    """E, F, G and e, f, g at an interior point; raises DegeneratePointError
    where the parametrization is singular."""
    xu, xv, n = _normal(patch, u, v, flip_normal)
    return FundamentalForms(
        E=float(xu @ xu),
        F=float(xu @ xv),
        G=float(xv @ xv),
        e=float(patch.duu(u, v) @ n),
        f=float(patch.duv(u, v) @ n),
        g=float(patch.dvv(u, v) @ n),
    )


def _curvatures_from_forms(forms: FundamentalForms, u: float, v: float) -> Curvatures:
    E, F, G, e, f, g = forms
    W = E * G - F * F
    if W <= 0:
        raise DegeneratePointError(f"EG - F^2 = {W} <= 0 at ({u}, {v})")
    H = (e * G - 2 * f * F + g * E) / (2 * W)
    K = (e * g - f * f) / W
    root = np.sqrt(max(H * H - K, 0.0))
    return Curvatures(H=H, K=K, k1=H + root, k2=H - root)


def curvatures(patch: SurfacePatch, u: float, v: float, flip_normal: bool = False) -> Curvatures:
    """H, K and k1 >= k2 at one point; raises DegeneratePointError where the
    parametrization or its first fundamental form is singular."""
    return _curvatures_from_forms(fundamental_forms(patch, u, v, flip_normal), u, v)


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
    flipped_normal: bool = False

    CSV_HEADER = ["u", "v", "E", "F", "G", "e", "f", "g", "H", "K", "k1", "k2"]

    def to_csv(self, path) -> None:
        write_csv(path, self.CSV_HEADER, [getattr(self, name) for name in self.CSV_HEADER])


def curvature_field(patch: SurfacePatch, u_grid, v_grid, flip_normal: bool = False) -> CurvatureField:
    us, vs = [], []
    rows = []
    for u in np.asarray(u_grid, dtype=float):
        for v in np.asarray(v_grid, dtype=float):
            forms = fundamental_forms(patch, u, v, flip_normal)
            us.append(u)
            vs.append(v)
            rows.append((*forms, *_curvatures_from_forms(forms, u, v)))
    arr = np.array(rows)
    return CurvatureField(
        u=np.array(us), v=np.array(vs),
        E=arr[:, 0], F=arr[:, 1], G=arr[:, 2],
        e=arr[:, 3], f=arr[:, 4], g=arr[:, 5],
        H=arr[:, 6], K=arr[:, 7], k1=arr[:, 8], k2=arr[:, 9],
        flipped_normal=flip_normal,
    )


def weingarten_residual(
    patch: SurfacePatch,
    params: WeingartenParams,
    u_grid,
    v_grid,
    flip_normal: bool = False,
) -> tuple[float, CurvatureField]:
    """Max-norm residual of a*H + b*K - c over the grid, plus the sampled field."""
    field = curvature_field(patch, u_grid, v_grid, flip_normal)
    res = params.a * field.H + params.b * field.K - params.c
    return float(np.max(np.abs(res))), field


def finite_difference_patch(position: Vec3Fn, u_range, v_range, step: float = 1e-4) -> SurfacePatch:
    """Independent oracle: a patch whose partials are central finite
    differences of ``position``. Keeps the analytic and numeric derivative
    routes separate."""
    h = step
    p = position
    return SurfacePatch(
        u_range=tuple(u_range),
        v_range=tuple(v_range),
        position=p,
        du=lambda u, v: (p(u + h, v) - p(u - h, v)) / (2 * h),
        dv=lambda u, v: (p(u, v + h) - p(u, v - h)) / (2 * h),
        duu=lambda u, v: (p(u + h, v) - 2 * p(u, v) + p(u - h, v)) / (h * h),
        dvv=lambda u, v: (p(u, v + h) - 2 * p(u, v) + p(u, v - h)) / (h * h),
        duv=lambda u, v: (p(u + h, v + h) - p(u + h, v - h) - p(u - h, v + h) + p(u - h, v - h)) / (4 * h * h),
        name="fd-oracle",
    )


def check_derivatives(patch: SurfacePatch, n_u: int = 5, n_v: int = 5, step: float = 1e-4, rtol: float = 1e-6) -> float:
    """Verify the patch's analytic partials against central finite
    differences of position at interior sample points. Returns the worst
    relative deviation; raises ValueError beyond ``rtol``."""
    fd = finite_difference_patch(patch.position, patch.u_range, patch.v_range, step)
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    margin_u = max(2 * step, 1e-3 * (u1 - u0))
    margin_v = max(2 * step, 1e-3 * (v1 - v0))
    worst = 0.0
    for u in np.linspace(u0 + margin_u, u1 - margin_u, n_u):
        for v in np.linspace(v0 + margin_v, v1 - margin_v, n_v):
            for name in ("du", "dv", "duu", "duv", "dvv"):
                a = getattr(patch, name)(u, v)
                b = getattr(fd, name)(u, v)
                dev = float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))))
                worst = max(worst, dev)
                if dev > rtol:
                    raise ValueError(
                        f"analytic {name} deviates from finite differences by {dev:.2e} at ({u}, {v})"
                    )
    return worst
