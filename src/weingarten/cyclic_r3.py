"""Circle-foliated (cyclic) surfaces in Euclidean 3-space with parallel
foliation planes, X(u, v) = (f(u) + r(u) cos v, g(u) + r(u) sin v, u).

Builds the two non-rotational linear Weingarten families (minimal
circle-foliated surfaces from the center/radius system f'' = lam r^2,
g'' = mu r^2, r r'' = 1 + (lam^2+mu^2) r^4 + r'^2, and flat generalized
cones with collinear centers and linear radius), and extracts trigonometric
Fourier coefficients of the relation residual a*H + b*K - c around each
foliation circle: the relation holds on the circle iff every coefficient
vanishes.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geomcore
from .csvio import write_csv
from .errors import NonPositiveRadiusError
from .geomcore import SurfacePatch, WeingartenParams, cos_sin, grid_vec
from .odekit import IvpSpec, integrate

# The relations the two non-rotational families satisfy: H = 0 and K = 0.
MINIMAL = WeingartenParams(1, 0, 0)
FLAT = WeingartenParams(0, 1, 0)


def _pow(x: np.ndarray, k: int) -> np.ndarray:
    """Python's ``v ** k`` of each entry: libm ``pow``, which numpy's ``**``
    does not match on every input."""
    return np.array([v ** k for v in x.tolist()])


def _u_range(u_range) -> tuple[float, float]:
    u_lo, u_hi = float(u_range[0]), float(u_range[1])
    if not u_lo < u_hi:
        raise ValueError(f"u_range = ({u_lo}, {u_hi}) needs u_min < u_max")
    return u_lo, u_hi


@dataclass
class CyclicSurfaceSpec:
    """Center curve (f, g) and radius r of the circle foliation; the
    foliation planes are the parallel planes z = u. ``jets(us)`` maps a 1-D
    array of u to ((f, f', f''), (g, g', g''), (r, r', r'')), each an array
    like ``us``, so a grid computes its curve data in one call."""

    u_range: tuple[float, float]
    jets: Callable[[np.ndarray], tuple]


def cyclic_patch(spec: CyclicSurfaceSpec) -> SurfacePatch:
    """Assemble the parametrized patch with analytic partials. Regularity
    |X_u x X_v|^2 = r^2 (1 + (f' cos v + g' sin v + r')^2) holds wherever
    the radius is positive."""

    def pos(u, v):
        (f, _, _), (g, _, _), (r, _, _) = spec.jets(u)
        rv, (cv, sv) = r[:, None], cos_sin(v)
        return grid_vec(u, v, f[:, None] + rv * cv, g[:, None] + rv * sv, u[:, None])

    def partials(u, v):
        (_, f1, f2), (_, g1, g2), (r, r1, r2) = spec.jets(u)
        rv, r1, r2, (cv, sv) = r[:, None], r1[:, None], r2[:, None], cos_sin(v)
        return (
            grid_vec(u, v, f1[:, None] + r1 * cv, g1[:, None] + r1 * sv, 1.0),
            grid_vec(u, v, -rv * sv, rv * cv, 0.0),
            grid_vec(u, v, f2[:, None] + r2 * cv, g2[:, None] + r2 * sv, 0.0),
            grid_vec(u, v, -r1 * sv, r1 * cv, 0.0),
            grid_vec(u, v, -rv * cv, -rv * sv, 0.0),
        )

    return SurfacePatch(u_range=spec.u_range, v_range=(0.0, 2 * math.pi), position=pos, partials=partials)


# ---------------------------------------------------------------------------
# Minimal circle-foliated surfaces (center/radius system)
# ---------------------------------------------------------------------------

@dataclass
class RiemannSpec(CyclicSurfaceSpec):
    """Cyclic spec backed by the minimal-surface center/radius system."""

    lam: float
    mu: float
    r0: float
    r0_prime: float


def riemann_example(lam: float, mu: float, r0: float, r0_prime: float,
                    u_range=(-1.0, 1.0)) -> RiemannSpec:
    """Solve the minimal-surface center/radius system

        f' = lam r^2,   g' = mu r^2,   r r'' = 1 + (lam^2+mu^2) r^4 + r'^2

    from centered data f(0) = g(0) = 0, r(0) = r0, r'(0) = r0'. These are
    exactly the conditions under which the cyclic patch has H = 0
    identically: matching the {1, cos v, sin v} coefficients of
    eG - 2fF + gE = 0 forces r f'' = 2 r' f' (hence f' proportional to r^2,
    the center-drift law) and the radius equation above, whose source terms
    (lam^2+mu^2) r^4 are the squares f'^2 + g'^2.

    lam = mu = 0 is the rotational minimal surface (catenary radius); any
    other choice gives the non-rotational periodic minimal family. The
    spec's ``jets`` evaluate the dense output once, with one array call per
    direction of integration; the derivatives evaluate the governing system
    on it. They raise ValueError outside the integrated range, where the
    dense output would only extrapolate. u_range must hold 0 and
    u_min < u_max.
    """
    if r0 <= 0:
        raise NonPositiveRadiusError(f"r0 = {r0} must be positive")
    c4 = lam * lam + mu * mu

    def rhs(u, y):
        r, rp = y[2], y[3]
        if not r > 1e-9:
            return None
        r2 = r * r
        return lam * r2, mu * r2, rp, (1.0 + c4 * r2 * r2 + rp * rp) / r

    y0 = [0.0, 0.0, r0, r0_prime]
    u_lo, u_hi = _u_range(u_range)
    if u_lo > 0 or u_hi < 0:
        raise ValueError("u_range must contain 0 (initial data is centered there)")

    spec = IvpSpec(rhs=rhs, s0=0.0, y0=y0, rtol=1e-12, atol=1e-14)
    fwd = integrate(spec, u_hi) if u_hi > 0 else None
    bwd = integrate(spec, u_lo) if u_lo < 0 else None

    lo = bwd.s_end if bwd is not None else 0.0
    hi = fwd.s_end if fwd is not None else 0.0

    def jets(u):
        outside = ~((lo <= u) & (u <= hi))
        if outside.any():
            raise ValueError(f"u = {float(u[outside][0])} is outside the integrated range [{lo}, {hi}]")
        ahead = u >= 0
        y = np.empty((len(u), 4))
        y[ahead] = fwd(u[ahead]) if fwd is not None else y0
        y[~ahead] = bwd(u[~ahead]) if bwd is not None else y0
        f, g, r, rp = y.T
        r2 = _pow(r, 2)
        return ((f, lam * r2, 2.0 * lam * r * rp), (g, mu * r2, 2.0 * mu * r * rp),
                (r, rp, (1.0 + c4 * _pow(r, 4) + rp * rp) / r))

    return RiemannSpec(u_range=(float(lo), float(hi)), jets=jets, lam=lam, mu=mu, r0=r0, r0_prime=r0_prime)


def riemann_identity_residual(spec: RiemannSpec) -> float:
    """Conservation form of the radius equation along the trajectory.

    (1 + r'^2)/r^2 - (lam^2 + mu^2) r^2 is a first integral: its u-derivative
    equals (2 r'/r^3)(r r'' - r'^2 - (lam^2+mu^2) r^4 - 1). The reported
    residual r^2 |I(u) - I(0)| is the integrated defect of that identity,
    its maximum over 400 points of the range (NaN points ignored).
    """
    c4 = spec.lam**2 + spec.mu**2
    i0 = (1.0 + spec.r0_prime**2) / spec.r0**2 - c4 * spec.r0**2
    us = np.linspace(*spec.u_range, 400)
    _, _, (r, rp, _) = spec.jets(us)
    return float(np.fmax.reduce(np.abs(1.0 + rp * rp - r * r * (i0 + c4 * r * r)), initial=0.0))


# ---------------------------------------------------------------------------
# Generalized cones
# ---------------------------------------------------------------------------

def generalized_cone(f0: float, f1: float, g0: float, g1: float,
                     r0: float, r1: float, u_range=(0.0, 1.0)) -> CyclicSurfaceSpec:
    """Collinear circle centers (f, g) = (f0 + f1 u, g0 + g1 u) and linear
    radius r = r0 + r1 u: the flat (K = 0) cyclic family."""
    u_range = _u_range(u_range)
    r = r0 + r1 * np.linspace(*u_range, 200)
    if np.min(r) <= 0:
        raise NonPositiveRadiusError(f"radius reaches {np.min(r):.6g} <= 0 on {u_range}")

    def jets(u):
        zero = np.zeros(len(u))
        return tuple((c0 + c1 * u, np.full(len(u), c1), zero) for c0, c1 in ((f0, f1), (g0, g1), (r0, r1)))

    return CyclicSurfaceSpec(u_range=u_range, jets=jets)


def sphere_slice(radius: float = 1.0, u_range=(None, None)) -> CyclicSurfaceSpec:
    """A round sphere sliced by parallel planes: r(u) = sqrt(R^2 - u^2).
    A bound of ``u_range`` given as None takes its default, -0.7R or 0.7R.
    Raises NonPositiveRadiusError unless R > 0. Its ``jets`` raise
    NonPositiveRadiusError, naming the first such u, where |u| >= R."""
    R = float(radius)
    if not R > 0:
        raise NonPositiveRadiusError(f"sphere radius R = {R} must be positive")
    u_range = tuple(d if b is None else b for b, d in zip(u_range, (-0.7 * R, 0.7 * R)))

    def jets(u):
        r2 = R * R - u * u
        bad = ~(r2 > 0)
        if bad.any():
            raise NonPositiveRadiusError(f"sphere slice of radius {R} has no circle at u = {float(u[bad][0])}")
        r, zero = np.sqrt(r2), np.zeros(len(u))
        return (zero, zero, zero), (zero, zero, zero), (r, -u / r, -R * R / _pow(r, 3))

    return CyclicSurfaceSpec(u_range=_u_range(u_range), jets=jets)


def max_curvature_magnitudes(spec: CyclicSurfaceSpec):
    """(max |H|, max |K|) of the patch over a regular 40 x 48 grid."""
    patch = cyclic_patch(spec)
    u0, u1 = spec.u_range
    margin = 1e-9 * max(1.0, abs(u1 - u0))
    us = np.linspace(u0 + margin, u1 - margin, 40)
    vs = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
    field = geomcore.curvature_field(patch, us, vs)
    return float(np.max(np.abs(field.H))), float(np.max(np.abs(field.K)))


# ---------------------------------------------------------------------------
# Fourier analysis of the relation residual around a foliation circle
# ---------------------------------------------------------------------------

@dataclass
class TrigCoefficients:
    """Discrete Fourier coefficients of v -> a*H + b*K - c on the circle at u.

    A[n], B[n] are the cosine/sine coefficients for n = 0..n_max; the
    relation holds on the circle iff all of them vanish.
    """

    u: float
    A: np.ndarray
    B: np.ndarray
    n_samples: int
    params: WeingartenParams

    @property
    def n_max(self) -> int:
        return len(self.A) - 1

    @property
    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.A)), np.max(np.abs(self.B))))

    def vanishes(self, tol: float) -> bool:
        return self.max_abs < tol


def residual_samples(spec: CyclicSurfaceSpec, params: WeingartenParams, u: float, n_samples: int):
    vs = 2 * math.pi * np.arange(n_samples) / n_samples
    field = geomcore.curvature_field(cyclic_patch(spec), [u], vs)
    return vs, params.residual(field.H, field.K)


def trig_coefficients(spec: CyclicSurfaceSpec, params: WeingartenParams, u: float,
                      n_samples: int = 64, n_max: int = 12) -> TrigCoefficients:
    """Uniform v-sampling of the residual on [0, 2pi) and its DFT up to
    order ``n_max``. Requires n_samples >= 2*n_max + 3 (aliasing margin)."""
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} must be >= 0")
    if n_samples < 2 * n_max + 3:
        raise ValueError(f"n_samples = {n_samples} < 2*n_max + 3 = {2 * n_max + 3}")
    _, res = residual_samples(spec, params, u, n_samples)
    spectrum = np.fft.rfft(res)
    A = np.empty(n_max + 1)
    B = np.zeros(n_max + 1)
    A[0] = spectrum[0].real / n_samples
    for n in range(1, n_max + 1):
        A[n] = 2.0 * spectrum[n].real / n_samples
        B[n] = -2.0 * spectrum[n].imag / n_samples
    return TrigCoefficients(u=float(u), A=A, B=B, n_samples=n_samples, params=params)


def riemann_json(spec: RiemannSpec) -> dict:
    """JSON-ready report of a minimal cyclic surface with its verdicts."""
    max_h, max_k = max_curvature_magnitudes(spec)
    ident = riemann_identity_residual(spec)
    return {
        "report": "cyclic_riemann",
        "lam": spec.lam, "mu": spec.mu, "r0": spec.r0, "r0_prime": spec.r0_prime,
        "u_range": list(spec.u_range),
        "max_abs_H": max_h,
        "max_abs_K": max_k,
        "radius_identity_residual": ident,
        "verdicts": {"minimal": max_h < 1e-6, "radius_identity": ident < 1e-8},
    }


def cone_json(spec: CyclicSurfaceSpec, f, g, r) -> dict:
    """JSON-ready report of a generalized cone with its flatness verdict;
    ``f``, ``g`` and ``r`` are the (constant, linear) coefficients it was
    built from, echoed into the report."""
    max_h, max_k = max_curvature_magnitudes(spec)
    return {
        "report": "cyclic_cone",
        "f": list(f), "g": list(g), "r": list(r),
        "u_range": list(spec.u_range),
        "max_abs_H": max_h,
        "max_abs_K": max_k,
        "verdicts": {"flat": max_k < 1e-9},
    }


def coefficients_json(tc: TrigCoefficients, tol: float = 1e-8) -> dict:
    return {
        "report": "cyclic_coefficients",
        "u": tc.u,
        "A": [float(x) for x in tc.A],
        "B": [float(x) for x in tc.B],
        "n_samples": tc.n_samples,
        "max_abs": tc.max_abs,
        "tol": tol,
        "verdict": tc.vanishes(tol),
        "params": {"a": tc.params.a, "b": tc.params.b, "c": tc.params.c},
    }


def export_residual_csv(spec: CyclicSurfaceSpec, params: WeingartenParams, path) -> None:
    """Relation residual over a 20 x 32 (u, v) grid: columns u,v,residual."""
    us = np.linspace(*spec.u_range, 20)
    vs = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    field = geomcore.curvature_field(cyclic_patch(spec), us, vs)
    write_csv(path, ["u", "v", "residual"], [field.u, field.v, params.residual(field.H, field.K)])
