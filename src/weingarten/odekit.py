"""Deterministic ODE kernel: adaptive embedded Runge-Kutta with dense output,
scalar-event detection, and bracketing root refinement.

The stepper is a Dormand-Prince 5(4) pair with the standard quartic
interpolant. Everything is plain float arithmetic: identical inputs produce
bit-identical trajectories. ``rhs`` and ``Event.fn`` receive the state as an
indexable sequence of floats: a tuple while stepping, an array in the
starting-step estimate and on dense output; ``IvpSpec`` says what rhs returns.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoSignChangeError, RootNotConvergedError
from .errors import StepUnderflowError  # noqa: F401 - wbench/layertrace.py reads it here

# Dormand-Prince 5(4) tableau. The fifth-order solution is propagated; the
# last stage is FSAL.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# Difference between the 5th- and 4th-order weights (local error estimate).
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Quartic dense-output coefficients: y(s0 + x h) = y0 + h * (K^T P) @ [x, x^2, x^3, x^4].
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = -0.2  # 1 / (error estimator order)

# Stop reasons of a returned trajectory.
REACHED_END = "reached_end"
EVENT_STOP = "event"
GUARD_STOP = "guard"
UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class Event:
    """Scalar crossing monitor g(s, y): the integration stops on the first
    accepted step across which g falls from > 0 to <= 0. A g that rises
    through zero never stops a run; negate it to watch a rising quantity.

    g is compared only at the ends of each accepted step, so an even number
    of sign changes inside one step (g dipping across zero and back) goes
    undetected. fn receives the state as an indexable sequence of floats.
    """

    fn: Callable[[float, Sequence[float]], float]
    name: str = ""


@dataclass(frozen=True)
class IvpSpec:
    """Initial value problem: y' = rhs(s, y), y(s0) = y0. rhs receives y as
    an indexable sequence of floats and returns one (a tuple is cheapest),
    or None where y is outside its admissible region."""

    rhs: Callable[[float, Sequence[float]], Optional[Sequence[float]]]
    s0: float
    y0: Sequence[float]
    rtol: float = 1e-10
    atol: float = 1e-12
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def dim(self) -> int:
        return len(self.y0)


@dataclass(frozen=True)
class EventHit:
    name: str
    s: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Integration result with a piecewise-quartic dense output.

    The grid ``s`` is strictly monotone in the direction of integration, and
    the interpolant reproduces the grid samples exactly at the knots. Segment
    i starts at knot i with state ``states[i]``; a one-knot run has one
    constant segment at its only knot. ``event`` is the event that stopped
    the run, if one did.
    """

    s: np.ndarray
    states: np.ndarray
    reason: str
    event: Optional[EventHit] = None
    _seg_h: np.ndarray = None
    _seg_q: np.ndarray = None  # (n_seg, dim, 4)

    @property
    def direction(self) -> float:
        return 1.0 if self.s[-1] >= self.s[0] else -1.0

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    def _segment_index(self, s):
        """Index of the segment holding ``s`` (a scalar or an array), clamped
        to the first and last segment. Searching the knots after the first
        gives the clamped index directly: points before the first knot get 0,
        points beyond the last get n_seg - 1."""
        d = self.direction
        return np.searchsorted(self.s[1:-1] * d, s * d, side="right")

    def __call__(self, s):
        """Dense output at ``s``: a scalar gives shape ``(dim,)``, an array of
        shape ``(n,)`` gives ``(n, dim)``.

        Points beyond the integrated range are extrapolated with the first or
        last segment's quartic. The array path finds every segment with one
        ``searchsorted`` and evaluates the quartics in one batched product; it
        is bit-identical to a stack of scalar calls.
        """
        if np.ndim(s) == 0:
            s = float(s)
            i = int(self._segment_index(s))
            return _quartic(s, self.s[i], self._seg_h[i], self.states[i], self._seg_q[i])
        s = np.asarray(s, dtype=float)
        idx = self._segment_index(s)
        h = self._seg_h[idx]
        x = (s - self.s[idx]) / h
        x2 = x * x
        powers = np.stack([x, x2, x2 * x, x2 * x * x], axis=-1)
        return self.states[idx] + h[:, None] * np.matmul(self._seg_q[idx], powers[..., None])[..., 0]

    def time_at(self, k: int, target: float) -> float:
        """First s where the monotone state component k equals ``target``.

        Targets within 1e-9 beyond the range of the samples snap to the
        nearest end of the trajectory; anything further raises ValueError.
        """
        values = self.states[:, k]
        sign = 1.0 if values[-1] >= values[0] else -1.0
        key, t = sign * values, sign * target
        if t < key[0] - 1e-9 or t > key[-1] + 1e-9:
            raise ValueError(f"value {target} of component {k} not reached on [{self.s[0]}, {self.s_end}]")
        if t <= key[0]:
            return float(self.s[0])
        if t >= key[-1]:
            return float(self.s[-1])
        idx = int(np.searchsorted(key, t, side="left"))
        if key[idx] == t:
            return float(self.s[idx])
        return find_root(lambda s: self(s)[k] - target, (float(self.s[idx - 1]), float(self.s[idx])), tol=1e-13)

    def shift_defect(self, period: float, s, shift) -> float:
        """Worst deviation of y(s + period) - y(s) from the constant ``shift``
        over the offsets ``s``, taken over every state component."""
        return float(np.max(np.abs(self(s + period) - self(s) - np.asarray(shift))))


def _quartic(s, s0, h, y0, q) -> np.ndarray:
    """Dense output of the step from s0 of signed length h at s."""
    x = (s - s0) / h
    return y0 + h * (q @ np.array([x, x * x, x * x * x, x * x * x * x]))


def _rms_norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _initial_step(rhs, s0, y0, direction, rtol, atol):
    # Hairer-Norsett-Wanner starting-step heuristic (deterministic). Returns
    # the step and f0 = rhs(s0, y0).
    f0 = rhs(s0, y0)
    if f0 is None:
        raise ValueError("initial state is outside the right-hand side's admissible region")
    f0 = np.asarray(f0, dtype=float)
    if not (np.isfinite(y0).all() and np.isfinite(f0).all()):
        raise ValueError(f"initial state {y0.tolist()} or its derivative {f0.tolist()} is not finite")
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(s0 + h0 * direction, y1)
    if f1 is None:
        return h0, f0  # the probe is outside the admissible region
    d2 = _rms_norm((np.asarray(f1, dtype=float) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1), f0


def integrate(spec: IvpSpec, s_end: float, guard: Callable[[float, Sequence[float]], bool] = None) -> Trajectory:
    """Integrate ``spec`` until s_end, the first event crossing, a guard stop
    or a step underflow, and return the trajectory with the stop reason:
    ``reached_end``, ``event``, ``guard`` or ``step_underflow``.

    A step with a stage where ``rhs`` returns None is retried with half the
    step; if no admissible step remains, the run ends at the last accepted
    point with reason ``guard``. A non-finite stage rejects the step through
    the error controller; when that alone demands a step below the minimum,
    the run ends with reason ``step_underflow``. ValueError if ``rhs`` is
    None at the start, or if the initial state or its derivative is not
    finite. A false ``guard(s, y)`` blocks ``rhs`` the same way.

    An event stops the run at the root of g on the step's dense quartic.
    Where that root is within roundoff of the step end (g crossed at the
    step's end state but not on the quartic there), the run stops at the
    step end.

    The tableau products stay BLAS ``dot`` calls: BLAS contracts them with
    FMA, so sums in Python floats would move the bits of every trajectory.
    """
    if guard is not None:
        spec = replace(spec, rhs=lambda s, y, f=spec.rhs: f(s, y) if guard(s, y) else None)
    rhs, rtol, atol = spec.rhs, spec.rtol, spec.atol
    s = float(spec.s0)
    y = tuple(np.asarray(spec.y0, dtype=float).tolist())

    direction = 1.0 if s_end >= s else -1.0
    h, f0 = _initial_step(rhs, s, np.array(y), direction, rtol, atol)
    h = min(h, abs(s_end - s))

    grid, samples = [s], [y]
    seg_h, seg_k = [], []  # per accepted step: signed length and stages
    ev_vals = [ev.fn(s, y) for ev in spec.events]

    K = np.empty((7, spec.dim))
    K[0] = f0
    # (K[:i]^T product, weights, node, row of K) of the six new stages
    stages = [(K[:i].T.dot, _A[i], _C[i], K[i]) for i in range(1, 7)]
    eps16 = 16 * np.finfo(float).eps
    step_rejected = False

    def finish(why, event=None):
        return Trajectory(
            s=np.array(grid),
            states=np.array(samples),
            reason=why,
            event=event,
            _seg_h=np.array(seg_h) if seg_h else np.array([1.0]),
            _seg_q=np.matmul(np.array(seg_k).transpose(0, 2, 1), _P) if seg_k else np.zeros((1, spec.dim, 4)),
        )

    while direction * (s_end - s) > 0:
        h_min = max(1e-14, eps16 * abs(s))
        remaining = abs(s_end - s)
        if remaining < h_min:
            break  # at s_end within resolution
        h = min(h, remaining)
        last_step = h >= remaining
        if h < h_min:
            return finish(UNDERFLOW)

        guard_blocked = False
        while True:
            # Build the six new stages: a None stage halves h, a non-finite one is rejected below.
            hd = h * direction
            for k_dot, a, c, k_row in stages:
                yi = tuple([yk + hd * vk for yk, vk in zip(y, k_dot(a).tolist())])
                fi = rhs(s + c * h * direction, yi)
                if fi is None or not all(map(math.isfinite, fi)):
                    break
                k_row[:] = fi
            else:
                break
            if fi is not None:
                break
            h *= 0.5
            guard_blocked = True
            if h < h_min:
                return finish(GUARD_STOP)

        # A non-finite stage, or a stage-6 state that overflowed, is rejected.
        if not (all(map(math.isfinite, fi)) and all(map(math.isfinite, yi))):
            err = math.inf
        else:
            y_new = yi  # FSAL: the stage-6 state is the fifth-order solution
            acc = 0.0
            for ek, y0k, y1k in zip(K.T.dot(_E).tolist(), y, y_new):
                r = h * ek / (atol + rtol * max(abs(y0k), abs(y1k)))
                acc += r * r
            err = math.sqrt(acc / spec.dim)

        if err > 1.0:
            factor = max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP)
            h *= factor
            step_rejected = True
            if h < h_min:
                return finish(GUARD_STOP if guard_blocked else UNDERFLOW)
            continue

        # Accepted step: record the dense segment. (Guard retries may have
        # shrunk h below the remaining span, so re-check before snapping.)
        s_new = s_end if last_step and h >= remaining else s + h * direction
        seg_h.append(h * direction)
        seg_k.append(K.copy())

        hits = []
        for j, ev in enumerate(spec.events):
            g_old = ev_vals[j]
            g_new = ev.fn(s_new, y_new)
            ev_vals[j] = g_new
            if not g_old > 0 >= g_new:
                continue
            # Localize on the step's dense quartic, formed only for a crossing.
            q, y_arr = K.T @ _P, np.array(y)
            seg_eval = lambda ss: _quartic(ss, s, h * direction, y_arr, q)
            try:
                s_hit = find_root(lambda ss: ev.fn(ss, seg_eval(ss)), (s, s_new), tol=1e-12)
                hits.append(EventHit(name=ev.name, s=s_hit, state=seg_eval(s_hit)))
            except NoSignChangeError:
                hits.append(EventHit(name=ev.name, s=s_new, state=np.array(y_new)))
        if hits:
            first = min(hits, key=lambda hh: direction * hh.s)
            grid.append(first.s)
            samples.append(first.state)
            return finish(EVENT_STOP, first)

        grid.append(s_new)
        samples.append(y_new)
        s, y = s_new, y_new
        K[0] = K[6]  # FSAL

        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err**_ORDER_EXP))
        if step_rejected:
            factor = min(1.0, factor)
            step_rejected = False
        h *= factor

    return finish(REACHED_END)


def find_root(f: Callable[[float], float], bracket, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Brent-style bracketing root refinement; deterministic.

    Requires f to change sign over ``bracket``; returns the root within
    ``tol`` (plus a machine-precision term proportional to the root).
    Raises RootNotConvergedError, carrying the last bracket, if ``max_iter``
    iterations do not get there.
    """
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChangeError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")

    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol_here = 2 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol_here or fb == 0.0:
            return b
        if abs(e) < tol_here or abs(fa) <= abs(fb):
            d = e = m
        else:
            s_ratio = fb / fa
            if a == c:
                p = 2 * m * s_ratio
                q = 1 - s_ratio
            else:
                q = fa / fc
                r = fb / fc
                p = s_ratio * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s_ratio - 1)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2 * p < min(3 * m * q - abs(tol_here * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol_here else (tol_here if m > 0 else -tol_here)
        fb = f(b)
    if fb == 0.0:
        return b
    if (fb > 0) == (fc > 0):
        c = a
    bracket = (min(b, c), max(b, c))
    raise RootNotConvergedError(f"no convergence in {max_iter} iterations; root in {bracket}", bracket=bracket)
