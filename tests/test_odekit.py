import dataclasses
import hashlib
import math

import numpy as np
import pytest

from weingarten import cyclic_r3, odekit
from weingarten.errors import NoSignChangeError, RootNotConvergedError
from weingarten.odekit import Event, IvpSpec, find_root, integrate


def exp_spec(rtol=1e-10, atol=1e-12):
    return IvpSpec(rhs=lambda s, y: y, s0=0.0, y0=[1.0], rtol=rtol, atol=atol)


def test_exponential_endpoint():
    traj = integrate(exp_spec(rtol=1e-11, atol=1e-13), 1.0)
    assert traj.reason == odekit.REACHED_END
    assert traj.s[-1] == 1.0
    assert abs(traj.states[-1, 0] - math.e) < 1e-9


def test_cosine_event_at_pi_third():
    # y' = -sin(s), y(0) = 1  =>  y = cos(s); y crosses 0.5 from above at pi/3.
    spec = IvpSpec(
        rhs=lambda s, y: np.array([-math.sin(s)]),
        s0=0.0,
        y0=[1.0],
        rtol=1e-12,
        atol=1e-14,
        events=(Event(fn=lambda s, y: y[0] - 0.5, name="half"),),
    )
    traj = integrate(spec, 4.0)
    assert traj.reason == odekit.EVENT_STOP
    assert traj.event.name == "half"
    assert abs(traj.event.s - math.pi / 3) < 1e-8
    assert traj.s[-1] == traj.event.s


def test_event_direction_filter():
    # y = cos(s) crosses 0.5 upward near 5pi/3, where 0.5 - y falls through
    # zero; the event must skip pi/3, where 0.5 - y rises through it.
    spec = IvpSpec(
        rhs=lambda s, y: np.array([-math.sin(s)]),
        s0=0.0,
        y0=[1.0],
        rtol=1e-12,
        atol=1e-14,
        events=(Event(fn=lambda s, y: 0.5 - y[0]),),
    )
    traj = integrate(spec, 7.0)
    assert traj.reason == odekit.EVENT_STOP
    assert abs(traj.event.s - 5 * math.pi / 3) < 1e-8


def test_rising_event_never_stops_a_run():
    # y = s, so g = y - 0.5 rises through zero at s = 0.5: no stop.
    spec = IvpSpec(rhs=lambda s, y: (1.0,), s0=0.0, y0=[0.0], events=(Event(fn=lambda s, y: y[0] - 0.5),))
    traj = integrate(spec, 2.0)
    assert traj.reason == odekit.REACHED_END
    assert traj.event is None and traj.s_end == 2.0


def test_guard_stops_before_crossing():
    # z' = -1 from z=1 with guard z > 0: must stop just before z reaches 0.
    spec = IvpSpec(rhs=lambda s, y: np.array([-1.0]), s0=0.0, y0=[1.0], rtol=1e-9, atol=1e-12)
    traj = integrate(spec, 5.0, guard=lambda s, y: y[0] > 0.0)
    assert traj.reason == odekit.GUARD_STOP
    assert traj.states[-1, 0] > 0.0
    assert traj.s[-1] < 1.0
    assert 1.0 - traj.s[-1] < 1e-3  # stops close to the boundary


def test_guard_checked_on_initial_state():
    spec = IvpSpec(rhs=lambda s, y: np.array([-1.0]), s0=0.0, y0=[-1.0])
    with pytest.raises(ValueError):
        integrate(spec, 1.0, guard=lambda s, y: y[0] > 0.0)


def test_none_rhs_on_initial_state_raises():
    spec = IvpSpec(rhs=lambda s, y: (-1.0,) if y[0] > 0.0 else None, s0=0.0, y0=[-1.0])
    with pytest.raises(ValueError, match="admissible region"):
        integrate(spec, 1.0)


@pytest.mark.parametrize("y0, rhs", [([math.nan], lambda s, y: (1.0,)), ([1.0], lambda s, y: (math.nan,))])
def test_nonfinite_start_raises(y0, rhs):
    # A NaN state or slope at the start would make every step size NaN,
    # which no step-size test stops.
    with pytest.raises(ValueError, match="not finite"):
        integrate(IvpSpec(rhs=rhs, s0=0.0, y0=y0), 1.0)


def test_none_rhs_stops_exactly_like_the_guard():
    # The system of test_guard_stops_before_crossing, with the region in
    # the rhs: the same blocked steps, bit for bit.
    spec = IvpSpec(rhs=lambda s, y: np.array([-1.0]), s0=0.0, y0=[1.0], rtol=1e-9, atol=1e-12)
    guarded = integrate(spec, 5.0, guard=lambda s, y: y[0] > 0.0)
    blocked = integrate(dataclasses.replace(spec, rhs=lambda s, y: (-1.0,) if y[0] > 0.0 else None), 5.0)
    assert blocked.reason == guarded.reason == odekit.GUARD_STOP
    assert np.array_equal(blocked.s, guarded.s)
    assert np.array_equal(blocked.states, guarded.states)


def test_blocked_starting_step_probe_keeps_the_first_guess():
    # y' = 1 from y = 1: the starting-step probe lands at s = 0.01, inside a
    # window where the rhs returns None. The run keeps the first guess 0.01,
    # whose last stage meets the window too, so the first step is 0.005;
    # then it steps around the window to s = 1.
    probes = []

    def rhs(s, y):
        probes.append(s)
        return None if 0.009 < s < 0.011 else (1.0,)

    traj = integrate(IvpSpec(rhs=rhs, s0=0.0, y0=[1.0]), 1.0)
    assert probes[1] == 0.01
    assert traj.s[1] == 0.005
    assert traj.reason == odekit.REACHED_END
    assert traj.s_end == 1.0
    assert abs(traj.states[-1, 0] - 2.0) < 1e-12


def test_step_underflow_on_finite_time_blowup():
    # y' = y^2, y(0) = 1 blows up at s = 1.
    spec = IvpSpec(rhs=lambda s, y: (y[0] * y[0],), s0=0.0, y0=[1.0], rtol=1e-10, atol=1e-12)
    partial = integrate(spec, 2.0)
    assert partial.reason == "step_underflow"
    assert partial.s[-1] < 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_rhs_ends_in_step_underflow_with_finite_output(bad):
    # y' = cos(s) has no finite value beyond s = 0.5: every step reaching
    # past it is rejected until the step underflows there.
    spec = IvpSpec(rhs=lambda s, y: (math.cos(s) if s <= 0.5 else bad,), s0=0.0, y0=[0.0])
    traj = integrate(spec, 2.0)
    assert traj.reason == odekit.UNDERFLOW
    assert 0.5 - 1e-9 < traj.s_end <= 0.5
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj._seg_q))
    assert abs(traj.states[-1, 0] - math.sin(traj.s_end)) < 1e-9


def test_nonfinite_last_stage_alone_rejects_the_step():
    # RHS calls: f0, the starting-step probe, then stages 1-6. The 8th call,
    # the first step's last stage, alone is NaN; its state is finite, so
    # only the stage's own finiteness test can reject the step.
    calls = []

    def rhs(s, y):
        calls.append(s)
        return (math.nan if len(calls) == 8 else math.cos(s),)

    traj = integrate(IvpSpec(rhs=rhs, s0=0.0, y0=[0.0]), 1.0)
    assert traj.reason == odekit.REACHED_END
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj._seg_q))
    assert abs(traj.states[-1, 0] - math.sin(1.0)) < 1e-9


def test_dense_output_reproduces_grid_samples():
    traj = integrate(exp_spec(), 1.0)
    for i in range(len(traj.s)):
        err = np.max(np.abs(traj(traj.s[i]) - traj.states[i]))
        assert err < 1e-12


def test_dense_output_matches_reintegration():
    # Interpolated midpoint value agrees with a fresh integration from the
    # left knot to within 10x the local tolerance.
    rtol, atol = 1e-9, 1e-11
    traj = integrate(exp_spec(rtol=rtol, atol=atol), 1.0)
    for i in (1, len(traj.s) // 2):
        s_lo, s_hi = traj.s[i - 1], traj.s[i]
        s_mid = 0.5 * (s_lo + s_hi)
        fresh = integrate(
            IvpSpec(rhs=lambda s, y: y, s0=float(s_lo), y0=traj.states[i - 1], rtol=1e-13, atol=1e-15),
            float(s_mid),
        )
        tol = 10 * (atol + rtol * abs(fresh.states[-1, 0]))
        assert abs(traj(s_mid)[0] - fresh.states[-1, 0]) < tol


def test_convergence_monotonicity_on_exponential():
    # Halving tolerances never increases the final-state error.
    errors = []
    tol = 1e-5
    while tol > 1e-11:
        traj = integrate(exp_spec(rtol=tol, atol=tol * 1e-2), 1.0)
        errors.append(abs(traj.states[-1, 0] - math.e))
        tol *= 0.5
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-15


def test_determinism_bit_identical():
    t1 = integrate(exp_spec(), 1.0)
    t2 = integrate(exp_spec(), 1.0)
    assert np.array_equal(t1.s, t2.s)
    assert np.array_equal(t1.states, t2.states)
    probe = np.linspace(0, 1, 37)
    assert np.array_equal(t1(probe), t2(probe))


def turning_spec():
    # a planar curve with a varying turning rate: three components whose
    # dense output exercises every column of the quartic coefficients
    def rhs(s, y):
        return np.array([math.cos(y[2]), math.sin(y[2]), -0.7 + 0.3 * math.cos(s)])

    return IvpSpec(rhs=rhs, s0=0.5, y0=[0.0, 1.0, 0.0], rtol=1e-9, atol=1e-11)


def scalar_stack(traj, s):
    return np.array([traj(float(si)) for si in s])


@pytest.mark.parametrize("s_end", [12.0, -12.0])
def test_dense_array_path_matches_scalar_calls(s_end):
    traj = integrate(turning_spec(), s_end)
    assert traj.direction == math.copysign(1.0, s_end)
    lo, hi = sorted((traj.s[0], traj.s_end))
    rng = np.random.default_rng(7)
    probes = [
        rng.uniform(lo, hi, 500),                        # interior
        traj.s,                                          # knots, both ends included
        np.array([traj.s[0], traj.s_end]),
        rng.uniform(lo - 3.0, lo, 20),                   # clamped to the first segment
        rng.uniform(hi, hi + 3.0, 20),                   # clamped to the last segment
    ]
    for s in probes:
        out = traj(s)
        assert out.shape == (len(s), 3)
        assert np.array_equal(out, scalar_stack(traj, s))
    assert traj(np.array([])).shape == (0, 3)


def test_dense_array_path_on_empty_trajectory():
    # s_end == s0 takes no step: the dense output is the one-segment
    # placeholder holding the initial state
    traj = integrate(turning_spec(), 0.5)
    assert len(traj.s) == 1
    s = np.array([-1.0, 0.5, 0.5, 2.0])
    assert np.array_equal(traj(s), scalar_stack(traj, s))
    assert np.array_equal(traj(s), np.tile([0.0, 1.0, 0.0], (4, 1)))
    assert traj(np.array([])).shape == (0, 3)


def test_backward_integration():
    traj = integrate(exp_spec(rtol=1e-11, atol=1e-13), -1.0)
    assert abs(traj.states[-1, 0] - math.exp(-1)) < 1e-9
    assert traj.direction == -1.0
    s_mid = -0.37
    assert abs(traj(s_mid)[0] - math.exp(s_mid)) < 1e-8


def test_find_root_cosine():
    assert abs(find_root(math.cos, (0.0, 3.0)) - math.pi / 2) < 1e-12


def test_find_root_sqrt2():
    assert abs(find_root(lambda t: t * t - 2.0, (1.0, 2.0)) - math.sqrt(2)) < 1e-12


def test_find_root_parabolic_boundary_equation():
    # 0.5*cos(t) + sin(t)^2 - 1 factors as cos(t)*(0.5 - cos(t)); the root in
    # the bracket is -pi/3.
    f = lambda t: 0.5 * math.cos(t) + math.sin(t) ** 2 - 1.0
    root = find_root(f, (-math.pi / 2 + 1e-6, -1e-6), tol=1e-12)
    assert abs(root - (-math.pi / 3)) < 1e-9


def test_find_root_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        find_root(lambda t: 1.0 + t * t, (0.0, 1.0))


def test_find_root_not_converged_carries_bracket():
    f = lambda t: t * t - 2.0
    with pytest.raises(RootNotConvergedError) as exc:
        find_root(f, (1.0, 2.0), max_iter=2)
    lo, hi = exc.value.bracket
    assert 1.0 <= lo < math.sqrt(2) < hi <= 2.0
    assert hi - lo > 1e-12  # not converged
    assert (f(lo) > 0) != (f(hi) > 0)


def trajectory_sha256(trajectories) -> str:
    """SHA-256 over the knots, states, dense segments, stop reason and event
    of each trajectory: equal digests mean bit-identical stepping."""
    h = hashlib.sha256()
    for t in trajectories:
        for arr in (t.s, t.states, t._seg_h, t._seg_q):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(t.reason.encode())
        if t.event is not None:
            h.update(f"{t.event.name} {t.event.s!r}".encode())
            h.update(np.asarray(t.event.state, dtype=float).tobytes())
    return h.hexdigest()


def riemann_trajectories(monkeypatch):
    """The forward and backward solves of the pinned Riemann example."""
    solved = []

    def recorded(spec, s_end, guard=None):
        solved.append(integrate(spec, s_end, guard=guard))
        return solved[-1]

    monkeypatch.setattr(cyclic_r3, "integrate", recorded)
    cyclic_r3.riemann_example(1.0, 0.5, 1.0, 0.1, u_range=(-1.0, 1.0))
    assert len(solved) == 2
    return solved


# SHA-256 of the three pinned solves, recorded under numpy 2.4.6: the rot
# Fig. 3 profile, the parab Fig. 4.2b profile (a denominator stop), and the
# Riemann example in both directions.
STEPPER_SHA256 = {
    "rot_fig3": "e09f542f2bc6524aa07b7deb943d2b5cca0e78fec0edabceb0f7b083177110d2",
    "parab_fig42b": "c52dd98ce4a7d449f5a1eafb68bf5569a69160d93575b502164ce7b14e45e82e",
    "riemann": "9f736e92155e5ba725fa58cfaf97fc68394b78d24a2c7cc825d0689f68845c5d",
}


def test_stepper_trajectories_are_pinned(fig3_profile, parab_figure_profiles, monkeypatch):
    if np.__version__ != "2.4.6":
        pytest.skip(f"hashes recorded under numpy 2.4.6, running {np.__version__}")
    parab = parab_figure_profiles[(0.5, 0.3)]
    assert parab.cause == "denominator"
    got = {
        "rot_fig3": trajectory_sha256([fig3_profile.trajectory]),
        "parab_fig42b": trajectory_sha256([parab.trajectory]),
        "riemann": trajectory_sha256(riemann_trajectories(monkeypatch)),
    }
    assert got == STEPPER_SHA256
