import math

import numpy as np
import pytest

from weingarten import odekit
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
        events=(Event(fn=lambda s, y: y[0] - 0.5, direction=-1, name="half"),),
    )
    traj = integrate(spec, 4.0)
    assert traj.reason == odekit.EVENT_STOP
    assert traj.event.name == "half"
    assert abs(traj.event.s - math.pi / 3) < 1e-8
    assert traj.s[-1] == traj.event.s


def test_event_direction_filter():
    # y = cos(s) crosses 0.5 upward near 5pi/3; a direction=+1 event must skip pi/3.
    spec = IvpSpec(
        rhs=lambda s, y: np.array([-math.sin(s)]),
        s0=0.0,
        y0=[1.0],
        rtol=1e-12,
        atol=1e-14,
        events=(Event(fn=lambda s, y: y[0] - 0.5, direction=+1),),
    )
    traj = integrate(spec, 7.0)
    assert traj.reason == odekit.EVENT_STOP
    assert abs(traj.event.s - 5 * math.pi / 3) < 1e-8


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


def test_step_underflow_on_finite_time_blowup():
    # y' = y^2, y(0) = 1 blows up at s = 1.
    spec = IvpSpec(rhs=lambda s, y: y * y, s0=0.0, y0=[1.0], rtol=1e-10, atol=1e-12)
    partial = integrate(spec, 2.0)
    assert partial.reason == "step_underflow"
    assert partial.s[-1] < 1.0


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
