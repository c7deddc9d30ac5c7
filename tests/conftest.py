import dataclasses

import numpy as np
import pytest

from weingarten import cyclic_r3, odekit, parab_h3, rot_r3
from weingarten.geomcore import WeingartenParams


@pytest.fixture(scope="session")
def fig3_profile():
    # The paper's pinned rotational example: a = -b = 2, z0 = 3, three periods.
    return rot_r3.integrate_profile(WeingartenParams(2, -2, 1), 3.0, n_periods=3, tol=1e-10)


@pytest.fixture(scope="session")
def fig3_structure(fig3_profile):
    return rot_r3.structure_report(fig3_profile)


@pytest.fixture(scope="session")
def parab_figure_profiles():
    # The four pinned parabolic configs of the classification figures.
    return {
        (0.5, -1.0): parab_h3.integrate_parabolic(0.5, -1.0, 1.0),
        (0.5, -0.8): parab_h3.integrate_parabolic(0.5, -0.8, 1.0),
        (0.5, -0.2): parab_h3.integrate_parabolic(0.5, -0.2, 1.0),
        (0.5, 0.3): parab_h3.integrate_parabolic(0.5, 0.3, 1.0),
    }


def _scaled_height(profile, factor):
    """The profile with z scaled by ``factor`` along the whole dense output."""
    traj = profile.trajectory
    states, seg_q = traj.states.copy(), traj._seg_q.copy()
    states[:, 1] *= factor
    seg_q[:, 1, :] *= factor
    scaled = dataclasses.replace(traj, states=states, _seg_q=seg_q)
    return dataclasses.replace(profile, trajectory=scaled)


@pytest.fixture(scope="session")
def scaled_height():
    # The profile corruption the verdict-flip tests of both profile families use.
    return _scaled_height


@pytest.fixture
def integrate_calls(monkeypatch):
    """The ``odekit.integrate`` calls the test makes, through every module
    that imported it by name: one (spec, s_end) tuple per call."""
    calls = []
    integrate = odekit.integrate

    def counted(spec, s_end, *args, **kwargs):
        calls.append((spec, s_end))
        return integrate(spec, s_end, *args, **kwargs)

    for module in (odekit, rot_r3, parab_h3, cyclic_r3):
        if getattr(module, "integrate", None) is integrate:
            monkeypatch.setattr(module, "integrate", counted)
    return calls


@pytest.fixture
def dense_call_shapes(monkeypatch):
    """The shape of ``s`` in every dense-output call the test makes: () for
    a scalar call, (n,) for an array call."""
    shapes = []
    call = odekit.Trajectory.__call__

    def counted(self, s):
        shapes.append(np.shape(s))
        return call(self, s)

    monkeypatch.setattr(odekit.Trajectory, "__call__", counted)
    return shapes


def _poly_jets(f, g, r):
    """``jets`` of a cyclic spec whose centre (f, g) and radius r are the
    polynomials with these ascending coefficients."""
    polys = [(p, p.deriv(), p.deriv(2)) for p in map(np.polynomial.Polynomial, (f, g, r))]
    return lambda u: tuple(tuple(q(u) for q in jet) for jet in polys)


@pytest.fixture(scope="session")
def poly_jets():
    # The polynomial curves of the perturbed cyclic specs.
    return _poly_jets


@pytest.fixture(scope="session")
def cyclic_specs():
    return {
        "riemann": cyclic_r3.riemann_example(1.0, 0.5, 1.0, 0.1),
        "cone": cyclic_r3.generalized_cone(0.0, 0.3, 0.0, 0.4, 1.0, 0.5),
        "sphere": cyclic_r3.sphere_slice(1.3),
    }


@pytest.fixture(scope="session")
def paper_patches(fig3_profile, parab_figure_profiles, cyclic_specs):
    # One patch of each family the paper checks: the Fig. 3 rotational
    # surface, a PeriodicComplete parabolic surface, and the cyclic Riemann
    # example, generalized cone and sphere.
    return {
        "rot": rot_r3.profile_patch(fig3_profile),
        "parab": parab_h3.parab_patch(parab_figure_profiles[(0.5, -0.2)]).patch,
        **{name: cyclic_r3.cyclic_patch(spec) for name, spec in cyclic_specs.items()},
    }
