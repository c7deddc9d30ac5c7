"""The grid patches of the three families against per-point closures, kept
here as the reference: the position and every entry of the partials tuple
must be bit-identical to the stack of scalar evaluations."""

import math

import numpy as np
import pytest

from weingarten import parab_h3, rot_r3


def scalar_rot(profile):
    p, traj = profile.params, profile.trajectory

    def pos(s, phi):
        x, z, _ = traj(s)
        return np.array([x, z * math.cos(phi), z * math.sin(phi)])

    def d_s(s, phi):
        _, _, th = traj(s)
        return np.array([math.cos(th), math.sin(th) * math.cos(phi), math.sin(th) * math.sin(phi)])

    def d_phi(s, phi):
        _, z, _ = traj(s)
        return np.array([0.0, -z * math.sin(phi), z * math.cos(phi)])

    def d_ss(s, phi):
        _, z, th = traj(s)
        tp = rot_r3.slope(p, z, th)
        return np.array([-math.sin(th) * tp, math.cos(th) * tp * math.cos(phi), math.cos(th) * tp * math.sin(phi)])

    def d_sphi(s, phi):
        _, _, th = traj(s)
        return np.array([0.0, -math.sin(th) * math.sin(phi), math.sin(th) * math.cos(phi)])

    def d_phiphi(s, phi):
        _, z, _ = traj(s)
        return np.array([0.0, -z * math.cos(phi), -z * math.sin(phi)])

    return pos, (d_s, d_phi, d_ss, d_sphi, d_phiphi)


def scalar_parab(profile):
    a, b, traj = profile.a, profile.b, profile.trajectory

    def pos(s, t):
        x, z_, _ = traj(s)
        return np.array([x, t, z_])

    def d_s(s, t):
        _, _, th = traj(s)
        return np.array([math.cos(th), 0.0, math.sin(th)])

    def d_ss(s, t):
        _, z_, th = traj(s)
        tp_ = parab_h3.slope(a, b, z_, th)
        return np.array([-math.sin(th) * tp_, 0.0, math.cos(th) * tp_])

    zero = lambda s, t: np.zeros(3)
    return pos, (d_s, lambda s, t: np.array([0.0, 1.0, 0.0]), d_ss, zero, zero)


def scalar_cyclic(spec):
    def jets(u):
        # the jets take arrays of u: call them on one u at a time
        return [[float(x[0]) for x in jet] for jet in spec.jets(np.array([u]))]

    def pos(u, v):
        (f, _, _), (g, _, _), (rv, _, _) = jets(u)
        return np.array([f + rv * math.cos(v), g + rv * math.sin(v), u])

    def d_u(u, v):
        (_, f1, _), (_, g1, _), (_, r1, _) = jets(u)
        return np.array([f1 + r1 * math.cos(v), g1 + r1 * math.sin(v), 1.0])

    def d_v(u, v):
        rv = jets(u)[2][0]
        return np.array([-rv * math.sin(v), rv * math.cos(v), 0.0])

    def d_uu(u, v):
        (_, _, f2), (_, _, g2), (_, _, r2) = jets(u)
        return np.array([f2 + r2 * math.cos(v), g2 + r2 * math.sin(v), 0.0])

    def d_uv(u, v):
        r1 = jets(u)[2][1]
        return np.array([-r1 * math.sin(v), r1 * math.cos(v), 0.0])

    def d_vv(u, v):
        rv = jets(u)[2][0]
        return np.array([-rv * math.cos(v), -rv * math.sin(v), 0.0])

    return pos, (d_u, d_v, d_uu, d_uv, d_vv)


@pytest.fixture(scope="module")
def references(fig3_profile, parab_figure_profiles, cyclic_specs):
    return {
        "rot": scalar_rot(fig3_profile),
        "parab": scalar_parab(parab_figure_profiles[(0.5, -0.2)]),
        **{name: scalar_cyclic(spec) for name, spec in cyclic_specs.items()},
    }


PARTIAL_NAMES = ("X_u", "X_v", "X_uu", "X_uv", "X_vv")


def test_grid_partials_equal_scalar_closures(paper_patches, references):
    for name, patch in paper_patches.items():
        us = np.linspace(*patch.u_range, 17)
        vs = np.linspace(*patch.v_range, 11)

        def stacked(scalar):
            return np.array([[scalar(u, v) for v in vs.tolist()] for u in us.tolist()])

        position, partials = references[name]
        assert np.array_equal(patch.position(us, vs), stacked(position)), (name, "position")
        for partial, got, scalar in zip(PARTIAL_NAMES, patch.partials(us, vs), partials, strict=True):
            assert np.array_equal(got, stacked(scalar)), (name, partial)
