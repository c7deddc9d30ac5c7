"""Quad-mesh sampling of surface patches and Wavefront OBJ export."""

import numpy as np

from .geomcore import SurfacePatch


def sample_grid_mesh(patch: SurfacePatch, n_u: int, n_v: int, wrap_v: bool = False):
    """Sample a patch on a regular grid.

    Returns (vertices, faces): vertices has exactly n_u * n_v rows; faces are
    quads of 0-based vertex indices. With wrap_v the last column of cells
    connects back to the first (closed surfaces of revolution) without
    duplicating the seam vertices. Both counts must be at least 2.
    """
    if n_u < 2 or n_v < 2:
        raise ValueError(f"mesh needs at least 2 samples per direction (got {n_u} x {n_v})")
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    us = np.linspace(u0, u1, n_u)
    if wrap_v:
        vs = v0 + (v1 - v0) * np.arange(n_v) / n_v
    else:
        vs = np.linspace(v0, v1, n_v)
    verts = np.empty((n_u * n_v, 3))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            verts[i * n_v + j] = patch.position(float(u), float(v))
    faces = []
    n_cols = n_v if wrap_v else n_v - 1
    for i in range(n_u - 1):
        for j in range(n_cols):
            jn = (j + 1) % n_v
            faces.append((i * n_v + j, i * n_v + jn, (i + 1) * n_v + jn, (i + 1) * n_v + j))
    return verts, faces


def write_obj(path, vertices, faces) -> None:
    with open(path, "w") as fh:
        fh.write("# weingarten surface mesh\n")
        for x, y, z in vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for face in faces:
            fh.write("f " + " ".join(str(i + 1) for i in face) + "\n")
