"""Quad-mesh sampling of surface patches and Wavefront OBJ export."""

import numpy as np

from .geomcore import SurfacePatch

# Rows per formatted string: memory stays flat where one string per file would not.
_OBJ_CHUNK_ROWS = 2048


def sample_grid_mesh(patch: SurfacePatch, n_u: int, n_v: int, wrap_v: bool = False):
    """Sample a patch on a regular grid with one ``position`` call.

    Returns (vertices, faces): vertices has exactly n_u * n_v rows in
    row-major (u outer) order; faces is an (n_faces, 4) integer array of
    0-based vertex indices of quads. With wrap_v the last column of cells
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
    verts = patch.position(us, vs).reshape(n_u * n_v, 3)
    row = np.arange(n_u - 1)[:, None] * n_v
    j = np.arange(n_v if wrap_v else n_v - 1)
    jn = (j + 1) % n_v
    faces = np.stack([row + j, row + jn, row + n_v + jn, row + n_v + j], axis=-1).reshape(-1, 4)
    return verts, faces


def write_obj(path, vertices, faces) -> None:
    """Write ``v`` lines with 17 significant digits, so every float64
    round-trips, and ``f`` lines with 1-based indices."""
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=np.int64) + 1
    with open(path, "w") as fh:
        fh.write("# weingarten surface mesh\n")
        for rows, line in ((vertices, "v %.17g %.17g %.17g\n"), (faces, "f" + " %d" * faces.shape[-1] + "\n")):
            for k in range(0, len(rows), _OBJ_CHUNK_ROWS):
                chunk = rows[k:k + _OBJ_CHUNK_ROWS]
                fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
