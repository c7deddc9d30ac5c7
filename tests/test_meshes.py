import math

import numpy as np

from weingarten import cyclic_r3, meshes


def reference_faces(n_u, n_v, wrap_v):
    """The quads as the per-cell loop built them."""
    faces = []
    for i in range(n_u - 1):
        for j in range(n_v if wrap_v else n_v - 1):
            jn = (j + 1) % n_v
            faces.append((i * n_v + j, i * n_v + jn, (i + 1) * n_v + jn, (i + 1) * n_v + j))
    return faces


def reference_obj(vertices, faces) -> bytes:
    """The OBJ text as the per-row f-string loop wrote it."""
    lines = ["# weingarten surface mesh\n"]
    for x, y, z in vertices:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}\n")
    for face in faces:
        lines.append("f " + " ".join(str(i + 1) for i in face) + "\n")
    return "".join(lines).encode()


def test_sampled_vertices_equal_one_point_calls(paper_patches):
    for name, patch in paper_patches.items():
        for wrap in (False, True):
            n_u, n_v = 13, 7
            verts, faces = meshes.sample_grid_mesh(patch, n_u, n_v, wrap_v=wrap)
            u0, u1 = patch.u_range
            v0, v1 = patch.v_range
            vs = v0 + (v1 - v0) * np.arange(n_v) / n_v if wrap else np.linspace(v0, v1, n_v)
            want = np.array([patch.position(np.array([u]), np.array([v]))[0, 0]
                             for u in np.linspace(u0, u1, n_u) for v in vs])
            assert np.array_equal(verts, want), name
            assert faces.tolist() == [list(f) for f in reference_faces(n_u, n_v, wrap)]


def test_write_obj_bytes_equal_reference_writer(tmp_path):
    rng = np.random.default_rng(7)
    n_u, n_v = 61, 50  # 3050 vertices and 2940 faces: both span two chunks
    verts = rng.standard_normal((n_u * n_v, 3)) * 10.0 ** rng.integers(-300, 300, (n_u * n_v, 3))
    verts[:6] = [[-0.0, 0.0, 1e-300], [1e300, -1e300, 5e-324], [math.pi, -math.e, 1.0],
                 [0.1, 1 / 3, 2.0 ** 60], [-0.0, -0.0, -0.0], [1.7976931348623157e308, 2.2250738585072014e-308, -1e-5]]
    _, faces = meshes.sample_grid_mesh(cyclic_r3.cyclic_patch(cyclic_r3.sphere_slice()), n_u, n_v, wrap_v=True)
    path = tmp_path / "mesh.obj"
    meshes.write_obj(path, verts, faces)
    assert path.read_bytes() == reference_obj(verts, faces)
    assert len(verts) > meshes._OBJ_CHUNK_ROWS and len(faces) > meshes._OBJ_CHUNK_ROWS
    # the list-of-tuples faces the loop produced are accepted as well
    meshes.write_obj(path, verts[:4], [(0, 1, 2, 3)])
    assert path.read_bytes() == reference_obj(verts[:4], [(0, 1, 2, 3)])
