"""The geometric mesh comparison of ``mesh_compare.py``."""

import numpy as np

from mesh_compare import compare_obj, nearest_within
from skewcoh.surfaces import IsoSurfaceMesh, extract_isosurface, sample_bd_field, write_obj


def test_moved_and_renumbered_mesh(tmp_path):
    mesh = extract_isosurface(sample_bd_field("a1", 21), 0.05)
    order = np.random.default_rng(0).permutation(len(mesh.vertices))
    vertices = mesh.vertices[order] + 3e-9
    vertices[0, 0] += 1e-3  # moves out of the matching tolerance
    triangles = np.argsort(order)[mesh.triangles][:-2]
    write_obj(mesh, tmp_path / "old.obj")
    write_obj(IsoSurfaceMesh(vertices=vertices, triangles=triangles, level=0.05), tmp_path / "new.obj")
    report = compare_obj(tmp_path / "old.obj", tmp_path / "new.obj")
    n, m = len(mesh.vertices), len(mesh.triangles)
    assert report["vertices"] == (n, n)
    assert report["triangles"] == (m, m - 2)
    assert report["unmatched"] == (1, 1)
    # 3e-9 along each axis, seen through the 9 significant digits of the files
    assert 1e-9 < report["max_displacement"] < 1e-8


def test_every_point_of_a_shared_cube_is_tried():
    # Both points of b fall in one cube of side 1e-6; the first is too far.
    a = np.array([[-0.5e-6, 0.0, 0.0]])
    b = np.array([[0.9e-6, 0.0, 0.0], [0.1e-6, 0.0, 0.0]])
    assert np.allclose(nearest_within(a, b), 0.6e-6, rtol=1e-9, atol=0.0)
    assert np.isinf(nearest_within(a, b[:1])).all()
