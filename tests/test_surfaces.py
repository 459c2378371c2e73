import tracemalloc

import numpy as np
import pytest

from skewcoh.channels import predicted_coefficient_grid
from skewcoh.coherence import bd_coherence_values, xz_coherence_values
from skewcoh.surfaces import (
    MAX_RESOLUTION,
    Curve1D,
    IsoSurfaceMesh,
    ScalarField3D,
    channel_surface,
    extract_isosurface,
    isotropic_curve,
    mesh_component_count,
    sample_bd_field,
    sample_channel_field,
    sample_xz_field,
    werner_curve,
    write_curve_csv,
    write_field_csv,
    write_obj,
    write_ply,
)

RES = 41


@pytest.fixture(scope="module")
def bd_a1():
    return sample_bd_field("a1", RES)


def synthetic_field(fn, resolution=RES):
    axis = np.linspace(-1.0, 1.0, resolution)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    return ScalarField3D(axis=axis, values=fn(x, y, z), name="synthetic")


class TestFieldSampling:
    def test_origin_is_incoherent(self, bd_a1):
        center = (RES - 1) // 2
        assert bd_a1.values[center, center, center] == 0.0

    def test_physical_fraction_near_third(self):
        field = sample_bd_field("a1", 101)
        assert abs(field.physical_fraction() - 1 / 3) < 0.02 / 3

    def test_single_basis_cap(self, bd_a1):
        assert np.nanmax(bd_a1.values) <= 0.5 + 1e-12

    def test_sum_field_cap(self):
        field = sample_bd_field("sum", RES)
        assert np.nanmax(field.values) <= 1.5 + 1e-12
        corner = field.values[-1, -1, 0]  # (1, 1, -1) is a Bell corner
        assert corner == pytest.approx(1.5, abs=1e-12)

    def test_cube_corner_unphysical(self, bd_a1):
        assert np.isnan(bd_a1.values[-1, -1, -1])

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            sample_bd_field("a4", RES)

    def test_resolution_validated(self):
        with pytest.raises(ValueError, match="resolution"):
            sample_bd_field("a1", 1)

    def test_resolution_cap_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            for sample in (
                lambda: sample_bd_field("a1", MAX_RESOLUTION + 1),
                lambda: sample_xz_field(0.1, 0.1, "a1", MAX_RESOLUTION + 1),
                lambda: sample_channel_field("BF", 0.1, MAX_RESOLUTION + 1),
            ):
                with pytest.raises(ValueError, match="resolution"):
                    sample()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    def test_slabs_equal_whole_grid_kernels(self):
        # 21 c1 rows: two full slabs and a partial one
        axis = np.linspace(-1.0, 1.0, 21)
        c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
        cases = [
            (sample_bd_field("a2", 21), bd_coherence_values(c1, c2, c3, "a2")),
            (sample_bd_field("sum", 21), sum(bd_coherence_values(c1, c2, c3, lab) for lab in ("a1", "a2", "a3"))),
            (sample_xz_field(0.1, -0.2, "sum", 21), xz_coherence_values(0.1, -0.2, c1, c2, c3, "sum")),
            (
                sample_channel_field("GAD", 0.3, 21),
                bd_coherence_values(*predicted_coefficient_grid("GAD", c1, c2, c3, 0.3), "a1"),
            ),
        ]
        for field, whole in cases:
            assert field.values.tobytes() == whole.tobytes()

    def test_sampling_peak_memory_is_about_the_field(self):
        # Whole-grid kernel calls peaked near 90 MB at 101^3; slabs keep the
        # peak to the field (7.9 MB) plus its validation and small temporaries.
        for sample in (
            lambda: sample_bd_field("sum", 101),
            lambda: sample_xz_field(0.1, 0.1, "a1", 101),
            lambda: sample_channel_field("GAD", 0.05, 101),
        ):
            tracemalloc.start()
            try:
                sample()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * 8 * 101**3

class TestXzFieldSampling:
    def test_flat_equals_bell_diagonal(self, bd_a1):
        flat = sample_xz_field(0.0, 0.0, "a1", RES)
        same_mask = np.isfinite(flat.values) == np.isfinite(bd_a1.values)
        assert same_mask.all()
        finite = np.isfinite(flat.values)
        assert np.abs(flat.values[finite] - bd_a1.values[finite]).max() <= 1e-10

    def test_region_shrinks(self, bd_a1):
        shrunk = sample_xz_field(0.1, 0.1, "a1", RES)
        assert shrunk.physical_fraction() < bd_a1.physical_fraction()

    def test_origin_with_polarization_still_incoherent(self):
        # the state is diagonal in the computational product basis there
        field = sample_xz_field(0.1, 0.1, "a1", RES)
        center = (RES - 1) // 2
        assert field.values[center, center, center] <= 1e-12


class TestMarchingCubes:
    def test_sphere_level_set(self):
        field = synthetic_field(lambda x, y, z: (x**2 + y**2 + z**2) / 3.0)
        level = 0.2
        mesh = extract_isosurface(field, level)
        assert not mesh.is_empty
        assert mesh_component_count(mesh) == 1
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - np.sqrt(3 * level)).max() < 0.01

    def test_two_spheres_give_two_components(self):
        def two_wells(x, y, z):
            d1 = (x - 0.5) ** 2 + y**2 + z**2
            d2 = (x + 0.5) ** 2 + y**2 + z**2
            return np.minimum(1.0, 0.5 - np.minimum(d1, d2) / 2.0).clip(0.0)

        mesh = extract_isosurface(synthetic_field(two_wells), 0.45)
        assert mesh_component_count(mesh) == 2

    def test_nan_region_clips_mesh(self):
        def masked(x, y, z):
            vals = (x**2 + y**2 + z**2) / 3.0
            return np.where(x > 0.5, np.nan, vals)

        mesh = extract_isosurface(synthetic_field(masked), 0.2)
        spacing = 2.0 / (RES - 1)
        assert not mesh.is_empty
        assert mesh.vertices[:, 0].max() <= 0.5 + spacing

    def test_above_maximum_is_empty(self, bd_a1):
        assert extract_isosurface(bd_a1, 0.6).is_empty

    def test_low_levels_nonempty(self, bd_a1):
        assert not extract_isosurface(bd_a1, 0.05).is_empty
        assert not extract_isosurface(bd_a1, 0.2).is_empty

    def test_zero_level_hugs_incoherent_axis(self, bd_a1):
        # the a1-incoherent Bell-diagonal states are c1 = c2 = 0, c3 free
        mesh = extract_isosurface(bd_a1, 0.0)
        assert not mesh.is_empty
        spacing = 2.0 / (RES - 1)
        near_axis = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) <= 2 * spacing
        assert near_axis.any()

    def test_vertex_accuracy_and_nesting(self, bd_a1):
        mesh = extract_isosurface(bd_a1, 0.2)
        vals = bd_coherence_values(mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2], "a1")
        finite = np.isfinite(vals)
        assert np.abs(vals[finite] - 0.2).max() <= 0.05  # coarse grid, linear interpolation
        assert (vals[finite] >= 0.05 - 0.05).all()

    def test_negative_level_rejected(self, bd_a1):
        with pytest.raises(ValueError, match="level"):
            extract_isosurface(bd_a1, -0.1)

    def test_non_finite_level_rejected(self, bd_a1):
        for level in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                extract_isosurface(bd_a1, level)

    def test_determinism(self, bd_a1):
        m1 = extract_isosurface(bd_a1, 0.2)
        m2 = extract_isosurface(bd_a1, 0.2)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_vertices_stay_inside_sampled_box(self, bd_a1):
        for level in (0.0, 0.05, 0.2):
            mesh = extract_isosurface(bd_a1, level)
            assert np.abs(mesh.vertices).max() <= 1.0 + 1e-12


class TestChannelSurfaces:
    def test_p_zero_reduces_to_plain_field(self, bd_a1):
        plain = extract_isosurface(bd_a1, 0.2)
        via_channel = channel_surface("BF", 0.0, 0.2, RES)
        assert np.array_equal(plain.vertices, via_channel.vertices)
        assert np.array_equal(plain.triangles, via_channel.triangles)

    def test_channel_field_extends_beyond_tetrahedron(self):
        # the map contracts, so unphysical inputs can land on physical outputs
        plain = sample_bd_field("a1", RES)
        moved = sample_channel_field("PF", 0.3, RES)
        assert moved.physical_fraction() > plain.physical_fraction()

    def test_split_structure(self):
        mesh = channel_surface("BF", 0.05, 0.4, 61)
        assert mesh_component_count(mesh) > 1
        mesh = channel_surface("GAD", 0.05, 0.4, 61)
        assert mesh_component_count(mesh) >= 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel"):
            sample_channel_field("AD", 0.1, RES)

    def test_p_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            sample_channel_field("BF", 1.5, RES)


class TestCurves:
    def test_werner_endpoints_and_monotonicity(self):
        curve = werner_curve(np.linspace(0, 1, 101))
        assert curve.values[0] == pytest.approx(0.5, abs=1e-15)
        assert curve.values[-1] == pytest.approx((5 - np.sqrt(21)) / 16, abs=1e-15)
        assert np.diff(curve.values).max() <= 1e-10

    def test_isotropic_shape(self):
        curve = isotropic_curve(np.linspace(0, 1, 101))
        assert curve.values[25] == pytest.approx(0.0, abs=1e-15)
        assert curve.values[-1] == pytest.approx(0.5, abs=1e-15)
        assert np.diff(curve.values[:26]).max() <= 1e-10
        assert np.diff(curve.values[25:]).min() >= -1e-10

    def test_strictly_increasing_parameter_required(self):
        with pytest.raises(ValueError, match="increasing"):
            Curve1D(parameter="p", xs=[0.0, 0.0], values=[1.0, 1.0])


class TestWriters:
    def test_obj_round_trip(self, tmp_path, bd_a1):
        mesh = extract_isosurface(bd_a1, 0.2)
        path = write_obj(mesh, tmp_path / "m.obj")
        lines = path.read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == len(mesh.vertices)
        assert len(faces) == len(mesh.triangles)
        first = np.array([float(t) for t in verts[0].split()[1:]])
        assert np.abs(first - mesh.vertices[0]).max() < 1e-8
        indices = [int(t) for t in faces[0].split()[1:]]
        assert indices == [i + 1 for i in mesh.triangles[0]]

    def test_ply_header(self, tmp_path, bd_a1):
        mesh = extract_isosurface(bd_a1, 0.2)
        path = write_ply(mesh, tmp_path / "m.ply")
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert f"element vertex {len(mesh.vertices)}" in lines
        assert f"element face {len(mesh.triangles)}" in lines
        assert lines[lines.index("end_header") + 1 + len(mesh.vertices)].startswith("3 ")

    def test_field_csv_omits_unphysical(self, tmp_path):
        field = sample_bd_field("a1", 11)
        path = write_field_csv(field, tmp_path / "f.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "c1,c2,c3,value"
        assert len(lines) - 1 == int(np.isfinite(field.values).sum())

    def test_curve_csv(self, tmp_path):
        curve = werner_curve(np.linspace(0, 1, 5))
        path = write_curve_csv(curve, tmp_path / "c.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "p,C"
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5)

    def test_byte_identical_rewrite(self, tmp_path, bd_a1):
        mesh = extract_isosurface(bd_a1, 0.05)
        p1 = write_obj(mesh, tmp_path / "a.obj")
        p2 = write_obj(mesh, tmp_path / "b.obj")
        assert p1.read_bytes() == p2.read_bytes()


class TestMeshValidation:
    def test_triangle_indices_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            IsoSurfaceMesh(vertices=np.zeros((2, 3)), triangles=np.array([[0, 1, 5]]), level=0.1)

    def test_field_cap_enforced(self):
        axis = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="outside"):
            ScalarField3D(axis=axis, values=np.full((3, 3, 3), 2.0), name="bad")
