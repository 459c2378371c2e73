import importlib
import tracemalloc

import numpy as np
import pytest

from skewcoh import cli
from skewcoh.channels import CHANNEL_KINDS, predicted_coefficient_grid
from skewcoh.coherence import bd_coherence_values, isotropic_coherence, werner_coherence, xz_coherence_values
from skewcoh.surfaces import (
    BD_MEASURES,
    MAX_RESOLUTION,
    Curve1D,
    IsoSurfaceMesh,
    ScalarField3D,
    extract_isosurface,
    mesh_component_count,
    sample_bd_field,
    sample_channel_field,
    sample_xz_field,
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
        assert bd_a1.maximum == np.nanmax(bd_a1.values)

    def test_sum_field_cap(self):
        field = sample_bd_field("sum", RES)
        assert np.nanmax(field.values) <= 1.5 + 1e-12
        corner = field.values[-1, -1, 0]  # (1, 1, -1) is a Bell corner
        assert corner == pytest.approx(1.5, abs=1e-12)

    def test_cube_corner_unphysical(self, bd_a1):
        assert np.isnan(bd_a1.values[-1, -1, -1])

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown basis label"):
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
        # 21 c1 rows: two full slabs and a partial one; dense coordinates
        # take the elementwise route, the reference the slabs must match
        axis = np.linspace(-1.0, 1.0, 21)
        c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij")
        cases = [
            (sample_bd_field("a2", 21), bd_coherence_values(c1, c2, c3, "a2")),
            (sample_bd_field("sum", 21), bd_coherence_values(c1, c2, c3, "sum")),
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

def per_point(kernel, resolution):
    """``kernel`` over the whole grid, a few c1 rows per call: the per-point
    kernel's values without its whole-grid temporaries.  The chunks are
    dense (broadcast) coordinates, so they take the elementwise route, not
    the grid route that ``np.ix_``-form input such as a sparse meshgrid takes."""
    axis = np.linspace(-1.0, 1.0, resolution)
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    return np.concatenate([kernel(*np.broadcast_arrays(c1[i : i + 16], c2, c3)) for i in range(0, resolution, 16)])


@pytest.fixture
def kernel_points(monkeypatch):
    """Counts the grid points evaluated by the per-point closed-form core."""
    seen = {"points": 0}

    def counted(*args):
        values = closed_values(*args)
        seen["points"] += values.size
        return values

    # skewcoh.coherence, the attribute, is the function the package re-exports
    coherence = importlib.import_module("skewcoh.coherence")
    closed_values = coherence._closed_values
    monkeypatch.setattr(coherence, "_closed_values", counted)
    return seen


# (name, sampler, per-point kernel, whether it splits over the margin pairs)
SPLIT_CASES = (
    [(f"bd-{m}", lambda n, m=m: sample_bd_field(m, n), lambda *c, m=m: bd_coherence_values(*c, m)) for m in ("a1", "sum")]
    + [
        (
            f"xz-{m} r={r} s={s}",
            lambda n, r=r, s=s, m=m: sample_xz_field(r, s, m, n),
            lambda *c, r=r, s=s, m=m: xz_coherence_values(r, s, *c, m),
        )
        for r, s in ((0.0, 0.0), (0.1, 0.1), (0.3, -0.2), (2.0, 2.0))
        for m in ("a1", "sum")
    ]
    + [
        (
            f"{kind} p={p}",
            lambda n, kind=kind, p=p: sample_channel_field(kind, p, n),
            lambda *c, kind=kind, p=p: bd_coherence_values(*predicted_coefficient_grid(kind, *c, p), "a1"),
        )
        for kind in ("PF", "GAD")
        for p in (0.0, 0.05, 0.6, 1.0)
    ]
)

# (name, public kernel over (c1, c2, c3)) for every sampled family
GRID_KERNELS = (
    [(f"bd-{m}", lambda *c, m=m: bd_coherence_values(*c, m)) for m in BD_MEASURES]
    + [
        (f"xz-{m} r={r} s={s}", lambda *c, r=r, s=s, m=m: xz_coherence_values(r, s, *c, m))
        for r, s in ((0.0, 0.0), (0.1, -0.2), (0.3, 0.3))
        for m in ("a1", "sum")
    ]
    + [
        (f"{kind} p={p}", lambda *c, kind=kind, p=p: bd_coherence_values(*predicted_coefficient_grid(kind, *c, p), "a1"))
        for kind in CHANNEL_KINDS
        for p in (0.0, 0.05, 0.6)
    ]
)


class TestPairTables:
    """Fields whose term splits over the two margin pairs, on grids whose
    mapped c1 and c2 axes are the same, are sampled from per-pair tables;
    the others keep the per-point kernel.  Both give its bits, NaNs too."""

    @pytest.mark.parametrize("resolution", [2, 3, 4, 41, 101])
    def test_tables_equal_the_per_point_kernel(self, resolution, kernel_points):
        for name, sample, kernel in SPLIT_CASES:
            kernel_points["points"] = 0
            values = sample(resolution).values
            assert kernel_points["points"] < resolution**3, f"{name} did not take the table route"
            expected = per_point(kernel, resolution)
            assert np.array_equal(values.view(np.int64), expected.view(np.int64)), name

    @pytest.mark.parametrize("resolution", [2, 3, 41])
    def test_ix_grid_equals_the_elementwise_kernel(self, resolution, monkeypatch):
        # np.ix_ coordinates are filled by the grid evaluator, dense ones
        # elementwise; a length-1 or empty axis is a grid too
        coherence = importlib.import_module("skewcoh.coherence")
        grid_values, grids = coherence._grid_values, []
        monkeypatch.setattr(coherence, "_grid_values", lambda *a: grids.append(a) or grid_values(*a))
        axis = np.linspace(-1.0, 1.0, resolution)
        inputs = ((axis,) * 3, (axis[:1], axis[:1], axis), (axis, axis, axis[-1:]), (axis[:0], axis[:0], axis))
        for name, kernel in GRID_KERNELS:
            for x, y, z in inputs:
                grids.clear()
                grid = kernel(*np.ix_(x, y, z))
                assert len(grids) == 1, name
                elementwise = kernel(*np.meshgrid(x, y, z, indexing="ij"))
                assert len(grids) == 1, name
                assert np.array_equal(grid.view(np.int64), elementwise.view(np.int64)), name

    @pytest.mark.parametrize("resolution", [2, 41])
    @pytest.mark.parametrize("measure", ["a2", "a3"])
    def test_unsplit_bases_equal_the_per_point_kernel(self, measure, resolution):
        values = sample_bd_field(measure, resolution).values
        expected = per_point(lambda *c: bd_coherence_values(*c, measure), resolution)
        assert np.array_equal(values.view(np.int64), expected.view(np.int64))

    def test_ambiguous_entries_fall_back_to_the_kernel(self, kernel_points):
        # at 101^3 some margins lie between the bound of their own pair's
        # largest margin and that of the largest of all four
        sample_bd_field("a1", 101)
        assert 0 < kernel_points["points"] < 101**3

    @pytest.mark.parametrize(
        "sample",
        [
            lambda: sample_bd_field("a2", 21),
            lambda: sample_bd_field("a3", 21),
            lambda: sample_channel_field("BF", 0.05, 21),
            lambda: sample_channel_field("BPF", 0.6, 21),
        ],
        ids=["bd-a2", "bd-a3", "BF", "BPF"],
    )
    def test_unsplit_fields_take_the_per_point_route(self, sample, kernel_points):
        # a2 and a3 take one root of each pair in each product; BF and BPF
        # scale c1 and c2 differently, so c1 + c2 takes up to n^2 values
        sample()
        assert kernel_points["points"] == 21**3


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

    def test_names_tell_close_values_apart(self):
        assert sample_xz_field(0.1, 0.3, "sum", 5).name == "xz-sum_r0.1_s0.3"
        assert sample_xz_field(0.1, 0.3000001, "sum", 5).name == "xz-sum_r0.1_s0.3000001"
        assert sample_channel_field("GAD", 1.0, 5).name == "channel-GAD_p1"
        assert sample_channel_field("GAD", 0.6000001, 5).name == "channel-GAD_p0.6000001"

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

    @pytest.mark.parametrize("case", ["above", "at", "all-nan"])
    def test_empty_mesh_equals_the_slab_walk(self, bd_a1, case):
        # At or above the maximum no slab is walked; the same values with the
        # recorded maximum raised to inf walk every slab.
        if case == "all-nan":
            field, level = ScalarField3D(axis=bd_a1.axis, values=np.full(bd_a1.values.shape, np.nan)), 0.1
        else:
            field, level = bd_a1, 0.6 if case == "above" else bd_a1.maximum
        walked = ScalarField3D(axis=field.axis, values=field.values)
        object.__setattr__(walked, "maximum", np.inf)
        got, want = extract_isosurface(field, level), extract_isosurface(walked, level)
        for a, b in ((got.vertices, want.vertices), (got.triangles, want.triangles)):
            assert a.shape == b.shape == (0, 3)
            assert a.dtype == b.dtype
        assert got.axis is field.axis and want.axis is field.axis
        assert got.level == want.level == level

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

    def test_mesh_carries_the_field_axis(self, bd_a1):
        # The writers take the axis values' text from it, empty mesh or not.
        for level in (0.2, 0.6):
            assert extract_isosurface(bd_a1, level).axis is bd_a1.axis

    def test_vertices_stay_inside_sampled_box(self, bd_a1):
        for level in (0.0, 0.05, 0.2):
            mesh = extract_isosurface(bd_a1, level)
            assert np.abs(mesh.vertices).max() <= 1.0 + 1e-12


class TestChannelSurfaces:
    def test_p_zero_reduces_to_plain_field(self, bd_a1):
        plain = extract_isosurface(bd_a1, 0.2)
        via_channel = extract_isosurface(sample_channel_field("BF", 0.0, RES), 0.2)
        assert np.array_equal(plain.vertices, via_channel.vertices)
        assert np.array_equal(plain.triangles, via_channel.triangles)

    def test_channel_field_extends_beyond_tetrahedron(self):
        # the map contracts, so unphysical inputs can land on physical outputs
        plain = sample_bd_field("a1", RES)
        moved = sample_channel_field("PF", 0.3, RES)
        assert moved.physical_fraction() > plain.physical_fraction()

    def test_split_structure(self):
        mesh = extract_isosurface(sample_channel_field("BF", 0.05, 61), 0.4)
        assert mesh_component_count(mesh) > 1
        mesh = extract_isosurface(sample_channel_field("GAD", 0.05, 61), 0.4)
        assert mesh_component_count(mesh) >= 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel"):
            sample_channel_field("AD", 0.1, RES)

    def test_p_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            sample_channel_field("BF", 1.5, RES)


def grid_curve(tmp_path, family: str, points: int) -> Curve1D:
    """The closed-form curve of a family on ``points`` evenly spaced values,
    checked to be the one that ``coherence --grid`` writes, byte for byte."""
    xs = np.linspace(0, 1, points)
    if family == "werner":
        curve = Curve1D(parameter="p", xs=xs, values=werner_coherence(xs))
    else:
        curve = Curve1D(parameter="F", xs=xs, values=isotropic_coherence(xs))
    assert cli.main(["coherence", "--family", family, "--grid", str(points), "--out", str(tmp_path)]) == 0
    written = (tmp_path / f"curve_{family}.csv").read_bytes()
    assert written == write_curve_csv(curve, tmp_path / "expected.csv").read_bytes()
    return curve


class TestCurves:
    def test_werner_endpoints_and_monotonicity(self, tmp_path):
        curve = grid_curve(tmp_path, "werner", 101)
        assert curve.values[0] == pytest.approx(0.5, abs=1e-15)
        assert curve.values[-1] == pytest.approx((5 - np.sqrt(21)) / 16, abs=1e-15)
        assert np.diff(curve.values).max() <= 1e-10

    def test_isotropic_shape(self, tmp_path):
        curve = grid_curve(tmp_path, "isotropic", 101)
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
        xs = np.linspace(0, 1, 5)
        curve = Curve1D(parameter="p", xs=xs, values=werner_coherence(xs))
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

    @pytest.mark.parametrize("triangles", [[[0, 1, 2.7]], np.array([[0.0, 1.0, 2.0]]), []])
    def test_float_triangle_indices_rejected(self, triangles):
        # a float index would be truncated, 2.7 to 2, without a word
        with pytest.raises(ValueError, match="must be integers"):
            IsoSurfaceMesh(vertices=np.zeros((3, 3)), triangles=triangles, level=0.1)

    @pytest.mark.parametrize("axis", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0], [1.0, 0.0], [0.0, 0.0]])
    def test_axis_must_be_finite_and_increasing(self, axis):
        # write_field_csv would write nan and inf rows, and extraction
        # assumes an increasing axis
        with pytest.raises(ValueError, match="field axis must be finite and strictly increasing"):
            ScalarField3D(axis=axis, values=np.full((2, 2, 2), 0.25), name="bad")
        with pytest.raises(ValueError, match="curve parameter must be finite and strictly increasing"):
            Curve1D(parameter="p", xs=axis, values=[0.0, 0.0])
        with pytest.raises(ValueError, match="mesh axis must be finite and strictly increasing"):
            IsoSurfaceMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=int), level=0.1, axis=axis)

    def test_field_cap_enforced(self):
        axis = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match=r"outside \[0, 1.500000001\]: \[2.0, 2.0\]"):
            ScalarField3D(axis=axis, values=np.full((3, 3, 3), 2.0), name="bad")
        values = np.full((3, 3, 3), 0.5)
        values[0, 2, 1] = -1e-3
        with pytest.raises(ValueError, match=r"outside \[0, 1.500000001\]: \[-0.001, 0.5\]"):
            ScalarField3D(axis=axis, values=values, name="bad")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_values_rejected(self, bad):
        # NaN is the only non-physical marker; extraction would count +inf
        # as above every level
        for background in (np.nan, 0.5, bad):
            values = np.full((3, 3, 3), background)
            values[1, 1, 1] = bad
            with pytest.raises(ValueError, match="outside"):
                ScalarField3D(axis=np.linspace(-1, 1, 3), values=values, name="bad")

    @pytest.mark.parametrize("resolution", [3, 0])
    def test_all_nan_field_accepted(self, resolution):
        # A field with no physical point (or no point at all) is valid; it
        # extracts to an empty mesh
        values = np.full((resolution,) * 3, np.nan)
        field = ScalarField3D(axis=np.linspace(-1, 1, resolution), values=values, name="empty")
        assert field.axis.size == resolution
        assert np.isnan(field.maximum)
