"""The array-native surface pipeline against its loop references.

The figure files must stay byte for byte what the per-edge marching-cubes
loop and the per-line writers produced; the hashes in
``figure_hashes_res41.json`` were recorded from that code.  The loop
implementations are kept here, verbatim, as the references the array code
is compared with, together with the ``np.unique``-based vertex numbering
that the sort-free numbering replaced and the per-row ``%`` writers that
the array writers replaced.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcoh import cli
from skewcoh._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_CORNERS, EDGE_OFFSET, TRI_TABLE
from skewcoh.surfaces import (
    _CHUNK_ROWS,
    Curve1D,
    IsoSurfaceMesh,
    ScalarField3D,
    _fixed_text,
    _float_text,
    _write,
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

ROOT = Path(__file__).resolve().parents[1]
FIGURE_HASHES = json.loads((Path(__file__).with_name("figure_hashes_res41.json")).read_text())

# sha256 of `surface --field xz-a1 --r 0.1 --s 0.1 --level 0.1 --resolution 21
# --format ply --field-csv`, recorded from the loop extraction and the
# per-line writers below.
PLY_AND_FIELD_HASHES = {
    "surface_xz-a1_r0.1_s0.1_level0.1.ply": "bb2480632b10af665756b33a3d1c08b39cdcbfd2312ebbdb9a19bacd4a8b9110",
    "field_xz-a1_r0.1_s0.1.csv": "eed56827ae5c6d39b8b1ef98c5a6c69e9e35509f0505d49bf0c738bca3faca53",
}

_EDGE_KEYS = []
for _a, _b in EDGE_CORNERS:
    _oa, _ob = CORNER_OFFSETS[_a], CORNER_OFFSETS[_b]
    _axis = next(i for i in range(3) if _oa[i] != _ob[i])
    _lo = _oa if _oa[_axis] < _ob[_axis] else _ob
    _EDGE_KEYS.append((_lo, _axis))
_EDGE_KEYS = tuple(_EDGE_KEYS)


def reference_extract_isosurface(field: ScalarField3D, level: float) -> IsoSurfaceMesh:
    """The per-edge marching-cubes loop the array code replaced."""
    vals = field.values
    axis = field.axis
    finite = np.isfinite(vals)
    below = ~finite | (np.where(finite, vals, 0.0) <= level)

    b = below.astype(np.uint16)
    cfg = (
        b[:-1, :-1, :-1]
        | (b[1:, :-1, :-1] << 1)
        | (b[1:, 1:, :-1] << 2)
        | (b[:-1, 1:, :-1] << 3)
        | (b[:-1, :-1, 1:] << 4)
        | (b[1:, :-1, 1:] << 5)
        | (b[1:, 1:, 1:] << 6)
        | (b[:-1, 1:, 1:] << 7)
    )
    active = np.argwhere((cfg != 0) & (cfg != 255))

    interp = np.where(finite, vals, level - 1.0)

    vertex_ids = {}
    vertices = []
    triangles = []

    def edge_vertex(ci, cj, ck, edge):
        (ox, oy, oz), ax = _EDGE_KEYS[edge]
        gx, gy, gz = ci + ox, cj + oy, ck + oz
        key = (gx, gy, gz, ax)
        vid = vertex_ids.get(key)
        if vid is not None:
            return vid
        step = [0, 0, 0]
        step[ax] = 1
        v0 = interp[gx, gy, gz]
        v1 = interp[gx + step[0], gy + step[1], gz + step[2]]
        if v1 == v0:
            t = 0.5
        else:
            t = min(max((level - v0) / (v1 - v0), 0.0), 1.0)
        pos = [axis[gx], axis[gy], axis[gz]]
        lo = pos[ax]
        hi = axis[(gx, gy, gz)[ax] + 1]
        pos[ax] = lo + t * (hi - lo)
        vid = len(vertices)
        vertex_ids[key] = vid
        vertices.append((pos[0], pos[1], pos[2]))
        return vid

    for ci, cj, ck in active:
        c = int(cfg[ci, cj, ck])
        tri_row = TRI_TABLE[c]
        m = 0
        while tri_row[m] != -1:
            ids = (
                edge_vertex(ci, cj, ck, tri_row[m]),
                edge_vertex(ci, cj, ck, tri_row[m + 1]),
                edge_vertex(ci, cj, ck, tri_row[m + 2]),
            )
            triangles.append(ids)
            m += 3

    verts = np.array(vertices, dtype=float).reshape(-1, 3)
    tris = np.array(triangles, dtype=int).reshape(-1, 3)
    return IsoSurfaceMesh(vertices=verts, triangles=tris, level=float(level))


def unique_numbering_extract_isosurface(field: ScalarField3D, level: float) -> IsoSurfaceMesh:
    """The array extraction that numbered vertices by sorting the edge keys."""
    vals = field.values
    axis = field.axis
    finite = np.isfinite(vals)
    below = ~finite | (np.where(finite, vals, 0.0) <= level)

    b = below.astype(np.uint16)
    cfg = (
        b[:-1, :-1, :-1]
        | (b[1:, :-1, :-1] << 1)
        | (b[1:, 1:, :-1] << 2)
        | (b[:-1, 1:, :-1] << 3)
        | (b[:-1, :-1, 1:] << 4)
        | (b[1:, :-1, 1:] << 5)
        | (b[1:, 1:, 1:] << 6)
        | (b[:-1, 1:, 1:] << 7)
    )
    ci, cj, ck = np.nonzero((cfg != 0) & (cfg != 255))
    configs = cfg[ci, cj, ck]

    n = axis.size
    strides = np.array([n * n, n, 1])
    edge_key = (EDGE_OFFSET @ strides) * 3 + EDGE_AXIS
    rows = TRI_TABLE[configs]
    crossed = rows != -1
    keys = np.repeat(((ci * n + cj) * n + ck) * 3, crossed.sum(axis=1)) + edge_key[rows[crossed]]

    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    tris = np.argsort(order)[inverse].reshape(-1, 3)

    interp = np.where(finite, vals, level - 1.0).ravel()
    flat, ax = np.divmod(unique[order], 3)
    v0 = interp[flat]
    v1 = interp[flat + strides[ax]]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(v1 == v0, 0.5, np.minimum(np.maximum((level - v0) / (v1 - v0), 0.0), 1.0))
    grid = np.stack(np.unravel_index(flat, vals.shape), axis=1)
    verts = axis[grid]
    along = np.arange(len(verts)), ax
    lo = verts[along]
    verts[along] = lo + t * (axis[grid[along] + 1] - lo)
    return IsoSurfaceMesh(vertices=verts, triangles=tris, level=float(level))


def reference_component_count(mesh: IsoSurfaceMesh) -> int:
    """The vertex-sharing union-find the label propagation replaced."""
    n = len(mesh.vertices)
    if n == 0 or len(mesh.triangles) == 0:
        return 0
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    used = set()
    for a, b, c in mesh.triangles:
        used.update((int(a), int(b), int(c)))
        ra, rb, rc = find(int(a)), find(int(b)), find(int(c))
        parent[rb] = ra
        parent[find(rc)] = find(ra)
    return len({find(v) for v in used})


def synthetic_field(fn, resolution):
    axis = np.linspace(-1.0, 1.0, resolution)
    x, y, z = np.meshgrid(axis, axis, axis, indexing="ij")
    return ScalarField3D(axis=axis, values=fn(x, y, z), name="synthetic")


def clipped_sphere(x, y, z):
    return np.where(x > 0.5, np.nan, (x**2 + y**2 + z**2) / 3.0)


def two_wells(x, y, z):
    d1 = (x - 0.5) ** 2 + y**2 + z**2
    d2 = (x + 0.5) ** 2 + y**2 + z**2
    return np.minimum(1.0, 0.5 - np.minimum(d1, d2) / 2.0).clip(0.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_figure_files_match_recorded_hashes(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_figure_data", ROOT / "scripts" / "make_figure_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--resolution", "41", "--out", str(tmp_path)])
    script.main()
    capsys.readouterr()
    written = {p.relative_to(tmp_path).as_posix(): sha256(p) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == FIGURE_HASHES


def test_ply_and_field_csv_match_recorded_hashes(tmp_path, capsys):
    code = cli.main([
        "surface", "--field", "xz-a1", "--r", "0.1", "--s", "0.1", "--level", "0.1",
        "--resolution", "21", "--format", "ply", "--field-csv", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert {name: sha256(tmp_path / name) for name in PLY_AND_FIELD_HASHES} == PLY_AND_FIELD_HASHES


@pytest.mark.parametrize(
    "make_field, level",
    [
        (lambda: sample_bd_field("a1", 31), 0.05),
        (lambda: sample_bd_field("sum", 31), 0.2),
        (lambda: sample_xz_field(0.3, 0.3, "sum", 31), 0.1),
        (lambda: sample_channel_field("GAD", 0.05, 31), 0.4),
        (lambda: synthetic_field(clipped_sphere, 31), 0.2),
        (lambda: sample_bd_field("a1", 31), 0.6),
    ],
    ids=["bd-a1", "bd-sum", "xz-sum", "channel-GAD", "nan-clipped-sphere", "above-maximum"],
)
def test_extract_isosurface_matches_loop(make_field, level):
    field = make_field()
    mesh = extract_isosurface(field, level)
    ref = reference_extract_isosurface(field, level)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert mesh.is_empty == (level == 0.6)


def test_table_rows_use_exactly_the_edges_whose_corners_differ():
    # The sort-free numbering lists the distinct edge keys as the grid
    # edges whose two corners differ in below-level, so every crossed edge
    # of a cell must appear in its table row and no other edge may.
    for config in range(256):
        below = [(config >> corner) & 1 for corner in range(8)]
        crossed = {e for e, (a, b) in enumerate(EDGE_CORNERS) if below[a] != below[b]}
        row = TRI_TABLE[config]
        assert set(row[row >= 0].tolist()) == crossed, config


def random_field(seed, resolution=17):
    """Values on a coarse lattice of eighths, so many grid values tie with
    each other and with the level, and about a fifth NaN holes."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 13, size=(resolution,) * 3) / 8.0
    values[rng.random(values.shape) < 0.2] = np.nan
    return ScalarField3D(axis=np.linspace(-1.0, 1.0, resolution), values=values, name="random")


@pytest.mark.parametrize("seed", range(6))
def test_sort_free_numbering_matches_unique_oracle(seed):
    field = random_field(seed)
    # levels on grid values (ties), between them, and at the minimum and the maximum
    for level in (0.0, 0.375, 0.5, 0.8, 1.25, 1.5):
        mesh = extract_isosurface(field, level)
        oracle = unique_numbering_extract_isosurface(field, level)
        assert mesh.vertices.tobytes() == oracle.vertices.tobytes()
        assert np.array_equal(mesh.triangles, oracle.triangles)
        assert mesh.is_empty == (level == 1.5)


def test_extraction_peak_memory():
    # The sorted numbering and full-grid float copies of the field peaked
    # near 40 MB at 101^3; the sort-free numbering peaks near 21 MB, most
    # of it the 12 MB int32 slot table.
    for field, level in ((sample_bd_field("a1", 101), 0.05), (sample_bd_field("sum", 101), 0.2)):
        tracemalloc.start()
        try:
            extract_isosurface(field, level)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * 101**3


@pytest.mark.parametrize(
    "make_mesh, count",
    [
        (lambda: extract_isosurface(synthetic_field(two_wells, 41), 0.45), 2),
        (lambda: extract_isosurface(sample_channel_field("BF", 0.05), 0.4), 6),
        (lambda: extract_isosurface(sample_channel_field("PF", 0.05), 0.4), 4),
        (lambda: extract_isosurface(sample_channel_field("BPF", 0.05), 0.4), 6),
        (lambda: extract_isosurface(sample_channel_field("GAD", 0.05), 0.4), 12),
    ],
    ids=["two-spheres", "BF", "PF", "BPF", "GAD"],
)
def test_component_count_matches_union_find(make_mesh, count):
    mesh = make_mesh()
    assert mesh_component_count(mesh) == reference_component_count(mesh) == count


def test_component_count_of_empty_mesh():
    empty = IsoSurfaceMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=int), level=0.1)
    assert mesh_component_count(empty) == reference_component_count(empty) == 0


def reference_write(path, header, *sections):
    """The per-row ``%`` writer the array writers replaced."""
    path = Path(path)
    with path.open("w", encoding="ascii") as out:
        out.write(header)
        for template, table in sections:
            for start in range(0, len(table), _CHUNK_ROWS):
                rows = table[start : start + _CHUNK_ROWS]
                out.write((template * len(rows)) % tuple(rows.ravel().tolist()))
    return path


def reference_write_obj(mesh, path):
    return reference_write(path, "", ("v %.9g %.9g %.9g\n", mesh.vertices), ("f %d %d %d\n", mesh.triangles + 1))


def reference_write_ply(mesh, path):
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        f"element face {len(mesh.triangles)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    return reference_write(path, header, ("%.9g %.9g %.9g\n", mesh.vertices), ("3 %d %d %d\n", mesh.triangles))


def reference_write_field_csv(field, path):
    points = np.nonzero(np.isfinite(field.values))
    table = np.stack([field.axis[i] for i in points] + [field.values[points]], axis=1)
    return reference_write(path, "c1,c2,c3,value\n", ("%.9g,%.9g,%.9g,%.9g\n", table))


def reference_write_curve_csv(curve, path):
    table = np.stack((curve.xs, curve.values), axis=1)
    return reference_write(path, f"{curve.parameter},C\n", ("%.12g,%.12g\n", table))


def assert_same_bytes(tmp_path, write, reference, *args, **kwargs):
    new, old = tmp_path / "new", tmp_path / "old"
    assert write(*args, new, **kwargs) == new
    reference(*args, old, **kwargs)
    assert new.read_bytes() == old.read_bytes()


# Signed zeros, the fixed/exponent switch of %g at 1e-4 and at the
# precision, subnormals, values that round up a digit or into the next
# decade, ties of the decimal expansion, and non-finite values.
SPECIAL_FLOATS = np.array([
    0.0, -0.0, 1e-5, -1e-5, 1e-4, 9.99999999e-5, 9.999999995e-5, 2.2e-16, 2.220446049250313e-16,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308, 0.99999999996,
    -0.99999999996, 0.999999999949, 9.9999999995, 99999999.95, 999999999.5, 999999999.4, 1e9,
    123456789.5, 1234567895.0, 0.5, 1.5, 0.1, 1 / 3, -2 / 3, np.pi * 1e9, 1e16, 1e100, -1e-100,
    2.0**-30, 0.125, 1e21, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
])


def random_floats(rng, n):
    """Signed values over many decades, with about a third repeated."""
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    repeats = rng.random(n) < 0.3
    values[repeats] = rng.choice(values, repeats.sum())
    return values


def test_mesh_writers_match_per_row_formatting_on_special_floats(tmp_path):
    vertices = np.resize(SPECIAL_FLOATS, (len(SPECIAL_FLOATS), 3))
    vertices[:, 1] = SPECIAL_FLOATS[::-1]
    triangles = np.arange(3 * len(vertices)).reshape(-1, 3) % len(vertices)
    mesh = IsoSurfaceMesh(vertices=vertices, triangles=triangles, level=0.1)
    assert_same_bytes(tmp_path, write_obj, reference_write_obj, mesh)
    assert_same_bytes(tmp_path, write_ply, reference_write_ply, mesh)


@pytest.mark.parametrize("digits", [9, 12, 17])
def test_curve_csv_matches_per_row_formatting(tmp_path, digits):
    # Curves are written at 12 digits; the writer core is checked at 9 and
    # at 17, where _fixed_text certifies nothing and every value takes %.
    finite = SPECIAL_FLOATS[np.isfinite(SPECIAL_FLOATS)]
    xs = np.unique(np.concatenate((finite, random_floats(np.random.default_rng(digits), 500))))
    values = np.resize(np.concatenate((SPECIAL_FLOATS, -finite)), xs.shape)
    table = np.stack((xs, values), axis=1)
    spec = f"%.{digits}g"
    assert_same_bytes(
        tmp_path,
        lambda path: _write(path, "p,C\n", ("", spec, ",", table)),
        lambda path: reference_write(path, "p,C\n", (f"{spec},{spec}\n", table)),
    )
    if digits == 12:
        for parameter in ("p", "F"):
            curve = Curve1D(parameter=parameter, xs=xs, values=values)
            assert_same_bytes(tmp_path, write_curve_csv, reference_write_curve_csv, curve)


@pytest.mark.parametrize("seed", range(3))
def test_field_csv_matches_per_row_formatting(tmp_path, seed):
    rng = np.random.default_rng(seed)
    field = random_field(seed)
    # Values anywhere in the field's range, some tiny or exactly 0.
    values = np.where(np.isnan(field.values), np.nan, rng.random(field.values.shape) * 1.5)
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.1] = 1e-7
    # An axis is strictly increasing: distinct draws besides the special values.
    others = np.setdiff1d(random_floats(rng, 2 * field.axis.size), [1e-5, 2.2e-16])
    axis = np.sort(np.concatenate(([-0.0, 1e-5, 2.2e-16], rng.choice(others, field.axis.size - 3, replace=False))))
    field = ScalarField3D(axis=axis, values=values, name="random")
    assert_same_bytes(tmp_path, write_field_csv, reference_write_field_csv, field)


@pytest.mark.parametrize("kind", ["uniform", "non-uniform", "none"])
def test_writers_match_per_row_formatting_around_grid_axis_values(tmp_path, kind):
    # Axis values take the axis's text; values one ulp either side of them,
    # and -0.0 beside the axis's 0.0 (odd n), must not.
    grid = np.linspace(-1.0, 1.0, 21)
    axis = {"uniform": grid, "non-uniform": grid**3, "none": None}[kind]
    near = grid if axis is None else axis
    rng = np.random.default_rng(21)
    pool = np.concatenate((near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), [-0.0], SPECIAL_FLOATS))
    rows = _CHUNK_ROWS + 100
    vertices = rng.choice(np.concatenate((pool, rng.uniform(-1.0, 1.0, len(pool)))), size=(rows, 3))
    # Indices of every digit count in the first chunk of faces; all of five
    # digits, so no NUL to drop, in the second.
    triangles = np.concatenate((rng.integers(0, rows, (_CHUNK_ROWS, 3)), rng.integers(10_000, rows, (100, 3))))
    mesh = IsoSurfaceMesh(vertices=vertices, triangles=triangles, level=0.1, axis=axis)
    assert_same_bytes(tmp_path, write_obj, reference_write_obj, mesh)
    assert_same_bytes(tmp_path, write_ply, reference_write_ply, mesh)
    if axis is not None:
        values = rng.choice(pool[(pool >= 0.0) & (pool <= 1.5)], size=(21, 21, 21))
        values[rng.random(values.shape) < 0.2] = np.nan
        field = ScalarField3D(axis=axis, values=values, name="grid")
        assert_same_bytes(tmp_path, write_field_csv, reference_write_field_csv, field)


def test_negative_zero_beside_a_grid_zero_prints_as_minus_zero(tmp_path):
    axis = np.linspace(-1.0, 1.0, 21)
    mesh = IsoSurfaceMesh(vertices=[[-0.0, 0.0, -0.0]], triangles=np.zeros((0, 3), dtype=int), level=0.1, axis=axis)
    assert write_obj(mesh, tmp_path / "m.obj").read_bytes() == b"v -0 0 -0\n"


@pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_mesh_writers_match_per_row_formatting_at_chunk_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    vertices = random_floats(rng, 3 * rows).reshape(-1, 3)
    triangles = rng.integers(0, max(rows, 1), size=(rows, 3))
    mesh = IsoSurfaceMesh(vertices=vertices, triangles=triangles, level=0.1)
    assert_same_bytes(tmp_path, write_obj, reference_write_obj, mesh)
    assert_same_bytes(tmp_path, write_ply, reference_write_ply, mesh)


@pytest.mark.parametrize("seed", range(4))
def test_mesh_writers_match_per_row_formatting_on_random_meshes(tmp_path, seed):
    field = random_field(seed, resolution=25)
    for level in (0.0, 0.375, 0.8):
        mesh = extract_isosurface(field, level)
        assert_same_bytes(tmp_path, write_obj, reference_write_obj, mesh)
        assert_same_bytes(tmp_path, write_ply, reference_write_ply, mesh)


def test_integer_fields_match_per_row_formatting_at_digit_boundaries(tmp_path):
    # The leading-zero rule at every change of width, and a width past 32 bits.
    table = np.array([[0, 1, 9], [10, 99, 100], [999, 1000, 999999], [1000000, 2**31 - 1, 2**32], [12345678901, 7, 0]])
    for prefix, sep in (("f ", " "), ("", ","), ("3 ", " ")):
        new, old = tmp_path / "new", tmp_path / "old"
        _write(new, "h\n", (prefix, "%d", sep, table), (prefix, "%d", sep, table[:, :1] + 8))
        template = prefix + sep.join(["%d"] * 3) + "\n"
        reference_write(old, "h\n", (template, table), (prefix + "%d\n", table[:, :1] + 8))
        assert new.read_bytes() == old.read_bytes()


def float_strings(values, spec):
    """The text ``_float_text`` gives each value of a 1-d array, NULs dropped."""
    text = _float_text(np.asarray(values, dtype=float)[:, None], spec)[:, 0]
    return [bytes(row[row != 0]).decode("ascii") for row in text]


def assert_formats_like_percent(values, spec):
    values = np.asarray(values, dtype=float)
    assert float_strings(values, spec) == [spec % v for v in values.tolist()]


def exact_ties(rng, precision, count=100):
    """Odd multiples m 2^-(precision - e) in [10^e, 10^(e + 1)), e = -4..0:
    their decimal expansion ends in a 5 at significant digit precision + 1,
    so ``%.<precision>g`` rounds an exact tie."""
    ties = []
    for e in range(-4, 1):
        scale = 2.0 ** (precision - e)
        m = rng.integers(np.ceil(10.0**e * scale), 10.0 ** (e + 1) * scale - 1, count) | 1
        ties.append(m / scale)
    ties = np.concatenate(ties)
    for tie in ties[::50].tolist():
        digits = Decimal(tie).as_tuple().digits
        assert len(digits) == precision + 1 and digits[-1] == 5
    return ties


def decimal_ties(rng, precision, count=2000):
    """The doubles nearest to (D + 1/2) 10^-k for precision-digit D, in
    every fixed-notation decade, and both their neighbours."""
    digits = min(precision, 15)  # D stays exact in a double
    d = rng.integers(10 ** (digits - 1), 10**digits, count).astype(float)
    ties = (d + 0.5) / 10.0 ** (digits - 1 + rng.integers(0, 5, count))
    return np.concatenate((ties, np.nextafter(ties, 0.0), np.nextafter(ties, 10.0)))


PRECISIONS = ["%.9g", "%.12g", "%.17g"]


@pytest.mark.parametrize("spec", PRECISIONS)
def test_float_text_matches_percent_on_rounding_ties(spec):
    rng = np.random.default_rng(int(spec[2:-1]))
    precision = int(spec[2:-1])
    ties = exact_ties(rng, precision)
    for values in (ties, np.nextafter(ties, 0.0), np.nextafter(ties, 10.0), decimal_ties(rng, precision)):
        assert_formats_like_percent(np.concatenate((values, -values)), spec)


@pytest.mark.parametrize("spec", PRECISIONS)
def test_float_text_matches_percent_at_decade_edges(spec):
    edges = np.array([10.0**k for k in range(-5, 2)] + [float(f"1e{k}") for k in range(-5, 2)])
    values = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 100.0)])
    # Just under an edge, the rounded digits carry into the next decade.
    carries = np.array([float(f"{9.99999999999999:.15f}e{k}") for k in range(-6, 1)])
    assert_formats_like_percent(np.concatenate((values, carries, -values, -carries)), spec)


@pytest.mark.parametrize("spec", PRECISIONS)
def test_float_text_matches_percent_on_zeros_subnormals_and_non_finite_values(spec):
    assert_formats_like_percent(SPECIAL_FLOATS, spec)
    assert_formats_like_percent([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.5, -1.5], spec)
    assert_formats_like_percent([np.nan, -np.nan, np.inf, -np.inf, 1.0, np.nan], spec)


@given(st.lists(st.floats(), min_size=1, max_size=40), st.sampled_from(PRECISIONS))
def test_float_text_matches_percent_on_any_floats(values, spec):
    # Repeats and both zeros exercise the deduplication by bit pattern.
    assert_formats_like_percent(values + values[::-1] + [0.0, -0.0], spec)


def test_fixed_text_leaves_exponent_forms_ties_and_non_finite_values_to_percent():
    rng = np.random.default_rng(9)
    ties = exact_ties(rng, 9, count=10)
    _, certain = _fixed_text(np.concatenate((ties, [1e-5, 9.9e-5, 10.0, 1e9, 0.0, -0.0, np.inf, np.nan])), 9)
    assert not certain.any()
    _, certain = _fixed_text(np.array([1e-4, 0.5, 1.25, -0.123456789, 9.5]), 9)
    assert certain.all()
    _, certain = _fixed_text(np.array([0.5, 1.25]), 17)
    assert not certain.any()


@pytest.fixture(scope="module")
def largest_figure_meshes():
    """The largest bd and channel figure meshes at the benchmark's 101^3."""
    return {
        "bd-sum": extract_isosurface(sample_bd_field("sum", 101), 0.2),
        "channel-GAD": extract_isosurface(sample_channel_field("GAD", 0.6, 101), 0.05),
    }


@pytest.mark.parametrize("name", ["bd-sum", "channel-GAD"])
def test_largest_figure_meshes_match_per_row_formatting_at_101(tmp_path, largest_figure_meshes, name):
    assert_same_bytes(tmp_path, write_obj, reference_write_obj, largest_figure_meshes[name])


@pytest.mark.parametrize("name", ["bd-sum", "channel-GAD"])
def test_percent_formats_few_values_of_a_figure_chunk(largest_figure_meshes, name):
    chunk = largest_figure_meshes[name].vertices[:_CHUNK_ROWS]
    _, certain = _fixed_text(np.unique(chunk), 9)
    assert (~certain).sum() < 0.01 * certain.size


def test_writing_the_largest_figure_mesh_is_chunked():
    # bd-sum at level 0.2 is the largest figure mesh at 101^3: 78,306
    # vertices and 154,212 triangles, 5.6 MB of arrays.  Writing it one
    # chunk at a time, with the 1-based offset added per chunk, peaks at
    # 0.5 times that; a whole-mesh 1-based copy of the triangles peaked at
    # 1.2 times, and building the whole file at once at 3 times.
    mesh = extract_isosurface(sample_bd_field("sum", 101), 0.2)
    budget = 0.75 * (mesh.vertices.nbytes + mesh.triangles.nbytes)
    tracemalloc.start()
    try:
        write_obj(mesh, os.devnull)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget
