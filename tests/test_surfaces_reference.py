"""The array-native surface pipeline against its loop references.

The figure files must stay byte for byte what the per-edge marching-cubes
loop and the per-line writers produced; the hashes in
``figure_hashes_res41.json`` were recorded from that code.  The loop
implementations are kept here, verbatim, as the references the array code
is compared with, together with the ``np.unique``-based vertex numbering
that the sort-free numbering replaced, the whole-grid extraction that the
slab-by-slab extraction replaced, and the per-row ``%`` writers that the
array writers replaced.
"""

import ast
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

from skewcoh import cli, surfaces
from skewcoh._mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_CORNERS, EDGE_OFFSET, TRI_COUNT, TRI_TABLE
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


def whole_grid_extract_isosurface(field: ScalarField3D, level: float) -> IsoSurfaceMesh:
    """The extraction that cut the whole grid at once, before it walked
    slabs of cell rows: marching-cubes triangulation of {field == level}.

    A grid corner counts as below-level when its value is <= level or when
    it is non-physical; the latter clips mixed cells against the physical
    boundary.  Levels above the field maximum give an empty mesh, which is
    a valid result; a negative or non-finite level is rejected.
    """
    if not (np.isfinite(level) and level >= 0):
        raise ValueError(f"level must be finite and >= 0, got {level}")
    values = field.values
    axis = field.axis
    n = axis.size
    below = ~(values > level)  # NaN compares false: non-physical is below

    # Corner configuration of every cell, bit i for CORNER_OFFSETS[i]: the
    # z pairs first (bits 0-3 at z, 4-7 at z + 1), then the four (x, y).
    # It is computed in contiguous passes over the flat grid, at the flat
    # index of the cell's lowest corner; the corners with no cell there (y
    # or z last) are zeroed.  Bits are placed by multiplying: numpy's uint8
    # products are vectorized, its shifts are not.
    b = below.view(np.uint8).ravel()
    z = b[1:] * 16
    z |= b[:-1]
    cfg = np.zeros(values.shape, dtype=np.uint8)
    last = max(n**3 - n * n - n - 1, 0)  # one past the lowest corner of the last cell
    head = cfg.reshape(-1)[:last]
    np.multiply(z[n * n : n * n + last], 2, out=head)
    head |= z[:last]
    head |= z[n * n + n : n * n + n + last] * 4
    head |= z[n : n + last] * 8
    del z
    cfg[:, n - 1 :] = 0
    cfg[:, :, n - 1 :] = 0
    corner = np.flatnonzero(cfg + np.uint8(1) > 1)  # configs 0 and 255 wrap to 1 and 0
    if not len(corner):
        empty = np.zeros((0, 3))
        return IsoSurfaceMesh(vertices=empty, triangles=empty.astype(int), level=float(level), axis=axis)
    configs = cfg.ravel()[corner]
    del cfg

    # Key every crossed edge, in cell order and then triangle order, by its
    # axis and the flat grid index of its anchor corner: key = axis*n^3 + index.
    strides = np.array([n * n, n, 1])
    edge_key = EDGE_AXIS * n**3 + EDGE_OFFSET @ strides
    rows = np.take(TRI_TABLE, configs, axis=0)  # 10x faster than fancy indexing here
    keys = np.repeat(corner, TRI_COUNT[configs]) + edge_key[rows[rows >= 0]]
    del configs, corner, rows

    # The distinct keys are the grid edges whose ends differ in ``below``
    # (each cell's table row uses exactly those of its edges), listed in key
    # order by one flatnonzero over the axis-major mask, whose three planes
    # are written contiguously; a slot table maps each key to its edge.  The
    # grid-sized masks are freed first, so the table's 12 B per grid point
    # and the per-key arrays set the peak memory.  (A binary search of
    # ``edges`` needs no table but made extraction about 1.5x slower.)
    cut = np.zeros((3, n, n, n), dtype=bool)
    np.not_equal(below[1:], below[:-1], out=cut[0, :-1])
    np.not_equal(below[:, 1:], below[:, :-1], out=cut[1, :, :-1])
    np.not_equal(below[:, :, 1:], below[:, :, :-1], out=cut[2, :, :, :-1])
    del b, below
    edges = np.flatnonzero(cut)
    del cut
    slot = np.empty(3 * n**3, dtype=np.int32)
    slot[edges] = np.arange(len(edges), dtype=np.int32)
    ids = slot[keys]
    del slot

    # Vertices are numbered in order of first use: the edges at their
    # first-use positions, in position order.
    first = np.full(len(edges), len(keys))
    np.minimum.at(first, ids, np.arange(len(keys)))
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    order = ids[is_first]
    rank = np.empty(len(edges), dtype=np.intp)
    rank[order] = np.arange(len(edges))
    tris = rank[ids].reshape(-1, 3)

    # Interpolation values: non-physical corners act as strictly below level.
    ax, flat = np.divmod(edges[order], n**3)
    ends = values.ravel()[np.stack((flat, flat + strides[ax]))]
    ends[np.isnan(ends)] = level - 1.0
    v0, v1 = ends
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(v1 == v0, 0.5, np.minimum(np.maximum((level - v0) / (v1 - v0), 0.0), 1.0))
    grid = np.stack(np.unravel_index(flat, values.shape), axis=1)
    verts = axis[grid]
    # The coordinate along each vertex's edge, by flat index into the rows.
    along = 3 * np.arange(len(verts)) + ax
    lo = verts.ravel()[along]
    verts.ravel()[along] = lo + t * (axis[grid.ravel()[along] + 1] - lo)
    return IsoSurfaceMesh(vertices=verts, triangles=tris, level=float(level), axis=axis)


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


def figure_pins() -> dict:
    """The figure workload's entry of ``MUST_EQUAL`` in ``benchmark/workloads.py``,
    parsed, not imported: the structural counts a traced figure run must read."""
    for node in ast.parse((ROOT / "benchmark" / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MUST_EQUAL" for t in node.targets):
            return next(ast.literal_eval(v) for k, v in zip(node.value.keys, node.value.values) if k.value == "figure")
    raise LookupError("workloads.py assigns no MUST_EQUAL")


def spy(monkeypatch, module, name, record):
    """Replace ``module.name`` by a wrapper that passes each call and its result to ``record``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(name, args, kwargs, result)
        return result

    monkeypatch.setattr(module, name, wrapper)


def test_figure_files_match_recorded_hashes(tmp_path, monkeypatch, capsys):
    # The script's structure is pinned by the benchmark: count what its
    # traced run counts, through the names the tracer wraps.
    mains, samples, writes, points = [], set(), [], []
    spy(monkeypatch, cli, "main", lambda *call: mains.append(call))
    for name in ("sample_bd_field", "sample_xz_field", "sample_channel_field"):
        spy(monkeypatch, surfaces, name, lambda name, args, kwargs, _: samples.add((name, args, tuple(kwargs.items()))))
    for name in ("write_obj", "write_ply", "write_field_csv", "write_curve_csv"):
        spy(monkeypatch, surfaces, name, lambda *call: writes.append(call))
    for name in ("bd_coherence_values", "xz_coherence_values"):
        spy(monkeypatch, surfaces, name, lambda *call: points.append(np.size(call[-1])))
    spec = importlib.util.spec_from_file_location("make_figure_data", ROOT / "scripts" / "make_figure_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["make_figure_data.py", "--resolution", "41", "--out", str(tmp_path)])
    script.main()
    capsys.readouterr()
    written = {p.relative_to(tmp_path).as_posix(): sha256(p) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == FIGURE_HASHES
    pins = figure_pins()
    assert len(mains) == pins["cli.main.calls"]
    assert len(samples) == pins["surfaces.sample.distinct"]
    assert len(writes) == pins["surfaces.write.files"]
    # every sampled point goes through the public field kernels
    assert sum(points) == pins["surfaces.sample.distinct"] * 41**3 > 0


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


def centre_ball(x, y, z):
    return np.clip(0.5 - (x**2 + y**2 + z**2), 0.0, 1.0)


def wells_apart(x, y, z):
    return np.clip(0.5 - (np.minimum((x - 0.8) ** 2, (x + 0.8) ** 2) + y**2 + z**2), 0.0, 1.0)


def all_nan(resolution):
    return ScalarField3D(axis=np.linspace(-1.0, 1.0, resolution), values=np.full((resolution,) * 3, np.nan))


# Each case is a field maker and its levels.  At 101^3 the default slabs
# cover x in [-1, -0.5], [-0.5, 0], [0, 0.5] and [0.5, 1]: the ball of
# radius 0.3 (level 0.41) leaves the first and the last slab empty, and the
# wells of radius 0.14 at x = +-0.8 (level 0.48) leave the middle two empty.
SLAB_CASES = {
    "bd-a1": (lambda n: sample_bd_field("a1", n), (0.05, 0.2)),
    "bd-sum": (lambda n: sample_bd_field("sum", n), (0.05, 0.2, 1.0)),
    "centre-ball": (lambda n: synthetic_field(centre_ball, n), (0.41,)),
    "wells-apart": (lambda n: synthetic_field(wells_apart, n), (0.48,)),
    "all-nan": (all_nan, (0.1,)),
    "above-maximum": (lambda n: sample_bd_field("a1", n), (1.0,)),
}


@pytest.mark.parametrize("resolution", [2, 3, 4, 41, 101])
@pytest.mark.parametrize("case", list(SLAB_CASES))
def test_slab_extraction_matches_whole_grid(case, resolution, monkeypatch):
    make_field, levels = SLAB_CASES[case]
    field = make_field(resolution)
    default = surfaces._EXTRACT_SLAB_POINTS
    for level in levels:
        whole = whole_grid_extract_isosurface(field, level)
        if resolution >= 41:
            assert whole.is_empty == (case in ("all-nan", "above-maximum"))
        x = np.abs(whole.vertices[:, 0])
        if case == "centre-ball":
            assert (x < 0.5).all()
        elif case == "wells-apart":
            assert (x > 0.5).all()
        # Slabs of 1, 2 and 3 cell rows, and the default.
        for points in (resolution**2, 2 * resolution**2, 3 * resolution**2, default):
            monkeypatch.setattr(surfaces, "_EXTRACT_SLAB_POINTS", points)
            mesh = extract_isosurface(field, level)
            assert mesh.vertices.tobytes() == whole.vertices.tobytes(), (level, points)
            assert mesh.triangles.dtype == whole.triangles.dtype
            assert np.array_equal(mesh.triangles, whole.triangles), (level, points)
            assert mesh.axis is field.axis


@pytest.mark.parametrize("resolution, budget_mib", [(101, 13), (201, 60)])
def test_slab_extraction_peak_memory(resolution, budget_mib):
    # Cutting the whole grid at once peaked at 20.3 MiB at 101^3 and at
    # 123.3 MiB at 201^3, its 12 B per point slot table the largest part;
    # slabs of about 2^18 grid points hold one slab's masks and slot table
    # beside the mesh arrays, 11.4 and 34.8 MiB.
    field = sample_bd_field("a1", resolution)
    tracemalloc.start()
    try:
        extract_isosurface(field, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget_mib * 2**20


def test_extraction_peak_memory():
    # The sorted numbering and full-grid float copies of the field peaked
    # near 40 MB at 101^3; the sort-free numbering, cutting slabs of cell
    # rows, peaks near 12 MB: the mesh arrays and one slab's slot table.
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
