"""Coherence as a scalar field over state-parameter space, level-set
meshes, and one-dimensional parameter curves.

Fields are sampled on a regular grid over the correlation-coefficient cube
[-1, 1]^3; grid points that do not correspond to physical states carry NaN.
Level sets are extracted by marching cubes with linear edge interpolation;
cells that straddle the physical boundary are clipped by treating their
non-physical corners as below-level, which closes every surface against
the boundary of the physical region.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._mc_tables import EDGE_AXIS, EDGE_OFFSET, TRI_COUNT, TRI_TABLE
from .channels import predicted_coefficient_grid
from .coherence import (
    bd_coherence_values,
    isotropic_coherence,
    werner_coherence,
    xz_coherence_values,
)

BD_MEASURES = ("a1", "a2", "a3", "sum")
# Single-basis fields are capped at 1/2, summed fields at 3/2.
FIELD_CAP = 1.5 + 1e-9
# A field holds 8 B per grid point.  Extraction adds a 12 B per point slot
# table and mesh arrays that grow with the surface: the largest figure meshes
# peak at 21 B per point over the field at 101^3, a like mesh at 15 B at
# 201^3.  At 301^3 that is 220 MB for the field, 330 MB plus the mesh on top.
MAX_RESOLUTION = 301


@dataclass(frozen=True)
class ScalarField3D:
    """Values sampled on a cubic grid; NaN marks non-physical points."""

    axis: np.ndarray
    values: np.ndarray
    name: str = "field"

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (axis.size,) * 3:
            raise ValueError(f"values shape {values.shape} does not match axis length {axis.size}")
        # NaN is the only non-physical marker; an infinity is out of range.
        physical = values[~np.isnan(values)]
        if physical.size and (physical.min() < 0.0 or physical.max() > FIELD_CAP):
            raise ValueError(f"field values outside [0, {FIELD_CAP}]: [{physical.min()}, {physical.max()}]")
        axis.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)

    @property
    def resolution(self) -> int:
        return self.axis.size

    def physical_fraction(self) -> float:
        return float(np.isfinite(self.values).mean())


@dataclass(frozen=True)
class IsoSurfaceMesh:
    """Triangulated level set; vertex rows are (c1, c2, c3) points."""

    vertices: np.ndarray
    triangles: np.ndarray
    level: float

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def is_empty(self) -> bool:
        return len(self.triangles) == 0


@dataclass(frozen=True)
class Curve1D:
    """Samples of a coherence value along one state parameter."""

    parameter: str
    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape:
            raise ValueError("xs and values must be matching 1-d arrays")
        if xs.size > 1 and not np.all(np.diff(xs) > 0):
            raise ValueError("curve parameter must be strictly increasing")
        xs.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)


_SLAB_ROWS = 8  # c1 rows per kernel call in _sample


def _sample(kernel, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid axis and ``kernel(c1, c2, c3)`` on it, a slab of c1 rows at a
    time: the elementwise kernels' values bit for bit, but no 8 MB temporaries
    at 101^3 whose placement by the allocator would decide the peak memory."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    # Sparse (n,1,1), (1,n,1), (1,1,n) coordinates: no full coordinate grid.
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    values = np.empty((resolution,) * 3)
    for i in range(0, resolution, _SLAB_ROWS):
        values[i : i + _SLAB_ROWS] = kernel(c1[i : i + _SLAB_ROWS], c2, c3)
    return axis, values


def sample_bd_field(measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Closed-form Bell-diagonal coherence over the coefficient cube.

    ``measure`` picks a single reference basis ('a1' | 'a2' | 'a3') or the
    three-basis sum ('sum').
    """
    if measure not in BD_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {BD_MEASURES}")
    axis, values = _sample(lambda *c: bd_coherence_values(*c, measure), resolution)
    return ScalarField3D(axis=axis, values=values, name=f"bd-{measure}")


def sample_xz_field(r: float, s: float, measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Coherence of z-polarized X states at fixed (r, s) over the cube.

    ``measure`` is 'a1' or 'sum'.  The physical region shrinks as |r|, |s|
    grow; non-physical points carry NaN.
    """
    axis, values = _sample(lambda *c: xz_coherence_values(r, s, *c, measure), resolution)
    return ScalarField3D(axis=axis, values=values, name=f"xz-{measure}-r{r:g}-s{s:g}")


def sample_channel_field(kind: str, p: float, resolution: int = 101) -> ScalarField3D:
    """Coherence in basis a1 after the coefficient map, over the cube.

    Composes the declarative coefficient map with the Bell-diagonal closed
    form at every grid point; a point is physical when its *mapped*
    coefficients form a state.  Because the map contracts, that region
    extends beyond the input tetrahedron for p > 0 (the formal substitution
    of the map into the closed form), and reduces to the plain field at
    p = 0.
    """
    axis, values = _sample(lambda *c: bd_coherence_values(*predicted_coefficient_grid(kind, *c, p), "a1"), resolution)
    return ScalarField3D(axis=axis, values=values, name=f"channel-{kind}-p{p:g}")


def extract_isosurface(field: ScalarField3D, level: float) -> IsoSurfaceMesh:
    """Marching-cubes triangulation of {field == level}.

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
    b = below.view(np.uint8)
    z = b[..., :-1] | (b[..., 1:] << 4)
    cfg = z[:-1, :-1] | (z[1:, :-1] << 1) | (z[1:, 1:] << 2) | (z[:-1, 1:] << 3)
    del z
    cells = np.flatnonzero((cfg != 0) & (cfg != 255))
    configs = cfg.ravel()[cells]
    corner = np.ravel_multi_index(np.unravel_index(cells, cfg.shape), values.shape)
    del cfg

    # Key every crossed edge, in cell order and then triangle order, by the
    # flat grid index of its anchor corner and its axis: key = index*3 + axis.
    strides = np.array([n * n, n, 1])
    edge_key = (EDGE_OFFSET @ strides) * 3 + EDGE_AXIS
    rows = TRI_TABLE[configs]
    keys = np.repeat(corner * 3, TRI_COUNT[configs]) + edge_key[rows[rows >= 0]]
    del cells, configs, corner, rows

    # The distinct keys are the grid edges whose ends differ in ``below``
    # (each cell's table row uses exactly those of its edges), listed in key
    # order by one flatnonzero; a slot table maps each key to its edge.  The
    # grid-sized masks are freed first, so the table's 12 B per grid point
    # and the per-key arrays set the peak memory.  (A binary search of
    # ``edges`` needs no table but made extraction about 1.5x slower.)
    cut = np.zeros((n, n, n, 3), dtype=bool)
    np.not_equal(below[1:], below[:-1], out=cut[:-1, :, :, 0])
    np.not_equal(below[:, 1:], below[:, :-1], out=cut[:, :-1, :, 1])
    np.not_equal(below[:, :, 1:], below[:, :, :-1], out=cut[:, :, :-1, 2])
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
    flat, ax = np.divmod(edges[order], 3)
    ends = values.ravel()[np.stack((flat, flat + strides[ax]))]
    ends[np.isnan(ends)] = level - 1.0
    v0, v1 = ends
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(v1 == v0, 0.5, np.minimum(np.maximum((level - v0) / (v1 - v0), 0.0), 1.0))
    grid = np.stack(np.unravel_index(flat, values.shape), axis=1)
    verts = axis[grid]
    along = np.arange(len(verts)), ax
    lo = verts[along]
    verts[along] = lo + t * (axis[grid[along] + 1] - lo)
    return IsoSurfaceMesh(vertices=verts, triangles=tris, level=float(level))


def channel_surface(kind: str, p: float, level: float, resolution: int = 101) -> IsoSurfaceMesh:
    """Level set of the channel-output coherence over input coefficients."""
    return extract_isosurface(sample_channel_field(kind, p, resolution), level)


def werner_curve(p_grid) -> Curve1D:
    """Closed-form Werner coherence along a p grid."""
    xs = np.asarray(p_grid, dtype=float)
    return Curve1D(parameter="p", xs=xs, values=werner_coherence(xs))


def isotropic_curve(f_grid) -> Curve1D:
    """Closed-form isotropic coherence along an F grid."""
    xs = np.asarray(f_grid, dtype=float)
    return Curve1D(parameter="F", xs=xs, values=isotropic_coherence(xs))


def mesh_component_count(mesh: IsoSurfaceMesh) -> int:
    """Number of connected components, by vertex-sharing label propagation.

    Each vertex starts as its own label; every triangle edge hooks the larger
    of its two roots onto the smaller, and pointer jumping flattens the
    labels to roots, until the two ends of every edge share a root.
    """
    tris = mesh.triangles
    if len(tris) == 0:
        return 0
    a = np.concatenate((tris[:, 0], tris[:, 1]))
    b = np.concatenate((tris[:, 1], tris[:, 2]))
    label = np.arange(len(mesh.vertices))
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return len(np.unique(label[tris]))
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


# -- exports -------------------------------------------------------------------
#
# Meshes go out as OBJ (v/f lines, 1-based faces) or ascii PLY; fields as
# CSV with non-physical points omitted; curves as CSV.  Numeric formatting
# is fixed so identical inputs always produce byte-identical files.

# Rows per chunk of a writer.  At 16,384 rows every array the writer makes
# stays near 1 MB, far under numpy's 4 MB huge-page threshold, so writing
# adds no huge pages and little heap to the peak memory.
_CHUNK_ROWS = 1 << 14


def _float_text(block: np.ndarray, spec: str) -> np.ndarray:
    """``spec % x`` for every x of a float block, as a (rows, cols, width)
    uint8 array of NUL-padded ASCII.  Each distinct bit pattern is formatted
    once by Python's ``%``, so -0.0 stays "-0"; mesh and field rows repeat
    their grid axis values, and in the figure meshes a quarter of the values
    of a chunk are distinct."""
    distinct, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = np.array([spec % x for x in distinct.view(float).tolist()], dtype=bytes)
    return text[inverse.reshape(block.shape)].view(np.uint8).reshape(*block.shape, -1)


def _int_text(block: np.ndarray) -> np.ndarray:
    """The decimal digits of a non-negative integer block, as a
    (rows, cols, width) uint8 array with the leading zeros set to NUL."""
    top = int(block.max())
    width = len(str(top))
    digits = np.empty((*block.shape, width), dtype=np.uint8)
    # The smallest unsigned type that holds the block divides fastest.
    rest = block.astype(np.min_scalar_type(top))
    for i in range(width - 1, -1, -1):
        quotient = rest // 10
        np.subtract(rest, quotient * 10, out=digits[..., i], casting="unsafe")
        rest = quotient
    digits += ord("0")
    for i in range(width - 1):
        digits[..., i][block < 10 ** (width - 1 - i)] = 0
    return digits


def _lines(prefix: str, sep: str, text: np.ndarray) -> np.ndarray:
    """One line per row of NUL-padded fields (rows, cols, width): ``prefix``,
    the fields joined by the one-character ``sep``, a newline; one boolean
    mask drops the NULs."""
    rows, cols, width = text.shape
    line = np.empty((rows, len(prefix) + cols * (width + 1)), dtype=np.uint8)
    line[:, : len(prefix)] = np.frombuffer(prefix.encode("ascii"), np.uint8)
    cells = line[:, len(prefix) :].reshape(rows, cols, width + 1)
    cells[..., :width] = text
    cells[..., width] = np.frombuffer((sep * (cols - 1) + "\n").encode("ascii"), np.uint8)
    return line[line != 0]


def _write(path: str | Path, header: str, *sections: tuple[str, str, str, np.ndarray]) -> Path:
    """Write ``header``, then for each ``(prefix, spec, sep, table)`` one line
    per table row: ``prefix``, the row's fields joined by ``sep``, a newline.

    Float fields are ``spec % value`` and integer fields (``spec`` "%d")
    their decimal digits: the bytes of per-row ``%`` formatting, built as
    numpy byte arrays a chunk of rows at a time.
    """
    path = Path(path)
    with path.open("wb") as out:
        out.write(header.encode("ascii"))
        for prefix, spec, sep, table in sections:
            for start in range(0, len(table), _CHUNK_ROWS):
                rows = table[start : start + _CHUNK_ROWS]
                text = _int_text(rows) if rows.dtype.kind in "iu" else _float_text(rows, spec)
                out.write(_lines(prefix, sep, text))
    return path


def write_obj(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
    return _write(path, "", ("v ", "%.9g", " ", mesh.vertices), ("f ", "%d", " ", mesh.triangles + 1))


def write_ply(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
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
    return _write(path, header, ("", "%.9g", " ", mesh.vertices), ("3 ", "%d", " ", mesh.triangles))


def write_field_csv(field: ScalarField3D, path: str | Path) -> Path:
    points = np.nonzero(np.isfinite(field.values))
    table = np.stack([field.axis[i] for i in points] + [field.values[points]], axis=1)
    return _write(path, "c1,c2,c3,value\n", ("", "%.9g", ",", table))


def write_curve_csv(curve: Curve1D, path: str | Path, header: str = "p,C", digits: int = 12) -> Path:
    table = np.stack((curve.xs, curve.values), axis=1)
    return _write(path, f"{header}\n", ("", f"%.{digits}g", ",", table))
