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

from ._mc_tables import EDGE_AXIS, EDGE_OFFSET, TRI_TABLE
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
# A field holds several float arrays of resolution^3 points; 301^3 is
# about 220 MB each.
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
        finite = values[np.isfinite(values)]
        if finite.size and (finite.min() < 0.0 or finite.max() > FIELD_CAP):
            raise ValueError(f"field values outside [0, {FIELD_CAP}]: [{finite.min()}, {finite.max()}]")
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


def _grid(resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    # Sparse (n,1,1), (1,n,1), (1,1,n) coordinates: the field kernels are
    # elementwise and broadcast them, so no full coordinate grid is built.
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    return axis, c1, c2, c3


def sample_bd_field(measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Closed-form Bell-diagonal coherence over the coefficient cube.

    ``measure`` picks a single reference basis ('a1' | 'a2' | 'a3') or the
    three-basis sum ('sum').
    """
    if measure not in BD_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {BD_MEASURES}")
    axis, c1, c2, c3 = _grid(resolution)
    if measure == "sum":
        values = sum(bd_coherence_values(c1, c2, c3, lab) for lab in ("a1", "a2", "a3"))
    else:
        values = bd_coherence_values(c1, c2, c3, measure)
    return ScalarField3D(axis=axis, values=values, name=f"bd-{measure}")


def sample_xz_field(r: float, s: float, measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Coherence of z-polarized X states at fixed (r, s) over the cube.

    ``measure`` is 'a1' or 'sum'.  The physical region shrinks as |r|, |s|
    grow; non-physical points carry NaN.
    """
    axis, c1, c2, c3 = _grid(resolution)
    values = xz_coherence_values(r, s, c1, c2, c3, measure)
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
    axis, c1, c2, c3 = _grid(resolution)
    moved = predicted_coefficient_grid(kind, c1, c2, c3, p)
    values = bd_coherence_values(*moved, "a1")
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

    # Key every crossed edge, in cell order and then triangle order, by the
    # flat grid index of its anchor corner and its axis: key = index*3 + axis.
    n = axis.size
    strides = np.array([n * n, n, 1])
    edge_key = (EDGE_OFFSET @ strides) * 3 + EDGE_AXIS
    rows = TRI_TABLE[configs]
    crossed = rows != -1
    keys = np.repeat(((ci * n + cj) * n + ck) * 3, crossed.sum(axis=1)) + edge_key[rows[crossed]]

    # Vertices are numbered in order of first use.
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    tris = np.argsort(order)[inverse].reshape(-1, 3)

    # Interpolation values: non-physical corners act as strictly below level.
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

_CHUNK_ROWS = 1 << 16


def _write(path: str | Path, header: str, *sections: tuple[str, np.ndarray]) -> Path:
    """Write ``header``, then one ``template`` line per row of each table.

    Each chunk of rows is formatted with a single ``%``, which gives the
    bytes of per-row formatting while the text in memory stays one chunk.
    """
    path = Path(path)
    with path.open("w", encoding="ascii") as out:
        out.write(header)
        for template, table in sections:
            for start in range(0, len(table), _CHUNK_ROWS):
                rows = table[start : start + _CHUNK_ROWS]
                out.write((template * len(rows)) % tuple(rows.ravel().tolist()))
    return path


def write_obj(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
    return _write(path, "", ("v %.9g %.9g %.9g\n", mesh.vertices), ("f %d %d %d\n", mesh.triangles + 1))


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
    return _write(path, header, ("%.9g %.9g %.9g\n", mesh.vertices), ("3 %d %d %d\n", mesh.triangles))


def write_field_csv(field: ScalarField3D, path: str | Path) -> Path:
    points = np.nonzero(np.isfinite(field.values))
    table = np.stack([field.axis[i] for i in points] + [field.values[points]], axis=1)
    return _write(path, "c1,c2,c3,value\n", ("%.9g,%.9g,%.9g,%.9g\n", table))


def write_curve_csv(curve: Curve1D, path: str | Path, header: str = "p,C", digits: int = 12) -> Path:
    table = np.stack((curve.xs, curve.values), axis=1)
    return _write(path, f"{header}\n", (f"%.{digits}g,%.{digits}g\n", table))
