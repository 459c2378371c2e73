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

from ._mc_tables import EDGE_CORNERS, TRI_TABLE
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

CORNER_OFFSETS = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
)

# Canonical (grid offset, axis) key for each cube edge, derived from the
# corner pairs: the key anchors at the corner with the smaller offset along
# the axis the two corners differ in.
_EDGE_KEYS = []
for _a, _b in EDGE_CORNERS:
    _oa, _ob = CORNER_OFFSETS[_a], CORNER_OFFSETS[_b]
    _axis = next(i for i in range(3) if _oa[i] != _ob[i])
    _lo = _oa if _oa[_axis] < _ob[_axis] else _ob
    _EDGE_KEYS.append((_lo, _axis))
_EDGE_KEYS = tuple(_EDGE_KEYS)


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
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij")
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
    active = np.argwhere((cfg != 0) & (cfg != 255))

    # Interpolation values: non-physical corners act as strictly below level.
    interp = np.where(finite, vals, level - 1.0)

    vertex_ids: dict[tuple[int, int, int, int], int] = {}
    vertices: list[tuple[float, float, float]] = []
    triangles: list[tuple[int, int, int]] = []

    def edge_vertex(ci: int, cj: int, ck: int, edge: int) -> int:
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
    """Number of connected components, by vertex-sharing union-find."""
    n = len(mesh.vertices)
    if n == 0 or len(mesh.triangles) == 0:
        return 0
    parent = list(range(n))

    def find(x: int) -> int:
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


# -- exports -------------------------------------------------------------------
#
# Meshes go out as OBJ (v/f lines, 1-based faces) or ascii PLY; fields as
# CSV with non-physical points omitted; curves as CSV.  Numeric formatting
# is fixed so identical inputs always produce byte-identical files.


def _fmt(x: float, digits: int = 9) -> str:
    return f"{x:.{digits}g}"


def write_obj(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
    path = Path(path)
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")
    return path


def write_ply(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
    path = Path(path)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(mesh.triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    body = [f"{_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in mesh.vertices]
    body += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    path.write_text("\n".join(header + body) + "\n", encoding="ascii")
    return path


def write_field_csv(field: ScalarField3D, path: str | Path) -> Path:
    path = Path(path)
    axis = field.axis
    rows = ["c1,c2,c3,value"]
    values = field.values
    for i, j, k in np.argwhere(np.isfinite(values)):
        rows.append(f"{_fmt(axis[i])},{_fmt(axis[j])},{_fmt(axis[k])},{_fmt(values[i, j, k])}")
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    return path


def write_curve_csv(curve: Curve1D, path: str | Path, header: str = "p,C", digits: int = 12) -> Path:
    path = Path(path)
    rows = [header]
    rows += [f"{_fmt(x, digits)},{_fmt(v, digits)}" for x, v in zip(curve.xs, curve.values)]
    path.write_text("\n".join(rows) + "\n", encoding="ascii")
    return path
