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

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._mc_tables import EDGE_AXIS, EDGE_OFFSET, TRI_COUNT, TRI_TABLE
from .channels import predicted_coefficient_grid
from .coherence import bd_coherence_values, xz_coherence_values

BD_MEASURES = ("a1", "a2", "a3", "sum")
# Single-basis fields are capped at 1/2, summed fields at 3/2.
FIELD_CAP = 1.5 + 1e-9
# A field holds 8 B per grid point.  Extraction holds one slab's masks and
# slot table and the mesh arrays, which grow with the surface: the largest
# figure mesh peaks at 12.3 B per point over the field at 101^3, 4.7 B at
# 201^3 and 3.1 B at 301^3, where that is 86 MB beside the field's 218 MB.
MAX_RESOLUTION = 301
# Grid points per slab of cell rows that extract_isosurface walks (at least
# one row: 25 at 101^3): a slab's 12 B per point slot table stays near 3 MB,
# under numpy's 4 MB huge-page threshold.
_EXTRACT_SLAB_POINTS = 1 << 18


def _require_increasing(xs: np.ndarray, what: str) -> None:
    """Reject a coordinate array that is not 1-d, finite and strictly increasing."""
    if xs.ndim != 1 or not (np.isfinite(xs).all() and (np.diff(xs) > 0).all()):
        raise ValueError(f"{what} must be finite and strictly increasing")


@dataclass(frozen=True)
class ScalarField3D:
    """Values sampled on a cubic grid; NaN marks non-physical points.
    ``name`` is the file stem it is written under, e.g. ``xz-a1_r0.1_s0.1``;
    ``maximum`` is the largest physical value, NaN when no point is physical."""

    axis: np.ndarray
    values: np.ndarray
    name: str = "field"
    maximum: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        values = np.asarray(self.values, dtype=float)
        _require_increasing(axis, "field axis")
        if values.shape != (axis.size,) * 3:
            raise ValueError(f"values shape {values.shape} does not match axis length {axis.size}")
        # NaN is the only non-physical marker; an infinity is out of range.
        # fmin/fmax skip NaN without copying the physical values; the NaN
        # initial value is their identity, so an all-NaN or empty field gives
        # NaN bounds, which no comparison rejects.
        lo = np.fmin.reduce(values, axis=None, initial=np.nan)
        hi = np.fmax.reduce(values, axis=None, initial=np.nan)
        if lo < 0.0 or hi > FIELD_CAP:
            raise ValueError(f"field values outside [0, {FIELD_CAP}]: [{lo}, {hi}]")
        axis.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "maximum", float(hi))

    def physical_fraction(self) -> float:
        return float(np.isfinite(self.values).mean())


@dataclass(frozen=True)
class IsoSurfaceMesh:
    """Triangulated level set; vertex rows are (c1, c2, c3) points.
    ``axis`` is the grid axis the mesh was cut from (None for a mesh built
    by hand); the writers take its values' text from it, and no byte of a
    written file depends on it."""

    vertices: np.ndarray
    triangles: np.ndarray
    level: float
    axis: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles)
        if not np.issubdtype(t.dtype, np.integer):
            raise ValueError(f"triangle indices must be integers, got dtype {t.dtype}")
        t = t.astype(int, copy=False).reshape(-1, 3)
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if self.axis is not None:
            axis = np.asarray(self.axis, dtype=float)
            _require_increasing(axis, "mesh axis")
            axis.flags.writeable = False
            object.__setattr__(self, "axis", axis)

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
        _require_increasing(xs, "curve parameter")
        xs.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)


def _tag(x: float) -> str:
    """A parameter value as it appears in a file name: the shortest text that
    reads back as the same float (``repr``), without a trailing ``.0``, so
    two distinct values never share a name."""
    return repr(float(x)).removesuffix(".0")


def _grid(resolution: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The grid axis and its coordinates (c1, c2, c3) in ``np.ix_`` form,
    which the closed-form kernels fill as a grid."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution}")
    axis = np.linspace(-1.0, 1.0, resolution)
    return axis, np.ix_(axis, axis, axis)


def sample_bd_field(measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Closed-form Bell-diagonal coherence over the coefficient cube.

    ``measure`` picks a single reference basis ('a1' | 'a2' | 'a3') or the
    three-basis sum ('sum').
    """
    if measure not in BD_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {BD_MEASURES}")
    axis, c = _grid(resolution)
    return ScalarField3D(axis=axis, values=bd_coherence_values(*c, measure), name=f"bd-{measure}")


def sample_xz_field(r: float, s: float, measure: str = "a1", resolution: int = 101) -> ScalarField3D:
    """Coherence of z-polarized X states at fixed (r, s) over the cube.

    ``measure`` is 'a1' or 'sum'.  The physical region shrinks as |r|, |s|
    grow; non-physical points carry NaN.
    """
    axis, c = _grid(resolution)
    values = xz_coherence_values(r, s, *c, measure)
    return ScalarField3D(axis=axis, values=values, name=f"xz-{measure}_r{_tag(r)}_s{_tag(s)}")


def sample_channel_field(kind: str, p: float, resolution: int = 101) -> ScalarField3D:
    """Coherence in basis a1 after the coefficient map, over the cube.

    Composes the declarative coefficient map with the Bell-diagonal closed
    form at every grid point; a point is physical when its *mapped*
    coefficients form a state.  Because the map contracts, that region
    extends beyond the input tetrahedron for p > 0 (the formal substitution
    of the map into the closed form), and reduces to the plain field at
    p = 0.
    """
    axis, c = _grid(resolution)
    values = bd_coherence_values(*predicted_coefficient_grid(kind, *c, p), "a1")
    return ScalarField3D(axis=axis, values=values, name=f"channel-{kind}_p{_tag(p)}")


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
    plane = n * n
    strides = np.array([plane, n, 1])
    step = max(_EXTRACT_SLAB_POINTS // plane, 1)
    # The ids of the y and z edges on the value row two slabs share, written
    # by the slab before, which uses every crossed one of them first.
    shared = np.empty((2, plane), dtype=np.int32)
    count = 0
    vertex_parts, triangle_parts = [np.zeros((0, 3))], [np.zeros((0, 3), dtype=int)]
    for top in range(0, n - 1, step):
        rows = min(step, n - 1 - top)  # cell rows; the slab holds rows + 1 value rows
        slab = values[top : top + rows + 1]
        size = slab.size
        below = ~(slab > level)  # NaN compares false: non-physical is below

        # Corner configuration of every cell, bit i for CORNER_OFFSETS[i]: the
        # z pairs first (bits 0-3 at z, 4-7 at z + 1), then the four (x, y).
        # It is computed in contiguous passes over the flat slab, at the flat
        # index of the cell's lowest corner; the corners with no cell there (y
        # or z last) are zeroed.  Bits are placed by multiplying: numpy's uint8
        # products are vectorized, its shifts are not.
        b = below.view(np.uint8).ravel()
        z = b[1:] * 16
        z |= b[:-1]
        cfg = np.zeros((rows, n, n), dtype=np.uint8)
        last = rows * plane - n - 1  # one past the lowest corner of the last cell
        head = cfg.reshape(-1)[:last]
        np.multiply(z[plane : plane + last], 2, out=head)
        head |= z[:last]
        head |= z[plane + n : plane + n + last] * 4
        head |= z[n : n + last] * 8
        del z
        cfg[:, n - 1 :] = 0
        cfg[:, :, n - 1 :] = 0
        corner = np.flatnonzero(cfg + np.uint8(1) > 1)  # configs 0 and 255 wrap to 1 and 0
        if not len(corner):
            continue  # then no edge of the slab is crossed, the shared row's included
        configs = cfg.ravel()[corner]
        del cfg

        # Key every crossed edge, in cell order and then triangle order, by its
        # axis and the flat slab index of its anchor corner: key = axis*size + index.
        edge_key = EDGE_AXIS * size + EDGE_OFFSET @ strides
        table_rows = np.take(TRI_TABLE, configs, axis=0)  # 10x faster than fancy indexing here
        keys = np.repeat(corner, TRI_COUNT[configs]) + edge_key[table_rows[table_rows >= 0]]
        del configs, corner, table_rows

        # The distinct keys are the slab's edges whose ends differ in ``below``
        # (each cell's table row uses exactly those of its edges), but for the
        # x edges of the last value row, which belong to the next slab's cells;
        # they are listed in key order by one flatnonzero over the axis-major
        # mask, whose three planes are written contiguously, and a slot table
        # maps each key to its edge.  (A binary search of ``edges`` needs no
        # table but made extraction about 1.5x slower.)
        cut = np.zeros((3, rows + 1, n, n), dtype=bool)
        np.not_equal(below[1:], below[:-1], out=cut[0, :-1])
        np.not_equal(below[:, 1:], below[:, :-1], out=cut[1, :, :-1])
        np.not_equal(below[:, :, 1:], below[:, :, :-1], out=cut[2, :, :, :-1])
        del b, below
        edges = np.flatnonzero(cut)
        del cut
        slot = np.empty(3 * size, dtype=np.int32)
        slot[edges] = np.arange(len(edges), dtype=np.int32)
        ids = slot[keys]
        del slot

        # Vertices are numbered in order of first use: the edges the slab
        # before did not number, at their first-use positions in position
        # order, after the count so far.
        first = np.full(len(edges), len(keys))
        np.minimum.at(first, ids, np.arange(len(keys)))
        is_first = np.zeros(len(keys), dtype=bool)
        is_first[first] = True
        order = ids[is_first]
        ax, flat = np.divmod(edges, size)
        carried = (ax > 0) & (flat < plane) & (top > 0)
        rank = np.empty(len(edges), dtype=np.int32)
        rank[carried] = shared[ax[carried] - 1, flat[carried]]
        order = order[~carried[order]]
        rank[order] = np.arange(count, count + len(order), dtype=np.int32)
        count += len(order)
        triangle_parts.append(rank[ids].reshape(-1, 3))
        onto = (ax > 0) & (flat >= size - plane)
        shared[ax[onto] - 1, flat[onto] - (size - plane)] = rank[onto]

        # Interpolation values: non-physical corners act as strictly below level.
        ax, flat = ax[order], flat[order]
        ends = slab.ravel()[np.stack((flat, flat + strides[ax]))]
        ends[np.isnan(ends)] = level - 1.0
        v0, v1 = ends
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(v1 == v0, 0.5, np.minimum(np.maximum((level - v0) / (v1 - v0), 0.0), 1.0))
        grid = np.stack(np.unravel_index(flat, slab.shape), axis=1)
        grid[:, 0] += top
        verts = axis[grid]
        # The coordinate along each vertex's edge, by flat index into the rows.
        along = 3 * np.arange(len(verts)) + ax
        lo = verts.ravel()[along]
        verts.ravel()[along] = lo + t * (axis[grid.ravel()[along] + 1] - lo)
        vertex_parts.append(verts)
    verts, tris = np.concatenate(vertex_parts), np.concatenate(triangle_parts, dtype=np.intp)
    return IsoSurfaceMesh(vertices=verts, triangles=tris, level=float(level), axis=axis)


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


@functools.cache
def _quad_words() -> np.ndarray:
    """The four ASCII digits of 0 to 9999 as little-endian words, then the
    same with trailing zeros as NUL; built on first use, so importing the
    package pays nothing for it."""
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    digits = digits.astype(np.uint8) + ord("0")
    kept = np.logical_or.accumulate(digits[:, ::-1] > ord("0"), axis=1)[:, ::-1]
    words = np.concatenate((digits, digits * kept)).view("<u4")[:, 0]
    words.flags.writeable = False
    return words


# The decades that split [1e-4, 10), where %g prints fixed notation, in five.
_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0])


def _fixed_text(x: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """``"%.{precision}g" % v`` for each v of a 1-d float array as NUL-padded
    bytes, and the mask of the v whose bytes these are certified to be:
    1e-4 <= |v| < 10, where %g prints fixed notation; |v| times the exact
    power of ten of its decade lies more than a few ulps from a rounding tie,
    so ``np.rint`` rounds as Python's correctly rounded ``%`` does; and the
    rounded digits stay in that decade.  Past 14 digits none is certified."""
    size = np.abs(x)
    fixed = (size >= 1e-4) & (size < 10.0) & (precision <= 14)
    precision = min(precision, 14)  # nothing is certified past 14; keeps the digits in int64
    size = np.where(fixed, size, 0.0)
    decade = np.searchsorted(_DECADES, size, side="right")  # 4 + the exponent
    scaled = size * np.array([float(10 ** (precision + 3 - i)) for i in range(5)])[decade]
    n = np.rint(scaled)
    certain = fixed & (0.5 - np.abs(scaled - n) > scaled * 2.0**-50)
    certain &= (n >= 10.0 ** (precision - 1)) & (n < 10.0**precision)
    # |v| * 10^(precision + 3): the sign, units digit, point and first decimal
    # make one word, the other decimals, zero-padded, four to a word.
    quads = -(-(precision + 2) // 4)
    pad = 4 * quads - precision - 2
    head, rest = np.divmod(n.astype(np.int64) * 10 ** np.arange(pad, pad + 5)[decade], 10 ** (4 * quads))
    words = np.empty((len(x), 1 + quads), "<u4")
    zeros = np.ones(len(x), bool)  # the decimals right of word j are all 0
    for j in range(quads, 0, -1):
        rest, quad = np.divmod(rest, 10_000)
        words[:, j] = _quad_words()[quad + zeros * 10_000]
        zeros &= quad == 0
    units, first = np.divmod(head, 10)
    point = ~zeros | (first > 0)
    digits = (units + ord("0")) * 2**8 + point * (ord(".") * 2**16 + (first + ord("0")) * 2**24)
    words[:, 0] = np.signbit(x) * ord("-") + digits
    return words.view(f"S{words.shape[1] * 4}")[:, 0], certain


def _distinct_text(x: np.ndarray, spec: str) -> np.ndarray:
    """``spec % v`` (a ``%.<precision>g``) for each v of a 1-d float array,
    as NUL-padded bytes: by ``_fixed_text`` where it certifies the bytes,
    else by Python's ``%`` (exponent forms, zeros, non-finite values and
    uncertain roundings)."""
    text, certain = _fixed_text(x, int(spec[2:-1]))
    other = np.flatnonzero(~certain)
    strings = np.array([spec % v for v in x[other].tolist()], dtype=bytes)
    text = text.astype(np.promote_types(text.dtype, strings.dtype), copy=False)
    text[other] = strings
    return text


def _float_text(block: np.ndarray, spec: str, axis: np.ndarray | None = None) -> np.ndarray:
    """``spec % x`` for every x of a float block, as a (rows, cols, width)
    uint8 array of NUL-padded ASCII.  A value whose bits equal those of the
    grid ``axis`` value nearest to it, ``axis[rint((x - axis[0]) / step)]``,
    takes that axis value's text; the axis is formatted once.  Each distinct
    bit pattern of the other values is formatted once, so -0.0 stays "-0".
    Every vertex of a mesh lies on a grid edge, so two thirds of its
    coordinates are axis values, and mesh and field rows repeat them."""
    bits = block.view(np.int64)
    if axis is None or not axis.size:
        distinct, index = np.unique(bits, return_inverse=True)
        text = _distinct_text(distinct.view(float), spec)
    else:
        n = axis.size
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nearest = np.rint((block - axis[0]) / ((axis[-1] - axis[0]) / (n - 1)))
        index = np.fmin(np.fmax(nearest, 0.0), n - 1).astype(np.intp)  # fmax takes NaN to 0
        off = axis.view(np.int64)[index] != bits
        distinct, inverse = np.unique(bits[off], return_inverse=True)
        index[off] = inverse + n
        text = np.concatenate((_distinct_text(axis, spec), _distinct_text(distinct.view(float), spec)))
    return text[index.reshape(block.shape)].view(np.uint8).reshape(*block.shape, -1)


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


def _lines(prefix: str, sep: str, text: np.ndarray) -> bytes:
    """One line per row of NUL-padded fields (rows, cols, width): ``prefix``,
    the fields joined by the one-character ``sep``, a newline, as bytes with
    the NULs dropped.  Every row starts as one template row, and each field
    is copied as one item.  Face rows whose indices all have the same number
    of digits hold no NUL, and their bytes are written as built."""
    rows, cols, width = text.shape
    template = (prefix + sep.join(["\0" * width] * cols) + "\n").encode("ascii")
    line = np.empty((rows, len(template)), dtype=np.uint8)
    line[:] = np.frombuffer(template, np.uint8)
    fields = line[:, len(prefix) :].reshape(rows, cols, width + 1)[..., :width]
    fields.view(f"V{width}")[...] = text.view(f"V{width}")
    data = line.tobytes()
    return data.translate(None, b"\0") if b"\0" in data else data


def _write(
    path: str | Path,
    header: str,
    *sections: tuple[str, str, str, np.ndarray],
    index_base: int = 0,
    axis: np.ndarray | None = None,
) -> Path:
    """Write ``header``, then for each ``(prefix, spec, sep, table)`` one line
    per table row: ``prefix``, the row's fields joined by ``sep``, a newline.

    Float fields are ``spec % value`` and integer fields (``spec`` "%d")
    their decimal digits after adding ``index_base``: the bytes of per-row
    ``%`` formatting, built as numpy byte arrays a chunk of rows at a time.
    ``axis``, the grid the float values were cut from, only saves work.
    """
    path = Path(path)
    with path.open("wb") as out:
        out.write(header.encode("ascii"))
        for prefix, spec, sep, table in sections:
            for start in range(0, len(table), _CHUNK_ROWS):
                rows = table[start : start + _CHUNK_ROWS]
                text = _int_text(rows + index_base) if rows.dtype.kind in "iu" else _float_text(rows, spec, axis)
                out.write(_lines(prefix, sep, text))
    return path


def write_obj(mesh: IsoSurfaceMesh, path: str | Path) -> Path:
    sections = ("v ", "%.9g", " ", mesh.vertices), ("f ", "%d", " ", mesh.triangles)
    return _write(path, "", *sections, index_base=1, axis=mesh.axis)


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
    return _write(path, header, ("", "%.9g", " ", mesh.vertices), ("3 ", "%d", " ", mesh.triangles), axis=mesh.axis)


def write_field_csv(field: ScalarField3D, path: str | Path) -> Path:
    points = np.nonzero(np.isfinite(field.values))
    table = np.stack([field.axis[i] for i in points] + [field.values[points]], axis=1)
    return _write(path, "c1,c2,c3,value\n", ("", "%.9g", ",", table), axis=field.axis)


def write_curve_csv(curve: Curve1D, path: str | Path) -> Path:
    table = np.stack((curve.xs, curve.values), axis=1)
    return _write(path, f"{curve.parameter},C\n", ("", "%.12g", ",", table))
