"""Geometric comparison of two OBJ meshes, numpy only.

A one-ulp change of a field value near a level can renumber every vertex
of a marching-cubes mesh, so a changed file hash says little about how far
a surface moved.  ``compare_obj`` matches the vertices of two meshes by
position instead and reports the largest displacement and the vertex and
triangle count differences.  Run as a script, it prints one table row per
OBJ file of two output directories:

    python tests/mesh_compare.py OLD_DIR NEW_DIR
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

# Vertices further apart than this are not matched: 1000x the resolution
# of the 9 significant digits the writers print.
MATCH_TOL = 1e-6


def read_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) vertices and (m, 3) zero-based triangles of an OBJ file
    of 'v x y z' and 'f a b c' lines."""
    vertices, faces = [], []
    for line in Path(path).read_text().splitlines():
        kind, *fields = line.split()
        (vertices if kind == "v" else faces).append(fields)
    return np.array(vertices, dtype=float).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3) - 1


def nearest_within(a: np.ndarray, b: np.ndarray, tol: float = MATCH_TOL) -> np.ndarray:
    """For every point of ``a``, its distance to the nearest point of ``b``
    when that is less than ``tol``, else inf.  The points of ``b`` are
    hashed into cubes of side ``tol``; each point of ``a`` looks at every
    point of ``b`` in its own cube and the 26 around it."""
    dist = np.full(len(a), np.inf)
    if not len(a) or not len(b):
        return dist
    cells_b = np.floor(b / tol).astype(np.int64)
    low = cells_b.min(axis=0) - 1
    span = cells_b.max(axis=0) - low + 2

    def key(cells):
        return ((cells[:, 0] - low[0]) * span[1] + cells[:, 1] - low[1]) * span[2] + cells[:, 2] - low[2]

    order = np.argsort(key(cells_b), kind="stable")
    sorted_keys = key(cells_b)[order]
    most = np.unique(sorted_keys, return_counts=True)[1].max()
    cells_a = np.floor(a / tol).astype(np.int64)
    for offset in itertools.product((-1, 0, 1), repeat=3):
        probe = cells_a + offset
        inside = np.all((probe >= low) & (probe < low + span), axis=1)
        k = key(probe)
        first = np.searchsorted(sorted_keys, k)
        for rank in range(most):
            at = np.minimum(first + rank, len(b) - 1)
            hit = inside & (sorted_keys[at] == k)
            dist[hit] = np.minimum(dist[hit], np.linalg.norm(a[hit] - b[order[at[hit]]], axis=1))
    dist[dist >= tol] = np.inf
    return dist


def compare_obj(old_path, new_path, tol: float = MATCH_TOL) -> dict:
    """Vertex and triangle counts of both meshes, the vertices of each
    without a partner in the other within ``tol``, and the largest
    displacement over the matched vertices, taken both ways."""
    (va, ta), (vb, tb) = read_obj(old_path), read_obj(new_path)
    ab, ba = nearest_within(va, vb, tol), nearest_within(vb, va, tol)
    matched = np.concatenate((ab[np.isfinite(ab)], ba[np.isfinite(ba)]))
    return {
        "vertices": (len(va), len(vb)),
        "triangles": (len(ta), len(tb)),
        "unmatched": (int(np.isinf(ab).sum()), int(np.isinf(ba).sum())),
        "max_displacement": float(matched.max(initial=0.0)),
    }


def main(old_dir: str, new_dir: str) -> None:
    print("| file | vertices | triangles | unmatched (old, new) | max displacement |")
    print("| --- | --- | --- | --- | --- |")
    for old in sorted(Path(old_dir).rglob("*.obj")):
        name = old.relative_to(old_dir).as_posix()
        new = Path(new_dir) / name
        if old.read_bytes() == new.read_bytes():
            continue
        r = compare_obj(old, new)
        counts = ["{} -> {}".format(*r[k]) if r[k][0] != r[k][1] else str(r[k][0]) for k in ("vertices", "triangles")]
        unmatched = "{}, {}".format(*r["unmatched"])
        print(f"| {name} | {counts[0]} | {counts[1]} | {unmatched} | {r['max_displacement']:.1e} |")


if __name__ == "__main__":
    main(*sys.argv[1:])
