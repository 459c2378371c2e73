"""Structural check of the files the figure workload writes.

A file counts as failed when it is missing, unparsable, or breaks one of
these rules:

* no number in it is NaN or infinite;
* OBJ: all vertex lines come before all face lines, every face index lies
  in 1..len(v) and every vertex in [-1, 1]^3;
* curve CSV: a header and exactly 101 data rows of two numbers;
* a mesh is empty exactly when it is listed in ``EXPECTED_EMPTY``.

The level error of mesh vertices is deliberately not checked: vertices on
the caps where a surface is clipped against the physical boundary miss
the level by up to 0.4 (channel meshes) and 1.02 (``xz-sum``) by design.

Each file's sha256 is compared with the hash recorded at the commit that
introduced the benchmark (``figure_seed_hashes.json``).  Changed files are
counted and reported, never failed: a change may alter outputs on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

SEED_HASHES = json.loads((Path(__file__).resolve().parent / "figure_seed_hashes.json").read_text())
EXPECTED_EMPTY = frozenset(
    {
        "surface_bd-a1_level1.obj",
        "surface_xz-a1_r0.1_s0.1_level0.5.obj",
        "surface_xz-a1_r0.3_s0.3_level0.5.obj",
    }
)
CURVE_ROWS = 101


def _obj_problem(name: str, text: str) -> str | None:
    # write_obj's layout: every vertex line "v x y z", then every face line
    # "f a b c", each line four tokens.
    tokens = text.split()
    lines = text.count("\n")
    if len(tokens) != 4 * lines or (text and not text.endswith("\n")):
        return "lines are not of the form 'v x y z' or 'f a b c'"
    kinds = tokens[0::4]
    n_vertices = kinds.count("v")
    if kinds[:n_vertices].count("v") != n_vertices or kinds[n_vertices:].count("f") != lines - n_vertices:
        return "lines are not vertices followed by faces"
    vertex_rows, face_rows = tokens[: 4 * n_vertices], tokens[4 * n_vertices :]
    del vertex_rows[0::4], face_rows[0::4]
    vertices = np.fromiter(map(float, vertex_rows), dtype=float, count=len(vertex_rows))
    faces = np.fromiter(map(int, face_rows), dtype=np.int64, count=len(face_rows))
    if not np.isfinite(vertices).all():
        return "non-finite vertex coordinate"
    if vertices.size and np.abs(vertices).max() > 1.0:
        return f"vertex outside [-1, 1]^3 (max |coordinate| {np.abs(vertices).max():.17g})"
    if faces.size and (faces.min() < 1 or faces.max() > n_vertices):
        return f"face index outside 1..{n_vertices}"
    if (faces.size == 0) != (name in EXPECTED_EMPTY):
        return "mesh is empty" if faces.size == 0 else "mesh should be empty"
    return None


def _curve_problem(text: str) -> str | None:
    header, *rows = text.splitlines()
    if len(header.split(",")) != 2:
        return f"bad header {header!r}"
    if len(rows) != CURVE_ROWS:
        return f"{len(rows)} rows, expected {CURVE_ROWS}"
    cells = [cell for row in rows for cell in row.split(",")]
    if len(cells) != 2 * CURVE_ROWS:
        return "rows do not have two columns"
    if not np.isfinite(np.array(cells, dtype=str).astype(float)).all():
        return "non-finite value"
    return None


def check_outputs(out_dir: Path) -> dict:
    """Check one figure output directory against the expected file list.

    Returns the counts of attempted, failed and changed files, the failures
    with their reasons, and the combined digest of all files.
    """
    found = {p.relative_to(out_dir).as_posix(): p for p in out_dir.rglob("*") if p.is_file()}
    failures, digests = [], {}
    for name in sorted(set(SEED_HASHES) | set(found)):
        if name not in found:
            failures.append(f"{name}: missing")
            continue
        if name not in SEED_HASHES:
            failures.append(f"{name}: not an expected output")
        data = found[name].read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        try:
            text = data.decode("ascii")
            problem = _obj_problem(Path(name).name, text) if name.endswith(".obj") else _curve_problem(text)
        except (UnicodeDecodeError, ValueError) as exc:
            problem = f"unparsable: {exc}"
        if problem:
            failures.append(f"{name}: {problem}")
    listing = "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))
    return {
        "attempted": len(set(SEED_HASHES) | set(found)),
        "failed": len({f.split(":", 1)[0] for f in failures}),
        "failures": failures,
        "changed": sum(SEED_HASHES.get(name) != digest for name, digest in digests.items()),
        "digest": hashlib.sha256(listing.encode("ascii")).hexdigest(),
    }
