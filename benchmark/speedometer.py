"""Machine-speed reference that puts times on a shared machine on one scale.

On a virtual machine whose cores are shared with other tenants, the same
work takes up to a third longer for minutes at a time; CPU time drifts
with wall time, so neither can be compared across runs made minutes
apart.  The benchmark therefore runs a fixed reference mix alongside the
workload (between CLI steps, between verify suites, after each numeric
batch, after each import) and reports every gated time in nominal
seconds:

    nominal = measured * NOMINAL_S / (median reference time nearby)

that is, the time the work would take on a machine that runs the
reference mix in exactly ``NOMINAL_S``.  The mix imitates the package's
own work: dictionary-heavy Python, a validated 4x4 state with eigensolve,
square root and projection, whole-array NumPy passes, and edge
interpolation into a vertex table written out as OBJ-style text.  It
uses no skewcoh code, so no change to the package can move it.  The time spent in the reference is excluded from
every measured time, and the raw clock times are reported next to the
nominal ones.

In a worker the mix runs in a child process of its own, started by
:class:`Speedometer`, while the worker waits for it.  Its tables are
therefore not in the worker's memory, and the worker's peak RSS is the
package's alone.  Run as a script, this file is that child: it runs the
mix once per line read from standard input and prints its time.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# About the median duration of one reference run on the 2-core machine the
# benchmark was written on, so nominal seconds read close to clock seconds.
NOMINAL_S = 0.035


@dataclass(frozen=True)
class _Validated:
    """Per-state work shaped like the package's: a validated frozen matrix,
    an eigensolve, a square root and a basis projection."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex).copy()
        if float(np.abs(m - m.conj().T).max()) > 1e-10 or np.linalg.eigvalsh(m)[0] < -1e-10:
            raise ValueError("reference matrix is not a state")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def root_diagonal(self, pauli: np.ndarray) -> float:
        w, v = np.linalg.eigh(self.matrix)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        basis = np.kron(pauli, pauli)
        return float(np.einsum("ki,ij,kj->k", basis.conj(), root, basis).real.sum())


class ReferenceMix:
    """The reference mix and its tables."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Working sets of a few MB, so contention for the shared caches
        # slows the reference as it slows the package.
        self._keys = [(int(i), float(x)) for i, x in enumerate(rng.normal(size=20_000))]
        self._order = [self._keys[i] for i in rng.permutation(len(self._keys))]
        self._array = rng.normal(size=400_000)
        # The whole-array passes write into this buffer: fresh arrays of
        # this size are mapped anew, and the cost of those page faults
        # swung by a factor of 3 on the shared machine while the package's
        # own times barely moved.
        self._buffer = np.empty_like(self._array)
        self._grid = rng.normal(size=(60, 60, 60))
        self._cells = [tuple(int(v) for v in rng.integers(0, 59, size=3)) for _ in range(3000)]
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self._state = b @ b.conj().T / np.trace(b @ b.conj().T).real
        self._pauli = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        self.run()  # warm caches and lazy set-up

    def _mesh_like(self) -> int:
        """Edge interpolation into a vertex table, then OBJ-style text."""
        ids: dict[tuple[int, int, int], int] = {}
        vertices = []
        for gx, gy, gz in self._cells:
            if (gx, gy, gz) not in ids:
                v0, v1 = self._grid[gx, gy, gz], self._grid[gx + 1, gy, gz]
                t = 0.5 if v1 == v0 else min(max((0.1 - v0) / (v1 - v0), 0.0), 1.0)
                ids[(gx, gy, gz)] = len(vertices)
                vertices.append((gx + t, 0.5 * gy, 0.25 * gz))
        return len("\n".join(f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in vertices))

    def run(self) -> float:
        """Seconds one run of the mix takes."""
        start = time.perf_counter()
        table = {key: i for i, key in enumerate(self._keys)}
        total = sum(table[key] for key in self._order)
        for _ in range(100):
            total += _Validated(self._state).root_diagonal(self._pauli)
        for _ in range(3):
            np.abs(self._array, out=self._buffer)
            total += float(np.sqrt(self._buffer, out=self._buffer).sum())
        total += self._mesh_like()
        return time.perf_counter() - start


class Speedometer:
    """Times the reference mix, in a child process, on demand.

    ``samples`` holds the mix's own times; ``spent`` is the total time this
    process waited for them, which callers take out of their timings.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        self.spent += time.perf_counter() - start
        if not reply:
            raise RuntimeError(f"reference process ended with code {self._child.wait()}")
        self.samples.append(float(reply))

    def close(self) -> None:
        self._child.stdin.close()
        self._child.wait(timeout=30)

    def between_calls(self, fn):
        """Wrap ``fn`` so that the reference runs after every call."""

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.sample()

        return sampled


def nominal(seconds: float, reference: list[float]) -> float:
    """``seconds`` measured while the reference took ``reference``."""
    return seconds * NOMINAL_S / statistics.median(reference)


if __name__ == "__main__":
    mix = ReferenceMix()
    for _ in sys.stdin:
        print(mix.run(), flush=True)
