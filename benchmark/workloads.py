"""The three benchmark workloads.

Each workload has ``inputs(rep)``, built from the workload seed outside
the timed region, and ``run(inputs)``, the timed body, which returns how
many operations it attempted and how many failed.  Every skewcoh function
is looked up at call time, so the tracer's wrappers are the ones called.
In untraced runs the long bodies run the speedometer's reference mix
between their steps (figure: CLI steps; verify: suites), so the machine's
speed is sampled throughout them.

* ``figure``  -- ``main()`` of ``scripts/make_figure_data.py`` at 101^3
  into a fresh directory: 30 CLI steps writing 36 files.  It has no
  randomness; the seed does not change it.  Its files are checked by the
  parent process (``figure_check.py``), so here it reports no operations.
* ``verify``  -- ``run_suites()`` over all 11 suites with default sample
  counts and the workload seed.  An operation is one check.
* ``numeric`` -- a closed loop of single-state certifications through
  the public scalar API, cycling Bell-diagonal, z-polarized X and channel
  output states in equal thirds.  An operation is one state.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIGURE_SCRIPT = ROOT / "scripts" / "make_figure_data.py"
FIGURE_RESOLUTION = 101
# A numeric body run: enough states for a stable median batch time
# (about a quarter second on one core), a multiple of the three kinds.
NUMERIC_BATCH = 750
NUMERIC_KINDS = ("bell", "xz", "channel")
NUMERIC_TOL = 1e-9
CHANNEL_KINDS = ("BF", "PF", "BPF", "GAD")
LABELS = ("a1", "a2", "a3")


def _skewcoh(module: str = ""):
    # sys.modules, not attribute access: skewcoh.coherence is a function.
    return importlib.import_module(f"skewcoh.{module}" if module else "skewcoh")


class Figure:
    seeded = False

    def __init__(self, seed: int, out_root: Path, tracer, speedometer) -> None:
        spec = importlib.util.spec_from_file_location("make_figure_data", FIGURE_SCRIPT)
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        if tracer is not None:
            tracer.adopt(vars(self.script))
        if speedometer is not None:
            self.script.run = speedometer.between_calls(self.script.run)
        self.out_root = out_root

    def inputs(self, rep: int) -> Path:
        return self.out_root / f"rep{rep}"

    def run(self, out: Path) -> dict:
        argv = sys.argv
        sys.argv = [str(FIGURE_SCRIPT), "--out", str(out), "--resolution", str(FIGURE_RESOLUTION)]
        failures = []
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                self.script.main()
        except SystemExit as exc:
            failures.append(str(exc))
        finally:
            sys.argv = argv
        return {"out_dir": str(out), "failures": failures}


class Verify:
    seeded = True

    def __init__(self, seed: int, out_root: Path, tracer, speedometer) -> None:
        self.seed = seed
        if speedometer is not None:
            suites = _skewcoh("verify").ALL_SUITES
            for name, suite in suites.items():
                suites[name] = speedometer.between_calls(suite)

    def inputs(self, rep: int) -> int:
        return self.seed

    def run(self, seed: int) -> dict:
        verify = _skewcoh("verify")
        results = verify.run_suites(seed=seed)
        checks = [(r.name, c) for r in results for c in r.checks]
        return {
            "attempted": len(checks),
            "failed": sum(not c.passed for _, c in checks),
            "failures": [f"{name}: {c.name} {c.observed}" for name, c in checks if not c.passed],
            "report": verify.format_report(results),
        }


def _draw_bell(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        c1, c2, c3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=3))
        if min(1 - c3 - c1 - c2, 1 - c3 + c1 + c2, 1 + c3 + c1 - c2, 1 + c3 - c1 + c2) >= 0.0:
            return c1, c2, c3


def _draw_xz(rng: np.random.Generator) -> tuple[float, ...]:
    while True:
        r, s, c1, c2, c3 = (float(x) for x in rng.uniform(-1.0, 1.0, size=5))
        if 1.0 - c3 - np.hypot(c1 + c2, r - s) >= 0.0 and 1.0 + c3 - np.hypot(c1 - c2, r + s) >= 0.0:
            return r, s, c1, c2, c3


def _bell_op(sk, ch, c) -> float:
    params = sk.BellDiagonalParams(*c)
    rho = sk.bell_diagonal(params)
    return max(abs(sk.coherence(rho, sk.amub_basis(lab)) - sk.bd_coherence(params, lab)) for lab in LABELS)


def _xz_op(sk, ch, x) -> float:
    params = sk.XStateZParams(*x)
    rho = sk.x_state_z(params)
    values = [sk.coherence(rho, sk.amub_basis(lab)) for lab in LABELS]
    return max(abs(values[0] - sk.xz_coherence_a1(params)), abs(sum(values) - sk.xz_coherence_sum(params)))


def _channel_op(sk, ch, op) -> float:
    kind, p, c = op
    params = sk.BellDiagonalParams(*c)
    moved = ch.apply_product_channel(ch.channel_as_kraus(kind, p), sk.bell_diagonal(params))
    predicted = ch.predicted_coefficients(kind, params, p)
    return abs(sk.coherence(moved, sk.amub_basis("a1")) - sk.bd_coherence(predicted, "a1"))


_OPS = {"bell": _bell_op, "xz": _xz_op, "channel": _channel_op}


class Numeric:
    seeded = True

    def __init__(self, seed: int, out_root: Path, tracer, speedometer) -> None:
        self.seed = seed

    def inputs(self, rep: int) -> list[tuple[str, object]]:
        rng = np.random.default_rng([self.seed, rep])
        ops = []
        for i in range(NUMERIC_BATCH):
            kind = NUMERIC_KINDS[i % len(NUMERIC_KINDS)]
            if kind == "bell":
                ops.append((kind, _draw_bell(rng)))
            elif kind == "xz":
                ops.append((kind, _draw_xz(rng)))
            else:
                channel = CHANNEL_KINDS[int(rng.integers(len(CHANNEL_KINDS)))]
                ops.append((kind, (channel, float(rng.uniform(0.0, 1.0)), _draw_bell(rng))))
        return ops

    def run(self, ops: list[tuple[str, object]]) -> dict:
        latencies, failures, worst = [], [], 0.0
        sk, ch, clock = _skewcoh(), _skewcoh("channels"), time.perf_counter
        for kind, op in ops:
            start = clock()
            try:
                deviation = _OPS[kind](sk, ch, op)
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                deviation, error = float("inf"), f"{type(exc).__name__}: {exc}"
            else:
                error = None
            latencies.append((clock() - start) * 1e6)
            worst = max(worst, deviation)
            if not deviation <= NUMERIC_TOL:
                failures.append(f"{kind} {op}: {error or f'deviation {deviation:.3e}'}")
        return {
            "attempted": len(ops),
            "failed": len(failures),
            "failures": failures[:10],
            "latencies_us": latencies,
            "worst_deviation": worst,
        }


WORKLOADS = {"figure": Figure, "verify": Verify, "numeric": Numeric}

# Self-test of traced runs.  Layer counters that must be positive on each
# workload (the layers the workload exercises), exact counts, and counters
# that must stay zero (the layers the workload bypasses).
MUST_MOVE = {
    "figure": (
        "coherence.field.points", "coherence.closed.calls", "coherence.numeric.calls", "channels.dynamics.self_s",
        "surfaces.sample.calls", "surfaces.extract.calls", "surfaces.write.files", "cli.main.calls",
    ),
    "verify": (
        "linalg.sqrt_psd.calls", "linalg.eig.matrices", "states.DensityMatrix.calls", "bases.amub_basis.calls",
        "coherence.numeric.calls", "coherence.closed.calls", "coherence.field.points", "coherence.skew.self_s",
        "channels.apply.calls", "channels.dynamics.self_s", "surfaces.sample.calls", "surfaces.extract.calls",
        "surfaces.components.self_s", "verify.checks",
    ),
    "numeric": (
        "linalg.sqrt_psd.calls", "linalg.eig.matrices", "states.DensityMatrix.calls", "states.build.self_s",
        "bases.amub_basis.calls", "coherence.numeric.calls", "coherence.closed.calls", "channels.apply.calls",
    ),
}
MUST_EQUAL = {
    "figure": {"surfaces.write.files": 36, "cli.main.calls": 30, "surfaces.sample.distinct": 14},
    "verify": {},
    "numeric": {"coherence.numeric.calls": NUMERIC_BATCH * 7 // 3},
}
MUST_STAY = {
    "figure": ("verify.checks", "channels.apply.calls", "surfaces.components.self_s"),
    "verify": ("surfaces.write.files", "cli.main.calls"),
    "numeric": (
        "coherence.field.points", "surfaces.sample.calls", "surfaces.extract.calls",
        "surfaces.components.self_s", "surfaces.write.files", "cli.main.calls", "verify.checks",
    ),
}


def selftest_failures(workload: str, layers: dict, leftovers: list[str]) -> list[str]:
    """Reasons a traced run of ``workload`` did not trace what it should."""
    problems = [f"unwrapped original left in {where}" for where in leftovers]
    problems += [f"{name} recorded nothing" for name in MUST_MOVE[workload] if not layers[name] > 0]
    problems += [
        f"{name} is {layers[name]}, expected {want}"
        for name, want in MUST_EQUAL[workload].items()
        if layers[name] != want
    ]
    problems += [f"{name} moved on {workload}: {layers[name]}" for name in MUST_STAY[workload] if layers[name] != 0]
    return problems
