#!/usr/bin/env python3
"""Self-test of the benchmark's tracer.

    python3 benchmark/selftest.py

1. In this process: the package shadows its ``coherence`` module with the
   function of the same name, the tracer still wraps every namespace that
   holds a traced function, no namespace keeps an unwrapped original, and
   one numeric call produces the expected nested spans.
2. For each workload, a traced benchmark run (``run.py --trace 1``) must
   report ``correct``; a traced run is incorrect when an original is left
   unwrapped, or when a layer the workload exercises records no calls
   (``workloads.MUST_MOVE`` and ``MUST_EQUAL``) or a layer it bypasses
   records some (``workloads.MUST_STAY``).

Exits non-zero on the first failure.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def check_tracer() -> None:
    import skewcoh.coherence as shadowed

    assert not isinstance(shadowed, types.ModuleType), "skewcoh.coherence is expected to be shadowed"
    # import_module returns the module from sys.modules, never the attribute
    modules = {name: importlib.import_module(f"skewcoh.{name}") for name in ("coherence", "channels", "cli", "verify")}
    original = modules["coherence"].coherence

    tracer = Tracer()
    tracer.install()
    leftovers = tracer.unwrapped_leftovers()
    assert not leftovers, f"unwrapped originals left: {leftovers}"
    import skewcoh

    for holder in (skewcoh, modules["coherence"], modules["channels"], modules["cli"], modules["verify"]):
        assert holder.coherence is not original, f"{holder.__name__}.coherence is not wrapped"
        assert holder.coherence is modules["coherence"].coherence, f"{holder.__name__} holds another wrapper"

    params = skewcoh.BellDiagonalParams(0.1, -0.2, 0.3)
    value = skewcoh.coherence(skewcoh.bell_diagonal(params), skewcoh.amub_basis("a2"))
    assert abs(value - skewcoh.bd_coherence(params, "a2")) < 1e-12
    layers = tracer.layer_metrics(wall_s=sum(end - start for _, start, end, parent in tracer.spans if parent < 0))
    expected = {
        "coherence.numeric.calls": 1,
        "linalg.sqrt_psd.calls": 1,
        "states.DensityMatrix.calls": 1,
        "bases.amub_basis.calls": 1,
        "coherence.closed.calls": 1,
        "linalg.eig.matrices": 2,  # validation of the state and the square root
    }
    for name, want in expected.items():
        assert layers[name] == want, f"{name} = {layers[name]}, expected {want}"
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".self_s")), layers
    assert math.isclose(self_total, sum(s for _, _, s in tracer.breakdown()), rel_tol=1e-9)
    assert abs(layers["trace.uncovered_s"]) < 1e-12
    print("tracer: shadowing, namespace wrapping and span nesting ok")


def check_workload(name: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    if proc.returncode != 0:
        raise AssertionError(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
    assert result["correct"], f"{name}: traced run incorrect\n" + "\n".join(failures)
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    print(
        f"{name}: traced run correct; sqrt_psd calls {layers['linalg.sqrt_psd.calls']:g}, "
        f"files written {layers['surfaces.write.files']:g}, extract calls {layers['surfaces.extract.calls']:g}"
    )


def main() -> int:
    check_tracer()
    for name in workloads.WORKLOADS:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
