#!/usr/bin/env python3
"""Benchmark of skewcoh: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload figure|verify|numeric|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each run

1. times ``import skewcoh`` plus ``qubit_amubs()`` in several fresh
   interpreters (``setup_s``, their median);
2. runs the workload in a fresh worker process with BLAS pinned to one
   thread, repeating its body for ``--seconds`` (``wall_s``, the median
   body time, and ``peak_rss_mb``, the worker's maximum RSS);
3. checks the outputs (figure files, verify checks, numeric deviations);
4. with ``--trace 1``, runs the body once more in a traced worker and
   reports the per-layer metrics instead of the end-to-end ones.

The report lines give each metric with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import figure_check
import workloads
from speedometer import NOMINAL_S, nominal

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 11
# Every run must end within 180 s; leave room for checking and clean-up.
RUN_BUDGET_S = 165.0

SETUP_CODE = f"""
import json, sys, time
start = time.perf_counter()
import skewcoh
skewcoh.qubit_amubs()
seconds = time.perf_counter() - start
sys.path.insert(0, {str(BENCH)!r})
from speedometer import ReferenceMix
mix = ReferenceMix()
reference = [mix.run() for _ in range(3)]
print(json.dumps({{"seconds": seconds, "reference": reference, "file": skewcoh.__file__}}))
"""


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def declared_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for a run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _worker_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    # Let children cache compiled bytecode under the checkout, as an
    # installed package has it: setup_s is the import a CLI call pays.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
    )
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
    return left


# Child processes run with address-space randomization off (and a fixed
# hash seed): with it on, the same work took up to 20 % longer in one
# process than in another.
NO_ASLR = [shutil.which("setarch"), platform.machine(), "-R"] if shutil.which("setarch") else []


def _run(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    argv = NO_ASLR + argv
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"timed out: {' '.join(argv)[:300]}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"exit code {proc.returncode}: {' '.join(argv)[:300]}\n{proc.stderr[-3000:]}")
    return proc


def measure_setup(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Raw and nominal set-up seconds, one per fresh interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        out = json.loads(_run([sys.executable, "-c", SETUP_CODE], env, deadline).stdout)
        if not Path(out["file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"skewcoh was imported from {out['file']}, not from {ROOT / 'src'}")
        raw.append(out["seconds"])
        scaled.append(nominal(out["seconds"], out["reference"]))
    return raw, scaled


def run_worker(workload: str, seed: int, seconds: float, trace: int, tmp: Path, deadline: float) -> dict:
    out, result = tmp / f"out-trace{trace}", tmp / f"result-trace{trace}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out), "--result", str(result),
    ]  # fmt: skip
    _run(argv, _worker_env(tmp), deadline)
    return json.loads(result.read_text())


def check(workload: str, run: dict) -> dict:
    """Operations attempted and failed in one worker run, with reasons."""
    outcomes = run["outcomes"]
    failures = [f for o in outcomes for f in o["failures"]]
    if workload == "figure":
        files = [figure_check.check_outputs(Path(o["out_dir"])) for o in outcomes]
        return {
            "attempted": sum(c["attempted"] for c in files),
            "failed": sum(c["failed"] for c in files),
            "failures": failures + [f for c in files for f in c["failures"]],
            "changed": max(c["changed"] for c in files),
            "digest": files[0]["digest"],
        }
    if workload == "verify" and len({o["report"] for o in outcomes}) > 1:
        failures.append("verify report differs between repetitions with the same seed")
    return {
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "failures": failures,
    }


def _line(name: str, value, unit: str, samples: str) -> str:
    return f"{name:<40} {value:>14.6g} {unit:<11} {samples}"


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """One benchmark run of one workload: the result object and report lines."""
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        setup_raw, setup = ([], []) if trace else measure_setup(_worker_env(tmp), deadline)
        plain = run_worker(workload, seed, seconds, 0, tmp, deadline)
        traced = run_worker(workload, seed, seconds, 1, tmp, deadline) if trace else None
        checks = [check(workload, r) for r in (plain, traced) if r is not None]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = plain["environment"]
    lines = [
        f"# workload {workload}, seed {seed}"
        + ("" if plain["seeded"] else " (this workload has no randomness; the seed does not change it)")
        + f", {seconds:g} s, trace {trace}",
        f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']}, seed {seed}",
    ]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    failures = [f for c in checks for f in c["failures"]]
    walls = plain["walls"]
    wall = statistics.median(walls)

    units = declared_units(trace)
    if not trace:
        nominal_walls = plain["nominal_walls"]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(nominal_walls),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        samples = {
            "setup_s": f"nominal, median of {len(setup)} fresh interpreters",
            "wall_s": f"nominal, median of {len(walls)} body runs",
            "peak_rss_mb": "1 worker process",
        }
    else:
        metrics = dict(traced["layers"])
        metrics["surfaces.write.files_changed"] = checks[1].get("changed", 0)
        metrics["trace.overhead_s"] = traced["walls"][0] - wall
        samples = dict.fromkeys(metrics, "1 traced body run")
        failures += traced["selftest_failures"]
        total = traced["walls"][0]
        lines.append(f"# traced body {total:.4g} s, untraced median {wall:.4g} s over {len(walls)} runs")
        lines.append(f"# {'span':<26} {'calls':>9} {'self_s':>10} {'share':>7}")
        for name, calls, self_s in traced["breakdown"]:
            lines.append(f"# {name:<26} {calls:>9} {self_s:>10.4f} {self_s / total:>7.1%}")
    if set(metrics) != set(units):
        raise BenchmarkError(f"reported metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    lines += [_line(name, value, units[name], samples[name]) for name, value in metrics.items()]

    if not trace:
        reference = plain["reference"]
        lines += [
            _line("setup_raw_s", statistics.median(setup_raw), "s", f"clock, median of {len(setup_raw)} interpreters"),
            _line("wall_raw_s", wall, "s", f"clock, median of {len(walls)} body runs"),
            _line("reference_ms", 1e3 * statistics.median(reference), "ms",
                  f"median of {len(reference)} reference runs beside the worker (nominal {1e3 * NOMINAL_S:g} ms)"),
        ]  # fmt: skip
    lines.append(_line("failed_frac", failed / attempted if attempted else 1.0, "1", f"{failed} of {attempted} operations"))
    latencies = [x for o in plain["outcomes"] for x in o.get("latencies_us", ())]
    if latencies:
        deciles = statistics.quantiles(latencies, n=10)
        lines.append(_line("state_p50_us", deciles[4], "us", f"{len(latencies)} states"))
        lines.append(_line("state_p90_us", deciles[8], "us", f"{len(latencies)} states"))
        kinds = workloads.NUMERIC_KINDS
        for i, kind in enumerate(kinds):
            # operations cycle through the kinds from the start of each batch
            own = [x for o in plain["outcomes"] for x in o["latencies_us"][i :: len(kinds)]]
            lines.append(_line(f"state_p50_us.{kind}", statistics.median(own), "us", f"{len(own)} states"))
        worst = max(o["worst_deviation"] for o in plain["outcomes"])
        lines.append(f"# worst |numeric - closed form| {worst:.3g} (tolerance {workloads.NUMERIC_TOL:g})")
    if workload == "figure":
        lines.append(f"# figure files: combined sha256 {checks[0]['digest']}, {checks[0]['changed']} changed since seed")
    lines += [f"# FAILED {f}" for f in failures[:20]]

    result = {
        "correct": attempted > 0 and failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS) + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long each worker repeats its body")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "skewcoh" / "__init__.py", workloads.FIGURE_SCRIPT) if not p.is_file()]
    if missing:
        print(f"error: not a skewcoh checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        try:
            result, lines = measure(name, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct &= result["correct"]
    return 0 if correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
