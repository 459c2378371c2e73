"""One measured run of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Repeats the workload
body until ``--seconds`` have passed (at least once; exactly once when
traced), then writes its timings, operation counts, peak RSS through the
first body run and, when traced, the per-layer metrics as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import workloads
from speedometer import Speedometer, nominal


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image.  ru_maxrss would not do: Linux
    # carries it over fork and exec, so it can report the parent's RSS.
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for the workload's files")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    tracer = speedometer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        speedometer = Speedometer()

    # Repeat the body while another run is expected to end within
    # --seconds; a traced run times the body exactly once.  Untraced runs
    # sample the reference after each body run (and inside long bodies),
    # and the time spent waiting for it is taken out of the body's time.
    walls, nominal_walls, outcomes = [], [], []
    try:
        import skewcoh  # noqa: F401  (imported before timing; its cost is setup_s)

        workload = workloads.WORKLOADS[args.workload](args.seed, args.out, tracer, speedometer)
        start = time.perf_counter()
        while not walls or (
            not args.trace and time.perf_counter() - start + (time.perf_counter() - start) / len(walls) <= args.seconds
        ):
            inputs = workload.inputs(len(walls))
            first = len(speedometer.samples) if speedometer else 0
            spent = speedometer.spent if speedometer else 0.0
            t0 = time.perf_counter()
            outcome = workload.run(inputs)
            wall = time.perf_counter() - t0
            if not walls:
                # The worker's RSS creeps up by about 1 MB per further
                # verify body, so the peak of a run that fits more bodies
                # would read higher: take the peak through the first body.
                peak_rss_mb = _peak_rss_mb()
            if speedometer:
                wall -= speedometer.spent - spent
                speedometer.sample()
                nominal_walls.append(nominal(wall, speedometer.samples[first:]))
            walls.append(wall)
            outcomes.append(outcome)
    finally:
        if speedometer:
            speedometer.close()

    result = {
        "walls": walls,
        "nominal_walls": nominal_walls,
        "reference": speedometer.samples if speedometer else [],
        "outcomes": outcomes,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
        "seeded": workload.seeded,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(walls[0])
        result["layers"] = layers
        result["breakdown"] = tracer.breakdown()
        result["selftest_failures"] = workloads.selftest_failures(args.workload, layers, tracer.unwrapped_leftovers())
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
