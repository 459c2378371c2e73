#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision and the working tree.

    python3 scripts/bench.py --parent REV --out BENCH_N.json

Both sides run from sibling directories of one temporary root whose names
have the same length, ``parent/`` and ``change/``: a worker's heap, and so
its peak memory and speed, depends on the length of its checkout's path.
The parent revision is exported there with ``git archive``; the change is
a copy of this checkout's working tree (its tracked files and its
untracked, non-ignored ones).  For every
workload of ``BENCHMARK.json``, each of ten pairs runs
``benchmark/run.py --workload W --seed 1234 --seconds T``, with ``T`` the
declared ``run_seconds``, once on each side, in each side's own checkout;
the side that runs first alternates from pair to pair.  The output file
records, per workload and end-to-end metric, every run and each side's
median and quartiles, the pairs the change won, and two verdicts:

* ``gain``: the change won at least nine of the ten pairs (ties count
  for neither side) and its median is better than the parent's by more
  than the distance between the parent's quartiles;
* ``within_bound``: the change's median is not worse than the parent's by
  more than the metric's bound, taken relative to the parent's median.

It also records the seed, pair count, run length, the benchmark's
``correct`` flag of every run, the combined digest of the figure files and
how many of them changed since the benchmark's seed (the ``# figure files``
line of the figure workload), the Python, NumPy and BLAS versions the
benchmark reports, and each side's ``src_lines``, the line count of its
``src/**/*.py``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SEED = 1234  # benchmark/run.py's default seed
ENV_LINE = re.compile(r"^# python (?P<python>[^,]+), numpy (?P<numpy>[^,]+), (?P<blas>[^,]+), nproc (?P<nproc>\d+),")
FIGURE_LINE = re.compile(r"^# figure files: combined sha256 (?P<digest>[0-9a-f]+), (?P<changed>\d+) changed since seed")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` in ``into/parent``."""
    archive = into / "parent.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "parent", filter="data")
    archive.unlink()
    return into / "parent"


def copy_tree(into: Path) -> Path:
    """The working tree's tracked and untracked, non-ignored files in
    ``into/change``; a tracked file deleted from the tree is left out."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():
            target = into / "change" / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return into / "change"


def src_lines(checkout: Path) -> int:
    """The number of lines of ``checkout``'s ``src/**/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/**/*.py"))


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One ``benchmark/run.py`` run: its metric values, ``correct`` flag,
    figure-file digest and change count (None for other workloads) and
    environment."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", f"{seconds:g}"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout.name} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((m.groupdict() for m in map(ENV_LINE.match, lines) if m), {})
    if env:
        env["nproc"] = int(env["nproc"])
    figure = next((m.groupdict() for m in map(FIGURE_LINE.match, lines) if m), None)
    if figure:
        figure["changed"] = int(figure["changed"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"metrics": metrics, "correct": result["correct"], "figure_files": figure, "environment": env}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    def stats(runs: list[float]) -> dict:
        q1, median, q3 = statistics.quantiles(runs, n=4)
        return {"median": median, "q1": q1, "q3": q3, "runs": runs}

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = stats(parent), stats(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "relative_change": c["median"] / p["median"] - 1.0,
        "bound": bound,
        "gain": wins >= 9 and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"],
        "within_bound": sign * (c["median"] - p["median"]) <= bound * abs(p["median"]),
    }


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = declared["run_seconds"]

    report = {
        "command": f"python3 benchmark/run.py --workload W --seed {SEED} --seconds {seconds:g}",
        "parent": _git("rev-parse", args.parent),
        "change": _git("describe", "--always", "--dirty", "--abbrev=40"),
        "seed": SEED,
        "seconds": seconds,
        "pairs": PAIRS,
        "environment": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        sides = {"parent": export(args.parent, Path(tmp)), "change": copy_tree(Path(tmp))}
        report["src_lines"] = {side: src_lines(checkout) for side, checkout in sides.items()}
        for workload in (w["name"] for w in declared["workloads"]):
            runs = {side: [] for side in sides}
            for pair in range(PAIRS):
                for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                    run = run_once(sides[side], workload, seconds)
                    runs[side].append(run)
                    report["environment"] = report["environment"] or run["environment"]
                    print(f"{workload} pair {pair} {side}: {run['metrics']} correct={run['correct']}", flush=True)
            report["workloads"][workload] = {
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                # the distinct (digest, changed) readings of each side's runs
                "figure_files": {
                    side: [dict(f) for f in sorted({tuple(r["figure_files"].items()) for r in rs})]
                    for side, rs in runs.items()
                    if rs[0]["figure_files"]
                },
                "metrics": {
                    m["name"]: summarize(
                        [r["metrics"][m["name"]] for r in runs["parent"]],
                        [r["metrics"][m["name"]] for r in runs["change"]],
                        m["better"],
                        m["bound"],
                    )
                    for m in declared["end_to_end"]
                },
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
