"""``scripts/bench.py`` with its runs stubbed: the exit code and the notes
it prints after writing the BENCH file."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The script's module, with git, the two checkouts and every run stubbed,
    and ``outcome``, which maps (workload, side) to a run's (correct, figure
    digest); unlisted runs are correct with digest d0."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    outcome = {}

    def run_once(checkout, workload, seconds):
        correct, digest = outcome.get((workload, checkout.name), (True, "d0"))
        figure = {"digest": digest, "changed": 17} if workload == "figure" else None
        return {"metrics": {"setup_s": 0.1, "wall_s": 1.0, "peak_rss_mb": 50.0}, "correct": correct,
                "figure_files": figure, "environment": {}}

    monkeypatch.setattr(module, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(module, "export", lambda rev, into: into / "parent")
    monkeypatch.setattr(module, "copy_tree", lambda into: into / "change")
    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--parent", "HEAD", "--out", str(tmp_path / "BENCH.json")])
    return module, outcome


def test_correct_runs_exit_0(bench, tmp_path, capsys):
    assert bench[0].main() == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert all(all(entry["correct"].values()) for entry in report["workloads"].values())


def test_an_incorrect_run_exits_1_after_writing_the_file(bench, tmp_path, capsys):
    module, outcome = bench
    outcome["verify", "change"] = (False, None)
    assert module.main() == 1
    assert capsys.readouterr().err == "incorrect run: workload verify, change side\n"
    report = json.loads((tmp_path / "BENCH.json").read_text())
    assert report["workloads"]["verify"]["correct"] == {"parent": True, "change": False}


def test_differing_figure_digests_are_a_note(bench, capsys):
    module, outcome = bench
    outcome["figure", "change"] = (True, "d1")
    assert module.main() == 0
    err = capsys.readouterr().err
    assert err.startswith("note: the figure digests differ between the sides:")
    assert "'change': ['d1']" in err and "'parent': ['d0']" in err
