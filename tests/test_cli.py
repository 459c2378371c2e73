import argparse
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from skewcoh import cli
from skewcoh.bases import AMUB_LABELS, amub_basis
from skewcoh.coherence import coherence
from skewcoh.states import BellDiagonalParams, bell_diagonal
from skewcoh.verify import ALL_SUITES, MAX_SAMPLES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoherenceCommand:
    def test_werner(self, capsys):
        code, out, err = run(capsys, "coherence", "--family", "werner", "--p", "0.5", "--basis", "a1")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[1:]}
        assert values["numeric"] == pytest.approx(values["closed-form"], abs=1e-10)
        assert values["difference"] < 1e-10

    def test_negative_zero_coefficients_fold_into_zero(self, capsys):
        # --c folds -0.0 into 0.0 as the other float flags do
        for args in (("bell", "--c=-0.0,0,0"), ("xz", "--r", "0", "--s", "0", "--c=0,-0.0,0")):
            code, out, _ = run(capsys, "coherence", "--family", *args)
            assert code == 0
            assert "c=(0,0,0)" in out.splitlines()[0]

    def test_header_prints_the_values_as_given(self, capsys):
        # p = 0.1000001 is not p = 0.1, so the header must not round it to %g
        code, out, _ = run(capsys, "coherence", "--family", "werner", "--p", "0.1000001")
        assert code == 0
        assert out.splitlines()[0] == "family=werner basis=a1 p=0.1000001"
        code, out, _ = run(capsys, "coherence", "--family", "bell", "--c=-0.2,0.6,0.123456789")
        assert code == 0
        assert out.splitlines()[0] == "family=bell basis=a1 c=(-0.2,0.6,0.123456789)"

    def test_bell_in_a2_incoherent(self, capsys):
        code, out, _ = run(capsys, "coherence", "--family", "bell", "--c", "0,0,0", "--basis", "a2")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()[1:]}
        assert values["numeric"] <= 1e-12

    def test_xz_flags_candidate_discrepancy(self, capsys):
        code, out, err = run(
            capsys, "coherence", "--family", "xz",
            "--r", "0.1", "--s", "0.1", "--c", "0.2,0.1,0.3", "--basis", "a1",
        )
        assert code == 0
        assert "audited-candidate" in out
        assert "deviates" in err

    def test_undefined_candidate_not_written(self, capsys, tmp_path):
        # r = s = 0 with c1 = c2 = 0: both block gaps vanish and the candidate is NaN.
        target = tmp_path / "row.csv"
        code, out, err = run(
            capsys, "coherence", "--family", "xz",
            "--r", "0", "--s", "0", "--c", "0,0,0.3", "--csv", str(target),
        )
        assert code == 0
        assert "undefined" in err
        assert "nan" not in out and "nan" not in target.read_text()
        assert "closed-form" in target.read_text()

    def test_compare_measures(self, capsys):
        code, out, _ = run(capsys, "coherence", "--family", "werner", "--p", "0.3", "--compare")
        assert code == 0
        assert "l1" in out and "rel-entropy" in out

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run(
            capsys, "coherence", "--family", "isotropic", "--F", "0.8", "--csv", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("quantity,value")

    def test_csv_bad_path_exits_2_without_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "row.csv"
        code, out, err = run(
            capsys, "coherence", "--family", "werner", "--p", "0.5", "--csv", str(target)
        )
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert "error" in err

    def test_curve_grid(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "coherence", "--family", "werner", "--grid", "11", "--out", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "curve_werner.csv").read_text().splitlines()
        assert lines[0] == "p,C"
        assert len(lines) == 12

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--family", "werner", "--p", "0.5", "--r", "0.3", "--F", "0.9"], "--F"),
            (["--family", "bell", "--c", "0.1,0.1,0.1", "--p", "nan"], "--p"),
            (["--family", "isotropic", "--F", "0.5", "--s", "0.1"], "--s"),
            (["--family", "xz", "--r", "0.1", "--s", "0.1"], "--c"),
        ],
    )
    def test_inapplicable_or_missing_flag_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "coherence", *argv)
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("extra", [["--p", "0"], ["--F", "0.5"], ["--compare"], ["--csv", "row.csv"]])
    def test_grid_rejects_per_state_flags(self, capsys, tmp_path, extra):
        code, out, err = run(
            capsys, "coherence", "--family", "werner", "--grid", "11", "--out", str(tmp_path), *extra
        )
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert extra[0] in err
        assert not any(tmp_path.iterdir())

    def test_out_without_grid_exits_2(self, capsys, tmp_path):
        # a single state writes nothing to --out, so the flag would be ignored
        code, out, err = run(
            capsys, "coherence", "--family", "bell", "--c=0.1,0.2,0.3", "--out", str(tmp_path / "out")
        )
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert "--out applies only to --grid" in err
        assert not (tmp_path / "out").exists()

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "coherence", "--family", "werner")
        assert code == cli.EXIT_BAD_ARGS
        assert "error" in err

    def test_invalid_triple_exits_2(self, capsys):
        code, _, err = run(capsys, "coherence", "--family", "bell", "--c", "0,0")
        assert code == cli.EXIT_BAD_ARGS

    def test_unphysical_state_exits_2(self, capsys):
        code, _, err = run(capsys, "coherence", "--family", "bell", "--c", "1,1,1")
        assert code == cli.EXIT_BAD_ARGS
        assert "unphysical" in err


class TestSurfaceCommand:
    def test_writes_obj(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.05",
            "--resolution", "31", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "surface_bd-a1_level0.05.obj"
        assert str(path) in out
        assert path.stat().st_size > 0

    def test_close_levels_write_two_files(self, capsys, tmp_path):
        # %g would name both level0.1; each value keeps its own name
        for level in ("0.1", "0.1000001"):
            code, out, _ = run(
                capsys, "surface", "--field", "bd-a1", "--level", level,
                "--resolution", "21", "--out", str(tmp_path),
            )
            assert code == 0
            assert (tmp_path / f"surface_bd-a1_level{level}.obj").exists()
        assert len(list(tmp_path.glob("*.obj"))) == 2

    def test_empty_mesh_warns(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.6",
            "--resolution", "21", "--out", str(tmp_path),
        )
        assert code == 0
        assert "empty" in err

    def test_empty_mesh_warning_prints_the_level_as_given(self, capsys, tmp_path):
        # the a1 field peaks at 0.5; %g would print this level as 0.5
        code, _, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.5000001",
            "--resolution", "21", "--out", str(tmp_path),
        )
        assert code == 0
        assert "level 0.5000001 exceeds the field maximum" in err

    def test_empty_physical_region_warns(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "surface", "--field", "xz-a1", "--r", "2", "--s", "2", "--level", "0.1",
            "--resolution", "11", "--out", str(tmp_path),
        )
        assert code == 0
        assert "empty physical region" in err
        assert "exceeds" not in err

    @pytest.mark.parametrize(
        "argv, warning",
        [
            (["bd-a1", "--level", "0.5000001"], "level 0.5000001 exceeds the field maximum"),
            # the a1 field peaks at exactly 0.5
            (["bd-a1", "--level", "0.5"], "level 0.5 equals the field maximum"),
            # every point of the 4^3 BF field at p = 1 is physical and above 0.0286
            (["channel:BF", "--p", "1", "--level", "0", "--resolution", "4"], "level 0 lies below the field minimum"),
            (["xz-a1", "--r", "2", "--s", "2", "--level", "0.1"], "the field has an empty physical region"),
        ],
        ids=["above-maximum", "at-maximum", "below-minimum", "no-physical-point"],
    )
    def test_empty_mesh_warning_names_its_cause(self, capsys, tmp_path, argv, warning):
        code, _, err = run(capsys, "surface", "--resolution", "5", "--field", *argv, "--out", str(tmp_path))
        assert code == 0
        assert err == f"warning: {warning}; the mesh is empty\n"

    def test_nonempty_mesh_skips_the_physical_scan(self, capsys, tmp_path, monkeypatch):
        # a mesh is empty whenever no point is physical or the level is at
        # least the maximum, so a nonempty mesh needs no scan of the field
        class NoScan:
            def __getattr__(self, name):
                if name == "fmax":
                    raise AssertionError("field scanned for a nonempty mesh")
                return getattr(np, name)

        monkeypatch.setattr(cli, "np", NoScan())
        code, _, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.1",
            "--resolution", "11", "--out", str(tmp_path),
        )
        assert code == 0
        assert err == ""

    def test_resolution_above_cap_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.1",
            "--resolution", "100000", "--out", str(out_dir),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert "resolution" in err
        assert out == ""
        assert not out_dir.exists()

    def test_channel_field(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "surface", "--field", "channel:BF", "--p", "0.6", "--level", "0.05",
            "--resolution", "31", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "surface_channel-BF_p0.6_level0.05.obj").exists()

    def test_channel_requires_p(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "surface", "--field", "channel:BF", "--level", "0.05", "--out", str(tmp_path)
        )
        assert code == cli.EXIT_BAD_ARGS

    def test_inapplicable_flags_exit_2_without_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.1", "--p", "0.3", "--r", "5",
            "--resolution", "11", "--out", str(out_dir),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert "--p" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("r", ["inf", "nan"])
    def test_non_finite_r_exits_2_without_writing(self, capsys, tmp_path, r):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "surface", "--field", "xz-a1", "--r", r, "--s", "0", "--level", "0.1",
            "--resolution", "11", "--out", str(out_dir),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert "finite" in err
        assert "warning" not in err
        assert out == ""
        assert not out_dir.exists()

    def test_nan_level_exits_2_without_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "nan",
            "--resolution", "11", "--out", str(out_dir),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert "level" in err
        assert out == ""
        assert not out_dir.exists()

    def test_channel_p_outside_unit_interval_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "surface", "--field", "channel:BF", "--p", "1.5", "--level", "0.05",
            "--resolution", "11", "--out", str(out_dir),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert "p=1.5 outside [0, 1]" in err
        assert not out_dir.exists()

    def test_xz_field_ply_and_csv(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "surface", "--field", "xz-a1", "--r", "0.1", "--s", "0.1",
            "--level", "0.1", "--resolution", "21", "--format", "ply",
            "--field-csv", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "surface_xz-a1_r0.1_s0.1_level0.1.ply").exists()
        assert (tmp_path / "field_xz-a1_r0.1_s0.1.csv").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ("surface", "--field", "bd-a1", "--level", "0.2", "--resolution", "31")
        run(capsys, *args, "--out", str(tmp_path / "one"))
        run(capsys, *args, "--out", str(tmp_path / "two"))
        a = (tmp_path / "one" / "surface_bd-a1_level0.2.obj").read_bytes()
        b = (tmp_path / "two" / "surface_bd-a1_level0.2.obj").read_bytes()
        assert a == b

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        code, out, _ = run(capsys, "surface", "--field", "bd-a1", "--level", "0.2", "--resolution", "21")
        assert code == 0
        assert (tmp_path / "surface_bd-a1_level0.2.obj").exists()


class TestSurfaceFieldStore:
    """Consecutive `surface` steps on one field sample it once."""

    @pytest.fixture
    def sampled(self, monkeypatch):
        """The arguments of every `cli.sf.sample_*` call, starting from an empty store."""
        monkeypatch.setattr(cli, "_last_field", {})
        calls = []
        for name in ("sample_bd_field", "sample_xz_field", "sample_channel_field"):
            def counted(*args, real=getattr(cli.sf, name)):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(cli.sf, name, counted)
        return calls

    def test_two_levels_sample_once_and_match_fresh_steps(self, capsys, tmp_path, sampled):
        args = ("surface", "--field", "bd-sum", "--resolution", "21")
        names = ("surface_bd-sum_level0.05.obj", "surface_bd-sum_level0.2.obj")
        for level in ("0.05", "0.2"):
            assert run(capsys, *args, "--level", level, "--out", str(tmp_path / "stored"))[0] == 0
        assert sampled == [("sum", 21)]
        for level in ("0.05", "0.2"):
            cli._last_field.clear()
            assert run(capsys, *args, "--level", level, "--out", str(tmp_path / "fresh"))[0] == 0
        assert len(sampled) == 3
        for name in names:
            assert (tmp_path / "stored" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize(
        "first, second",
        [
            (["--field", "bd-a1"], ["--field", "bd-a2"]),
            (["--field", "xz-a1", "--r", "0.1", "--s", "0.1"], ["--field", "xz-sum", "--r", "0.1", "--s", "0.1"]),
            (["--field", "xz-a1", "--r", "0.1", "--s", "0.1"], ["--field", "xz-a1", "--r", "0.3", "--s", "0.1"]),
            (["--field", "xz-a1", "--r", "0.1", "--s", "0.1"], ["--field", "xz-a1", "--r", "0.1", "--s", "0.3"]),
            (["--field", "channel:BF", "--p", "0.05"], ["--field", "channel:BF", "--p", "0.6"]),
            (["--field", "channel:BF", "--p", "0.05"], ["--field", "channel:PF", "--p", "0.05"]),
            (["--field", "bd-a1"], ["--field", "bd-a1", "--resolution", "13"]),
        ],
        ids=["bd-measure", "xz-measure", "r", "s", "p", "channel-kind", "resolution"],
    )
    def test_another_key_samples_again(self, capsys, tmp_path, sampled, first, second):
        for argv in (first, second, first):
            code, _, _ = run(capsys, "surface", "--level", "0.05", "--resolution", "11", *argv, "--out", str(tmp_path))
            assert code == 0
        assert len(sampled) == 3
        assert len(cli._last_field) == 1

    def test_failed_sampling_leaves_the_store_empty(self, capsys, tmp_path, sampled):
        bd = ("surface", "--field", "bd-a1", "--level", "0.05", "--resolution", "11", "--out", str(tmp_path))
        assert run(capsys, *bd)[0] == 0
        code, _, _ = run(
            capsys, "surface", "--field", "xz-a1", "--r", "nan", "--s", "0", "--level", "0.05",
            "--resolution", "11", "--out", str(tmp_path),
        )
        assert code == cli.EXIT_BAD_ARGS
        assert cli._last_field == {}
        assert run(capsys, *bd)[0] == 0
        assert len(sampled) == 3

    def test_previous_field_released_before_sampling(self, capsys, tmp_path, sampled, monkeypatch):
        args = ("--level", "0.05", "--resolution", "11", "--out", str(tmp_path))
        assert run(capsys, "surface", "--field", "bd-a1", *args)[0] == 0
        previous = weakref.ref(*cli._last_field.values())
        alive = []

        def sampler(*sample_args, real=cli.sf.sample_bd_field):
            alive.append(previous() is not None)
            return real(*sample_args)

        monkeypatch.setattr(cli.sf, "sample_bd_field", sampler)
        assert run(capsys, "surface", "--field", "bd-a2", *args)[0] == 0
        assert alive == [False]

    def test_negative_zero_flags_fold_into_zero(self, capsys, tmp_path, sampled):
        args = ("surface", "--field", "xz-a1", "--resolution", "11")
        code, out, _ = run(capsys, *args, "--r", "-0.0", "--s", "-0", "--level", "-0.0", "--out", str(tmp_path / "neg"))
        assert code == 0
        assert out.strip().endswith("surface_xz-a1_r0_s0_level0.obj")
        ((_, r, s, _, _),) = cli._last_field
        assert math.copysign(1.0, r) == math.copysign(1.0, s) == 1.0
        assert run(capsys, *args, "--r", "0", "--s", "0", "--level", "0", "--out", str(tmp_path / "pos"))[0] == 0
        assert len(sampled) == 1
        name = "surface_xz-a1_r0_s0_level0.obj"
        assert (tmp_path / "neg" / name).read_bytes() == (tmp_path / "pos" / name).read_bytes()


SURFACE_FLAG_VALUES = {"p": "0.05", "r": "0.1", "s": "0.1"}


@pytest.mark.parametrize("name", list(cli.FIELDS))
def test_each_field_takes_exactly_its_flags(capsys, tmp_path, name):
    takes, _ = cli.FIELDS[name]
    base = ("surface", "--field", name, "--level", "0.05", "--resolution", "5", "--out", str(tmp_path))
    given = {flag: SURFACE_FLAG_VALUES[flag] for flag in takes}
    code, out, err = run(capsys, *base, *(f"--{flag}={value}" for flag, value in given.items()))
    assert code == 0, err
    assert Path(out.strip()).parent == tmp_path and Path(out.strip()).is_file()
    for flag, value in SURFACE_FLAG_VALUES.items():
        # one flag added where it is not taken, or dropped where it is
        argv = {**given, flag: value} if flag not in takes else {f: v for f, v in given.items() if f != flag}
        code, out, err = run(capsys, *base, *(f"--{f}={v}" for f, v in argv.items()))
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert f"--{flag} {'is required for' if flag in takes else 'does not apply to'} field {name}" in err


COHERENCE_FLAG_VALUES = {"c": "0.1,0.1,0.1", "p": "0.5", "F": "0.5", "r": "0.1", "s": "0.1"}


@pytest.mark.parametrize("name", list(cli.FAMILIES))
def test_each_family_takes_exactly_its_flags(capsys, name):
    takes, _ = cli.FAMILIES[name]
    base = ("coherence", "--family", name)
    given = {flag: COHERENCE_FLAG_VALUES[flag] for flag in takes}
    code, out, err = run(capsys, *base, *(f"--{flag}={value}" for flag, value in given.items()))
    assert code == 0, err
    assert out.startswith(f"family={name} basis=a1 ") and "numeric" in out
    for flag, value in COHERENCE_FLAG_VALUES.items():
        # one flag added where it is not taken, or dropped where it is
        argv = {**given, flag: value} if flag not in takes else {f: v for f, v in given.items() if f != flag}
        code, out, err = run(capsys, *base, *(f"--{f}={v}" for f, v in argv.items()))
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert f"--{flag} {'is required for' if flag in takes else 'does not apply to'} the {name} family" in err


def test_basis_choices_are_the_amub_labels():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name in ("coherence", "dynamics"):
        (basis,) = [a for a in commands[name]._actions if a.dest == "basis"]
        assert tuple(basis.choices) == AMUB_LABELS


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_another_command_releases_the_stored_field(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_last_field", {})
    args = ("--level", "0.05", "--resolution", "11", "--out", str(tmp_path))
    assert run(capsys, "surface", "--field", "bd-a1", *args)[0] == 0
    stored = weakref.ref(*cli._last_field.values())
    assert run(capsys, "dynamics", "--c=-0.2,0.6,0.6", "--points", "3", "--out", str(tmp_path))[0] == 0
    assert stored() is None
    assert cli._last_field == {}


class TestDynamicsCommand:
    def test_four_curves(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "dynamics", "--c=-0.2,0.6,0.6", "--points", "11", "--out", str(tmp_path)
        )
        assert code == 0
        start = coherence(bell_diagonal(BellDiagonalParams(-0.2, 0.6, 0.6)), amub_basis("a1"))
        for kind in ("BF", "PF", "BPF", "GAD"):
            lines = (tmp_path / f"dynamics_{kind}.csv").read_text().splitlines()
            assert lines[0] == "p,C"
            assert len(lines) == 12
            first = float(lines[1].split(",")[1])
            assert first == pytest.approx(start, abs=1e-10)
        assert float((tmp_path / "dynamics_PF.csv").read_text().splitlines()[-1].split(",")[1]) <= 1e-12

    def test_invalid_c_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dynamics", "--c", "1,1,1", "--out", str(tmp_path))
        assert code == cli.EXIT_BAD_ARGS


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "linalg", "--samples", "50")
        assert code == 0
        assert "suite linalg: PASS" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        from skewcoh.verify import Check, SuiteResult

        def fake(names=None, seed=0, samples=None):
            bad = SuiteResult("fake")
            bad.checks.append(Check(name="x", passed=False, observed="1", requirement="0"))
            return [bad]

        monkeypatch.setattr(cli, "run_suites", fake)
        code, out, _ = run(capsys, "verify")
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL" in out

    def test_report_is_deterministic(self, capsys):
        _, out1, err1 = run(capsys, "verify", "--suite", "closed-forms", "--samples", "100")
        _, out2, err2 = run(capsys, "verify", "--suite", "closed-forms", "--samples", "100")
        assert out1 == out2
        assert err1 == err2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exits_2(self, capsys, samples):
        code, out, err = run(capsys, "verify", "--suite", "closed-forms", "--samples", samples)
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert "samples" in err

    def test_samples_above_cap_exits_2(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(ALL_SUITES, "closed-forms", lambda rng, n: ran.append(n))
        code, out, err = run(capsys, "verify", "--suite", "closed-forms", "--samples", str(MAX_SAMPLES + 1))
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert f"<= {MAX_SAMPLES}" in err
        assert ran == []

    def test_negative_seed_exits_2_naming_the_flag(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(ALL_SUITES, "closed-forms", lambda rng, n: ran.append(n))
        code, out, err = run(capsys, "verify", "--suite", "closed-forms", "--seed", "-1")
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"
        assert ran == []

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == cli.EXIT_BAD_ARGS
        assert "invalid choice" in err


@pytest.mark.parametrize("points", [0, cli.MAX_POINTS + 1])
@pytest.mark.parametrize(
    "argv",
    [("coherence", "--family", "werner", "--grid"), ("dynamics", "--c=-0.2,0.6,0.6", "--points")],
)
def test_curve_points_outside_cap_exit_2_before_writing(capsys, tmp_path, argv, points):
    out_dir = tmp_path / "curves"
    code, out, err = run(capsys, *argv, str(points), "--out", str(out_dir))
    assert code == cli.EXIT_BAD_ARGS
    assert out == ""
    assert f"{argv[-1]} must be in [1, {cli.MAX_POINTS}], got {points}" in err
    assert not out_dir.exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "surface.cfg"
        cfg.write_text("field=bd-a1\nlevel=0.2\n# comment\nresolution=21\n")
        code, out, _ = run(capsys, "surface", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "surface_bd-a1_level0.2.obj").exists()

    def test_explicit_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "surface.cfg"
        cfg.write_text("field=bd-a1\nlevel=0.2\nresolution=21\n")
        code, out, _ = run(
            capsys, "surface", "--config", str(cfg), "--level", "0.1", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "surface_bd-a1_level0.1.obj").exists()

    def test_attached_config_form(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("samples=2\n")
        code, out, _ = run(capsys, "verify", "--suite", "closed-forms", f"--config={cfg}")
        assert code == 0
        assert "over 2 states" in out

    def test_config_gives_a_negative_first_coefficient(self, capsys, tmp_path):
        # the figure's study point: inserted as --c -0.2,0.6,0.6, argparse
        # would read the value as a flag
        cfg = tmp_path / "dynamics.cfg"
        cfg.write_text("c=-0.2,0.6,0.6\npoints=11\n")
        code, out, err = run(capsys, "dynamics", "--config", str(cfg), "--out", str(tmp_path / "cfg"))
        assert code == 0, err
        code, _, _ = run(capsys, "dynamics", "--c=-0.2,0.6,0.6", "--points", "11", "--out", str(tmp_path / "flag"))
        assert code == 0
        for kind in ("BF", "PF", "BPF", "GAD"):
            name = f"dynamics_{kind}.csv"
            assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some text\n")
        code, _, err = run(capsys, "surface", "--config", str(cfg), "--field", "bd-a1", "--level", "0.1")
        assert code == cli.EXIT_BAD_ARGS

    def test_switch_true_sets_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "surface.cfg"
        cfg.write_text("field=bd-a1\nlevel=0.2\nresolution=21\nfield-csv = true\n")
        code, out, _ = run(capsys, "surface", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "surface_bd-a1_level0.2.obj").exists()
        assert (tmp_path / "field_bd-a1.csv").exists()
        cfg.write_text("compare=true\n")
        code, out, _ = run(capsys, "coherence", "--family", "werner", "--p", "0.5", "--config", str(cfg))
        assert code == 0
        assert "l1" in out

    def test_switch_false_leaves_the_flag_off(self, capsys, tmp_path):
        cfg = tmp_path / "surface.cfg"
        cfg.write_text("field=bd-a1\nlevel=0.2\nresolution=21\nfield-csv=false\n")
        code, out, _ = run(capsys, "surface", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "surface_bd-a1_level0.2.obj").exists()
        assert not (tmp_path / "field_bd-a1.csv").exists()

    @pytest.mark.parametrize("value", ["yes", "1", "True", ""])
    def test_switch_with_another_value_exits_2_naming_the_line(self, capsys, tmp_path, value):
        cfg = tmp_path / "surface.cfg"
        cfg.write_text(f"field=bd-a1\nlevel=0.2\nfield-csv={value}\n")
        code, out, err = run(capsys, "surface", "--config", str(cfg), "--out", str(tmp_path))
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert f"config line 'field-csv={value}': --field-csv takes true or false" in err
        assert not list(tmp_path.glob("*.obj"))

    def test_abbreviated_config_flag_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("samples=2\n")
        for flag in (["--conf", str(cfg)], [f"--conf={cfg}"]):
            code, out, err = run(capsys, "verify", "--suite", "closed-forms", *flag)
            assert code == cli.EXIT_BAD_ARGS
            assert out == ""
            assert "unrecognized arguments" in err

    def test_repeated_config_exits_2_naming_the_flag(self, capsys, tmp_path):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("field=bd-a1\nlevel=0.2\nresolution=21\n")
        b.write_text("field=bd-a1\nlevel=0.1\nresolution=21\n")
        for given in (["--config", str(a), "--config", str(b)], ["--config", str(a), f"--config={b}"]):
            code, out, err = run(capsys, "surface", *given, "--out", str(tmp_path))
            assert code == cli.EXIT_BAD_ARGS
            assert out == ""
            assert "--config may be given only once" in err
        a.write_text(f"field=bd-a1\nlevel=0.2\nconfig={b}\n")
        code, out, err = run(capsys, "surface", "--config", str(a), "--out", str(tmp_path))
        assert code == cli.EXIT_BAD_ARGS
        assert "--config may be given only once" in err
        assert not list(tmp_path.glob("*.obj"))


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_1_without_a_message(unbuffered):
    # stdout is a pipe whose reader has already closed it; buffered or not,
    # the write fails inside main, which exits 1 and says nothing, as
    # Python does for EPIPE
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH": src}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewcoh", "coherence", "--family", "isotropic", "--F", "0.123456789"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""
