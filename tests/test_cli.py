import numpy as np
import pytest

from skewcoh import cli
from skewcoh.bases import amub_basis
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

    def test_empty_mesh_warns(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "surface", "--field", "bd-a1", "--level", "0.6",
            "--resolution", "21", "--out", str(tmp_path),
        )
        assert code == 0
        assert "empty" in err

    def test_empty_physical_region_warns(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "surface", "--field", "xz-a1", "--r", "2", "--s", "2", "--level", "0.1",
            "--resolution", "11", "--out", str(tmp_path),
        )
        assert code == 0
        assert "empty physical region" in err
        assert "exceeds" not in err

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

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == cli.EXIT_BAD_ARGS
        assert "invalid choice" in err


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

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some text\n")
        code, _, err = run(capsys, "surface", "--config", str(cfg), "--field", "bd-a1", "--level", "0.1")
        assert code == cli.EXIT_BAD_ARGS

    def test_abbreviated_config_flag_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("samples=2\n")
        for flag in (["--conf", str(cfg)], [f"--conf={cfg}"]):
            code, out, err = run(capsys, "verify", "--suite", "closed-forms", *flag)
            assert code == cli.EXIT_BAD_ARGS
            assert out == ""
            assert "unrecognized arguments" in err
