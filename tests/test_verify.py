import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from skewcoh import cli
from skewcoh.states import _xz_margins, tetrahedron_margins
from skewcoh.verify import (
    ALL_SUITES,
    DEFAULT_SEED,
    MAX_SAMPLES,
    SuiteResult,
    format_report,
    random_bell_params,
    random_hermitian,
    random_psd,
    random_xz_params,
    run_suites,
    suite_coefficient_table,
    suite_xz,
)


def test_bell_sampling_is_valid_and_reproducible():
    a = random_bell_params(np.random.default_rng(7), 50)
    b = random_bell_params(np.random.default_rng(7), 50)
    assert [tuple(c) for c in a] == [tuple(c) for c in b]
    assert all(min(tetrahedron_margins(*c)) >= 0 for c in a)


def reference_bell_draws(rng, n):
    """The one-draw-at-a-time rejection loop the block sampler replaced."""
    out = []
    while len(out) < n:
        c = rng.uniform(-1.0, 1.0, size=3)
        if min(tetrahedron_margins(*c)) >= 0.0:
            out.append(c)
    return out


def reference_xz_draws(rng, n):
    out = []
    while len(out) < n:
        r, s = rng.uniform(-1.0, 1.0, size=2)
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        if min(_xz_margins(r, s, c1, c2, c3)) >= 0.0:
            out.append((r, s, c1, c2, c3))
    return out


@pytest.mark.parametrize("seed", [0, 7, 1234, 20240817])
@pytest.mark.parametrize("n", [0, 1, 2, 37, 500])
def test_block_samplers_equal_per_draw_loops(seed, n):
    samplers = ((random_bell_params, reference_bell_draws, 3), (random_xz_params, reference_xz_draws, 5))
    for sampler, reference, width in samplers:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampler(rng, n)
        assert got.shape == (n, width)
        assert np.array_equal(got, np.array(reference(ref_rng, n)).reshape(-1, width))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_xz_sampling_is_valid():
    for r, s, *_ in random_xz_params(np.random.default_rng(7), 30):
        assert abs(r) <= 1 and abs(s) <= 1


def test_random_matrix_helpers(rng):
    h = random_hermitian(rng, 4)
    assert np.abs(h - h.conj().T).max() == 0.0
    p = random_psd(rng, 4)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12


@pytest.mark.parametrize("samples", [0, -5])
def test_samples_below_one_rejected_before_any_suite(samples, monkeypatch):
    ran = []
    monkeypatch.setitem(ALL_SUITES, "closed-forms", lambda rng, n: ran.append(n))
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_suites(names=["closed-forms"], samples=samples)
    assert ran == []


def test_samples_cap_checked_before_any_suite(monkeypatch):
    # The suite is a stub, so neither count allocates anything.
    ran = []
    monkeypatch.setitem(ALL_SUITES, "closed-forms", lambda rng, n: ran.append(n) or SuiteResult("closed-forms"))
    with pytest.raises(ValueError, match=f"samples must be >= 1 and <= {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"):
        run_suites(names=["closed-forms"], samples=MAX_SAMPLES + 1)
    assert ran == []
    run_suites(names=["closed-forms"], samples=MAX_SAMPLES)
    assert ran == [MAX_SAMPLES]


def test_unknown_suite_name_rejected():
    with pytest.raises(ValueError, match="unknown suites"):
        run_suites(names=["nope"])


def test_suite_registry_covers_report():
    results = run_suites(names=["linalg", "werner"], samples=50)
    report = format_report(results)
    assert "suite linalg: PASS" in report
    assert "suite werner: PASS" in report
    assert report.strip().endswith("2/2 suites passed")
    assert set(ALL_SUITES) >= {"closed-forms", "coefficient-table", "dynamics", "surfaces"}


def test_xz_suite_reports_candidate_deviations():
    result = suite_xz(np.random.default_rng(DEFAULT_SEED), samples=40)
    assert result.passed
    assert any("candidate deviates" in w for w in result.warnings)
    deviating = [w for w in result.warnings if "candidate deviates" in w]
    assert all("r=" in w and "c=(" in w for w in deviating)  # parameters included


def test_coefficient_suite_reports_gad_limitation():
    result = suite_coefficient_table(np.random.default_rng(DEFAULT_SEED), samples=20)
    assert result.passed
    assert any("mixing 1/2" in w for w in result.warnings)


def test_same_seed_same_report():
    r1 = format_report(run_suites(names=["closed-forms"], seed=99, samples=60))
    r2 = format_report(run_suites(names=["closed-forms"], seed=99, samples=60))
    assert r1 == r2


# sha256 of the `skewcoh verify` stdout and stderr, recorded from the
# per-state suites before the closed-forms, werner, isotropic and xz-states
# suites were rewritten over stacked arrays.
REPORT_HASHES = json.loads(Path(__file__).with_name("verify_report_hashes.json").read_text())


@pytest.mark.parametrize("name", sorted(REPORT_HASHES))
def test_verify_report_bytes_unchanged(name):
    want = REPORT_HASHES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(want["argv"])
    assert code == want["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want["stdout"]
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == want["stderr"]
