import contextlib
import hashlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from skewcoh import cli, verify
from skewcoh.bases import amub_basis
from skewcoh.coherence import coherence, coherence_bound, coherence_from_skew_information
from skewcoh.states import DensityMatrix, _xz_margins, tetrahedron_margins
from skewcoh.verify import (
    ALL_SUITES,
    DEFAULT_SEED,
    MAX_SAMPLES,
    SuiteResult,
    format_report,
    random_bell_params,
    random_density,
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


@pytest.mark.parametrize("name", ["linalg", "bases", "coefficient-table", "cptp"])
def test_chunked_suites_hold_one_chunk_of_states(name, monkeypatch):
    # With 16-state chunks, 800 samples peak near 0.4 MB in coefficient-table
    # and below 0.15 MB in the other three; evaluated as one stack they took
    # 1.4 MB (linalg, bases) to 13.6 MB (coefficient-table).
    monkeypatch.setattr(verify, "CHUNK_STATES", 16)
    suite = ALL_SUITES[name]
    suite(np.random.default_rng(0), 4)  # first-call allocations are not per state
    tracemalloc.start()
    try:
        result = suite(np.random.default_rng(0), 800)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 1_000_000


def test_surfaces_suite_holds_one_field_at_a_time():
    # Holding the a1 and summed 101^3 fields (7.9 MiB each) beside each
    # channel field peaked at 37.8 MiB; one field at a time, the peak is
    # the a1 field, its level-0.05 mesh and the level-0.2 extraction.
    verify.suite_surfaces(np.random.default_rng(DEFAULT_SEED))  # first-call allocations are not per field
    tracemalloc.start()
    try:
        result = verify.suite_surfaces(np.random.default_rng(DEFAULT_SEED))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 25 * 2**20


def test_one_sample_draws_what_each_check_names(monkeypatch):
    drawn = []

    def counted(rng, n, real=random_bell_params):
        drawn.append(n)
        return real(rng, n)

    monkeypatch.setattr(verify, "random_bell_params", counted)
    linalg, bases = run_suites(names=["linalg", "bases"], seed=3, samples=1)
    # the change-of-basis checks draw a state, then the round trip one more
    assert drawn == [1, 1]
    assert linalg.checks[0].name == "eig reconstruction over 1 Hermitian (dim 2)"
    assert run_suites(names=["linalg"], seed=3, samples=2)[0].checks[0].name.endswith("(dims 2, 4)")


def reference_measure_properties(rng, samples=None):
    """The per-state loop the stacked suite replaced: each state is drawn,
    validated and checked on its own through the one-state API."""
    n = samples or 200
    res = SuiteResult("measure-properties")
    worst_routes = worst_bound = worst_phase = 0.0
    for k in range(n):
        dim = 2 if k % 2 == 0 else 4
        rho = random_density(rng, dim)
        basis = amub_basis("a2") if dim == 4 and k % 3 == 0 else None
        c_primary = coherence(rho, basis)
        worst_routes = max(worst_routes, abs(c_primary - coherence_from_skew_information(rho, basis)))
        worst_bound = max(worst_bound, c_primary - coherence_bound(dim))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
        rotated = DensityMatrix((rho.matrix * phases[:, None]) * phases.conj()[None, :])
        worst_phase = max(worst_phase, abs(coherence(rotated) - coherence(rho)))
    res.dev(f"projector-sum route vs diagonal route over {n} states", worst_routes, 1e-10)
    res.dev("excess over the 1 - 1/d bound", worst_bound, 1e-12)
    res.dev("diagonal-phase invariance", worst_phase, 1e-10)
    diag = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    res.dev("diagonal state coherence", coherence(diag), 1e-10)
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = bump[1, 0] = 1e-3
    perturbed = coherence(DensityMatrix(diag.matrix + bump))
    res.flag("perturbed diagonal state is detected as coherent", perturbed > 1e-10, f"{perturbed:.3e}", "> 1e-10")
    return res


@pytest.mark.parametrize("seed", [0, 3, 7, 1234])
@pytest.mark.parametrize("samples", [None, 1, 2, 3, 37])
def test_stacked_measure_properties_equal_the_per_state_loop(seed, samples):
    (got,) = run_suites(names=["measure-properties"], seed=seed, samples=samples)
    want = reference_measure_properties(np.random.default_rng(seed), samples)
    assert got.checks == want.checks


def test_measure_properties_builds_the_same_states_at_any_sample_count(monkeypatch):
    # Three stacks, their three phase-rotated stacks and the two single states.
    built = []

    def counted(matrix, real=DensityMatrix):
        built.append(np.shape(matrix))
        return real(matrix)

    monkeypatch.setattr(verify, "DensityMatrix", counted)
    counts = {}
    for samples in (200, 1000):
        built.clear()
        (result,) = run_suites(names=["measure-properties"], samples=samples)
        assert result.passed
        counts[samples] = len(built)
    assert counts == {200: 8, 1000: 8}


def test_same_seed_same_report():
    r1 = format_report(run_suites(names=["closed-forms"], seed=99, samples=60))
    r2 = format_report(run_suites(names=["closed-forms"], seed=99, samples=60))
    assert r1 == r2


# sha256 of the `skewcoh verify` stdout and stderr, recorded from the
# per-state suites before they were rewritten over stacked arrays: the
# first two entries before the closed-forms, werner, isotropic and
# xz-states suites, the others before linalg, bases, coefficient-table and
# cptp.  The four stdout digests of runs that include closed-forms or
# xz-states were re-recorded when those suites gained their whole-grid
# checks: the reports differ from the earlier ones by those six added
# lines only.  The one-sample digest was re-recorded when linalg came to
# name the one dimension it draws there and bases to draw a state for its
# two change-of-basis checks: three lines differ.  The measure-properties
# entry was recorded from the per-state suite before it was rewritten over
# three stacks.
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


@pytest.mark.parametrize(
    "resolution, rs",
    [(41, None), (101, None), (41, (0.1, 0.1)), (41, (0.3, 0.3))],
    ids=["bd-41", "bd-101", "xz-0.1-41", "xz-0.3-41"],
)
def test_closed_forms_match_numeric_at_every_grid_point(resolution, rs):
    # Before the closed forms took sqrt_psd's noise rule, face points of
    # these grids were off by up to 1.3e-8.
    gaps = verify._grid_gaps(resolution, rs)
    assert sorted(gaps) == (["a1", "a2", "a3", "sum"] if rs is None else ["a1", "sum"])
    for label, (gap, where) in gaps.items():
        assert gap <= 1e-12, (label, gap, where)
