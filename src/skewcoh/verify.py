"""Certification suites: every closed form, map and invariant in the
package checked against independent numeric evaluation.

Each suite returns a :class:`SuiteResult` holding named checks with their
observed deviations and required bounds.  All randomness flows through a
seeded ``numpy.random.Generator`` (PCG64), so a given seed reproduces the
same report byte for byte on any platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import surfaces as sf
from .bases import AMUB_LABELS, amub_basis, amub_from_mubs, qubit_mubs, represent_in_basis, verify_mub
from .coherence import (
    _xz_values,
    bd_coherence_values,
    coherence,
    coherence_bound,
    coherence_from_skew_information,
    isotropic_coherence,
    werner_coherence,
    xz_coherence_a1,
    xz_coherence_a1_candidate,
    xz_coherence_sum_candidate,
)
from .linalg import require_hermitian, sqrt_psd
from .states import (
    LOCAL_PAULIS_A,
    LOCAL_PAULIS_B,
    PAULI_PAIRS,
    TETRA_TOL,
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    _bd_matrix,
    _isotropic_coefficients,
    _pauli_traces,
    _werner_coefficients,
    _xz_margins,
    _xz_matrix,
    bell_diagonal,
    tetrahedron_margins,
    x_state_z,
)

DEFAULT_SEED = 1234
# Every sampled suite evaluates the numeric route CHUNK_STATES states at a
# time.  At the cap, closed-forms peaks near 130 B a sample (13 MB) and
# xz-states near 610 B (61 MB), most of it the two audit warning lines of
# each draw.  coefficient-table holds about 19 kB a state of a chunk
# (39 MB).  On one BLAS thread xz-states takes about 0.03 ms a sample and
# the suites that build channels up to about 0.07 ms.
MAX_SAMPLES = 100_000
CHUNK_STATES = 2048
# closed-forms and xz-states also certify their closed forms at every
# physical point of this grid over the coefficient cube.
GRID_RESOLUTION = 21

DYNAMICS_PARAMETER_SETS = (
    BellDiagonalParams(-0.2, 0.6, 0.6),
    BellDiagonalParams(-0.6, 0.2, 0.2),
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    observed: str
    requirement: str


@dataclass
class SuiteResult:
    name: str
    checks: list[Check] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def dev(self, name: str, value: float, bound: float, where: str = "") -> None:
        """Record a max-deviation check against an upper bound, with the
        point where it is attained if given."""
        observed = f"{value:.3e} at {where}" if where else f"{value:.3e}"
        self.checks.append(
            Check(name=name, passed=bool(value <= bound), observed=observed, requirement=f"<= {bound:.1e}")
        )

    def flag(self, name: str, passed: bool, observed: str, requirement: str) -> None:
        self.checks.append(Check(name=name, passed=bool(passed), observed=observed, requirement=requirement))


# -- seeded sampling helpers ---------------------------------------------------


def _draw_physical(rng: np.random.Generator, n: int, width: int, margins) -> np.ndarray:
    """n rows drawn uniformly from [-1, 1]^width and kept when every margin
    is >= 0, by rejection.  Each block draws as many rows as are still
    needed, so the generator advances exactly as a one-draw-at-a-time loop
    that stops at the n-th accepted draw."""
    kept = np.empty((0, width))
    while len(kept) < n:
        draws = rng.uniform(-1.0, 1.0, size=(n - len(kept), width))
        kept = np.concatenate([kept, draws[np.all(np.array(margins(*draws.T)) >= 0.0, axis=0)]])
    return kept


def random_bell_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) rows (c1, c2, c3) drawn uniformly from the physical tetrahedron."""
    return _draw_physical(rng, n, 3, tetrahedron_margins)


def random_xz_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) rows (r, s, c1, c2, c3) drawn uniformly from the physical X states."""
    return _draw_physical(rng, n, 5, _xz_margins)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (b + b.conj().T)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return b.conj().T @ b


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    m = random_psd(rng, dim)
    return DensityMatrix(m / np.trace(m).real)


def _chunks(n: int) -> list[range]:
    """range(n) cut into consecutive ranges of at most CHUNK_STATES indices."""
    return [range(lo, min(lo + CHUNK_STATES, n)) for lo in range(0, n, CHUNK_STATES)]


def _worst(deviations: np.ndarray) -> float:
    """The largest absolute deviation (0 for an empty stack, NaN if any is NaN)."""
    return float(np.abs(deviations).max(initial=0.0))


# -- suites --------------------------------------------------------------------


def suite_linalg(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 500
    res = SuiteResult("linalg")
    worst_rec = worst_unit = worst_sqrt = 0.0
    for ks in _chunks(n):
        draws = []
        for k in ks:
            dim = 2 if k % 2 == 0 else 4
            draws.append((random_hermitian(rng, dim), random_psd(rng, dim)))
        # Dimensions alternate, so every second draw of a chunk is one stack.
        for j in range(min(2, len(ks))):
            h, p = (np.array(x) for x in zip(*draws[j::2]))
            w, v = np.linalg.eigh(require_hermitian(h))
            vh = v.conj().swapaxes(-1, -2)
            worst_rec = max(worst_rec, _worst((v * w[..., None, :]) @ vh - h))
            worst_unit = max(worst_unit, _worst(vh @ v - np.eye(h.shape[-1])))
            root = sqrt_psd(p)
            worst_sqrt = max(worst_sqrt, _worst(root @ root - p))
    res.dev(f"eig reconstruction over {n} Hermitian ({'dims 2, 4' if n > 1 else 'dim 2'})", worst_rec, 1e-10)
    res.dev("eigenvector unitarity", worst_unit, 1e-10)
    res.dev(f"sqrt squaring error over {n} PSD", worst_sqrt, 1e-9)
    return res


def _xz_pattern(r: float, s: float, c1: float, c2: float, c3: float, label: str) -> np.ndarray:
    """The z-polarized X state in basis ``label``, entry by entry; at
    r = s = 0 it is the Bell-diagonal state's pattern."""
    if label == "a1":
        return 0.25 * np.array(
            [
                [1 + r + s + c3, 0, 0, c1 - c2],
                [0, 1 + r - s - c3, c1 + c2, 0],
                [0, c1 + c2, 1 - r + s - c3, 0],
                [c1 - c2, 0, 0, 1 - r - s + c3],
            ],
            dtype=complex,
        )
    diag, out, inn = {"a2": (c1, c3 - c2, c2 + c3), "a3": (c2, c3 - c1, c1 + c3)}[label]
    return 0.25 * np.array(
        [
            [1 + diag, s, r, out],
            [s, 1 - diag, inn, r],
            [r, inn, 1 - diag, s],
            [out, r, s, 1 + diag],
        ],
        dtype=complex,
    )


def suite_bases(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("bases")
    mubs = qubit_mubs()
    res.dev("qubit MUB unbiasedness deviation", verify_mub(mubs), 1e-14)
    res.dev("tensor-squared AMUB deviation", verify_mub(amub_from_mubs(mubs)), 1e-14)

    bd_spots = [(0.3, -0.2, 0.5), (-0.5, 0.25, 0.25), (0.0, 0.0, -1.0)]
    xz_spots = [(0.2, -0.1, 0.3, -0.2, 0.5), (0.1, 0.1, 0.2, 0.1, 0.3)]
    families = (
        ("Bell-diagonal", [(bell_diagonal(BellDiagonalParams(*c)), (0.0, 0.0, *c)) for c in bd_spots]),
        ("X-state", [(x_state_z(XStateZParams(*x)), x) for x in xz_spots]),
    )
    for family, spots in families:
        worst = 0.0
        for rho, x in spots:
            for lab in AMUB_LABELS:
                got = represent_in_basis(rho, amub_basis(lab))
                worst = max(worst, float(np.abs(got - _xz_pattern(*x, lab)).max()))
        res.dev(f"{family} basis matrices vs analytic pattern", worst, 1e-12)

    # Drawn a chunk at a time: the block sampler consumes the generator as
    # one draw of all n rows would.
    n = samples or 200
    worst_spec = worst_coh = 0.0
    for ks in _chunks(max(n // 2, 1)):
        c = random_bell_params(rng, len(ks))
        m = _bd_matrix(*c.T[..., None, None])
        spectrum = np.linalg.eigvalsh(m)
        for lab, in_basis in zip(AMUB_LABELS, _numeric(_bd_matrix, c)):
            rotated = represent_in_basis(m, amub_basis(lab))
            worst_spec = max(worst_spec, _worst(np.linalg.eigvalsh(rotated) - spectrum))
            worst_coh = max(worst_coh, _worst(coherence(DensityMatrix(rotated)) - in_basis))
    res.dev("spectrum preserved under change of basis", worst_spec, 1e-10)
    res.dev("coherence via rotated state equals coherence in basis", worst_coh, 1e-10)

    worst_rt = 0.0
    for ks in _chunks(samples or 1000):
        c = random_bell_params(rng, len(ks))
        rho = DensityMatrix(_bd_matrix(*c.T[..., None, None]))
        worst_rt = max(worst_rt, _worst(_pauli_traces(rho.matrix, PAULI_PAIRS) - c))
    res.dev("correlation-coefficient round trip", worst_rt, 1e-12)
    return res


def _numeric(matrix_of, params: np.ndarray) -> np.ndarray:
    """Numeric coherence in a1, a2 and a3 (the rows of a (3, n) array) of
    the states ``matrix_of(*row)`` of the n rows of ``params``, built and
    evaluated CHUNK_STATES states at a time."""
    values = np.empty((len(AMUB_LABELS), len(params)))
    for ks in _chunks(len(params)):
        rho = DensityMatrix(matrix_of(*params[ks.start : ks.stop].T[..., None, None]))
        for row, lab in zip(values, AMUB_LABELS):
            row[ks.start : ks.stop] = coherence(rho, amub_basis(lab))
    return values


def _grid_gaps(resolution: int, rs: tuple[float, float] | None = None) -> dict[str, tuple[float, str]]:
    """|closed - numeric| at every physical point of the resolution^3 grid
    over the coefficient cube, per measure: the largest gap and where it
    lies.  ``rs`` None checks the Bell-diagonal kernel in a1, a2, a3 and the
    sum (its states are the X states at r = s = 0); otherwise the X-state
    kernel at (r, s) = ``rs`` in a1 and the sum."""
    axis = np.linspace(-1.0, 1.0, resolution)
    c = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    params = np.column_stack((np.broadcast_to(rs or (0.0, 0.0), (len(c), 2)), c))
    params = params[np.min(_xz_margins(*params.T), axis=0) >= -TETRA_TOL]
    numeric = _numeric(_xz_matrix, params)
    numeric = dict(zip(AMUB_LABELS, numeric), sum=numeric[0] + numeric[1] + numeric[2])
    gaps = {}
    for lab in numeric if rs is None else ("a1", "sum"):
        closed = bd_coherence_values(*params[:, 2:].T, lab) if rs is None else _xz_values(*params.T, lab)
        gap = np.abs(closed - numeric[lab])
        k = int(np.argmax(gap))
        gaps[lab] = (float(gap[k]), "c=({:.6f},{:.6f},{:.6f})".format(*params[k, 2:]))
    return gaps


def suite_closed_forms(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 1000
    res = SuiteResult("closed-forms")
    c = random_bell_params(rng, n)
    numeric = _numeric(_bd_matrix, c)
    closed = [bd_coherence_values(*c.T, lab) for lab in AMUB_LABELS]
    for lab, want, got in zip(AMUB_LABELS, numeric, closed):
        res.dev(f"|closed - numeric| in {lab} over {n} states", _worst(got - want), 1e-9)
    res.dev("three-basis sum vs numeric sum", _worst(sum(closed) - sum(numeric)), 1e-9)
    for lab, (gap, where) in _grid_gaps(GRID_RESOLUTION).items():
        name = f"|closed - numeric| in {lab} at every physical point of the {GRID_RESOLUTION}^3 grid"
        res.dev(name, gap, 1e-12, where)
    return res


def suite_werner(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("werner")
    grid = np.linspace(0.0, 1.0, 101)
    closed = werner_coherence(grid)
    numerics = _numeric(_bd_matrix, np.column_stack(_werner_coefficients(grid)))
    worst = max(_worst(closed - numeric) for numeric in numerics)
    res.dev("|closed - numeric| on 101-point grid, three bases", worst, 1e-9)
    res.dev("endpoint p=0 vs 1/2", abs(closed[0] - 0.5), 1e-12)
    res.dev("endpoint p=1 vs (5 - sqrt(21))/16", abs(closed[-1] - (5.0 - np.sqrt(21.0)) / 16.0), 1e-12)
    res.dev("curve non-increasing (max upward step)", float(np.diff(closed).max()), 1e-10)
    return res


def suite_isotropic(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("isotropic")
    grid = np.linspace(0.0, 1.0, 101)
    closed = isotropic_coherence(grid)
    numerics = _numeric(_bd_matrix, np.column_stack(_isotropic_coefficients(grid)))
    worst = max(_worst(closed - numeric) for numeric in numerics)
    res.dev("|closed - numeric| on 101-point grid, three bases", worst, 1e-9)
    res.dev("value at F=1/4 vs 0", abs(isotropic_coherence(0.25)), 1e-12)
    res.dev("value at F=0 vs 1/6", abs(closed[0] - 1.0 / 6.0), 1e-12)
    res.dev("value at F=1 vs 1/2", abs(closed[-1] - 0.5), 1e-12)
    quarter = 25  # F = 0.25 on the 101-point grid
    res.dev("decreasing on [0, 1/4] (max upward step)", float(np.diff(closed[: quarter + 1]).max()), 1e-10)
    res.dev("increasing on [1/4, 1] (max downward step)", float(-np.diff(closed[quarter:]).min()), 1e-10)
    return res


def suite_xz(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 500
    res = SuiteResult("xz-states")

    params = random_xz_params(rng, n)
    numeric = _numeric(_xz_matrix, params)
    numeric_sum = numeric[0] + numeric[1] + numeric[2]
    closed_dev = _worst(_xz_values(*params.T, "a1") - numeric[0])
    res.dev(f"block closed form vs numeric over {n} states", closed_dev, 1e-9)
    res.dev("trace identity for the basis sum vs numeric", _worst(_xz_values(*params.T, "sum") - numeric_sum), 1e-9)

    # The audited candidates are evaluated over all draws at once and
    # reported draw by draw, a1 before sum.
    candidates = np.array([xz_coherence_a1_candidate(*params.T), xz_coherence_sum_candidate(*params.T)])
    references = np.array([numeric[0], numeric_sum])
    devs = np.abs(candidates - references)
    flagged = ~np.isfinite(candidates) | (devs > 1e-8)
    for i, j in np.argwhere(flagged.T):
        where = "r={:.6f} s={:.6f} c=({:.6f},{:.6f},{:.6f})".format(*params[i])
        res.warnings.append(
            f"audited {('a1', 'sum')[j]} closed-form candidate deviates: {where} "
            f"candidate={candidates[j, i]:.9f} numeric={references[j, i]:.9f} |diff|={devs[j, i]:.3e}"
        )
    audit_count = np.count_nonzero(flagged)

    c1, c2, c3 = random_bell_params(rng, max(n // 2, 100)).T
    reduction = _xz_values(0.0, 0.0, c1, c2, c3, "a1") - bd_coherence_values(c1, c2, c3, "a1")
    res.dev("r=s=0 reduction equals Bell-diagonal closed form", _worst(reduction), 1e-10)

    # the {|01>, |10>} block gap vanishes here: a removable singularity of
    # the block square roots written as a division by the gap
    singular = XStateZParams(0.2, 0.2, 0.4, -0.4, 0.1)
    gap_dev = abs(xz_coherence_a1(singular) - coherence(x_state_z(singular), amub_basis("a1")))
    res.dev("vanishing-gap point equals numeric", gap_dev, 1e-12)
    rs = (0.1, 0.1)
    for lab, (gap, where) in _grid_gaps(GRID_RESOLUTION, rs).items():
        name = f"|closed - numeric| in {lab} at every physical point of the {GRID_RESOLUTION}^3 grid, r=s={rs[0]}"
        res.dev(name, gap, 1e-12, where)
    res.flag("audited closed-form candidates", True, f"{audit_count} deviations > 1e-8 reported", "reported, not asserted")
    return res


def suite_coefficient_table(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 200
    res = SuiteResult("coefficient-table")
    # Every coefficient row is drawn before any p: the report depends on that order.
    c = random_bell_params(rng, n)
    p = rng.uniform(0.0, 1.0, size=n)
    worst_map = worst_bloch = 0.0
    for ks in _chunks(n):
        c_k, p_k = c[ks.start : ks.stop].T, p[ks.start : ks.stop]
        rho = DensityMatrix(_bd_matrix(*c_k[..., None, None]))
        for kind in ch.CHANNEL_KINDS:
            moved = ch.apply_product_channel(ch.channel_as_kraus(kind, p_k), rho).matrix
            want = np.stack(ch.predicted_coefficient_grid(kind, *c_k, p_k), axis=-1)
            worst_map = max(worst_map, _worst(_pauli_traces(moved, PAULI_PAIRS) - want))
            bloch = [_pauli_traces(moved, ops) for ops in (LOCAL_PAULIS_A, LOCAL_PAULIS_B)]
            worst_bloch = max(worst_bloch, *map(_worst, bloch))
    res.dev(f"coefficient map vs Kraus evolution over {n} draws x 4 channels", worst_map, 1e-12)
    res.dev("Bell-diagonal form preserved (max local Bloch component)", worst_bloch, 1e-12)

    # GAD away from mixing 1/2: the declarative map is not claimed there,
    # so the deviation is reported rather than asserted.
    probe = BellDiagonalParams(-0.2, 0.6, 0.6)
    strengths = np.array([0.3, 0.7, 0.3, 0.7])
    probe_channels = ch.make_channel("GAD", [0.2, 0.2, 0.8, 0.8], gamma=strengths)
    moved = ch.apply_product_channel(probe_channels, bell_diagonal(probe)).matrix
    want = np.stack(ch.predicted_coefficient_grid("GAD", *probe.triple, strengths), axis=-1)
    worst_off = _worst(_pauli_traces(moved, PAULI_PAIRS) - want)
    res.warnings.append(
        f"GAD coefficient map checked only at mixing 1/2; away from it the map deviates by up to {worst_off:.3e}"
    )
    return res


def suite_cptp(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 500
    res = SuiteResult("cptp")
    worst_trace = worst_eig = 0.0
    kinds = ch.CHANNEL_KINDS
    for ks in _chunks(n):
        psds, ps, gammas = [], [], []
        for k in ks:
            psds.append(random_psd(rng, 4))
            ps.append(rng.uniform(0.0, 1.0))
            if kinds[k % len(kinds)] == "GAD":
                gammas.append(rng.uniform(0.0, 1.0))
        m = np.array(psds)
        m = m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        # Chunks start at multiples of four, so draws j::4 of a chunk are one stack of kinds[j].
        for j in range(min(len(kinds), len(ks))):
            channels = ch.make_channel(kinds[j], ps[j :: len(kinds)], gammas if kinds[j] == "GAD" else None)
            moved = ch.apply_product_channel(channels, DensityMatrix(m[j :: len(kinds)])).matrix
            worst_trace = max(worst_trace, _worst(np.trace(moved, axis1=-2, axis2=-1).real - 1.0))
            worst_eig = max(worst_eig, _worst(np.minimum(np.linalg.eigvalsh(moved)[:, 0], 0.0)))
    res.dev(f"trace preservation over {n} random states", worst_trace, 1e-12)
    res.dev("negative-eigenvalue excursion", worst_eig, 1e-10)
    return res


def suite_dynamics(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("dynamics")
    grid = np.linspace(0.0, 1.0, 101)
    basis = amub_basis("a1")
    worst_step = 0.0
    worst_cross = 0.0
    endpoints = {}
    spots = [0, 33, 66, 100]
    for prm in DYNAMICS_PARAMETER_SETS:
        state = bell_diagonal(prm)
        for kind in ch.CHANNEL_KINDS:
            values = ch.dynamics_curve(kind, prm, basis, grid)
            worst_step = max(worst_step, float(np.diff(values).max()))
            endpoints[(prm.triple, kind)] = values[-1]
            moved = ch.apply_product_channel(ch.channel_as_kraus(kind, grid[spots]), state)
            worst_cross = max(worst_cross, _worst(coherence(moved, basis) - values[spots]))
    res.dev("all 8 curves non-increasing (max upward step)", worst_step, 1e-10)
    res.dev("coefficient-map curve vs Kraus evolution (spot p)", worst_cross, 1e-12)
    worst_pf = max(v for (c, kind), v in endpoints.items() if kind == "PF")
    worst_gad = max(v for (c, kind), v in endpoints.items() if kind == "GAD")
    res.dev("PF coherence at p=1", worst_pf, 1e-12)
    res.dev("GAD coherence at p=1", worst_gad, 1e-12)
    return res


def suite_measure_properties(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 200
    res = SuiteResult("measure-properties")
    worst_routes = 0.0
    worst_bound = 0.0
    worst_phase = 0.0
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
    perturbed = DensityMatrix(diag.matrix + bump)
    res.flag(
        "perturbed diagonal state is detected as coherent",
        coherence(perturbed) > 1e-10,
        f"{coherence(perturbed):.3e}",
        "> 1e-10",
    )
    return res


def suite_surfaces(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("surfaces")
    resolution = 101

    # One 101^3 field is held at a time, and all their sampling is timed
    # together: the summed field is kept only as its maximum, each channel
    # field only as the component count of its level-0.4 mesh, and the a1
    # field is sampled after them.
    start = time.perf_counter()
    sum_max = sf.sample_bd_field("sum", resolution).maximum
    elapsed = time.perf_counter() - start
    counts = {}
    for kind in ch.CHANNEL_KINDS:
        start = time.perf_counter()
        channel_field = sf.sample_channel_field(kind, 0.05, resolution)
        elapsed += time.perf_counter() - start
        counts[kind] = sf.mesh_component_count(sf.extract_isosurface(channel_field, 0.4))
        del channel_field
    start = time.perf_counter()
    field = sf.sample_bd_field("a1", resolution)
    elapsed += time.perf_counter() - start
    res.flag(
        "field sampling at 101^3 within budget",
        elapsed < 60.0,
        "within budget" if elapsed < 60.0 else "exceeded budget",
        "< 60 s",
    )

    res.dev("physical grid fraction vs 1/3", abs(field.physical_fraction() - 1.0 / 3.0), 0.02 / 3.0)
    center = (resolution - 1) // 2
    res.dev("field value at the origin", float(field.values[center, center, center]), 1e-12)
    res.dev("single-basis field max vs 1/2 cap", field.maximum - 0.5, 1e-12)
    res.dev("summed field max vs 3/2 cap", sum_max - 1.5, 1e-12)

    # Each mesh is reduced to the numbers its checks print before the next
    # is cut: its triangle count, and below the 1/2 cap the largest level
    # error and the smallest value of its re-evaluated vertices.
    triangles, worst = {}, {}
    for level in (0.05, 0.2):
        mesh = sf.extract_isosurface(field, level)
        vals = bd_coherence_values(*mesh.vertices.T, "a1")
        vals = vals[np.isfinite(vals)]
        triangles[level], worst[level] = len(mesh.triangles), float(np.abs(vals - level).max(initial=0.0))
        lowest = float(vals.min(initial=np.inf))  # kept from the level-0.2 mesh
        del mesh, vals
    triangles[0.6] = len(sf.extract_isosurface(field, 0.6).triangles)
    for level in (0.05, 0.2):
        res.flag(f"level {level} mesh nonempty", triangles[level] > 0, f"{triangles[level]} triangles", "> 0")
    res.flag("level 0.6 mesh empty (above the 1/2 cap)", triangles[0.6] == 0, f"{triangles[0.6]} triangles", "== 0")
    for level in (0.05, 0.2):
        res.dev(f"vertex re-evaluation accuracy at level {level}", worst[level], 0.02)
    res.flag(
        "nesting: level-0.2 mesh lies inside {value >= 0.05}",
        lowest >= 0.05 - 0.02,
        f"min re-evaluated value {lowest:.4f}",
        ">= 0.03",
    )

    for kind, minimum in (("BF", 2), ("PF", 2), ("BPF", 2), ("GAD", 4)):
        res.flag(
            f"{kind} surface at p=0.05, level 0.4 splits into pieces",
            counts[kind] >= minimum,
            f"{counts[kind]} components",
            f">= {minimum}",
        )

    xz_flat = sf.sample_xz_field(0.0, 0.0, "a1", 41)
    bd_small = sf.sample_bd_field("a1", 41)
    both = np.isfinite(xz_flat.values) & np.isfinite(bd_small.values)
    diff = float(np.abs(xz_flat.values[both] - bd_small.values[both]).max())
    res.flag(
        "flat X-state field matches Bell-diagonal field",
        bool((np.isfinite(xz_flat.values) == np.isfinite(bd_small.values)).all() and diff <= 1e-10),
        f"max |diff| {diff:.3e}",
        "<= 1e-10 with identical masks",
    )

    xz_shrunk = sf.sample_xz_field(0.1, 0.1, "a1", 41)
    res.flag(
        "physical region shrinks for r=s=0.1",
        xz_shrunk.physical_fraction() < bd_small.physical_fraction(),
        f"{xz_shrunk.physical_fraction():.4f} vs {bd_small.physical_fraction():.4f}",
        "strictly smaller",
    )
    return res


ALL_SUITES = {
    "linalg": suite_linalg,
    "bases": suite_bases,
    "closed-forms": suite_closed_forms,
    "werner": suite_werner,
    "isotropic": suite_isotropic,
    "xz-states": suite_xz,
    "coefficient-table": suite_coefficient_table,
    "cptp": suite_cptp,
    "dynamics": suite_dynamics,
    "measure-properties": suite_measure_properties,
    "surfaces": suite_surfaces,
}


def run_suites(
    names: list[str] | None = None,
    seed: int = DEFAULT_SEED,
    samples: int | None = None,
) -> list[SuiteResult]:
    """Run the selected suites (all by default) on a fresh seeded generator.

    ``seed`` is a non-negative integer; ``samples`` (1 to ``MAX_SAMPLES``)
    overrides every suite's sample counts."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if samples is not None and not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be >= 1 and <= {MAX_SAMPLES}, got {samples}")
    selected = list(ALL_SUITES) if names is None else names
    unknown = [n for n in selected if n not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {list(ALL_SUITES)}")
    results = []
    for name in selected:
        rng = np.random.default_rng(seed)
        results.append(ALL_SUITES[name](rng, samples))
    return results


def format_report(results: list[SuiteResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"suite {r.name}: {'PASS' if r.passed else 'FAIL'}")
        for c in r.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(f"  [{mark:>4}] {c.name}: {c.observed} (require {c.requirement})")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} suites passed")
    return "\n".join(lines)
