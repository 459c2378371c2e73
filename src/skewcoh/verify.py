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
from .bases import AMUB_LABELS, amub_basis, amub_from_mubs, qubit_mubs, represent_in_basis, verify_amub, verify_mub
from .coherence import (
    _coherence_values,
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
from .linalg import hermitian_eig, sqrt_psd
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    _bd_matrix,
    _isotropic_coefficients,
    _state_roots,
    _werner_coefficients,
    _xz_margins,
    _xz_matrix,
    bell_diagonal,
    correlation_coefficients,
    local_bloch_vectors,
    tetrahedron_margins,
    x_state_z,
)

DEFAULT_SEED = 1234
# The stacked suites (closed-forms, xz-states) hold about 1.5 kB per sample
# at their peak, 150 MB at the cap; the per-state suites take up to about
# 10 ms a sample.
MAX_SAMPLES = 100_000

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

    def dev(self, name: str, value: float, bound: float) -> None:
        """Record a max-deviation check against an upper bound."""
        self.checks.append(
            Check(name=name, passed=bool(value <= bound), observed=f"{value:.3e}", requirement=f"<= {bound:.1e}")
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


# -- suites --------------------------------------------------------------------


def suite_linalg(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 500
    res = SuiteResult("linalg")
    worst_rec = worst_unit = worst_sqrt = 0.0
    for k in range(n):
        dim = 2 if k % 2 == 0 else 4
        h = random_hermitian(rng, dim)
        dec = hermitian_eig(h)
        worst_rec = max(worst_rec, dec.reconstruction_error(h))
        worst_unit = max(worst_unit, dec.unitarity_defect())
        p = random_psd(rng, dim)
        root = sqrt_psd(p)
        worst_sqrt = max(worst_sqrt, float(np.abs(root @ root - p).max()))
    res.dev(f"eig reconstruction over {n} Hermitian (dims 2, 4)", worst_rec, 1e-10)
    res.dev("eigenvector unitarity", worst_unit, 1e-10)
    res.dev(f"sqrt squaring error over {n} PSD", worst_sqrt, 1e-9)
    return res


def _bd_pattern(c1: float, c2: float, c3: float, label: str) -> np.ndarray:
    diag, anti = {
        "a1": (c3, (c1 - c2, c1 + c2)),
        "a2": (c1, (c3 - c2, c3 + c2)),
        "a3": (c2, (c3 - c1, c3 + c1)),
    }[label]
    out, inn = anti
    return 0.25 * np.array(
        [
            [1 + diag, 0, 0, out],
            [0, 1 - diag, inn, 0],
            [0, inn, 1 - diag, 0],
            [out, 0, 0, 1 + diag],
        ],
        dtype=complex,
    )


def _xz_pattern(r: float, s: float, c1: float, c2: float, c3: float, label: str) -> np.ndarray:
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
    res.dev("qubit MUB unbiasedness deviation", verify_mub(mubs).max_deviation, 1e-14)
    res.dev("tensor-squared AMUB deviation", verify_amub(amub_from_mubs(mubs)).max_deviation, 1e-14)

    spots_bd = [(0.3, -0.2, 0.5), (-0.5, 0.25, 0.25), (0.0, 0.0, -1.0)]
    worst = 0.0
    for c in spots_bd:
        rho = bell_diagonal(BellDiagonalParams(*c))
        for lab in ("a1", "a2", "a3"):
            got = represent_in_basis(rho, amub_basis(lab))
            worst = max(worst, float(np.abs(got - _bd_pattern(*c, lab)).max()))
    res.dev("Bell-diagonal basis matrices vs analytic pattern", worst, 1e-12)

    spots_xz = [(0.2, -0.1, 0.3, -0.2, 0.5), (0.1, 0.1, 0.2, 0.1, 0.3)]
    worst = 0.0
    for r, s, c1, c2, c3 in spots_xz:
        rho = x_state_z(XStateZParams(r, s, c1, c2, c3))
        for lab in ("a1", "a2", "a3"):
            got = represent_in_basis(rho, amub_basis(lab))
            worst = max(worst, float(np.abs(got - _xz_pattern(r, s, c1, c2, c3, lab)).max()))
    res.dev("X-state basis matrices vs analytic pattern", worst, 1e-12)

    n = samples or 200
    worst_spec = worst_coh = 0.0
    for c in random_bell_params(rng, n // 2):
        rho = bell_diagonal(BellDiagonalParams(*c))
        for lab in ("a1", "a2", "a3"):
            basis = amub_basis(lab)
            rotated = represent_in_basis(rho, basis)
            worst_spec = max(
                worst_spec,
                float(np.abs(np.linalg.eigvalsh(rotated) - rho.eigenvalues()).max()),
            )
            worst_coh = max(worst_coh, abs(coherence(DensityMatrix(rotated)) - coherence(rho, basis)))
    res.dev("spectrum preserved under change of basis", worst_spec, 1e-10)
    res.dev("coherence via rotated state equals coherence in basis", worst_coh, 1e-10)

    worst_rt = 0.0
    for c in random_bell_params(rng, samples or 1000):
        got = correlation_coefficients(bell_diagonal(BellDiagonalParams(*c)))
        worst_rt = max(worst_rt, max(abs(g - w) for g, w in zip(got, c)))
    res.dev("correlation-coefficient round trip", worst_rt, 1e-12)
    return res


def _worst(deviations: np.ndarray) -> float:
    """The largest absolute deviation; NaN if any deviation is NaN."""
    return float(np.abs(deviations).max())


def _numeric(roots: np.ndarray) -> list[np.ndarray]:
    """Numeric coherence of every root of a stack in a1, a2 and a3."""
    return [_coherence_values(roots, amub_basis(lab).vectors) for lab in AMUB_LABELS]


def suite_closed_forms(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 1000
    res = SuiteResult("closed-forms")
    c = random_bell_params(rng, n).T
    numeric = _numeric(_state_roots(_bd_matrix(*c[..., None, None])))
    closed = [bd_coherence_values(*c, lab) for lab in AMUB_LABELS]
    for lab, want, got in zip(AMUB_LABELS, numeric, closed):
        res.dev(f"|closed - numeric| in {lab} over {n} states", _worst(got - want), 1e-9)
    res.dev("three-basis sum vs numeric sum", _worst(sum(closed) - sum(numeric)), 1e-9)
    return res


def suite_werner(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("werner")
    grid = np.linspace(0.0, 1.0, 101)
    closed = werner_coherence(grid)
    roots = _state_roots(_bd_matrix(*_werner_coefficients(grid[:, None, None])))
    worst = max(_worst(closed - numeric) for numeric in _numeric(roots))
    res.dev("|closed - numeric| on 101-point grid, three bases", worst, 1e-9)
    res.dev("endpoint p=0 vs 1/2", abs(closed[0] - 0.5), 1e-12)
    res.dev("endpoint p=1 vs (5 - sqrt(21))/16", abs(closed[-1] - (5.0 - np.sqrt(21.0)) / 16.0), 1e-12)
    res.dev("curve non-increasing (max upward step)", float(np.diff(closed).max()), 1e-10)
    return res


def suite_isotropic(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    res = SuiteResult("isotropic")
    grid = np.linspace(0.0, 1.0, 101)
    closed = isotropic_coherence(grid)
    roots = _state_roots(_bd_matrix(*_isotropic_coefficients(grid[:, None, None])))
    worst = max(_worst(closed - numeric) for numeric in _numeric(roots))
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
    numeric = _numeric(_state_roots(_xz_matrix(*params.T[..., None, None])))
    numeric_sum = numeric[0] + numeric[1] + numeric[2]
    closed_dev = _worst(_xz_values(*params.T, "a1") - numeric[0])
    res.dev(f"block closed form vs numeric over {n} states", closed_dev, 1e-9)
    res.dev("trace identity for the basis sum vs numeric", _worst(_xz_values(*params.T, "sum") - numeric_sum), 1e-9)

    # The audited candidates are reported draw by draw, a1 before sum.
    audits = (("a1", xz_coherence_a1_candidate, numeric[0]), ("sum", xz_coherence_sum_candidate, numeric_sum))
    audit_count = 0
    for i, prm in enumerate(params):
        where = "r={:.6f} s={:.6f} c=({:.6f},{:.6f},{:.6f})".format(*prm)
        for label, audited, values in audits:
            candidate = audited(*prm)
            dev = abs(candidate - values[i])
            if not np.isfinite(candidate) or dev > 1e-8:
                audit_count += 1
                res.warnings.append(
                    f"audited {label} closed-form candidate deviates: {where} "
                    f"candidate={candidate:.9f} numeric={values[i]:.9f} |diff|={dev:.3e}"
                )

    c1, c2, c3 = random_bell_params(rng, max(n // 2, 100)).T
    reduction = _xz_values(0.0, 0.0, c1, c2, c3, "a1") - bd_coherence_values(c1, c2, c3, "a1")
    res.dev("r=s=0 reduction equals Bell-diagonal closed form", _worst(reduction), 1e-10)

    # the {|01>, |10>} block gap vanishes here: a removable singularity of
    # the block square roots written as a division by the gap
    singular = XStateZParams(0.2, 0.2, 0.4, -0.4, 0.1)
    gap_dev = abs(xz_coherence_a1(singular) - coherence(x_state_z(singular), amub_basis("a1")))
    res.dev("vanishing-gap point equals numeric", gap_dev, 1e-12)
    res.flag("audited closed-form candidates", True, f"{audit_count} deviations > 1e-8 reported", "reported, not asserted")
    return res


def suite_coefficient_table(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 200
    res = SuiteResult("coefficient-table")
    worst_map = worst_bloch = 0.0
    for c in random_bell_params(rng, n):
        prm = BellDiagonalParams(*c)
        p = float(rng.uniform(0.0, 1.0))
        for kind in ch.CHANNEL_KINDS:
            channel = ch.channel_as_kraus(kind, p)
            moved = ch.apply_product_channel(channel, bell_diagonal(prm))
            got = correlation_coefficients(moved)
            want = ch.predicted_coefficients(kind, prm, p).triple
            worst_map = max(worst_map, max(abs(g - w) for g, w in zip(got, want)))
            r_vec, s_vec = local_bloch_vectors(moved)
            worst_bloch = max(worst_bloch, float(np.abs(r_vec).max()), float(np.abs(s_vec).max()))
    res.dev(f"coefficient map vs Kraus evolution over {n} draws x 4 channels", worst_map, 1e-12)
    res.dev("Bell-diagonal form preserved (max local Bloch component)", worst_bloch, 1e-12)

    # GAD away from mixing 1/2: the declarative map is not claimed there,
    # so the deviation is reported rather than asserted.
    probe = BellDiagonalParams(-0.2, 0.6, 0.6)
    worst_off = 0.0
    for p_mix in (0.2, 0.8):
        for strength in (0.3, 0.7):
            off = ch.make_channel("GAD", p_mix, gamma=strength)
            moved = ch.apply_product_channel(off, bell_diagonal(probe))
            got = correlation_coefficients(moved)
            want = ch.predicted_coefficients("GAD", probe, strength).triple
            worst_off = max(worst_off, max(abs(g - w) for g, w in zip(got, want)))
    res.warnings.append(
        f"GAD coefficient map checked only at mixing 1/2; away from it the map deviates by up to {worst_off:.3e}"
    )
    return res


def suite_cptp(rng: np.random.Generator, samples: int | None = None) -> SuiteResult:
    n = samples or 500
    res = SuiteResult("cptp")
    worst_trace = 0.0
    worst_eig = 0.0
    kinds = list(ch.CHANNEL_KINDS)
    for k in range(n):
        rho = random_density(rng, 4)
        kind = kinds[k % len(kinds)]
        p = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.0, 1.0)) if kind == "GAD" else None
        channel = ch.make_channel(kind, p, gamma)
        moved = ch.apply_product_channel(channel, rho)
        worst_trace = max(worst_trace, abs(np.trace(moved.matrix).real - 1.0))
        worst_eig = max(worst_eig, max(0.0, -float(moved.eigenvalues()[0])))
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
    for prm in DYNAMICS_PARAMETER_SETS:
        state = bell_diagonal(prm)
        for kind in ch.CHANNEL_KINDS:
            curve = ch.dynamics_curve(kind, prm, basis, grid)
            values = np.array([v for _, v in curve])
            worst_step = max(worst_step, float(np.diff(values).max()))
            endpoints[(prm.triple, kind)] = values[-1]
            for p_idx in (0, 33, 66, 100):
                p = grid[p_idx]
                moved = ch.apply_product_channel(ch.channel_as_kraus(kind, float(p)), state)
                worst_cross = max(worst_cross, abs(coherence(moved, basis) - values[p_idx]))
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

    start = time.perf_counter()
    field = sf.sample_bd_field("a1", resolution)
    sum_field = sf.sample_bd_field("sum", resolution)
    elapsed = time.perf_counter() - start
    # Each channel field is sampled once: timed with the two above, cut at
    # level 0.4 and dropped, so only its component count is kept.
    counts = {}
    for kind in ch.CHANNEL_KINDS:
        start = time.perf_counter()
        channel_field = sf.sample_channel_field(kind, 0.05, resolution)
        elapsed += time.perf_counter() - start
        counts[kind] = sf.mesh_component_count(sf.extract_isosurface(channel_field, 0.4))
        del channel_field
    res.flag(
        "field sampling at 101^3 within budget",
        elapsed < 60.0,
        "within budget" if elapsed < 60.0 else "exceeded budget",
        "< 60 s",
    )

    res.dev("physical grid fraction vs 1/3", abs(field.physical_fraction() - 1.0 / 3.0), 0.02 / 3.0)
    center = (resolution - 1) // 2
    res.dev("field value at the origin", float(field.values[center, center, center]), 1e-12)
    res.dev("single-basis field max vs 1/2 cap", float(np.nanmax(field.values) - 0.5), 1e-12)
    res.dev("summed field max vs 3/2 cap", float(np.nanmax(sum_field.values) - 1.5), 1e-12)

    mesh_005 = sf.extract_isosurface(field, 0.05)
    mesh_02 = sf.extract_isosurface(field, 0.2)
    mesh_06 = sf.extract_isosurface(field, 0.6)
    res.flag("level 0.05 mesh nonempty", not mesh_005.is_empty, f"{len(mesh_005.triangles)} triangles", "> 0")
    res.flag("level 0.2 mesh nonempty", not mesh_02.is_empty, f"{len(mesh_02.triangles)} triangles", "> 0")
    res.flag("level 0.6 mesh empty (above the 1/2 cap)", mesh_06.is_empty, f"{len(mesh_06.triangles)} triangles", "== 0")

    for mesh, level in ((mesh_005, 0.05), (mesh_02, 0.2)):
        vals = bd_coherence_values(*mesh.vertices.T, "a1")
        finite = np.isfinite(vals)
        worst = float(np.abs(vals[finite] - level).max()) if finite.any() else 0.0
        res.dev(f"vertex re-evaluation accuracy at level {level}", worst, 0.02)
    # vals and finite are those of the level-0.2 mesh
    res.flag(
        "nesting: level-0.2 mesh lies inside {value >= 0.05}",
        bool((vals[finite] >= 0.05 - 0.02).all()),
        f"min re-evaluated value {float(vals[finite].min()):.4f}",
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

    ``samples`` (1 to ``MAX_SAMPLES``) overrides every suite's sample counts."""
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
