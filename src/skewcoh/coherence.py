"""Skew-information coherence: the numeric definition and closed forms.

The measure of coherence used throughout is built from Wigner-Yanase skew
information I(rho, K) = -1/2 tr([sqrt(rho), K]^2): summing it over the
rank-one projectors of a reference basis gives

    C(rho) = sum_k I(rho, |k><k|) = 1 - sum_k <k| sqrt(rho) |k>^2,

a faithful coherence monotone bounded by 1 - 1/d.  The second expression is
the primary evaluation route; the projector sum is kept as an independent
cross-check.

Closed forms are provided for the Bell-diagonal family (in each of the
three tensor-squared reference bases and their sum), its Werner and
isotropic slices, and the z-polarized X states.  Each closed form has one
array kernel (``_bd_values``, ``_xz_values``) that marks points outside
the physical region as NaN; the grid entry points call it on arrays, and
the scalar entry points make a 0-d call of it on validated parameters.
The closed forms are validated against the numeric definition by the
test-suite rather than trusted: the numeric route is normative.
"""

from __future__ import annotations

import numpy as np

from .bases import OrthonormalBasis
from .linalg import require_hermitian
from .states import (
    TETRA_TOL,
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    _unit_interval,
    _xz_margins,
    tetrahedron_margins,
)

# Skew informations and coherences are nonnegative; results above this
# floor are rounding noise and clamp to zero.
NEGATIVE_CLAMP = -1e-12


def _clamp(x):
    """``x`` with negative rounding noise zeroed; a value below ``NEGATIVE_CLAMP`` is an error."""
    if np.count_nonzero(x < 0.0):
        if np.count_nonzero(x < NEGATIVE_CLAMP):
            raise ArithmeticError(f"coherence produced a significant negative value {np.min(x):.3e}")
        x = np.where(x < 0.0, 0.0, x)
    return x


def skew_information(rho: DensityMatrix, observable: np.ndarray) -> float:
    """Wigner-Yanase skew information -1/2 tr([sqrt(rho), K]^2).

    K must be Hermitian; the commutator is then anti-Hermitian, making the
    result real and nonnegative up to rounding.
    """
    k = require_hermitian(observable)
    if k.shape[0] != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {k.shape[0]}")
    root = rho._root
    comm = root @ k - k @ root
    return float(_clamp((-0.5 * np.trace(comm @ comm)).real))


def _basis_or_computational(rho: DensityMatrix, basis: OrthonormalBasis | None) -> np.ndarray:
    if basis is None:
        return np.eye(rho.dim, dtype=complex)
    if basis.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    return basis.vectors


def _coherence_values(roots: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The numeric kernel: 1 - sum_k <b_k| R |b_k>^2 for every root R of a
    stack (shape (..., d, d)), with the kets b_k the rows of ``vecs``."""
    diag = np.einsum("ki,...ij,kj->...k", vecs.conj(), roots, vecs).real
    return _clamp(1.0 - (diag**2).sum(axis=-1))


def coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None) -> float:
    """Numeric coherence 1 - sum_k <b_k| sqrt(rho) |b_k>^2.

    ``basis=None`` means the computational basis.  This is the normative
    route every closed form is checked against.
    """
    return float(_coherence_values(rho._root, _basis_or_computational(rho, basis)))


def coherence_from_skew_information(rho: DensityMatrix, basis: OrthonormalBasis | None = None) -> float:
    """The same measure evaluated as a sum of skew informations over the
    basis projectors; independent of :func:`coherence` and used to
    cross-check it."""
    vecs = _basis_or_computational(rho, basis)
    return float(_clamp(sum(skew_information(rho, np.outer(v, v.conj())) for v in vecs)))


def coherence_bound(dim: int) -> float:
    """Upper bound 1 - 1/d attained by maximally coherent states."""
    return 1.0 - 1.0 / dim


# -- Bell-diagonal closed forms ------------------------------------------------
#
# With m = (m0, m1, m2, m3) the four tetrahedron margins (4x eigenvalues),
# the coherence in basis a_k is (2 - sqrt of one margin pair - sqrt of the
# complementary pair) / 4.  Which margins pair up depends on the basis:
#
#   a1: (m0 m1) (m2 m3),  a2: (m1 m2) (m0 m3),  a3: (m0 m2) (m1 m3).

_BD_PAIRS = {"a1": ((0, 1), (2, 3)), "a2": ((1, 2), (0, 3)), "a3": ((0, 2), (1, 3))}


def _physical(m):
    """Elementwise: all four margins are >= -TETRA_TOL."""
    return (m[0] >= -TETRA_TOL) & (m[1] >= -TETRA_TOL) & (m[2] >= -TETRA_TOL) & (m[3] >= -TETRA_TOL)


def _bd_values(c1, c2, c3, label: str):
    """The Bell-diagonal kernel: coherence in basis ``label``, elementwise;
    NaN where a margin is below -TETRA_TOL."""
    m = tetrahedron_margins(c1, c2, c3)
    physical = _physical(m)
    roots = [np.sqrt(np.maximum(x, 0.0)) for x in m]
    del m  # 33 MB on a 101^3 grid: free it before the products are formed
    (i, j), (k, l) = _BD_PAIRS[label]
    values = np.maximum(0.25 * (2.0 - roots[i] * roots[j] - roots[k] * roots[l]), 0.0)
    return np.where(physical, values, np.nan)


def bd_coherence_values(c1, c2, c3, label: str):
    """Closed-form Bell-diagonal coherence, elementwise over ndarray inputs.

    Points outside the physical tetrahedron (margins below -1e-12)
    evaluate to NaN; scalar users should prefer :func:`bd_coherence`,
    which validates its parameters instead.
    """
    return _bd_values(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float), np.asarray(c3, dtype=float), label)


def bd_coherence(params: BellDiagonalParams, label: str) -> float:
    """Closed-form coherence of a Bell-diagonal state in basis a1, a2 or a3."""
    if label not in _BD_PAIRS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {tuple(_BD_PAIRS)}")
    return float(_bd_values(*params.triple, label))


def bd_coherence_sum(params: BellDiagonalParams) -> float:
    """Coherence summed over the three reference bases."""
    return float(sum(_bd_values(*params.triple, lab) for lab in _BD_PAIRS))


def werner_coherence(p):
    """Closed form for the Werner slice: (8 - sqrt(p(48 - 27p)) - 3p)/16,
    the same in all three reference bases.  Elementwise over arrays."""
    p = _unit_interval("p", p)
    return np.maximum((8.0 - np.sqrt(p * (48.0 - 27.0 * p)) - 3.0 * p) / 16.0, 0.0)


def isotropic_coherence(fidelity):
    """Closed form for the isotropic slice: (1 + 2F - 2 sqrt(3F(1-F)))/6,
    the same in all three reference bases.  Elementwise over arrays."""
    f = _unit_interval("F", fidelity)
    return np.maximum((1.0 + 2.0 * f - 2.0 * np.sqrt(3.0 * f * (1.0 - f))) / 6.0, 0.0)


# -- z-polarized X states ------------------------------------------------------
#
# In the computational product basis the state splits into two 2x2 blocks,
# {|00>, |11>} and {|01>, |10>}, whose eigenvalues are the block margins
# over 4.  The block square roots give the diagonal of sqrt(rho) in closed
# form, and the coherence follows from the numeric definition's formula.
# Summed over the three reference bases only tr(sqrt(rho)) survives:
# C_sum = 2 - tr(sqrt(rho))^2 / 2.


def _xz_values(r, s, c1, c2, c3, measure: str):
    """The X-state kernel: coherence in a1 or summed ('sum'), elementwise;
    NaN where a block margin is below -TETRA_TOL."""
    m = _xz_margins(r, s, c1, c2, c3)
    physical = _physical(m)
    ri_m, ri_p, ro_p, ro_m = (np.sqrt(np.maximum(x, 0.0)) / 2.0 for x in m)
    del m  # 33 MB on a 101^3 grid: free it before the products are formed
    if measure == "sum":
        trace_root = ri_p + ri_m + ro_p + ro_m
        values = 2.0 - trace_root**2 / 2.0
    else:
        # sqrt of a 2x2 block [[alpha, beta], [beta, delta]] has diagonal
        # (u + w, u - w) with u the half trace of the root and
        # w = (alpha - delta) / (2 (sqrt(lam+) + sqrt(lam-))),
        # which stays finite whenever the block is nonzero, so vanishing
        # gaps need no special casing.
        si = ri_p + ri_m
        so = ro_p + ro_m
        wi = np.where(si > 0.0, (r - s) / np.where(si > 0.0, 4.0 * si, 1.0), 0.0)
        wo = np.where(so > 0.0, (r + s) / np.where(so > 0.0, 4.0 * so, 1.0), 0.0)
        values = 1.0 - (si / 2.0 + wi) ** 2 - (si / 2.0 - wi) ** 2 - (so / 2.0 + wo) ** 2 - (so / 2.0 - wo) ** 2
    return np.where(physical, np.maximum(values, 0.0), np.nan)


def xz_coherence_a1(params: XStateZParams) -> float:
    """Closed-form coherence of a z-polarized X state in the computational
    product basis a1."""
    return float(_xz_values(params.r, params.s, params.c1, params.c2, params.c3, "a1"))


def xz_coherence_sum(params: XStateZParams) -> float:
    """Coherence of a z-polarized X state summed over the three reference
    bases: 2 - tr(sqrt(rho))^2 / 2."""
    return float(_xz_values(params.r, params.s, params.c1, params.c2, params.c3, "sum"))


def xz_coherence_values(r: float, s: float, c1, c2, c3, measure: str):
    """Vectorized coherence of z-polarized X states over coefficient grids.

    ``measure`` is 'a1' or 'sum'.  r and s are fixed finite scalars; c1,
    c2, c3 broadcast.  Unphysical points (negative block eigenvalues)
    evaluate to NaN.
    """
    if measure not in ("a1", "sum"):
        raise ValueError(f"unknown measure {measure!r}; expected 'a1' or 'sum'")
    if not (np.isfinite(r) and np.isfinite(s)):
        raise ValueError(f"r and s must be finite, got r={r} s={s}")
    return _xz_values(r, s, np.asarray(c1, dtype=float), np.asarray(c2, dtype=float), np.asarray(c3, dtype=float), measure)


# -- closed-form candidates kept for auditing ----------------------------------
#
# Alternative closed-form expressions for the z-polarized X states, kept
# for regression auditing.  Both carry sign defects (one radical appears
# where its sign-flipped partner belongs, and the summed expression
# duplicates an adjacent product), so they deviate from the numeric
# definition on generic inputs.  The certification suite reports every
# deviation with its parameters; nothing asserts agreement with them.


def xz_coherence_a1_candidate(r: float, s: float, c1: float, c2: float, c3: float) -> float:
    """Audited a1 closed-form candidate; NaN when a block gap vanishes."""
    q = lambda x: np.sqrt(max(x, 0.0))
    rp = np.hypot(c1 + c2, r - s)
    rm = np.hypot(c1 - c2, r + s)
    if rp == 0.0 or rm == 0.0:
        return float("nan")
    first = (
        (q(1 - c3 + rp) * (r - s + rp) + q(1 - c3 - rp) * (-r + s + rp)) ** 2
        + (q(1 - c3 - rp) * (r - s + rp) + q(1 - c3 + rp) * (-r + s + rp)) ** 2
    )
    second = (
        (q(1 + c3 + rm) * (-r - s + rm) + q(1 + c3 + rm) * (r + s + rm)) ** 2
        + (q(1 + c3 - rm) * (r + s - rm) - q(1 + c3 + rm) * (r + s + rm)) ** 2
    )
    return float(1.0 - first / (16.0 * rp**2) - second / (16.0 * rm**2))


def xz_coherence_sum_candidate(r: float, s: float, c1: float, c2: float, c3: float) -> float:
    """Audited sum candidate; one product appears twice where its partner belongs."""
    q = lambda x: np.sqrt(max(x, 0.0))
    rp = np.hypot(c1 + c2, r - s)
    rm = np.hypot(c1 - c2, r + s)
    a = q(1 - c3 - rp)
    b = q(1 - c3 + rp)
    c = q(1 + c3 - rm)
    d = q(1 + c3 + rm)
    return float(0.25 * (6.0 - a * b - b * c - b * c - a * c - a * d - c * d))


# -- comparison measures -------------------------------------------------------


def l1_coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None) -> float:
    """Sum of off-diagonal magnitudes of rho in the given basis."""
    vecs = _basis_or_computational(rho, basis)
    m = vecs.conj() @ rho.matrix @ vecs.T
    return float(np.abs(m).sum() - np.abs(np.diag(m)).sum())


def _entropy_bits(probabilities: np.ndarray) -> float:
    p = np.clip(probabilities.real, 0.0, None)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def relative_entropy_coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None) -> float:
    """S(diag(rho)) - S(rho) in bits, with diag taken in the given basis."""
    vecs = _basis_or_computational(rho, basis)
    m = vecs.conj() @ rho.matrix @ vecs.T
    diag_entropy = _entropy_bits(np.diag(m).real)
    state_entropy = _entropy_bits(np.linalg.eigvalsh(rho.matrix))
    return max(diag_entropy - state_entropy, 0.0)
