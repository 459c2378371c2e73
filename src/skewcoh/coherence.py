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
isotropic slices, and the z-polarized X states.  Both families share one
array core that roots their four margins under ``sqrt_psd``'s noise rule
and marks points outside the physical region as NaN; the grid entry
points call it on arrays, and the scalar entry points make a 0-d call of
it on validated parameters.  The closed forms are certified against the
numeric definition at every point of whole grids, not trusted.
"""

from __future__ import annotations

import numpy as np

from .bases import AMUB_LABELS, OrthonormalBasis, represent_in_basis
from .linalg import _noise_bound, require_hermitian
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


def skew_information(rho: DensityMatrix, observable: np.ndarray):
    """Wigner-Yanase skew information -1/2 tr([sqrt(rho), K]^2), one value
    per state of a stack (a float for one state).

    K must be Hermitian; the commutator is then anti-Hermitian, making the
    result real and nonnegative up to rounding.
    """
    k = require_hermitian(observable)
    if k.shape[-1] != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {k.shape[-1]}")
    root = rho._root
    comm = root @ k - k @ root
    return _clamp((-0.5 * np.trace(comm @ comm, axis1=-2, axis2=-1)).real)[()]


def _basis_or_computational(rho: DensityMatrix, basis: OrthonormalBasis | None) -> np.ndarray:
    if basis is None:
        return np.eye(rho.dim, dtype=complex)
    if basis.dim != rho.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    return basis.vectors


def coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None):
    """Numeric coherence 1 - sum_k <b_k| sqrt(rho) |b_k>^2, one value per
    state of a stack (a float for one state).

    ``basis=None`` means the computational basis.  This is the normative
    route every closed form is checked against.
    """
    vecs = _basis_or_computational(rho, basis)
    diag = np.einsum("ki,...ij,kj->...k", vecs.conj(), rho._root, vecs).real
    return _clamp(1.0 - (diag**2).sum(axis=-1))[()]


def coherence_from_skew_information(rho: DensityMatrix, basis: OrthonormalBasis | None = None):
    """The same measure evaluated as a sum of skew informations over the
    basis projectors; independent of :func:`coherence` and used to
    cross-check it."""
    vecs = _basis_or_computational(rho, basis)
    return _clamp(sum(skew_information(rho, np.outer(v, v.conj())) for v in vecs))[()]


def coherence_bound(dim: int) -> float:
    """Upper bound 1 - 1/d attained by maximally coherent states."""
    return 1.0 - 1.0 / dim


# -- closed forms --------------------------------------------------------------
#
# Both families are given by four margins m_i, each 4x an eigenvalue, so
# tr(sqrt(rho)) = sum_i sqrt(m_i) / 2.  Summed over the three reference
# bases only that trace survives: C_sum = 2 - (sum_i sqrt(m_i))^2 / 8.  In
# one basis a_k, a Bell-diagonal state has C = (2 - sqrt of one margin pair
# - sqrt of the complementary pair) / 4.

_BD_TERMS = {
    "a1": lambda q: 0.25 * (2.0 - q[0] * q[1] - q[2] * q[3]),
    "a2": lambda q: 0.25 * (2.0 - q[1] * q[2] - q[0] * q[3]),
    "a3": lambda q: 0.25 * (2.0 - q[0] * q[2] - q[1] * q[3]),
    "sum": None,
}


def _closed_values(m, basis_term=None):
    """The closed-form core over the four margins ``m``, elementwise: the
    three-basis sum, or ``basis_term(roots)``, clamped at 0; NaN where a
    margin is below -TETRA_TOL.  A margin at or below ``sqrt_psd``'s noise
    bound counts as 0, as its eigenvalue does on the numeric route: on a
    face, sqrt would turn a 2e-16 margin into a 1.5e-8 root."""
    physical = (m[0] >= -TETRA_TOL) & (m[1] >= -TETRA_TOL) & (m[2] >= -TETRA_TOL) & (m[3] >= -TETRA_TOL)
    m = np.array(m)  # one (4, ...) stack, rooted in place
    np.copyto(m, 0.0, where=m <= _noise_bound(m.max(axis=0), 4))
    roots = np.sqrt(m, out=m)
    values = 2.0 - roots.sum(axis=0) ** 2 / 8.0 if basis_term is None else basis_term(roots)
    return np.where(physical, np.maximum(values, 0.0), np.nan)


def _bd_values(c1, c2, c3, label: str):
    """The Bell-diagonal kernel: coherence in basis ``label``, or summed over
    the three bases ('sum'), elementwise; NaN outside the tetrahedron."""
    if label not in _BD_TERMS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {tuple(_BD_TERMS)}")
    return _closed_values(tetrahedron_margins(c1, c2, c3), _BD_TERMS[label])


def bd_coherence_values(c1, c2, c3, label: str):
    """Closed-form Bell-diagonal coherence, elementwise over ndarray inputs.

    ``label`` is a basis ('a1' | 'a2' | 'a3') or the three-basis sum
    ('sum', in its trace-root form, equal to the sum of the three to
    rounding).  Points outside the physical tetrahedron (margins below
    -1e-12) evaluate to NaN; scalar users should prefer
    :func:`bd_coherence`, which validates its parameters instead.
    """
    return _bd_values(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float), np.asarray(c3, dtype=float), label)


def bd_coherence(params: BellDiagonalParams, label: str) -> float:
    """Closed-form coherence of a Bell-diagonal state in basis a1, a2 or a3."""
    if label not in AMUB_LABELS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {AMUB_LABELS}")
    return float(_bd_values(*params.triple, label))


def bd_coherence_sum(params: BellDiagonalParams) -> float:
    """Coherence summed over the three reference bases."""
    return float(_bd_values(*params.triple, "sum"))


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
# {|01>, |10>} and {|00>, |11>}, whose eigenvalues are the block margins
# over 4.  The block square roots give the diagonal of sqrt(rho) in closed
# form, and the coherence in a1 follows from the numeric definition's
# formula.  sqrt of a block [[alpha, beta], [beta, delta]] has diagonal
# (u + w, u - w) with u the half trace of the root and
# w = (alpha - delta) / (2 (sqrt(lam+) + sqrt(lam-))), which stays finite
# whenever the block is nonzero, so vanishing gaps need no special casing.


def _xz_values(r, s, c1, c2, c3, measure: str):
    """The X-state kernel: coherence in a1 or summed ('sum'), elementwise;
    NaN where a block margin is below -TETRA_TOL."""

    def a1(q):
        si, so = (q[0] + q[1]) / 2.0, (q[2] + q[3]) / 2.0
        wi = np.where(si > 0.0, (r - s) / np.where(si > 0.0, 4.0 * si, 1.0), 0.0)
        wo = np.where(so > 0.0, (r + s) / np.where(so > 0.0, 4.0 * so, 1.0), 0.0)
        return 1.0 - (si / 2.0 + wi) ** 2 - (si / 2.0 - wi) ** 2 - (so / 2.0 + wo) ** 2 - (so / 2.0 - wo) ** 2

    return _closed_values(_xz_margins(r, s, c1, c2, c3), None if measure == "sum" else a1)


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

    ``measure`` is 'a1' or 'sum' (in its trace-root form).  r and s are
    fixed finite scalars; c1, c2, c3 broadcast.  Unphysical points (block
    margins below -1e-12) evaluate to NaN.
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
# Both are elementwise, a scalar call their 0-d case; they square with
# np.square, never **, so a 0-d call equals its array element bit for bit.


def xz_coherence_a1_candidate(r, s, c1, c2, c3):
    """Audited a1 closed-form candidate, elementwise; NaN where a block gap vanishes."""
    q = lambda x: np.sqrt(np.maximum(x, 0.0))
    rp = np.hypot(c1 + c2, r - s)
    rm = np.hypot(c1 - c2, r + s)
    first = np.square(q(1 - c3 + rp) * (r - s + rp) + q(1 - c3 - rp) * (-r + s + rp)) + np.square(
        q(1 - c3 - rp) * (r - s + rp) + q(1 - c3 + rp) * (-r + s + rp)
    )
    second = np.square(q(1 + c3 + rm) * (-r - s + rm) + q(1 + c3 + rm) * (r + s + rm)) + np.square(
        q(1 + c3 - rm) * (r + s - rm) - q(1 + c3 + rm) * (r + s + rm)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 1.0 - first / (16.0 * np.square(rp)) - second / (16.0 * np.square(rm))
    return np.where((rp == 0.0) | (rm == 0.0), np.nan, value)[()]


def xz_coherence_sum_candidate(r, s, c1, c2, c3):
    """Audited sum candidate, elementwise; one product appears twice where its partner belongs."""
    q = lambda x: np.sqrt(np.maximum(x, 0.0))
    rp = np.hypot(c1 + c2, r - s)
    rm = np.hypot(c1 - c2, r + s)
    a = q(1 - c3 - rp)
    b = q(1 - c3 + rp)
    c = q(1 + c3 - rm)
    d = q(1 + c3 + rm)
    return 0.25 * (6.0 - a * b - b * c - b * c - a * c - a * d - c * d)


# -- comparison measures -------------------------------------------------------


def l1_coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None):
    """Sum of off-diagonal magnitudes of rho in the given basis, one value
    per state of a stack (a float for one state)."""
    m = np.abs(rho.matrix if basis is None else represent_in_basis(rho, basis))
    return (m.sum(axis=(-2, -1)) - np.diagonal(m, axis1=-2, axis2=-1).sum(axis=-1))[()]


def _entropy_bits(probabilities: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis, negative rounding noise taken as 0."""
    p = np.clip(probabilities, 0.0, None)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


def relative_entropy_coherence(rho: DensityMatrix, basis: OrthonormalBasis | None = None):
    """S(diag(rho)) - S(rho) in bits, with diag taken in the given basis, one
    value per state of a stack (a float for one state)."""
    m = rho.matrix if basis is None else represent_in_basis(rho, basis)
    diag = np.diagonal(m, axis1=-2, axis2=-1).real
    return np.maximum(_entropy_bits(diag) - _entropy_bits(np.linalg.eigvalsh(rho.matrix)), 0.0)[()]
