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
isotropic slices, and the z-polarized X states.  Each family is declared
once, by ``_bd_field`` or ``_xz_field``: its margins function and term.
One array core, ``_closed_values``, roots the four margins under
``sqrt_psd``'s noise rule and marks points outside the physical region as
NaN; the grid entry points call it on arrays, and the scalar entry points
make a 0-d call of it on validated parameters.  Coordinates in ``np.ix_``
form are a grid: ``_grid_values`` fills it, evaluating a term that splits
over the two margin pairs once per distinct pair value, with the core's
bits.  The closed forms are certified against the numeric definition at
every point of whole grids, not trusted.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

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
#
# The margins come in two pairs: pair A, (1 - c3) -+ f(c1 + c2), and pair
# B, (1 + c3) +- g(c1 - c2).  Where a term takes one pair's roots apart
# from the other's it is a _SplitTerm, and a field over a grid whose c1 and
# c2 axes are the same evaluates each pair once per distinct (c1 +- c2, c3)
# (:func:`_grid_values`).


class _SplitTerm(NamedTuple):
    """A closed form over the four roots that splits over the margin pairs:
    ``pair_a(q0, q1)`` of pair A, the tuple ``pair_b(q2, q3)`` of pair B, and
    ``combine(a, *b)``, which updates ``a`` in place where it is an array (a
    0-d call passes scalars).  The parts and the combine keep the unsplit
    formula's operation order, so both routes give its bits."""

    pair_a: Callable
    pair_b: Callable
    combine: Callable

    def __call__(self, q):
        return self.combine(self.pair_a(q[0], q[1]), *self.pair_b(q[2], q[3]))


def _a1_combine(a, b):
    """0.25 * ((2 - q0 q1) - q2 q3) from a = 2 - q0 q1 and b = q2 q3."""
    a -= b
    a *= 0.25
    return a


def _sum_combine(a, q2, q3):
    """2 - (((q0 + q1) + q2) + q3)^2 / 8 from a = q0 + q1; t^2 / -8 + 2 is
    2 - t^2 / 8 bit for bit, and needs no second array."""
    a += q2
    a += q3
    a *= a
    a /= -8.0
    a += 2.0
    return a


_SUM = _SplitTerm(lambda q0, q1: q0 + q1, lambda q2, q3: (q2, q3), _sum_combine)

_BD_TERMS = {
    "a1": _SplitTerm(lambda q0, q1: 2.0 - q0 * q1, lambda q2, q3: (q2 * q3,), _a1_combine),
    # a2 and a3 take one root of each pair in each product: they do not split.
    "a2": lambda q: 0.25 * (2.0 - q[1] * q[2] - q[0] * q[3]),
    "a3": lambda q: 0.25 * (2.0 - q[0] * q[2] - q[1] * q[3]),
    "sum": _SUM,
}
BD_MEASURES = tuple(_BD_TERMS)
XZ_MEASURES = ("a1", "sum")


def _closed_values(margins, term, c1, c2, c3):
    """The closed-form core over the four margins ``margins(c1, c2, c3)``,
    elementwise: ``term(roots)``, clamped at 0; NaN where a margin is below
    -TETRA_TOL.  A margin at or below ``sqrt_psd``'s noise bound counts as
    0, as its eigenvalue does on the numeric route: on a face, sqrt would
    turn a 2e-16 margin into a 1.5e-8 root."""
    m = np.array(margins(c1, c2, c3))  # one (4, ...) stack, rooted in place
    physical = (m[0] >= -TETRA_TOL) & (m[1] >= -TETRA_TOL) & (m[2] >= -TETRA_TOL) & (m[3] >= -TETRA_TOL)
    np.copyto(m, 0.0, where=m <= _noise_bound(m.max(axis=0), 4))
    values = term(np.sqrt(m, out=m))
    return np.where(physical, np.maximum(values, 0.0), np.nan)


def _field_values(margins, term, c1, c2, c3):
    """``term`` over ``margins(c1, c2, c3)``: a grid for axes in ``np.ix_``
    form (a sparse ij ``np.meshgrid`` too), elementwise for other input."""
    c1, c2, c3 = (np.asarray(c, dtype=float) for c in (c1, c2, c3))
    if (c1.shape, c2.shape, c3.shape) == ((c1.size, 1, 1), (1, c2.size, 1), (1, 1, c3.size)):
        return _grid_values(margins, term, c1.ravel(), c2.ravel(), c3.ravel())
    return _closed_values(margins, term, c1, c2, c3)


_SLAB_ROWS = 8  # c1 rows per core call or table gather in _grid_values


def _grid_values(margins, term, x, y, z) -> np.ndarray:
    """``term`` over ``margins``, a family's pair from ``_bd_field`` or
    ``_xz_field``, on the grid x (c1) by y (c2) by z (c3), a slab of c1 rows
    at a time, so that no full-grid temporary's placement by the allocator
    decides the peak memory.

    Where the term is a _SplitTerm and x and y are the same axis, each
    pair's part is tabulated once per distinct (c1 + c2, c3) for pair A and
    per distinct (c1 - c2, c3) for pair B, and each slab gathers the parts
    and combines them in place.  Each distinct value is keyed by its bits
    and evaluated at its first (c1, c2), so ``margins`` gives each table
    entry the bits it gives the grid points that use it; the points that
    use an entry the noise rule leaves ambiguous, and every slab otherwise,
    go through :func:`_closed_values`, so both routes give its bits."""
    values = np.empty((len(x), len(y), len(z)))
    if not (isinstance(term, _SplitTerm) and np.array_equal(x.view(np.int64), y.view(np.int64))):
        # Sparse (rows,1,1), (n,1), (n,) coordinates: no full coordinate grid.
        for i in range(0, len(x), _SLAB_ROWS):
            values[i : i + _SLAB_ROWS] = _closed_values(margins, term, x[i : i + _SLAB_ROWS, None, None], y[:, None], z)
        return values
    tables = []
    for outer, pair in ((np.add.outer, slice(0, 2)), (np.subtract.outer, slice(2, 4))):
        _, first, inverse = np.unique(outer(x, y).view(np.int64), return_index=True, return_inverse=True)
        i, j = np.divmod(first, len(y))
        m = np.array(margins(x[i, None], y[j, None], z)[pair])
        tables.append((m, m.max(axis=0), inverse.reshape(len(x), len(y))))
    (m_a, top_a, index_a), (m_b, top_b, index_b) = tables
    part_a, ambiguous_a = _pair_part(m_a, top_a, top_b, term.pair_a)
    parts_b, ambiguous_b = _pair_part(m_b, top_b, top_a, term.pair_b)
    gathered = [np.empty((_SLAB_ROWS, len(y), len(z))) for _ in parts_b]
    for i in range(0, len(x), _SLAB_ROWS):
        slab = values[i : i + _SLAB_ROWS]
        rows = slice(i, i + len(slab))
        # mode="clip" lets take write straight into ``out``, unbuffered.
        np.take(part_a, index_a[rows], axis=0, out=slab, mode="clip")
        b = [np.take(t, index_b[rows], axis=0, out=g[: len(slab)], mode="clip") for t, g in zip(parts_b, gathered)]
        term.combine(slab, *b)
        np.maximum(slab, 0.0, out=slab)
    del gathered
    # The (c1, c2) that use an ambiguous entry at some c3, then those c3.
    i, j = np.nonzero(ambiguous_a.any(axis=1)[index_a] | ambiguous_b.any(axis=1)[index_b])
    point, k = np.nonzero(ambiguous_a[index_a[i, j]] | ambiguous_b[index_b[i, j]])
    if len(point):
        i, j = i[point], j[point]
        values[i, j, k] = _closed_values(margins, term, x[i], y[j], z[k])
    return values


def _pair_part(m, top, other, part):
    """``part`` of one pair's roots over a table of its margins ``m`` (2,
    rows, c3) with row maxima ``top``, NaN where the pair is unphysical,
    and the mask of its ambiguous entries, given the other pair's maxima
    ``other`` at the same c3.

    The noise rule zeroes a margin at or below the bound of the largest of
    a point's four margins.  An entry at or below the bound of its own
    pair's largest margin is zeroed wherever it is used; one above the bound
    of the larger of that and the other pair's largest margin at its c3 is
    kept wherever it is used; one between is ambiguous."""
    physical = (m[0] >= -TETRA_TOL) & (m[1] >= -TETRA_TOL)
    own = _noise_bound(top, 4)
    ambiguous = ((m > own) & (m <= _noise_bound(np.maximum(top, other.max(axis=0, initial=-np.inf)), 4))).any(axis=0)
    np.copyto(m, 0.0, where=m <= own)
    q = np.sqrt(m, out=m)
    values = part(q[0], q[1])
    for v in values if isinstance(values, tuple) else (values,):
        np.copyto(v, np.nan, where=~physical)
    return values, ambiguous


def _bd_field(label: str):
    """The margins function and term of the Bell-diagonal closed form in
    basis ``label``, or summed over the three bases ('sum')."""
    if label not in _BD_TERMS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {BD_MEASURES}")
    return tetrahedron_margins, _BD_TERMS[label]


def bd_coherence_values(c1, c2, c3, label: str):
    """Closed-form Bell-diagonal coherence, elementwise over ndarray inputs.

    ``label`` is a basis ('a1' | 'a2' | 'a3') or the three-basis sum
    ('sum', in its trace-root form, equal to the sum of the three to
    rounding).  Points outside the physical tetrahedron (margins below
    -1e-12) evaluate to NaN; scalar users should prefer
    :func:`bd_coherence`, which validates its parameters instead.  Inputs
    in ``np.ix_`` form, (n, 1, 1), (1, m, 1), (1, 1, k) as a sparse ij
    ``np.meshgrid`` too, fill the (n, m, k) grid with the elementwise bits.
    """
    return _field_values(*_bd_field(label), c1, c2, c3)


def bd_coherence(params: BellDiagonalParams, label: str) -> float:
    """Closed-form coherence of a Bell-diagonal state in basis a1, a2 or a3."""
    if label not in AMUB_LABELS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {AMUB_LABELS}")
    return float(_closed_values(*_bd_field(label), *params.triple))


def bd_coherence_sum(params: BellDiagonalParams) -> float:
    """Coherence summed over the three reference bases."""
    return float(_closed_values(*_bd_field("sum"), *params.triple))


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


def _block_diagonal(qa, qb, gap):
    """The squared diagonal entries (u + w)^2 and (u - w)^2 of the root of
    one block, from its two roots and its off-diagonal ``gap``."""
    u = (qa + qb) / 2.0
    w = np.where(u > 0.0, gap / np.where(u > 0.0, 4.0 * u, 1.0), 0.0)
    # t * t, not t ** 2: numpy squares an array exactly but a 0-d scalar by pow.
    plus, minus = u / 2.0 + w, u / 2.0 - w
    return plus * plus, minus * minus


def _xz_a1_combine(a, y1, y2):
    """(((1 - x1) - x2) - y1) - y2 from a = (1 - x1) - x2."""
    a -= y1
    a -= y2
    return a


def _xz_field(r, s, measure: str):
    """The margins function and term of the X-state closed form at (r, s),
    which broadcast with the coordinates: the sum, or a1 as 1 minus the four
    squared diagonal entries of sqrt(rho), block {|01>, |10>} (pair A) first."""
    if measure not in XZ_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {XZ_MEASURES}")
    margins = functools.partial(_xz_margins, r, s)
    if measure == "sum":
        return margins, _SUM

    def pair_a(q0, q1):
        x1, x2 = _block_diagonal(q0, q1, r - s)
        return (1.0 - x1) - x2

    return margins, _SplitTerm(pair_a, lambda q2, q3: _block_diagonal(q2, q3, r + s), _xz_a1_combine)


def xz_coherence_a1(params: XStateZParams) -> float:
    """Closed-form coherence of a z-polarized X state in the computational
    product basis a1."""
    return float(_closed_values(*_xz_field(params.r, params.s, "a1"), params.c1, params.c2, params.c3))


def xz_coherence_sum(params: XStateZParams) -> float:
    """Coherence of a z-polarized X state summed over the three reference
    bases: 2 - tr(sqrt(rho))^2 / 2."""
    return float(_closed_values(*_xz_field(params.r, params.s, "sum"), params.c1, params.c2, params.c3))


def xz_coherence_values(r: float, s: float, c1, c2, c3, measure: str):
    """Vectorized coherence of z-polarized X states over coefficient grids.

    ``measure`` is 'a1' or 'sum' (in its trace-root form).  r and s are
    fixed finite scalars; c1, c2, c3 broadcast, or give a grid in ``np.ix_``
    form (a sparse ij ``np.meshgrid`` too).  Unphysical points (block
    margins below -1e-12) evaluate to NaN.
    """
    if np.ndim(r) or np.ndim(s) or not (np.isfinite(r) and np.isfinite(s)):
        raise ValueError(f"r and s must be finite scalars, got r={r} s={s}")
    return _field_values(*_xz_field(r, s, measure), c1, c2, c3)


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
