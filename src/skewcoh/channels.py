"""Local noise channels and their action on Bell-diagonal states.

Four single-qubit Kraus families are built here: bit flip (BF), phase flip
(PF), bit-phase flip (BPF) and generalized amplitude damping (GAD).  Each
acts on a two-qubit state as the product channel

    Phi(rho) = sum_ij (E_i (x) E_j) rho (E_i (x) E_j)^dagger.

On Bell-diagonal input the flip channels (and GAD at p = 1/2) preserve the
Bell-diagonal form and just rescale the correlation coefficients; that
coefficient map is stored declaratively and cross-validated against the
Kraus evolution by the test suite.  The constructors take scalar or array
parameters: an array gives one stacked channel, a scalar its 0-d case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import OrthonormalBasis
from .coherence import coherence
from .linalg import EYE2, SIGMA1, SIGMA2, SIGMA3
from .states import BellDiagonalParams, DensityMatrix, _bd_matrix, _unit_interval

CHANNEL_KINDS = ("BF", "PF", "BPF", "GAD")

# Kraus completeness tolerance: sum_k E_k^dagger E_k must equal I this tightly.
COMPLETENESS_TOL = 1e-12

# Exponent of (1 - p) applied to each correlation coefficient (c1, c2, c3)
# when the product channel acts on a Bell-diagonal state.  For GAD the map
# holds with the damping strength gamma playing the role of p and the
# mixing parameter fixed at 1/2.
COEFFICIENT_POWERS: dict[str, tuple[int, int, int]] = {
    "BF": (0, 2, 2),
    "PF": (2, 2, 0),
    "BPF": (2, 0, 2),
    "GAD": (1, 1, 2),
}


@dataclass(frozen=True)
class KrausChannel:
    """A completeness-checked set of single-qubit Kraus operators, or a stack
    of them: ``operators`` is one frozen (..., n, d, d) array.  For one set,
    iterating it gives the operators and ``np.array`` of it the (n, d, d) array."""

    label: str
    operators: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.operators, dtype=complex)
        e.flags.writeable = False
        object.__setattr__(self, "operators", e)
        total = np.einsum("...kji,...kjl->...il", e.conj(), e)  # sum_k E_k^dagger E_k
        defect = float(np.abs(total - np.eye(e.shape[-1])).max(initial=0.0))
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"Kraus set is not complete: defect {defect:.3e}")
        # The two-qubit products E_i (x) E_j of each set, stacked in (i, j)
        # order, built once here so that applying the channel is one contraction.
        *lead, n, d = e.shape[:-1]
        products = e[..., :, None, :, None, :, None] * e[..., None, :, None, :, None, :]
        products = products.reshape(*lead, n * n, d * d, d * d)
        products.flags.writeable = False
        object.__setattr__(self, "_products", products)


def make_channel(kind: str, p, gamma=None) -> KrausChannel:
    """Build one of the four channels, or a stack of them.

    BF/PF/BPF: E0 = sqrt(1 - p/2) I, E1 = sqrt(p/2) sigma.
    GAD: four operators parameterized by mixing p and damping gamma.
    p (and gamma) live on the closed interval [0, 1]; the endpoints are
    needed for decay limits even though interior values are the generic case.
    Array parameters broadcast and give one stack of shape (..., n, 2, 2).
    """
    if kind not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")
    x = _unit_interval("p", p)
    if kind != "GAD":
        if gamma is not None:
            raise ValueError(f"{kind} takes no gamma parameter")
        sigma = {"BF": SIGMA1, "PF": SIGMA3, "BPF": SIGMA2}[kind]
        ops = np.empty(x.shape + (2, 2, 2), dtype=complex)
        ops[..., 0, :, :] = np.sqrt(1.0 - x / 2.0)[..., None, None] * EYE2
        ops[..., 1, :, :] = np.sqrt(x / 2.0)[..., None, None] * sigma
        return KrausChannel(label=kind, operators=ops)
    if gamma is None:
        raise ValueError("GAD requires a gamma parameter")
    g = _unit_interval("gamma", gamma)
    sp, sq, sg, sh = np.sqrt(x), np.sqrt(1.0 - x), np.sqrt(g), np.sqrt(1.0 - g)
    # sqrt(p) [[1, 0], [0, sh]], sqrt(p) [[0, sg], [0, 0]],
    # sqrt(1 - p) [[sh, 0], [0, 1]] and sqrt(1 - p) [[0, 0], [sg, 0]].
    ops = np.zeros(np.broadcast(x, g).shape + (4, 2, 2), dtype=complex)
    ops[..., 0, 0, 0], ops[..., 0, 1, 1], ops[..., 1, 0, 1] = sp, sp * sh, sp * sg
    ops[..., 2, 0, 0], ops[..., 2, 1, 1], ops[..., 3, 1, 0] = sq * sh, sq, sq * sg
    return KrausChannel(label=kind, operators=ops)


def apply_product_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the two-qubit product channel built from a single-qubit Kraus
    set: sum_k K_k rho K_k^dagger over the products K = E_i (x) E_j.  A stack
    of channels and a stack of states pair by broadcasting their leading
    axes; one channel and one state are the 0-d case."""
    if rho.dim != 4:
        raise ValueError(f"expected a two-qubit state, got dimension {rho.dim}")
    k = channel._products
    try:
        np.broadcast_shapes(k.shape[:-3], rho.matrix.shape[:-2])
    except ValueError:
        raise ValueError(
            f"cannot pair a {channel.label} stack of shape {k.shape[:-3]} with states of shape {rho.matrix.shape[:-2]}"
        ) from None
    return DensityMatrix((k @ rho.matrix[..., None, :, :] @ k.conj().swapaxes(-1, -2)).sum(axis=-3))


def predicted_coefficients(kind: str, params: BellDiagonalParams, p: float) -> BellDiagonalParams:
    """Correlation coefficients after the channel, from the declarative map.

    Valid for BF/PF/BPF at any p; for GAD, p here is the damping strength
    of the reduced one-parameter form.
    """
    return BellDiagonalParams(*(float(c) for c in predicted_coefficient_grid(kind, *params.triple, p)))


def predicted_coefficient_grid(kind: str, c1, c2, c3, p):
    """The coefficient map elementwise over coefficient arrays and ``p``;
    :func:`predicted_coefficients` is its 0-d case."""
    if kind not in COEFFICIENT_POWERS:
        raise ValueError(f"unknown channel kind {kind!r}; expected one of {CHANNEL_KINDS}")
    # A float p in range skips the array test, which costs microseconds.
    if not (isinstance(p, float) and 0.0 <= p <= 1.0):
        p = _unit_interval("p", p)
    # Products, not **: numpy squares arrays exactly, Python's float ** may not.
    q = 1.0 - p
    factors = (1.0, q, q * q)
    return tuple(np.asarray(ci) * factors[k] for ci, k in zip((c1, c2, c3), COEFFICIENT_POWERS[kind]))


def channel_as_kraus(kind: str, p) -> KrausChannel:
    """The Kraus set (or stack) whose Bell-diagonal action the coefficient map
    predicts.  For GAD that is its one-parameter form: mixing fixed at 1/2,
    where the Bell-diagonal form is preserved, and the damping ``p`` swept."""
    return make_channel("GAD", 0.5, gamma=p) if kind == "GAD" else make_channel(kind, p)


def dynamics_curve(kind: str, params: BellDiagonalParams, basis: OrthonormalBasis, p_grid) -> np.ndarray:
    """Coherence of the channel output at each p of the grid, as an array.

    Evaluated through the coefficient map (the input is Bell-diagonal, so
    the output state is Bell-diagonal too), with the numeric coherence route
    on the stack of mapped states.
    """
    mapped = predicted_coefficient_grid(kind, *params.triple, np.asarray(p_grid, dtype=float))
    return coherence(DensityMatrix(_bd_matrix(*(c[..., None, None] for c in mapped))), basis)
