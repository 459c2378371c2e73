"""Two-qubit state families and their parameter spaces.

The families built here are the maximally mixed marginal states
(Bell-diagonal), their z-polarized X-shaped extension, and the Werner and
isotropic one-parameter slices.  Every constructor returns a validated
:class:`DensityMatrix`; invalid parameters are rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EYE2, SIGMA1, SIGMA2, SIGMA3, sqrt_psd

# Validation tolerances for density matrices (double precision, dims <= 4).
STATE_TOL = 1e-10
# Slack on the four exact tetrahedron inequalities.
TETRA_TOL = 1e-12

EYE4 = np.kron(EYE2, EYE2)
EYE4.flags.writeable = False

# sigma_i (x) sigma_i and the local observables sigma_i (x) I and
# I (x) sigma_i, i = 1, 2, 3, each family one (3, 4, 4) stack.
PAULI_PAIRS = np.array([np.kron(sig, sig) for sig in (SIGMA1, SIGMA2, SIGMA3)])
LOCAL_PAULIS_A = np.array([np.kron(sig, EYE2) for sig in (SIGMA1, SIGMA2, SIGMA3)])
LOCAL_PAULIS_B = np.array([np.kron(EYE2, sig) for sig in (SIGMA1, SIGMA2, SIGMA3)])
for _m in (PAULI_PAIRS, LOCAL_PAULIS_A, LOCAL_PAULIS_B):
    _m.flags.writeable = False


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state, or a stack of them (``matrix`` of shape (..., d, d)):
    Hermitian, unit trace, positive semidefinite.

    All three properties are checked on construction, for every state of a
    stack, by the one stacked eigensolve of :func:`sqrt_psd` (finite
    entries, hermiticity to ``HERMITICITY_TOL`` and eigenvalues down to
    ``PSD_FLOOR``), then the trace to ``STATE_TOL``.  The stored array is
    frozen so instances stay immutable.  The eigensolve also gives the PSD
    square roots, kept as ``_root`` so the numeric coherence routes never
    diagonalize a state again.  A single state is the 0-d case of a stack.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        try:
            root = sqrt_psd(m)
        except ValueError as exc:
            raise ValueError(f"not a state: {exc}") from None
        tr = m.trace(axis1=-2, axis2=-1)
        off = abs(tr - 1.0) > STATE_TOL
        if np.count_nonzero(off):
            raise ValueError(f"not a state: trace {np.extract(off, tr)[0]:.12g} != 1")
        m.flags.writeable = False
        root.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_root", root)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def tetrahedron_margins(c1: float, c2: float, c3: float) -> tuple[float, float, float, float]:
    """The four linear physicality margins; each equals 4x an eigenvalue
    of the Bell-diagonal state, so the state is physical iff all are >= 0.

    Grouped as (1 -+ c3) -+ (c1 +- c2) so the values agree bit for bit
    with the block-eigenvalue route used for the X-state family.
    """
    low = 1.0 - c3
    high = 1.0 + c3
    s = c1 + c2
    d = c1 - c2
    return (low - s, low + s, high + d, high - d)


def _xz_margins(r, s, c1, c2, c3):
    """The four block margins of the z-polarized X state, each 4x an exact
    eigenvalue: (1 - c3) -+ hypot(c1 + c2, r - s) for the {|01>, |10>}
    block and (1 + c3) +- hypot(c1 - c2, r + s) for the {|00>, |11>} block.

    At r = s = 0 they are the tetrahedron margins bit for bit, up to order,
    so the X-state field matches the Bell-diagonal one exactly even on the
    boundary, where sqrt amplifies noise.
    """
    low = 1.0 - c3
    high = 1.0 + c3
    inner = np.hypot(c1 + c2, r - s)
    outer = np.hypot(c1 - c2, r + s)
    return (low - inner, low + inner, high + outer, high - outer)


def _require_physical(params: dict[str, float], margins, kind: str) -> None:
    """Reject parameters (name -> value, in margin argument order) outside
    [-1, 1] or with a margin below -TETRA_TOL."""
    for name, v in params.items():
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"{name}={v} outside [-1, 1]")
    worst = min(margins(*params.values()))
    if worst < -TETRA_TOL:
        point = f"({', '.join(params)})=({', '.join(map(str, params.values()))})"
        raise ValueError(f"{point} is unphysical: {kind} margin {worst:.3e}")


@dataclass(frozen=True)
class BellDiagonalParams:
    """Correlation coefficients (c1, c2, c3) of a Bell-diagonal state.

    Valid points form a tetrahedron inside [-1, 1]^3, carved out by four
    linear inequalities (exact eigenvalue formulas, no diagonalization).
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        _require_physical(vars(self), tetrahedron_margins, "tetrahedron")

    @property
    def triple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class XStateZParams:
    """Parameters of the z-polarized X state: local Bloch z-components
    r, s plus correlation coefficients (c1, c2, c3).

    The state is physical iff its four block margins are >= 0, checked
    with the same ``TETRA_TOL`` slack as the X-state closed forms, so a
    validated point never evaluates to NaN there.
    """

    r: float
    s: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        _require_physical(vars(self), _xz_margins, "block")


def _bd_matrix(c1, c2, c3) -> np.ndarray:
    """(1/4)(I + sum_i c_i sigma_i (x) sigma_i).  Coefficients broadcast
    against the matrix axes: arrays of shape S + (1, 1) give a stack of
    shape S + (4, 4)."""
    m = EYE4
    for c, pp in zip((c1, c2, c3), PAULI_PAIRS):
        m = m + c * pp
    return 0.25 * m


def _xz_matrix(r, s, c1, c2, c3) -> np.ndarray:
    m = 4.0 * _bd_matrix(c1, c2, c3)
    m = m + r * LOCAL_PAULIS_A[2] + s * LOCAL_PAULIS_B[2]
    return 0.25 * m


def bell_diagonal(params: BellDiagonalParams) -> DensityMatrix:
    """(1/4)(I (x) I + sum_i c_i sigma_i (x) sigma_i) in the computational basis."""
    return DensityMatrix(_bd_matrix(*params.triple))


def x_state_z(params: XStateZParams) -> DensityMatrix:
    """Bell-diagonal state plus local z terms (r/4) sigma3 (x) I + (s/4) I (x) sigma3."""
    return DensityMatrix(_xz_matrix(params.r, params.s, params.c1, params.c2, params.c3))


def _unit_interval(name: str, x) -> np.ndarray:
    """``x`` as a float array, rejected, naming the first element outside, unless all are in [0, 1]."""
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"{name}={np.extract(~inside, x)[0]} outside [0, 1]")
    return x


def _werner_coefficients(p):
    c = 0.75 * _unit_interval("p", p) - 1.0
    return c, c, c


def _isotropic_coefficients(fidelity):
    u = (4.0 * _unit_interval("F", fidelity) - 1.0) / 3.0
    return u, -u, u


def werner(p: float) -> DensityMatrix:
    """One-parameter Werner slice: all three coefficients equal 3p/4 - 1.

    p = 0 is the singlet, p = 1 the most mixed member of the family.
    """
    return bell_diagonal(BellDiagonalParams(*_werner_coefficients(p)))


def isotropic(fidelity: float) -> DensityMatrix:
    """Isotropic slice: c1 = c3 = (4F - 1)/3 and c2 = -(4F - 1)/3.

    F is the fidelity with the maximally entangled target; F = 1/4 gives
    the maximally mixed state.
    """
    return bell_diagonal(BellDiagonalParams(*_isotropic_coefficients(fidelity)))


def _pauli_traces(m: np.ndarray, paulis: np.ndarray) -> np.ndarray:
    """The read-back kernel: tr(m P) for every matrix m of a stack (shape
    (..., 4, 4)) and every observable P of the stack ``paulis``, shape
    (..., len(paulis)).  The traces are real for Hermitian input; a residual
    imaginary part above STATE_TOL is an error."""
    t = np.trace(m[..., None, :, :] @ paulis, axis1=-2, axis2=-1)
    bad = abs(t.imag) > STATE_TOL
    if np.count_nonzero(bad):
        raise ValueError(f"Pauli expectation has imaginary part {np.extract(bad, t.imag)[0]:.3e}")
    return t.real


def correlation_coefficients(rho: DensityMatrix | np.ndarray) -> tuple[float, float, float]:
    """Read back (c1, c2, c3) as tr(rho sigma_i (x) sigma_i).

    Inverts the Bell-diagonal construction for any 4x4 state; the traces
    are real for Hermitian input and the residual imaginary part is
    checked against STATE_TOL.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
    return tuple(float(t) for t in _pauli_traces(m, PAULI_PAIRS))
