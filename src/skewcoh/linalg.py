"""Dense complex linear algebra for small operator matrices.

Everything operates on plain complex ndarrays.  States, observables and
Kraus operators in this package are square matrices of dimension 2 or 4;
the helpers check shapes, finiteness and hermiticity instead of trusting
the caller.  All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Max-abs asymmetry accepted before a matrix stops counting as Hermitian.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [PSD_FLOOR, 0) are rounding noise and clamp to zero;
# anything below PSD_FLOOR is a genuinely non-PSD input.
PSD_FLOOR = -1e-10
_EPS = np.finfo(float).eps

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)
for _m in (SIGMA1, SIGMA2, SIGMA3, EYE2):
    _m.flags.writeable = False


def as_square(a: np.ndarray) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting any other shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The square complex matrix ``a``, or stack of them (shape (..., d, d)),
    checked finite and Hermitian: no entry of a - a^dagger may exceed
    ``tol`` in size."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # NaN would give a NaN defect that passes the bound, inf a NaN with a warning.
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValueError("non-finite entries")
    defect = float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: hermiticity defect {defect:.3e} > {tol:.1e}")
    return a


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Spectral decomposition a = V diag(w) V^dagger.

    ``eigenvalues`` are real and sorted ascending; column i of
    ``eigenvectors`` is the unit eigenvector for ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruction_error(self, a: np.ndarray) -> float:
        v = self.eigenvectors
        return float(np.abs((v * self.eigenvalues) @ v.conj().T - a).max())

    def unitarity_defect(self) -> float:
        v = self.eigenvectors
        return float(np.abs(v.conj().T @ v - np.eye(v.shape[0])).max())


def hermitian_eig(a: np.ndarray, tol: float = HERMITICITY_TOL) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Backed by LAPACK via ``numpy.linalg.eigh``; a failure to converge
    surfaces as ``numpy.linalg.LinAlgError``.
    """
    w, v = np.linalg.eigh(require_hermitian(as_square(a), tol))
    return HermitianEigenDecomposition(eigenvalues=w, eigenvectors=v)


def sqrt_psd(a: np.ndarray, floor: float = PSD_FLOOR) -> np.ndarray:
    """Hermitian PSD square root R with R @ R == a, for one matrix or a
    stack of them (shape (..., d, d)), from one stacked eigensolve.

    Eigenvalues in [floor, 0) are clamped to zero before the root;
    anything below ``floor`` raises, because the input is then not a
    rounding-perturbed PSD matrix but an invalid one.  Positive
    eigenvalues inside the eigensolver's own rounding bound of zero are
    zeroed as well: the square root amplifies noise of size eps to
    sqrt(eps), which would otherwise dominate downstream differences.
    Both rules apply to each matrix of a stack on its own spectrum.
    """
    w, v = np.linalg.eigh(require_hermitian(a))
    if w.size:
        low = w.min()
        if low < floor:
            raise ValueError(f"matrix is not PSD: min eigenvalue {low:.3e} < {floor:.1e}")
        # A negative top eigenvalue gives a negative bound, which every
        # eigenvalue of that matrix still lies below: all are zeroed.
        noise = w.shape[-1] * _EPS * w[..., -1:]
        w[w <= noise] = 0.0
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    # symmetrize away the last few ulps so downstream hermiticity checks pass
    return 0.5 * (root + root.conj().swapaxes(-1, -2))
