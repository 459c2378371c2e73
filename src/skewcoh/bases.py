"""Reference bases: qubit mutually unbiased bases, their tensor squares,
unbiasedness certification, and change of basis for density matrices.

A basis is an :class:`OrthonormalBasis` and a basis family a plain tuple
of them.  The three qubit bases are the eigenbases of sigma3, sigma1 and
sigma2 with the conventional phases; tensoring each basis with itself
yields three four-dimensional bases whose cross overlaps all have
magnitude 1/2 = 1/sqrt(4), so one check certifies both families.  That
tensor-squared family is what the coherence of two-qubit states is
evaluated in throughout this package ("amub" in the code).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix

# Orthonormality tolerance.
BASIS_TOL = 1e-12

AMUB_LABELS = ("a1", "a2", "a3")


@dataclass(frozen=True)
class OrthonormalBasis:
    """A complete orthonormal basis; ``vectors`` holds one ket per row."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=complex).copy()
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"expected dim x dim vectors, got shape {v.shape}")
        gram = v.conj() @ v.T
        defect = float(np.abs(gram - np.eye(v.shape[0])).max())
        if defect > BASIS_TOL:
            raise ValueError(f"vectors are not orthonormal: defect {defect:.3e}")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def qubit_mubs() -> tuple[OrthonormalBasis, ...]:
    """The three qubit mutually unbiased bases.

    e1 is computational, e2 the Hadamard pair (|0> +- |1>)/sqrt(2), e3 the
    circular pair (|0> +- i|1>)/sqrt(2).  Vector order and phases are fixed;
    downstream matrix-reproduction tests depend on them.
    """
    inv = 1.0 / np.sqrt(2.0)
    e1 = np.array([[1, 0], [0, 1]], dtype=complex)
    e2 = inv * np.array([[1, 1], [1, -1]], dtype=complex)
    e3 = inv * np.array([[1, 1j], [1, -1j]], dtype=complex)
    return tuple(OrthonormalBasis(v) for v in (e1, e2, e3))


def amub_from_mubs(mubs: tuple[OrthonormalBasis, ...]) -> tuple[OrthonormalBasis, ...]:
    """Tensor each basis with itself: row i*d + j of ``kron(V, V)`` is the
    ket kron(V[i], V[j]), so vectors are ordered row-major over (i, j)."""
    return tuple(OrthonormalBasis(np.kron(b.vectors, b.vectors)) for b in mubs)


@functools.cache
def qubit_amubs() -> tuple[OrthonormalBasis, ...]:
    """The cached two-qubit tensor-squared family (a1, a2, a3)."""
    return amub_from_mubs(qubit_mubs())


def amub_basis(label: str) -> OrthonormalBasis:
    """Look up one of the two-qubit bases by its label 'a1' | 'a2' | 'a3'."""
    try:
        k = AMUB_LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown basis label {label!r}; expected one of {AMUB_LABELS}") from None
    return qubit_amubs()[k]


def represent_in_basis(rho: DensityMatrix | np.ndarray, basis: OrthonormalBasis) -> np.ndarray:
    """Matrix of rho in the given basis: entry (i, j) = <b_i| rho |b_j>,
    for one matrix or a stack of them (shape (..., d, d)).

    This is a unitary congruence, so the result is again a valid density
    matrix with the same spectrum.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    v = basis.vectors
    if m.shape[-2:] != v.shape:
        raise ValueError(f"dimension mismatch: state shape {m.shape}, basis {basis.dim}")
    return v.conj() @ m @ v.T


def verify_mub(bases: tuple[OrthonormalBasis, ...]) -> float:
    """The largest deviation of a cross-basis overlap magnitude |<a_i|b_j>|
    from 1/sqrt(d), over every pair of the family; 0 certifies it mutually
    unbiased.  A tensor-squared family in dimension d^2 is held to
    1/sqrt(d^2) = 1/d by the same rule."""
    dims = {b.dim for b in bases}
    if len(dims) > 1:
        raise ValueError(f"bases have mixed dimensions {sorted(dims)}")
    worst = 0.0
    for k, a in enumerate(bases):
        for b in bases[k + 1 :]:
            overlaps = np.abs(a.vectors.conj() @ b.vectors.T)
            worst = max(worst, float(np.abs(overlaps - 1.0 / np.sqrt(a.dim)).max()))
    return worst
