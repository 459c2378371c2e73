"""Reference bases: qubit mutually unbiased bases, their tensor squares,
unbiasedness certification, and change of basis for density matrices.

The three qubit bases are the eigenbases of sigma3, sigma1 and sigma2 with
the conventional phases; tensoring each basis with itself yields three
four-dimensional bases whose cross overlaps all have magnitude 1/2.  That
tensor-squared family is what the coherence of two-qubit states is
evaluated in throughout this package ("amub" in the code).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import DensityMatrix

# Orthonormality / unbiasedness certification tolerance.
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


@dataclass(frozen=True)
class MubSet:
    """A family of equal-dimension bases meant to be mutually unbiased.

    Construction only checks dimensions; unbiasedness is certified
    separately by :func:`verify_mub`, which must also be able to report
    failures for bases that are *not* unbiased.
    """

    bases: tuple[OrthonormalBasis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        dims = {b.dim for b in self.bases}
        if len(dims) > 1:
            raise ValueError(f"bases have mixed dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.bases[0].dim


@dataclass(frozen=True)
class AmubSet:
    """Tensor-squared basis family on the doubled system (dimension d^2)."""

    bases: tuple[OrthonormalBasis, ...]
    base_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        for b in self.bases:
            if b.dim != self.base_dim**2:
                raise ValueError(f"expected dimension {self.base_dim ** 2}, got {b.dim}")


def computational_basis(dim: int) -> OrthonormalBasis:
    return OrthonormalBasis(np.eye(dim, dtype=complex))


def qubit_mubs() -> MubSet:
    """The three qubit mutually unbiased bases.

    e1 is computational, e2 the Hadamard pair (|0> +- |1>)/sqrt(2), e3 the
    circular pair (|0> +- i|1>)/sqrt(2).  Vector order and phases are fixed;
    downstream matrix-reproduction tests depend on them.
    """
    inv = 1.0 / np.sqrt(2.0)
    e1 = np.array([[1, 0], [0, 1]], dtype=complex)
    e2 = inv * np.array([[1, 1], [1, -1]], dtype=complex)
    e3 = inv * np.array([[1, 1j], [1, -1j]], dtype=complex)
    return MubSet(tuple(OrthonormalBasis(v) for v in (e1, e2, e3)))


def amub_from_mubs(mubs: MubSet) -> AmubSet:
    """Tensor each basis with itself; vectors ordered row-major over (i, j)."""
    out = []
    for b in mubs.bases:
        d = b.dim
        vecs = np.array([np.kron(b.vectors[i], b.vectors[j]) for i in range(d) for j in range(d)])
        out.append(OrthonormalBasis(vecs))
    return AmubSet(tuple(out), base_dim=mubs.dim)


_QUBIT_AMUBS: AmubSet | None = None


def qubit_amubs() -> AmubSet:
    """The cached two-qubit tensor-squared family {a1, a2, a3}."""
    global _QUBIT_AMUBS
    if _QUBIT_AMUBS is None:
        _QUBIT_AMUBS = amub_from_mubs(qubit_mubs())
    return _QUBIT_AMUBS


def amub_basis(label: str) -> OrthonormalBasis:
    """Look up one of the two-qubit bases by its label 'a1' | 'a2' | 'a3'."""
    try:
        k = AMUB_LABELS.index(label)
    except ValueError:
        raise ValueError(f"unknown basis label {label!r}; expected one of {AMUB_LABELS}") from None
    return qubit_amubs().bases[k]


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


@dataclass(frozen=True)
class UnbiasednessReport:
    """Outcome of certifying a basis family against a target overlap."""

    target: float
    max_deviation: float
    pair_deviations: dict[tuple[int, int], float] = field(default_factory=dict)
    tolerance: float = BASIS_TOL

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance


def _overlap_report(bases: tuple[OrthonormalBasis, ...], target: float, tol: float) -> UnbiasednessReport:
    pair_devs: dict[tuple[int, int], float] = {}
    worst = 0.0
    for k in range(len(bases)):
        for l in range(k + 1, len(bases)):
            overlaps = np.abs(bases[k].vectors.conj() @ bases[l].vectors.T)
            dev = float(np.abs(overlaps - target).max())
            pair_devs[(k, l)] = dev
            worst = max(worst, dev)
    return UnbiasednessReport(target=target, max_deviation=worst, pair_deviations=pair_devs, tolerance=tol)


def verify_mub(mubs: MubSet, tol: float = BASIS_TOL) -> UnbiasednessReport:
    """Check every cross-basis overlap magnitude against 1/sqrt(d)."""
    return _overlap_report(mubs.bases, 1.0 / np.sqrt(mubs.dim), tol)


def verify_amub(amubs: AmubSet, tol: float = BASIS_TOL) -> UnbiasednessReport:
    """Check every cross-basis overlap magnitude against 1/d (d the base dimension)."""
    return _overlap_report(amubs.bases, 1.0 / amubs.base_dim, tol)

