import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcoh.linalg import (
    EYE2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    require_hermitian,
    sqrt_psd,
)

EYE4 = np.eye(4, dtype=complex)


def bounded_complex(limit=5.0):
    f = st.floats(min_value=-limit, max_value=limit, allow_nan=False)
    return st.builds(complex, f, f)


def square_matrix(dim):
    return st.lists(bounded_complex(), min_size=dim * dim, max_size=dim * dim).map(
        lambda xs: np.array(xs).reshape(dim, dim)
    )


def hermitian_matrix(dim):
    return square_matrix(dim).map(lambda m: 0.5 * (m + m.conj().T))


class TestKron:
    def test_identities(self):
        assert np.array_equal(np.kron(EYE2, EYE2), EYE4)

    def test_diagonal_paulis(self):
        assert np.allclose(np.kron(SIGMA3, SIGMA3), np.diag([1, -1, -1, 1]))

    def test_antidiagonal(self):
        expected = np.fliplr(np.eye(4))
        assert np.allclose(np.kron(SIGMA1, SIGMA1), expected)

    @given(square_matrix(2), square_matrix(3))
    def test_trace_multiplicative(self, a, b):
        product = np.trace(a) * np.trace(b)
        assert abs(np.trace(np.kron(a, b)) - product) <= 1e-12 * (1 + abs(product))


def checked_eigh(a):
    """The eigensolve the linalg certification suite runs: ``np.linalg.eigh``
    behind the finiteness and hermiticity check."""
    return np.linalg.eigh(require_hermitian(a))


class TestHermitianEig:
    def test_sorted_diagonal(self):
        w, _ = checked_eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_spectrum(self):
        w, _ = checked_eigh(SIGMA1)
        assert np.allclose(w, [-1.0, 1.0])

    def test_singlet_spectrum(self):
        # (I(x)I - sum_i sigma_i(x)sigma_i)/4 assembled entrywise splits into
        # blocks [[0,0],[0,0]] and [[1/2,-1/2],[-1/2,1/2]]: spectrum (0,0,0,1)
        m = 0.25 * (EYE4 - np.kron(SIGMA1, SIGMA1) - np.kron(SIGMA2, SIGMA2) - np.kron(SIGMA3, SIGMA3))
        w, _ = checked_eigh(m)
        assert np.allclose(w, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            checked_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.one_of(hermitian_matrix(2), hermitian_matrix(4)))
    def test_reconstruction_and_unitarity(self, h):
        w, v = checked_eigh(h)
        scale = 1.0 + float(np.abs(h).max())
        assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-12 * scale
        assert np.abs(v.conj().T @ v - np.eye(len(w))).max() <= 1e-12
        assert np.all(np.diff(w) >= 0)


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(EYE2), EYE2)

    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))

    def test_scalar_case(self):
        assert np.allclose(sqrt_psd(EYE4 / 4.0), EYE4 / 2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            sqrt_psd(np.diag([1.0, -1e-6]).astype(complex))

    def test_clamps_rounding_noise(self):
        root = sqrt_psd(np.diag([1.0, -5e-11]).astype(complex))
        assert root[1, 1] == 0.0

    @given(square_matrix(4))
    def test_squares_back(self, b):
        p = b.conj().T @ b
        root = sqrt_psd(p)
        scale = 1.0 + float(np.abs(p).max())
        assert np.abs(root @ root - p).max() <= 1e-9 * scale
        assert np.abs(root - root.conj().T).max() <= 1e-12 * scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected_without_warnings(bad):
    # A NaN entry once gave a NaN defect that passed the hermiticity bound
    # (an all-NaN root), and an infinite one warned in the defect first.
    off_diagonal = np.array([[1.0, bad], [bad, 1.0]])
    diagonal = np.array([[bad, 0.0], [0.0, 1.0]])
    stack = np.stack([EYE4, EYE4, EYE4])
    stack[1, 2, 3] = stack[1, 3, 2] = bad
    for check in (sqrt_psd, require_hermitian):
        for m in (off_diagonal, diagonal, stack):
            with pytest.raises(ValueError, match="^non-finite entries$"):
                check(m)
