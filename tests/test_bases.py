import numpy as np
import pytest

from skewcoh.bases import (
    AMUB_LABELS,
    OrthonormalBasis,
    amub_basis,
    amub_from_mubs,
    qubit_amubs,
    qubit_mubs,
    represent_in_basis,
    verify_mub,
)
from skewcoh.states import BellDiagonalParams, XStateZParams, bell_diagonal, werner, x_state_z


def test_qubit_mub_vectors():
    e1, e2, e3 = qubit_mubs()
    inv = 1 / np.sqrt(2)
    assert np.array_equal(e1.vectors, np.eye(2))
    assert np.allclose(e2.vectors[1], [inv, -inv])
    assert np.allclose(e3.vectors, [[inv, 1j * inv], [inv, -1j * inv]])


def test_pairwise_overlap_magnitudes():
    mubs = qubit_mubs()
    for k in range(3):
        for l in range(k + 1, 3):
            overlaps = np.abs(mubs[k].vectors.conj() @ mubs[l].vectors.T)
            assert np.abs(overlaps - 1 / np.sqrt(2)).max() < 1e-15


def test_verify_mub_passes():
    assert verify_mub(qubit_mubs()) < 1e-15


def test_verify_mub_detects_failure():
    # a basis is not unbiased with itself: its zero overlaps miss 1/sqrt(2)
    e1 = OrthonormalBasis(np.eye(2, dtype=complex))
    assert verify_mub((e1, e1)) == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_amub_first_basis_is_computational():
    amubs = amub_from_mubs(qubit_mubs())
    assert np.array_equal(amubs[0].vectors, np.eye(4))


def test_amub_cross_overlap_is_half():
    a1, a2, _ = amub_from_mubs(qubit_mubs())
    assert np.abs(np.abs(a1.vectors.conj() @ a2.vectors.T) - 0.5).max() < 1e-15


def test_amub_vectors_are_row_major_tensor_products():
    for b, a in zip(qubit_mubs(), qubit_amubs()):
        kets = [np.kron(b.vectors[i], b.vectors[j]) for i in range(2) for j in range(2)]
        assert np.array_equal(a.vectors, kets)


def test_qubit_amubs_is_the_cached_labelled_family():
    amubs = qubit_amubs()
    assert isinstance(amubs, tuple) and qubit_amubs() is amubs
    assert all(amub_basis(label) is a for label, a in zip(AMUB_LABELS, amubs))


def test_verify_amub_exhaustive():
    # the tensor squares are held to 1/sqrt(4) = 1/2 by the same check,
    # and a defect in any one pair is seen
    amubs = qubit_amubs()
    assert verify_mub(amubs) < 1e-15
    for k in range(3):
        for l in range(k + 1, 3):
            assert verify_mub((amubs[k], amubs[l])) < 1e-15
            assert verify_mub((amubs[k], amubs[l], amubs[l])) == pytest.approx(0.5, abs=1e-15)


def test_orthonormality_enforced():
    with pytest.raises(ValueError, match="orthonormal"):
        OrthonormalBasis(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="mixed"):
        verify_mub((OrthonormalBasis(np.eye(2)), OrthonormalBasis(np.eye(4))))


class TestRepresentInBasis:
    def test_computational_identity(self):
        rho = werner(0.4)
        assert np.allclose(represent_in_basis(rho, OrthonormalBasis(np.eye(4))), rho.matrix)

    def test_bell_diagonal_in_a2(self):
        c1, c2, c3 = 0.3, -0.2, 0.5
        got = represent_in_basis(bell_diagonal(BellDiagonalParams(c1, c2, c3)), amub_basis("a2"))
        expected = 0.25 * np.array(
            [
                [1 + c1, 0, 0, c3 - c2],
                [0, 1 - c1, c3 + c2, 0],
                [0, c3 + c2, 1 - c1, 0],
                [c3 - c2, 0, 0, 1 + c1],
            ]
        )
        assert np.abs(got - expected).max() < 1e-12

    def test_x_state_in_a2_carries_local_terms(self):
        r, s = 0.2, -0.1
        got = represent_in_basis(x_state_z(XStateZParams(r, s, 0.3, -0.2, 0.5)), amub_basis("a2"))
        assert got[0, 1] == pytest.approx(s / 4, abs=1e-12)
        assert got[0, 2] == pytest.approx(r / 4, abs=1e-12)
        assert got[1, 3] == pytest.approx(r / 4, abs=1e-12)

    def test_spectrum_and_trace_preserved(self):
        rho = werner(0.7)
        for label in AMUB_LABELS:
            rotated = represent_in_basis(rho, amub_basis(label))
            assert np.abs(np.linalg.eigvalsh(rotated) - np.linalg.eigvalsh(rho.matrix)).max() < 1e-10
            assert np.trace(rotated) == pytest.approx(1.0, abs=1e-12)

    def test_stack_equals_per_state(self):
        stack = np.array([werner(p).matrix for p in (0.0, 0.3, 0.7, 1.0)])
        for label in AMUB_LABELS:
            basis = amub_basis(label)
            rotated = represent_in_basis(stack, basis)
            assert rotated.shape == stack.shape
            assert all(np.array_equal(r, represent_in_basis(m, basis)) for r, m in zip(rotated, stack))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            represent_in_basis(werner(0.5), OrthonormalBasis(np.eye(2)))
        with pytest.raises(ValueError, match="mismatch"):
            represent_in_basis(np.eye(4)[None, :3], OrthonormalBasis(np.eye(4)))


def test_unknown_basis_label():
    with pytest.raises(ValueError, match="unknown basis label"):
        amub_basis("a4")


def test_user_supplied_qutrit_bases_verify():
    # the verification machinery is dimension-agnostic: the computational
    # and Fourier bases form an unbiased pair in dimension 3, and their
    # tensor squares are unbiased with overlap 1/3 in dimension 9
    w = np.exp(2j * np.pi / 3)
    fourier = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / np.sqrt(3)
    mubs = (OrthonormalBasis(np.eye(3, dtype=complex)), OrthonormalBasis(fourier))
    assert verify_mub(mubs) < 1e-14
    amubs = amub_from_mubs(mubs)
    assert amubs[0].dim == 9
    assert verify_mub(amubs) < 1e-14
