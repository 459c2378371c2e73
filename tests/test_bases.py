import numpy as np
import pytest

from skewcoh.bases import (
    AMUB_LABELS,
    MubSet,
    OrthonormalBasis,
    amub_basis,
    amub_from_mubs,
    computational_basis,
    qubit_mubs,
    represent_in_basis,
    verify_amub,
    verify_mub,
)
from skewcoh.states import BellDiagonalParams, XStateZParams, bell_diagonal, werner, x_state_z


def test_qubit_mub_vectors():
    mubs = qubit_mubs()
    inv = 1 / np.sqrt(2)
    assert np.array_equal(mubs.bases[0].vectors, np.eye(2))
    assert np.allclose(mubs.bases[1].vectors[1], [inv, -inv])
    assert np.allclose(mubs.bases[2].vectors, [[inv, 1j * inv], [inv, -1j * inv]])


def test_pairwise_overlap_magnitudes():
    mubs = qubit_mubs()
    for k in range(3):
        for l in range(k + 1, 3):
            overlaps = np.abs(mubs.bases[k].vectors.conj() @ mubs.bases[l].vectors.T)
            assert np.abs(overlaps - 1 / np.sqrt(2)).max() < 1e-15


def test_verify_mub_passes():
    report = verify_mub(qubit_mubs())
    assert report.ok
    assert report.max_deviation < 1e-15


def test_verify_mub_detects_failure():
    e1 = OrthonormalBasis(np.eye(2, dtype=complex))
    report = verify_mub(MubSet((e1, e1)))
    assert not report.ok
    assert report.max_deviation > 0.2


def test_amub_first_basis_is_computational():
    amubs = amub_from_mubs(qubit_mubs())
    assert np.array_equal(amubs.bases[0].vectors, np.eye(4))


def test_amub_cross_overlap_is_half():
    amubs = amub_from_mubs(qubit_mubs())
    a1, a2 = amubs.bases[0].vectors, amubs.bases[1].vectors
    assert np.abs(np.abs(a1.conj() @ a2.T) - 0.5).max() < 1e-15


def test_verify_amub_exhaustive():
    report = verify_amub(amub_from_mubs(qubit_mubs()))
    assert report.ok
    assert set(report.pair_deviations) == {(0, 1), (0, 2), (1, 2)}


def test_orthonormality_enforced():
    with pytest.raises(ValueError, match="orthonormal"):
        OrthonormalBasis(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="mixed"):
        MubSet((computational_basis(2), computational_basis(4)))


class TestRepresentInBasis:
    def test_computational_identity(self):
        rho = werner(0.4)
        assert np.allclose(represent_in_basis(rho, computational_basis(4)), rho.matrix)

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
            assert np.abs(np.linalg.eigvalsh(rotated) - rho.eigenvalues()).max() < 1e-10
            assert np.trace(rotated) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            represent_in_basis(werner(0.5), computational_basis(2))


def test_unknown_basis_label():
    with pytest.raises(ValueError, match="unknown basis label"):
        amub_basis("a4")


def test_user_supplied_qutrit_bases_verify():
    # the verification machinery is dimension-agnostic: the computational
    # and Fourier bases form an unbiased pair in dimension 3, and their
    # tensor squares are unbiased with overlap 1/3 in dimension 9
    w = np.exp(2j * np.pi / 3)
    fourier = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]]) / np.sqrt(3)
    mubs = MubSet((OrthonormalBasis(np.eye(3, dtype=complex)), OrthonormalBasis(fourier)))
    assert verify_mub(mubs).max_deviation < 1e-14
    amubs = amub_from_mubs(mubs)
    assert amubs.bases[0].dim == 9
    assert verify_amub(amubs).max_deviation < 1e-14
