import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skewcoh.states import (
    LOCAL_PAULIS_A,
    LOCAL_PAULIS_B,
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    _pauli_traces,
    bell_diagonal,
    correlation_coefficients,
    isotropic,
    tetrahedron_margins,
    werner,
    x_state_z,
)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def valid_bell_params(draw):
    c = draw(st.tuples(coeff, coeff, coeff))
    assume(min(tetrahedron_margins(*c)) >= 0.0)
    return BellDiagonalParams(*c)


def test_maximally_mixed():
    rho = bell_diagonal(BellDiagonalParams(0.0, 0.0, 0.0))
    assert np.allclose(rho.matrix, np.eye(4) / 4.0)


def test_generic_matrix_layout():
    c1, c2, c3 = 0.3, -0.2, 0.5
    rho = bell_diagonal(BellDiagonalParams(c1, c2, c3))
    expected = 0.25 * np.array(
        [
            [1 + c3, 0, 0, c1 - c2],
            [0, 1 - c3, c1 + c2, 0],
            [0, c1 + c2, 1 - c3, 0],
            [c1 - c2, 0, 0, 1 + c3],
        ]
    )
    assert np.allclose(rho.matrix, expected, atol=1e-15)


def test_invalid_corner_rejected():
    with pytest.raises(ValueError, match="unphysical"):
        BellDiagonalParams(1.0, 1.0, 1.0)


def test_out_of_range_coefficient_rejected():
    with pytest.raises(ValueError, match="outside"):
        BellDiagonalParams(1.5, 0.0, 0.0)


class TestXStateZ:
    def test_reduces_to_bell_diagonal(self):
        c = (0.3, -0.2, 0.5)
        flat = x_state_z(XStateZParams(0.0, 0.0, *c))
        assert np.array_equal(flat.matrix, bell_diagonal(BellDiagonalParams(*c)).matrix)

    def test_diagonal_case(self):
        rho = x_state_z(XStateZParams(0.1, 0.1, 0.0, 0.0, 0.0))
        assert np.allclose(rho.matrix, np.diag([1.2, 1.0, 1.0, 0.8]) / 4.0)

    def test_unphysical_rejected(self):
        # each diagonal entry is fine, but one full eigenvalue is -1/2
        with pytest.raises(ValueError, match="unphysical"):
            XStateZParams(1.0, 1.0, 0.0, 0.0, -1.0)

    def test_margin_tolerance(self):
        # r = s and c1 + c2 = 1 - c3: the {|01>, |10>} block margin is 1 - c3 - 0.5
        XStateZParams(0.1, 0.1, 0.25, 0.25, 0.5)
        with pytest.raises(ValueError, match="block margin"):
            XStateZParams(0.1, 0.1, 0.25, 0.25, 0.5 + 1e-11)

    def test_bloch_vectors(self):
        m = x_state_z(XStateZParams(0.3, -0.2, 0.1, 0.1, 0.1)).matrix
        r_vec, s_vec = _pauli_traces(m, LOCAL_PAULIS_A), _pauli_traces(m, LOCAL_PAULIS_B)
        assert np.allclose(r_vec, [0.0, 0.0, 0.3], atol=1e-12)
        assert np.allclose(s_vec, [0.0, 0.0, -0.2], atol=1e-12)


class TestWerner:
    def test_singlet_limit(self):
        assert np.allclose(np.linalg.eigvalsh(werner(0.0).matrix), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_coefficients_at_p1(self):
        assert np.allclose(correlation_coefficients(werner(1.0)), (-0.25, -0.25, -0.25))

    def test_corner_entries(self):
        # (1 + c3)/4 with c3 = 3p/4 - 1 gives 3p/16
        rho = werner(0.5)
        assert rho.matrix[0, 0].real == pytest.approx(3 * 0.5 / 16, abs=1e-15)

    def test_range_check(self):
        with pytest.raises(ValueError):
            werner(1.2)


class TestIsotropic:
    def test_quarter_is_maximally_mixed(self):
        assert np.allclose(isotropic(0.25).matrix, np.eye(4) / 4.0)

    def test_maximally_entangled_limit(self):
        rho = isotropic(1.0)
        assert np.allclose(correlation_coefficients(rho), (1.0, -1.0, 1.0))
        assert rho.matrix[0, 0].real == pytest.approx(0.5)
        assert rho.matrix[0, 3].real == pytest.approx(0.5)

    def test_zero_fidelity(self):
        rho = isotropic(0.0)
        assert np.allclose(np.diag(rho.matrix).real, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
        assert rho.matrix[0, 3].real == pytest.approx(-1 / 6)

    def test_range_check(self):
        with pytest.raises(ValueError):
            isotropic(-0.1)


class TestCorrelationCoefficients:
    @given(valid_bell_params())
    def test_round_trip(self, params):
        got = correlation_coefficients(bell_diagonal(params))
        assert max(abs(g - w) for g, w in zip(got, params.triple)) <= 1e-12

    def test_maximally_mixed(self):
        assert correlation_coefficients(DensityMatrix(np.eye(4) / 4)) == (0.0, 0.0, 0.0)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="4x4"):
            correlation_coefficients(np.eye(2) / 2)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="hermiticity"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))

    def test_boundary_state_accepted(self):
        DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_matrix_is_frozen(self):
        rho = werner(0.3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0

    @given(valid_bell_params())
    def test_constructors_validate(self, params):
        rho = bell_diagonal(params)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10
        assert abs(np.trace(rho.matrix) - 1) <= 1e-10
