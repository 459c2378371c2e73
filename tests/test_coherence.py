import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skewcoh.bases import amub_basis, computational_basis
from skewcoh.coherence import (
    bd_coherence,
    bd_coherence_sum,
    bd_coherence_values,
    coherence,
    coherence_bound,
    coherence_from_skew_information,
    isotropic_coherence,
    l1_coherence,
    relative_entropy_coherence,
    skew_information,
    werner_coherence,
    xz_coherence_a1,
    xz_coherence_a1_candidate,
    xz_coherence_sum,
    xz_coherence_values,
)
from skewcoh.states import (
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    bell_diagonal,
    isotropic,
    tetrahedron_margins,
    werner,
    x_state_z,
)
from skewcoh.surfaces import sample_xz_field

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def valid_bell_params(draw):
    # stay off the tetrahedron boundary: the coherence has a square-root
    # singularity there, so any two double-precision routes may differ by
    # ~sqrt(eps) in its immediate neighborhood
    c = draw(st.tuples(coeff, coeff, coeff))
    assume(min(tetrahedron_margins(*c)) >= 1e-6)
    return BellDiagonalParams(*c)


PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


class TestSkewInformation:
    def test_commuting_diagonal(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        assert skew_information(rho, np.diag([2.0, 5.0])) == 0.0

    def test_plus_state_against_projector(self):
        # 2x2 commutator expanded by hand: [sqrt(rho), |0><0|] has entries
        # +-1/2 off the diagonal, squaring to -1/2 trace
        proj = np.diag([1.0, 0.0]).astype(complex)
        assert skew_information(PLUS, proj) == pytest.approx(0.25, abs=1e-14)

    def test_identity_observable(self):
        assert skew_information(werner(0.3), np.eye(4)) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            skew_information(PLUS, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNumericCoherence:
    def test_one_square_root_per_state(self, amubs, monkeypatch):
        from skewcoh import states

        calls = []
        real = states.sqrt_psd
        monkeypatch.setattr(states, "sqrt_psd", lambda *args: calls.append(1) or real(*args))
        rho = bell_diagonal(BellDiagonalParams(0.3, -0.2, 0.5))
        for basis in amubs:
            coherence(rho, basis)
        coherence_from_skew_information(rho, amubs[0])
        assert len(calls) == 1

    def test_maximally_mixed_vanishes(self, amubs):
        rho = DensityMatrix(np.eye(4) / 4)
        for basis in amubs:
            assert coherence(rho, basis) <= 1e-12

    def test_singlet_in_a1(self):
        assert coherence(werner(0.0), amub_basis("a1")) == pytest.approx(0.5, abs=1e-12)

    def test_two_routes_agree(self, rng, amubs):
        for _ in range(20):
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = b.conj().T @ b
            rho = DensityMatrix(m / np.trace(m).real)
            for basis in amubs:
                assert coherence(rho, basis) == pytest.approx(
                    coherence_from_skew_information(rho, basis), abs=1e-10
                )

    def test_bound(self, rng):
        for dim in (2, 4):
            for _ in range(20):
                b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m = b.conj().T @ b
                rho = DensityMatrix(m / np.trace(m).real)
                assert coherence(rho) <= coherence_bound(dim) + 1e-12

    @given(st.tuples(*[st.floats(0, 2 * np.pi) for _ in range(4)]))
    def test_diagonal_phase_invariance(self, angles):
        rho = werner(0.35)
        phases = np.exp(1j * np.array(angles))
        rotated = DensityMatrix(rho.matrix * phases[:, None] * phases.conj()[None, :])
        assert coherence(rotated) == pytest.approx(coherence(rho), abs=1e-10)

    def test_faithfulness_both_ways(self):
        diag = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert coherence(diag) <= 1e-10
        bump = np.zeros((4, 4), dtype=complex)
        bump[0, 1] = bump[1, 0] = 1e-3
        assert coherence(DensityMatrix(diag.matrix + bump)) > 1e-10


class TestBellDiagonalClosedForms:
    def test_zero_everywhere(self):
        params = BellDiagonalParams(0.0, 0.0, 0.0)
        for label in ("a1", "a2", "a3"):
            assert bd_coherence(params, label) == 0.0
        assert bd_coherence_sum(params) == 0.0

    def test_bell_corner(self):
        params = BellDiagonalParams(1.0, 1.0, -1.0)
        assert bd_coherence(params, "a1") == pytest.approx(0.5, abs=1e-15)
        assert bd_coherence_sum(params) == pytest.approx(1.5, abs=1e-15)

    @given(valid_bell_params())
    def test_matches_numeric(self, params):
        from skewcoh.bases import qubit_amubs

        rho = bell_diagonal(params)
        for label, basis in zip(("a1", "a2", "a3"), qubit_amubs().bases):
            assert bd_coherence(params, label) == pytest.approx(coherence(rho, basis), abs=1e-9)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_werner_substitution_identity(self, p):
        c = 0.75 * p - 1.0
        params = BellDiagonalParams(c, c, c)
        for label in ("a1", "a2", "a3"):
            assert bd_coherence(params, label) == pytest.approx(werner_coherence(p), abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown basis label"):
            bd_coherence(BellDiagonalParams(0, 0, 0), "a4")

    def test_grid_values_match_scalar(self):
        c = np.array([0.3, -0.1]), np.array([-0.2, 0.4]), np.array([0.5, 0.0])
        vals = bd_coherence_values(*c, "a2")
        for k in range(2):
            params = BellDiagonalParams(c[0][k], c[1][k], c[2][k])
            assert vals[k] == pytest.approx(bd_coherence(params, "a2"), abs=1e-15)

    def test_grid_marks_unphysical(self):
        assert np.isnan(bd_coherence_values(1.0, 1.0, 1.0, "a1"))


class TestWernerIsotropic:
    def test_werner_endpoints(self):
        assert werner_coherence(0.0) == pytest.approx(0.5, abs=1e-15)
        assert werner_coherence(1.0) == pytest.approx((5 - np.sqrt(21)) / 16, abs=1e-15)

    def test_werner_midpoint(self):
        assert werner_coherence(0.5) == pytest.approx((6.5 - np.sqrt(17.25)) / 16, abs=1e-15)

    def test_isotropic_values(self):
        assert isotropic_coherence(0.25) == 0.0
        assert isotropic_coherence(0.0) == pytest.approx(1 / 6, abs=1e-15)
        assert isotropic_coherence(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_same_in_every_basis(self, amubs):
        for p in (0.2, 0.8):
            rho = werner(p)
            values = [coherence(rho, b) for b in amubs]
            assert max(values) - min(values) <= 1e-12
        for f in (0.1, 0.9):
            rho = isotropic(f)
            values = [coherence(rho, b) for b in amubs]
            assert max(values) - min(values) <= 1e-12

    def test_range_checks(self):
        with pytest.raises(ValueError):
            werner_coherence(-0.1)
        with pytest.raises(ValueError):
            isotropic_coherence(1.1)
        with pytest.raises(ValueError):
            werner_coherence(np.array([0.5, np.nan]))

    def test_array_matches_scalar(self):
        grid = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(werner_coherence(grid), [werner_coherence(float(p)) for p in grid])
        assert np.array_equal(isotropic_coherence(grid), [isotropic_coherence(float(f)) for f in grid])


class TestXStateClosedForms:
    def test_reduction_to_bell_diagonal(self):
        params = BellDiagonalParams(0.3, -0.2, 0.5)
        flat = XStateZParams(0.0, 0.0, *params.triple)
        assert xz_coherence_a1(flat) == pytest.approx(bd_coherence(params, "a1"), abs=1e-12)
        assert xz_coherence_sum(flat) == pytest.approx(bd_coherence_sum(params), abs=1e-12)

    def test_against_numeric(self, amubs):
        prm = XStateZParams(0.1, 0.1, 0.2, 0.1, 0.3)
        rho = x_state_z(prm)
        assert xz_coherence_a1(prm) == pytest.approx(coherence(rho, amubs[0]), abs=1e-10)
        total = sum(coherence(rho, b) for b in amubs)
        assert xz_coherence_sum(prm) == pytest.approx(total, abs=1e-10)

    def test_vanishing_gap_point_equals_numeric(self, amubs):
        # r = s and c1 = -c2: the {|01>, |10>} block gap is exactly zero
        prm = XStateZParams(0.2, 0.2, 0.4, -0.4, 0.1)
        assert xz_coherence_a1(prm) == pytest.approx(coherence(x_state_z(prm), amubs[0]), abs=1e-12)

    def test_boundary_state_evaluates_finite(self, amubs):
        # hypot(3/8, 1/2) = 5/8 = 1 - c3 exactly: one block margin is 0,
        # then -5e-13, inside the validation slack
        for c3 in (0.375, 0.375 + 5e-13):
            prm = XStateZParams(0.25, -0.25, 0.25, 0.125, c3)
            rho = x_state_z(prm)
            assert np.isfinite(xz_coherence_a1(prm))
            assert np.isfinite(xz_coherence_sum(prm))
            assert xz_coherence_a1(prm) == pytest.approx(coherence(rho, amubs[0]), abs=1e-6)
            assert xz_coherence_sum(prm) == pytest.approx(sum(coherence(rho, b) for b in amubs), abs=1e-6)

    def test_unphysical_params_raise(self):
        with pytest.raises(ValueError, match="unphysical"):
            xz_coherence_sum(XStateZParams(1.0, 1.0, 0.0, 0.0, -1.0))

    def test_grid_route_matches_scalar(self):
        r, s = 0.15, -0.05
        prm = XStateZParams(r, s, 0.2, 0.1, 0.3)
        a1 = xz_coherence_values(r, s, 0.2, 0.1, 0.3, "a1")
        total = xz_coherence_values(r, s, 0.2, 0.1, 0.3, "sum")
        assert float(a1) == pytest.approx(xz_coherence_a1(prm), abs=1e-12)
        assert float(total) == pytest.approx(xz_coherence_sum(prm), abs=1e-12)

    @pytest.mark.parametrize("r, s", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 0.0), (0.1, np.nan)])
    def test_non_finite_r_s_rejected(self, r, s):
        with pytest.raises(ValueError, match="must be finite"):
            xz_coherence_values(r, s, 0.2, 0.1, 0.3, "a1")
        with pytest.raises(ValueError, match="must be finite"):
            sample_xz_field(r, s, "sum", 5)

    def test_audited_candidate_deviates_generically(self, amubs):
        # the retained candidate expression carries a sign defect; the suite
        # reports it, and this pins down that there is something to report
        prm = XStateZParams(0.3, -0.1, 0.2, 0.1, 0.3)
        numeric = coherence(x_state_z(prm), amubs[0])
        assert abs(xz_coherence_a1_candidate(prm.r, prm.s, prm.c1, prm.c2, prm.c3) - numeric) > 1e-8


class TestComparisonMeasures:
    def test_diagonal_state_vanishes(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert l1_coherence(rho) <= 1e-12
        assert relative_entropy_coherence(rho) <= 1e-12

    def test_maximally_coherent_qubit(self):
        assert l1_coherence(PLUS) == pytest.approx(1.0, abs=1e-12)
        assert relative_entropy_coherence(PLUS) == pytest.approx(1.0, abs=1e-12)

    @given(valid_bell_params())
    def test_bell_diagonal_l1(self, params):
        # off-diagonal magnitudes of the a1 matrix sum to
        # (|c1 - c2| + |c1 + c2|)/2
        rho = bell_diagonal(params)
        expected = (abs(params.c1 - params.c2) + abs(params.c1 + params.c2)) / 2
        assert l1_coherence(rho, amub_basis("a1")) == pytest.approx(expected, abs=1e-12)

    def test_basis_argument(self):
        rho = werner(0.0)
        assert l1_coherence(rho, computational_basis(4)) == l1_coherence(rho)
