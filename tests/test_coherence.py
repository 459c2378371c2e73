import itertools
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from skewcoh.bases import AMUB_LABELS, OrthonormalBasis, amub_basis
from skewcoh.channels import predicted_coefficients
from skewcoh.coherence import (
    _bd_values,
    _xz_values,
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
    xz_coherence_sum_candidate,
    xz_coherence_values,
)
from skewcoh.states import (
    BellDiagonalParams,
    _bd_matrix,
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
        for label, basis in zip(("a1", "a2", "a3"), qubit_amubs()):
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
        with pytest.raises(ValueError, match="unknown basis label"):
            bd_coherence_values(0.1, 0.2, 0.3, "a4")
        # the summed value has one public route, bd_coherence_sum
        with pytest.raises(ValueError, match="unknown basis label"):
            bd_coherence(BellDiagonalParams(0, 0, 0), "sum")

    def test_sum_label_is_the_trace_root_sum(self):
        # 'sum' is 2 - (sum_i sqrt(m_i))^2 / 8 bit for bit, a margin at or
        # below 4 eps max_j m_j counting as 0, and the three-basis sum up
        # to rounding.
        axis = np.linspace(-1.0, 1.0, 21)
        c = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
        m = np.array(np.broadcast_arrays(*tetrahedron_margins(*c)))
        roots = np.sqrt(np.where(m > 4 * np.finfo(float).eps * m.max(axis=0), m, 0.0))
        want = np.where(m.min(axis=0) >= -1e-12, np.maximum(2.0 - roots.sum(axis=0) ** 2 / 8.0, 0.0), np.nan)
        got = bd_coherence_values(*c, "sum")
        assert got.tobytes() == want.tobytes()
        three = bd_coherence_values(*c, "a1") + bd_coherence_values(*c, "a2") + bd_coherence_values(*c, "a3")
        assert np.array_equal(np.isnan(got), np.isnan(three))
        assert np.abs(got - three)[np.isfinite(got)].max() <= 1e-15
        params = BellDiagonalParams(0.3, -0.2, 0.1)
        three = sum(bd_coherence(params, lab) for lab in ("a1", "a2", "a3"))
        assert bd_coherence_sum(params) == pytest.approx(three, abs=1e-15)

    def test_bases_are_a1_with_the_coefficients_permuted(self):
        # a2(c) = a1(c2, c3, c1) and a3(c) = a1(c3, c1, c2) at every point of
        # the 101^3 grid, NaN masks included; a sqrt of noise-level margins
        # on the faces broke this by up to 5.2e-9.
        axis = np.linspace(-1.0, 1.0, 101)
        c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
        for i in range(0, 101, 20):
            x = c1[i : i + 20]
            for label, permuted in (("a2", (c2, c3, x)), ("a3", (c3, x, c2))):
                got, want = bd_coherence_values(x, c2, c3, label), bd_coherence_values(*permuted, "a1")
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert np.abs(got - want)[np.isfinite(got)].max(initial=0.0) <= 1e-15

    def test_grid_values_match_scalar(self):
        c = np.array([0.3, -0.1]), np.array([-0.2, 0.4]), np.array([0.5, 0.0])
        vals = bd_coherence_values(*c, "a2")
        for k in range(2):
            params = BellDiagonalParams(c[0][k], c[1][k], c[2][k])
            assert vals[k] == pytest.approx(bd_coherence(params, "a2"), abs=1e-15)

    def test_grid_marks_unphysical(self):
        assert np.isnan(bd_coherence_values(1.0, 1.0, 1.0, "a1"))

    def test_sum_level_one_is_critical(self):
        # On the edge from one Bell vertex to another two margins are 4(1 - t)
        # and 4t, so C_sum = 3/2 - sqrt(t (1 - t)): exactly 1 at the six edge
        # midpoints, where {C_sum >= 1} pinches.  Today's closed form rounds
        # them to one ulp below 1, so the level-1.0 mesh shows four separate
        # caps; the exact value pinned below describes that rounding.
        vertices = np.array([(-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)], dtype=float)
        t = np.linspace(0.0, 1.0, 1001)[:, None]
        exact = 1.5 - np.sqrt(t * (1.0 - t))[:, 0]
        for a, b in itertools.combinations(vertices, 2):
            c = (1.0 - t) * a + t * b
            assert np.abs(bd_coherence_values(*c.T, "sum") - exact).max() <= 1e-15
            rho = DensityMatrix(_bd_matrix(*c.T[..., None, None]))
            numeric = sum(coherence(rho, amub_basis(label)) for label in AMUB_LABELS)
            assert np.abs(numeric - exact).max() <= 1e-14
        midpoints = np.concatenate([np.eye(3), -np.eye(3)])
        assert (bd_coherence_values(*midpoints.T, "sum") == 0.9999999999999998).all()


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

    @pytest.mark.parametrize("bad", [1.5, -1e-300, np.nan])
    def test_one_bad_value_of_a_large_stack_is_named(self, bad):
        p = np.linspace(0.0, 1.0, 10_000)
        p[6_543] = bad
        with pytest.raises(ValueError, match=rf"^p={bad} outside \[0, 1\]$"):
            werner_coherence(p)
        with pytest.raises(ValueError, match=rf"^p={bad} outside \[0, 1\]$"):
            werner_coherence(bad)

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

    def test_0d_calls_equal_the_array_route_bit_for_bit(self):
        # A 0-d call squares numpy scalars, an array call squares arrays;
        # ``** 2`` on a scalar goes through pow, which missed the array's
        # exact square by one ulp in 47 of these draws for xz a1.
        r, s, c1, c2, c3 = np.random.default_rng(5).uniform(-0.3, 0.3, size=(5, 20_000))
        routes = [(lambda *c, m=m: _xz_values(*c, m), (r, s, c1, c2, c3)) for m in ("a1", "sum")]
        routes.append((lambda *c: _bd_values(*c, "sum"), (c1, c2, c3)))
        for kernel, rows in routes:
            whole = kernel(*rows)
            scalars = np.array([kernel(*column) for column in zip(*(row.tolist() for row in rows))])
            assert np.isfinite(whole).sum() > 10_000
            assert scalars.view(np.int64).tolist() == whole.view(np.int64).tolist()

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


class TestAuditedCandidates:
    CANDIDATES = (xz_coherence_a1_candidate, xz_coherence_sum_candidate)

    @staticmethod
    def draws():
        rng = np.random.default_rng(43)
        rows = rng.uniform(-1.0, 1.0, size=(5, 2000))
        # Vanishing gaps: c1 + c2 = 0 with r = s, and c1 - c2 = 0 with r = -s.
        rows[:, :3] = [[0.2, 0.1, 0.0], [0.2, -0.1, 0.0], [0.4, 0.3, 0.0], [-0.4, 0.3, 0.0], [0.1, 0.1, 0.5]]
        return rows

    @pytest.mark.parametrize("candidate", CANDIDATES)
    def test_array_equals_its_0d_calls(self, candidate):
        rows = self.draws()
        values = candidate(*rows)
        assert values.shape == (rows.shape[1],)
        scalars = [candidate(*column) for column in rows.T.tolist()]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(values, scalars, equal_nan=True)

    def test_nan_where_a_block_gap_vanishes(self):
        values = xz_coherence_a1_candidate(*self.draws())
        assert np.isnan(values[:3]).all()
        assert np.isfinite(values[3:]).all()
        assert np.isnan(xz_coherence_a1_candidate(0.0, 0.0, 0.0, 0.0, 0.5))


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
        assert l1_coherence(rho, OrthonormalBasis(np.eye(4))) == l1_coherence(rho)


def test_scalar_entry_points_skip_the_field_kernels(monkeypatch):
    # The traced numeric benchmark pins coherence.field.points at 0: the
    # scalar closed forms call the private cores, never the public kernels.
    def refuse(*args):
        raise AssertionError("a scalar entry point called a field kernel")

    for name, module in list(sys.modules.items()):
        if name == "skewcoh" or name.startswith("skewcoh."):
            for kernel in ("bd_coherence_values", "xz_coherence_values"):
                if hasattr(module, kernel):
                    monkeypatch.setattr(module, kernel, refuse)
    params = BellDiagonalParams(-0.2, 0.6, 0.6)
    assert bd_coherence(params, "a1") > 0.0
    assert bd_coherence_sum(params) > 0.0
    assert xz_coherence_a1(XStateZParams(0.1, 0.1, -0.2, 0.6, 0.3)) > 0.0
    assert xz_coherence_sum(XStateZParams(0.1, 0.1, -0.2, 0.6, 0.3)) > 0.0
    assert predicted_coefficients("GAD", params, 0.3).c1 != params.c1
