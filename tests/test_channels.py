import numpy as np
import pytest

from skewcoh.bases import amub_basis
from skewcoh.channels import (
    CHANNEL_KINDS,
    COEFFICIENT_POWERS,
    KrausChannel,
    apply_product_channel,
    channel_as_kraus,
    dynamics_curve,
    make_channel,
    predicted_coefficient_grid,
    predicted_coefficients,
)
from skewcoh.coherence import coherence
from skewcoh.linalg import EYE2, SIGMA3
from skewcoh.states import (
    LOCAL_PAULIS_A,
    LOCAL_PAULIS_B,
    BellDiagonalParams,
    DensityMatrix,
    _pauli_traces,
    bell_diagonal,
    correlation_coefficients,
)

FIG_PARAMS = (BellDiagonalParams(-0.2, 0.6, 0.6), BellDiagonalParams(-0.6, 0.2, 0.2))


def random_state(rng):
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = b.conj().T @ b
    return DensityMatrix(m / np.trace(m).real)


class TestMakeChannel:
    def test_flip_at_zero_is_identity(self):
        channel = make_channel("BF", 0.0)
        rho = bell_diagonal(FIG_PARAMS[0])
        assert np.allclose(apply_product_channel(channel, rho).matrix, rho.matrix, atol=1e-15)

    def test_pf_operators(self):
        p = 0.3
        channel = make_channel("PF", p)
        assert np.allclose(channel.operators[0], np.sqrt(1 - p / 2) * EYE2)
        assert np.allclose(channel.operators[1], np.sqrt(p / 2) * SIGMA3)

    @pytest.mark.parametrize("p,gamma", [(0.0, 0.0), (0.3, 0.45), (1.0, 1.0), (0.5, 0.2)])
    def test_gad_completeness(self, p, gamma):
        channel = make_channel("GAD", p, gamma)
        assert len(channel.operators) == 4
        total = sum(e.conj().T @ e for e in channel.operators)
        assert np.abs(total - EYE2).max() <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            make_channel("GAD", 0.5)
        with pytest.raises(ValueError, match="no gamma"):
            make_channel("BF", 0.5, gamma=0.1)
        with pytest.raises(ValueError, match="outside"):
            make_channel("PF", 1.5)
        with pytest.raises(ValueError, match="unknown channel"):
            make_channel("AD", 0.5)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            KrausChannel(label="BF", operators=(EYE2, EYE2))


class TestChannelStacks:
    """A stack of channels is the per-channel construction, element by element."""

    P_GRID = np.concatenate([[0.0, 1.0], np.random.default_rng(41).uniform(0.0, 1.0, size=30)])

    @staticmethod
    def assert_stack_is_per_channel(stack, singles):
        assert stack.operators.shape[:-3] == stack._products.shape[:-3] == (len(singles),)
        for i, single in enumerate(singles):
            assert np.array_equal(stack.operators[i], single.operators)
            assert np.array_equal(stack._products[i], single._products)

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_stack_over_p_equals_per_channel(self, kind):
        stack = channel_as_kraus(kind, self.P_GRID)
        self.assert_stack_is_per_channel(stack, [channel_as_kraus(kind, p) for p in self.P_GRID.tolist()])

    def test_gad_stack_over_p_and_gamma(self):
        p, gamma = np.meshgrid(self.P_GRID[:8], [0.0, 0.3, 1.0], indexing="ij")
        stack = make_channel("GAD", p.ravel(), gamma=gamma.ravel())
        singles = [make_channel("GAD", x, gamma=g) for x, g in zip(p.ravel().tolist(), gamma.ravel().tolist())]
        self.assert_stack_is_per_channel(stack, singles)

    def test_scalar_p_broadcasts_against_gamma(self):
        gamma = np.array([0.0, 0.25, 0.6, 1.0])
        stack = make_channel("GAD", 0.3, gamma=gamma)
        self.assert_stack_is_per_channel(stack, [make_channel("GAD", 0.3, gamma=g) for g in gamma.tolist()])
        two_d = make_channel("GAD", self.P_GRID[:3, None], gamma=gamma)
        assert two_d.operators.shape == (3, 4, 4, 2, 2)
        assert np.array_equal(two_d._products[1, 2], make_channel("GAD", self.P_GRID[1], gamma=0.6)._products)

    def test_stack_is_read_only(self):
        stack = make_channel("GAD", self.P_GRID, gamma=0.5)
        for array in (stack.operators, stack._products):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_operators_are_copied(self):
        ops = np.array([EYE2, 0.0 * EYE2])
        channel = KrausChannel(label="BF", operators=ops)
        ops[0, 0, 0] = 2.0
        assert channel.operators[0, 0, 0] == 1.0

    def test_one_incomplete_set_in_a_stack_rejected(self):
        ops = np.array(make_channel("BPF", self.P_GRID).operators)
        ops[17, 1] *= 1.001
        with pytest.raises(ValueError, match="not complete"):
            KrausChannel(label="BPF", operators=ops)

    @pytest.mark.parametrize("bad", [1.5, -1e-300, np.nan])
    def test_one_bad_value_of_a_large_stack_is_named(self, bad):
        p = np.linspace(0.0, 1.0, 10_000)
        p[6_543] = bad
        with pytest.raises(ValueError, match=rf"^p={bad} outside \[0, 1\]$"):
            make_channel("PF", p)
        with pytest.raises(ValueError, match=rf"^gamma={bad} outside \[0, 1\]$"):
            make_channel("GAD", 0.5, gamma=p)
        with pytest.raises(ValueError, match=rf"^p={bad} outside \[0, 1\]$"):
            make_channel("BF", bad)


class TestProductChannel:
    def test_trace_preserved(self, rng):
        for kind in CHANNEL_KINDS:
            channel = channel_as_kraus(kind, 0.37)
            moved = apply_product_channel(channel, random_state(rng))
            assert abs(np.trace(moved.matrix) - 1.0) <= 1e-12

    def test_bf_coefficient_map(self):
        p = 0.3
        moved = apply_product_channel(make_channel("BF", p), bell_diagonal(FIG_PARAMS[0]))
        c1, c2, c3 = FIG_PARAMS[0].triple
        got = correlation_coefficients(moved)
        assert got == pytest.approx((c1, c2 * (1 - p) ** 2, c3 * (1 - p) ** 2), abs=1e-12)

    def test_gad_half_mixing_map(self):
        gamma = 0.45
        moved = apply_product_channel(make_channel("GAD", 0.5, gamma), bell_diagonal(FIG_PARAMS[0]))
        c1, c2, c3 = FIG_PARAMS[0].triple
        got = correlation_coefficients(moved)
        assert got == pytest.approx((c1 * (1 - gamma), c2 * (1 - gamma), c3 * (1 - gamma) ** 2), abs=1e-12)

    def test_form_preserved(self):
        for kind in CHANNEL_KINDS:
            moved = apply_product_channel(channel_as_kraus(kind, 0.3), bell_diagonal(FIG_PARAMS[1]))
            r_vec, s_vec = _pauli_traces(moved.matrix, LOCAL_PAULIS_A), _pauli_traces(moved.matrix, LOCAL_PAULIS_B)
            assert np.abs(r_vec).max() <= 1e-12
            assert np.abs(s_vec).max() <= 1e-12

    def test_gad_off_half_mixing_breaks_form(self):
        # away from mixing 1/2 the output grows local Bloch components, so
        # the declarative map is only claimed at 1/2
        moved = apply_product_channel(make_channel("GAD", 0.9, 0.5), bell_diagonal(FIG_PARAMS[0]))
        r_vec = _pauli_traces(moved.matrix, LOCAL_PAULIS_A)
        assert np.abs(r_vec).max() > 1e-3

    def test_wrong_dimension(self):
        single = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="two-qubit"):
            apply_product_channel(make_channel("BF", 0.1), single)

    def test_channel_stack_pairs_with_state_stack(self):
        # a (2, 3) GAD stack against two states broadcast along a new axis
        states = [bell_diagonal(prm) for prm in FIG_PARAMS]
        p, gamma = [[0.2], [0.9]], [0.1, 0.5, 1.0]
        stack = DensityMatrix(np.array([[rho.matrix] for rho in states]))
        moved = apply_product_channel(make_channel("GAD", p, gamma), stack)
        assert moved.matrix.shape == (2, 3, 4, 4)
        for i, rho in enumerate(states):
            for j, g in enumerate(gamma):
                one = apply_product_channel(make_channel("GAD", p[i][0], g), rho)
                assert np.array_equal(moved.matrix[i, j], one.matrix)
        # one state against a stack of channels, and a stack of states against one channel
        single = apply_product_channel(make_channel("BF", [0.1, 0.2]), states[0]).matrix
        assert np.array_equal(single[1], apply_product_channel(make_channel("BF", 0.2), states[0]).matrix)
        both = apply_product_channel(make_channel("BF", 0.2), DensityMatrix([rho.matrix for rho in states])).matrix
        assert np.array_equal(both[1], apply_product_channel(make_channel("BF", 0.2), states[1]).matrix)

    def test_unpaired_stacks_rejected(self):
        states = DensityMatrix(np.array([bell_diagonal(prm).matrix for prm in FIG_PARAMS]))
        with pytest.raises(ValueError, match=r"^cannot pair a BF stack of shape \(3,\) with states of shape \(2,\)$"):
            apply_product_channel(make_channel("BF", [0.1, 0.2, 0.3]), states)


class TestPredictedCoefficients:
    def test_pf_row(self):
        c = BellDiagonalParams(0.4, -0.2, 0.3)
        p = 0.25
        got = predicted_coefficients("PF", c, p)
        assert got.triple == pytest.approx((0.4 * 0.75**2, -0.2 * 0.75**2, 0.3))

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_identity_at_zero(self, kind):
        c = BellDiagonalParams(0.4, -0.2, 0.3)
        assert predicted_coefficients(kind, c, 0.0).triple == c.triple

    def test_bpf_at_one(self):
        c = BellDiagonalParams(0.4, -0.2, 0.3)
        assert predicted_coefficients("BPF", c, 1.0).triple == pytest.approx((0.0, -0.2, 0.0))

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_grid_over_p_is_the_scalar_map_per_element(self, kind):
        # About one uniform p in 1200 has a Python float (1 - p) ** 2 that
        # differs from the exact square numpy takes of an array.
        rng = np.random.default_rng(31)
        c1, c2, c3 = (rng.uniform(-1.0, 1.0, size=10_000) for _ in range(3))
        p = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, size=9_998)])
        grid = predicted_coefficient_grid(kind, c1, c2, c3, p)
        scalar = [predicted_coefficient_grid(kind, *args) for args in zip(c1, c2, c3, p.tolist())]
        assert np.array_equal(np.stack(grid, axis=-1), np.array(scalar))

    @pytest.mark.parametrize("bad", [-1e-300, 1.0 + 1e-15, np.nan])
    def test_grid_rejects_one_bad_p(self, bad):
        p = np.linspace(0.0, 1.0, 11)
        p[7] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            predicted_coefficient_grid("BF", 0.1, 0.2, 0.3, p)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            predicted_coefficient_grid("BF", 0.1, 0.2, 0.3, float(bad))

    def test_powers_table_shape(self):
        assert set(COEFFICIENT_POWERS) == set(CHANNEL_KINDS)
        assert all(len(v) == 3 for v in COEFFICIENT_POWERS.values())


class TestDynamicsCurve:
    def test_pf_and_gad_die_at_one(self):
        basis = amub_basis("a1")
        for params in FIG_PARAMS:
            for kind in ("PF", "GAD"):
                curve = dynamics_curve(kind, params, basis, [0.0, 1.0])
                assert curve[-1] <= 1e-12

    def test_starts_at_input_coherence(self):
        basis = amub_basis("a1")
        for kind in CHANNEL_KINDS:
            curve = dynamics_curve(kind, FIG_PARAMS[0], basis, [0.0, 0.5])
            assert curve[0] == pytest.approx(coherence(bell_diagonal(FIG_PARAMS[0]), basis), abs=1e-12)

    def test_monotone_decrease(self):
        basis = amub_basis("a1")
        grid = np.linspace(0.0, 1.0, 101)
        for params in FIG_PARAMS:
            for kind in CHANNEL_KINDS:
                values = dynamics_curve(kind, params, basis, grid)
                assert values.shape == grid.shape
                assert np.diff(values).max() <= 1e-10

    def test_matches_kraus_route(self):
        basis = amub_basis("a2")
        state = bell_diagonal(FIG_PARAMS[1])
        for kind in CHANNEL_KINDS:
            for p in (0.2, 0.7):
                (predicted,) = dynamics_curve(kind, FIG_PARAMS[1], basis, [p])
                moved = apply_product_channel(channel_as_kraus(kind, p), state)
                assert predicted == pytest.approx(coherence(moved, basis), abs=1e-12)

    def test_equals_per_state_values(self):
        # the stacked curve is the per-point route bit for bit
        grid = np.linspace(0.0, 1.0, 101)
        for kind in CHANNEL_KINDS:
            values = dynamics_curve(kind, FIG_PARAMS[0], amub_basis("a3"), grid)
            for p, value in zip(grid[::10], values[::10]):
                moved = bell_diagonal(predicted_coefficients(kind, FIG_PARAMS[0], float(p)))
                assert value == coherence(moved, amub_basis("a3"))
        assert isinstance(dynamics_curve("BF", FIG_PARAMS[0], amub_basis("a1"), 0.5), float)

    def test_largest_grid_matches_kraus_route(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        spots = [0, 1, 2_500, 3_333, 7_777, 9_999, 10_000]
        basis = amub_basis("a1")
        state = bell_diagonal(FIG_PARAMS[0])
        for kind in CHANNEL_KINDS:
            values = dynamics_curve(kind, FIG_PARAMS[0], basis, grid)
            assert values.shape == (10_001,)
            moved = apply_product_channel(channel_as_kraus(kind, grid[spots]), state)
            assert np.abs(coherence(moved, basis) - values[spots]).max() <= 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="outside"):
            dynamics_curve("BF", FIG_PARAMS[0], amub_basis("a1"), [0.0, 1.5])


def test_gad_channel_as_kraus_is_half_mixing():
    # GAD's one-parameter form: mixing fixed at 1/2, the damping swept.
    for p in (0.3, np.array([0.0, 0.3, 0.72, 1.0])):
        assert np.array_equal(channel_as_kraus("GAD", p).operators, make_channel("GAD", 0.5, p).operators)
