"""The numeric route against its loop and wrapper references.

``apply_product_channel`` contracts over the Kraus products stacked when
the channel is built; the per-pair ``kron`` loop it replaced is kept here
as the reference.  ``sqrt_psd`` keeps the arithmetic of a plain
``np.linalg.eigh`` root and ``_xz_matrix``/``_pauli_traces`` use
hoisted Pauli products, so those three must agree bit for bit.  On a
stack of states, ``DensityMatrix``, every measure, ``apply_product_channel``,
the state matrices and the Pauli read-back kernel must equal the per-state
results bit for bit.
"""

import numpy as np
import pytest

from skewcoh.bases import AMUB_LABELS, amub_basis
from skewcoh.channels import (
    CHANNEL_KINDS,
    KrausChannel,
    apply_product_channel,
    channel_as_kraus,
    make_channel,
)
from skewcoh.coherence import (
    coherence,
    coherence_from_skew_information,
    l1_coherence,
    relative_entropy_coherence,
    skew_information,
)
from skewcoh.linalg import EYE2, PSD_FLOOR, SIGMA1, SIGMA2, SIGMA3, require_hermitian, sqrt_psd
from skewcoh.states import (
    LOCAL_PAULIS_A,
    LOCAL_PAULIS_B,
    PAULI_PAIRS,
    BellDiagonalParams,
    DensityMatrix,
    _bd_matrix,
    _pauli_traces,
    _xz_matrix,
    bell_diagonal,
    correlation_coefficients,
)
from skewcoh.verify import random_bell_params, random_density, random_xz_params

# Max-abs deviation allowed between the contraction and the kron loop.
CHANNEL_TOL = 1e-15


def reference_product_channel(channel, m):
    out = np.zeros((4, 4), dtype=complex)
    for ei in channel.operators:
        for ej in channel.operators:
            k = np.kron(ei, ej)
            out += k @ m @ k.conj().T
    return out


def reference_sqrt_psd(a, floor=PSD_FLOOR):
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} < {floor:.1e}")
    noise = w.size * np.finfo(float).eps * max(float(w[-1]), 0.0) if w.size else 0.0
    w = np.where(w <= noise, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def reference_xz_matrix(r, s, c1, c2, c3):
    m = 4.0 * _bd_matrix(c1, c2, c3)
    m = m + r * np.kron(SIGMA3, EYE2) + s * np.kron(EYE2, SIGMA3)
    return 0.25 * m


def full_rank_states(seed, n):
    rng = np.random.default_rng(seed)
    return [random_density(rng, 4) for _ in range(n)]


def channel_worst(channel, states):
    return max(
        float(np.abs(apply_product_channel(channel, rho).matrix - reference_product_channel(channel, rho.matrix)).max())
        for rho in states
    )


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_product_channel_matches_kron_loop(kind):
    states = full_rank_states(11, 40)
    states += [bell_diagonal(BellDiagonalParams(*c)) for c in random_bell_params(np.random.default_rng(12), 10)]
    for p in (0.0, 0.05, 0.37, 0.5, 0.91, 1.0):
        assert channel_worst(channel_as_kraus(kind, p), states) <= CHANNEL_TOL


def test_gad_with_independent_parameters_matches_kron_loop():
    states = full_rank_states(13, 20)
    for p in (0.0, 0.2, 0.5, 0.83, 1.0):
        for gamma in (0.0, 0.3, 0.64, 1.0):
            assert channel_worst(make_channel("GAD", p, gamma=gamma), states) <= CHANNEL_TOL


def test_complex_kraus_set_matches_kron_loop():
    # Only BPF has complex operators among the four families; a phase-rotated
    # set makes every product complex, so a lost conjugation cannot hide.
    phase = np.diag([1.0, np.exp(0.7j)])
    channel = KrausChannel("rotated", (np.sqrt(0.6) * phase, np.sqrt(0.4) * SIGMA2 @ phase))
    assert channel_worst(channel, full_rank_states(18, 20)) <= CHANNEL_TOL


def test_stacked_products_are_the_kron_products():
    channel = make_channel("GAD", 0.3, gamma=0.45)
    expected = [np.kron(ei, ej) for ei in channel.operators for ej in channel.operators]
    assert np.array_equal(channel._products, np.array(expected))
    assert not channel._products.flags.writeable


def psd_inputs():
    rng = np.random.default_rng(14)
    out = [rho.matrix for rho in full_rank_states(15, 30)]
    for dim in (2, 4):
        for rank in range(1, dim + 1):
            b = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
            out.append(b.conj().T @ b)
    # Tetrahedron vertices and edges: rank-deficient Bell-diagonal states.
    for c in ((-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (0.0, 0.0, -1.0), (0.5, -0.5, 0.0)):
        out.append(_bd_matrix(*c))
    out.append(np.diag([1.0, -5e-11]).astype(complex))
    return out


def test_sqrt_psd_bit_identical_to_decomposition_route():
    for a in psd_inputs():
        assert np.array_equal(sqrt_psd(a), reference_sqrt_psd(a))


def test_xz_matrix_bit_identical_to_kron_expression():
    for row in random_xz_params(np.random.default_rng(16), 50):
        args = tuple(row)
        assert np.array_equal(_xz_matrix(*args), reference_xz_matrix(*args))


def test_local_bloch_vectors_bit_identical_to_kron_expression():
    for rho in full_rank_states(17, 20):
        m = rho.matrix
        r, s = _pauli_traces(m, LOCAL_PAULIS_A), _pauli_traces(m, LOCAL_PAULIS_B)
        sigmas = (SIGMA1, SIGMA2, SIGMA3)
        assert np.array_equal(r, np.array([np.trace(m @ np.kron(sig, EYE2)).real for sig in sigmas]))
        assert np.array_equal(s, np.array([np.trace(m @ np.kron(EYE2, sig)).real for sig in sigmas]))


NON_HERMITIAN = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
NON_PSD = np.diag([1.1, -0.1]).astype(complex)


def test_non_hermitian_rejected():
    for solve in (sqrt_psd, require_hermitian):
        with pytest.raises(ValueError, match="hermiticity defect"):
            solve(NON_HERMITIAN)
    with pytest.raises(ValueError, match="^not a state: .*hermiticity defect"):
        DensityMatrix(NON_HERMITIAN)


def test_non_psd_rejected():
    with pytest.raises(ValueError, match="min eigenvalue"):
        sqrt_psd(NON_PSD)
    with pytest.raises(ValueError, match="^not a state: .*min eigenvalue"):
        DensityMatrix(NON_PSD)


def stack_of_states():
    """Seeded full-rank states, rank-deficient Bell-diagonal states at
    tetrahedron vertices and on its edges, and a state whose smallest
    eigenvalue lies above its own rounding bound of zero but below a pure
    state's, so the bound must be taken per matrix."""
    c = [(-1.0, -1.0, -1.0), (1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0)]
    c += [(0.0, 0.0, -1.0), (0.5, -0.5, 0.0), (0.0, 1.0, 0.0), (-0.25, -0.25, -1.0)]
    mats = [_bd_matrix(*x) for x in c] + [rho.matrix for rho in full_rank_states(19, 40)]
    mats.append(np.diag([1 / 3, 1 / 3, 1 / 3 - 5e-16, 5e-16]).astype(complex))
    mats += [_bd_matrix(*x) for x in random_bell_params(np.random.default_rng(20), 40)]
    return np.array(mats)


def test_stacked_sqrt_psd_equals_per_state():
    stack = stack_of_states()
    roots = sqrt_psd(stack)
    assert roots.shape == stack.shape
    for root, m in zip(roots, stack):
        assert np.array_equal(root, sqrt_psd(m))
    # a (2, n, 4, 4) stack, the second half reversed, gives the same roots
    both = sqrt_psd(np.stack([stack, stack[::-1]]))
    assert np.array_equal(both[0], roots) and np.array_equal(both[1], roots[::-1])


def test_stacked_kernel_equals_per_state_coherence():
    stack = stack_of_states()
    rho = DensityMatrix(stack)
    assert rho.matrix.shape == stack.shape and not rho.matrix.flags.writeable
    states = [DensityMatrix(m) for m in stack]
    for lab in AMUB_LABELS:
        basis = amub_basis(lab)
        values = coherence(rho, basis)
        assert values.shape == (len(stack),)
        assert [float(v) for v in values] == [coherence(one, basis) for one in states]
    # a (2, n, 4, 4) stack gives a (2, n) array of values
    both = coherence(DensityMatrix(np.stack([stack, stack[::-1]])))
    assert np.array_equal(both, [coherence(rho), coherence(rho)[::-1]])


MEASURES = (coherence, coherence_from_skew_information, l1_coherence, relative_entropy_coherence)


def test_one_state_is_the_0d_case():
    rho = DensityMatrix(stack_of_states()[9])
    assert rho.dim == 4
    values = [f(rho, amub_basis("a2")) for f in MEASURES] + [skew_information(rho, PAULI_PAIRS[0])]
    assert all(isinstance(v, float) for v in values)


@pytest.mark.parametrize("measure", MEASURES[1:], ids=lambda f: f.__name__)
def test_stacked_measure_equals_per_state(measure):
    stack = stack_of_states()
    rho = DensityMatrix(stack)
    states = [DensityMatrix(m) for m in stack]
    for basis in (None, amub_basis("a3")):
        values = measure(rho, basis)
        assert values.shape == (len(stack),)
        assert [float(v) for v in values] == [measure(one, basis) for one in states]


def test_stacked_skew_information_equals_per_state():
    stack = stack_of_states()
    rho = DensityMatrix(stack)
    states = [DensityMatrix(m) for m in stack]
    for observable in (*PAULI_PAIRS, LOCAL_PAULIS_A[2]):
        values = skew_information(rho, observable)
        assert values.shape == (len(stack),)
        assert [float(v) for v in values] == [skew_information(one, observable) for one in states]


def test_stacked_state_matrices_equal_per_state():
    bell = random_bell_params(np.random.default_rng(21), 30)
    stacked = _bd_matrix(*bell.T[..., None, None])
    assert all(np.array_equal(m, _bd_matrix(*c)) for m, c in zip(stacked, bell))
    xz = random_xz_params(np.random.default_rng(22), 30)
    stacked = _xz_matrix(*xz.T[..., None, None])
    assert all(np.array_equal(m, reference_xz_matrix(*row)) for m, row in zip(stacked, xz))


BAD_STATES = {
    "hermiticity defect": np.diag([0.25] * 4).astype(complex) + np.triu(np.full((4, 4), 0.1), 1),
    "min eigenvalue": np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex),
    "trace": np.diag([0.5, 0.25, 0.25, 0.25]).astype(complex),
}


@pytest.mark.parametrize("message", sorted(BAD_STATES))
def test_stack_with_one_bad_matrix_rejected(message):
    stack = stack_of_states()
    stack[17] = BAD_STATES[message]
    with pytest.raises(ValueError, match=f"^not a state: .*{message}"):
        DensityMatrix(stack)
    if message != "trace":
        with pytest.raises(ValueError, match=message):
            sqrt_psd(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_rejected(bad):
    single = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    single[0, 1] = single[1, 0] = bad
    stack = stack_of_states()
    stack[17, 2, 2] = bad
    for m in (single, stack):
        with pytest.raises(ValueError, match="^not a state: non-finite entries"):
            DensityMatrix(m)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_empty_stacks():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert sqrt_psd(empty).shape == (0, 4, 4)
    rho = DensityMatrix(empty)
    assert rho.matrix.shape == (0, 4, 4)
    assert coherence(rho, amub_basis("a1")).shape == (0,)
    assert apply_product_channel(make_channel("BF", 0.3), rho).matrix.shape == (0, 4, 4)


def channel_states():
    """Full-rank states and Bell-diagonal states, as one stack and one by one."""
    states = full_rank_states(23, 30)
    states += [bell_diagonal(BellDiagonalParams(*c)) for c in random_bell_params(np.random.default_rng(24), 10)]
    return np.array([rho.matrix for rho in states]), states


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_stacked_channel_application_equals_per_state(kind):
    stack, states = channel_states()
    for p in (0.0, 0.05, 0.37, 0.5, 0.91, 1.0):
        channel = channel_as_kraus(kind, p)
        moved = apply_product_channel(channel, DensityMatrix(stack)).matrix
        assert moved.shape == stack.shape
        for m, rho in zip(moved, states):
            assert np.array_equal(m, apply_product_channel(channel, rho).matrix)


def test_stack_of_channels_equals_per_state():
    # GAD with independent (p, gamma), endpoints included: one channel per
    # state, paired along the leading axis as the cptp suite pairs them.
    stack, states = channel_states()
    grid = [(p, gamma) for p in (0.0, 0.2, 0.5, 0.83, 1.0) for gamma in (0.0, 0.3, 0.64, 1.0)]
    ps, gammas = np.array([grid[i % len(grid)] for i in range(len(states))]).T
    moved = apply_product_channel(make_channel("GAD", ps, gamma=gammas), DensityMatrix(stack)).matrix
    for m, p, gamma, rho in zip(moved, ps, gammas, states):
        assert np.array_equal(m, apply_product_channel(make_channel("GAD", p, gamma=gamma), rho).matrix)


def test_stacked_read_back_equals_per_state():
    stack, states = channel_states()
    pairs = _pauli_traces(stack, PAULI_PAIRS)
    local_a = _pauli_traces(stack, LOCAL_PAULIS_A)
    local_b = _pauli_traces(stack, LOCAL_PAULIS_B)
    assert pairs.shape == local_a.shape == local_b.shape == (len(states), 3)
    for c, r, s, rho in zip(pairs, local_a, local_b, states):
        assert tuple(float(x) for x in c) == correlation_coefficients(rho)
        r_vec, s_vec = _pauli_traces(rho.matrix, LOCAL_PAULIS_A), _pauli_traces(rho.matrix, LOCAL_PAULIS_B)
        assert np.array_equal(r, r_vec) and np.array_equal(s, s_vec)


def test_read_back_rejects_one_large_imaginary_trace():
    stack, _ = channel_states()
    assert _pauli_traces(stack, PAULI_PAIRS).shape == (len(stack), 3)
    stack[17] = np.eye(4) / 4 + 1e-6j * PAULI_PAIRS[0]
    with pytest.raises(ValueError, match="imaginary part 4.000e-06"):
        _pauli_traces(stack, PAULI_PAIRS)
    with pytest.raises(ValueError, match="imaginary part"):
        correlation_coefficients(stack[17])
    with pytest.raises(ValueError, match="imaginary part"):
        _pauli_traces(np.eye(4) / 4 + 1e-6j * LOCAL_PAULIS_B[1], LOCAL_PAULIS_B)
