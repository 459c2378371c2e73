"""The numeric route against its loop and wrapper references.

``apply_product_channel`` contracts over the Kraus products stacked when
the channel is built; the per-pair ``kron`` loop it replaced is kept here
as the reference.  ``sqrt_psd`` keeps the arithmetic of the
``hermitian_eig``-based root and ``_xz_matrix``/``local_bloch_vectors``
use hoisted Pauli products, so those three must agree bit for bit.  On a
stack of states, the roots, the coherence kernel and the state matrices
must equal the per-state results bit for bit.
"""

import numpy as np
import pytest

from skewcoh.bases import AMUB_LABELS, amub_basis
from skewcoh.channels import CHANNEL_KINDS, KrausChannel, apply_product_channel, channel_as_kraus, make_channel
from skewcoh.coherence import _coherence_values, coherence
from skewcoh.linalg import EYE2, PSD_FLOOR, SIGMA1, SIGMA2, SIGMA3, dagger, hermitian_eig, sqrt_psd
from skewcoh.states import (
    BellDiagonalParams,
    DensityMatrix,
    _bd_matrix,
    _state_roots,
    _xz_matrix,
    bell_diagonal,
    local_bloch_vectors,
)
from skewcoh.verify import random_bell_params, random_density, random_xz_params

# Max-abs deviation allowed between the contraction and the kron loop.
CHANNEL_TOL = 1e-15


def reference_product_channel(channel, m):
    out = np.zeros((4, 4), dtype=complex)
    for ei in channel.operators:
        for ej in channel.operators:
            k = np.kron(ei, ej)
            out += k @ m @ dagger(k)
    return out


def reference_sqrt_psd(a, floor=PSD_FLOOR):
    dec = hermitian_eig(a)
    w = dec.eigenvalues
    if w.size and w[0] < floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e} < {floor:.1e}")
    noise = w.size * np.finfo(float).eps * max(float(w[-1]), 0.0) if w.size else 0.0
    w = np.where(w <= noise, 0.0, w)
    v = dec.eigenvectors
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
    channel = KrausChannel("rotated", (np.sqrt(0.6) * phase, np.sqrt(0.4) * SIGMA2 @ phase), p=0.4)
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
        assert np.array_equal(sqrt_psd(a, -1e-10), reference_sqrt_psd(a, -1e-10))


def test_xz_matrix_bit_identical_to_kron_expression():
    for row in random_xz_params(np.random.default_rng(16), 50):
        args = tuple(row)
        assert np.array_equal(_xz_matrix(*args), reference_xz_matrix(*args))


def test_local_bloch_vectors_bit_identical_to_kron_expression():
    for rho in full_rank_states(17, 20):
        m = rho.matrix
        r, s = local_bloch_vectors(rho)
        sigmas = (SIGMA1, SIGMA2, SIGMA3)
        assert np.array_equal(r, np.array([np.trace(m @ np.kron(sig, EYE2)).real for sig in sigmas]))
        assert np.array_equal(s, np.array([np.trace(m @ np.kron(EYE2, sig)).real for sig in sigmas]))


NON_HERMITIAN = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
NON_PSD = np.diag([1.1, -0.1]).astype(complex)


def test_non_hermitian_rejected():
    for solve in (sqrt_psd, hermitian_eig):
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
    for floor in (PSD_FLOOR, -1e-10):
        roots = sqrt_psd(stack, floor)
        assert roots.shape == stack.shape
        for root, m in zip(roots, stack):
            assert np.array_equal(root, sqrt_psd(m, floor))
    # a (2, n, 4, 4) stack, the second half reversed, gives the same roots
    both = sqrt_psd(np.stack([stack, stack[::-1]]))
    assert np.array_equal(both[0], roots) and np.array_equal(both[1], roots[::-1])


def test_stacked_kernel_equals_per_state_coherence():
    stack = stack_of_states()
    roots = _state_roots(stack)
    states = [DensityMatrix(m) for m in stack]
    for root, rho in zip(roots, states):
        assert np.array_equal(root, rho._root)
    for lab in AMUB_LABELS:
        basis = amub_basis(lab)
        values = _coherence_values(roots, basis.vectors)
        assert values.shape == (len(stack),)
        assert [float(v) for v in values] == [coherence(rho, basis) for rho in states]


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
        _state_roots(stack)
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
            _state_roots(m)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_empty_stacks():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert sqrt_psd(empty).shape == (0, 4, 4)
    roots = _state_roots(empty)
    assert roots.shape == (0, 4, 4)
    assert _coherence_values(roots, amub_basis("a1").vectors).shape == (0,)
