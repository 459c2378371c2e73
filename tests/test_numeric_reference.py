"""The per-state numeric route against its loop and wrapper references.

``apply_product_channel`` contracts over the Kraus products stacked when
the channel is built; the per-pair ``kron`` loop it replaced is kept here
as the reference.  ``sqrt_psd`` keeps the arithmetic of the
``hermitian_eig``-based root and ``_xz_matrix``/``local_bloch_vectors``
use hoisted Pauli products, so those three must agree bit for bit.
"""

import numpy as np
import pytest

from skewcoh.channels import CHANNEL_KINDS, KrausChannel, apply_product_channel, channel_as_kraus, make_channel
from skewcoh.linalg import EYE2, PSD_FLOOR, SIGMA1, SIGMA2, SIGMA3, dagger, hermitian_eig, kron, sqrt_psd
from skewcoh.states import (
    DensityMatrix,
    _bd_matrix,
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
            k = kron(ei, ej)
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
    states += [bell_diagonal(prm) for prm in random_bell_params(np.random.default_rng(12), 10)]
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
    expected = [kron(ei, ej) for ei in channel.operators for ej in channel.operators]
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
    for prm in random_xz_params(np.random.default_rng(16), 50):
        args = (prm.r, prm.s, prm.c1, prm.c2, prm.c3)
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
