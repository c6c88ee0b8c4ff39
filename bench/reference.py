"""The two-excitation waveguide Hamiltonian, written from its definition.

Nothing here uses dimerchain.  Positions z are in units of the lattice
spacing d, so the phase of the guided-mode kernel is kd * |z_a - z_b|.

Two hard-core pairs {a, s} and {b, s} that share exactly one site s
couple through V_ab = -(i/2) Gamma exp(i kd |z_a - z_b|); every pair has
the diagonal -i Gamma (twice the single-emitter self term).  Pairs are
ordered as numpy.triu_indices(N, 1), the order dimerchain uses too.
"""

import numpy as np


def coupling(z, kd, gamma=1.0):
    """V_ab for a != b, with a zero diagonal."""
    z = np.asarray(z, dtype=float)
    V = -0.5j * gamma * np.exp(1j * kd * np.abs(z[:, None] - z[None, :]))
    np.fill_diagonal(V, 0.0)
    return V


def clean_positions(N):
    return np.arange(N, dtype=float)


def disorder_positions(seed, sample, N, delta):
    """Lattice sites plus offsets uniform in [-delta, delta].

    The documented stream: numpy's Philox keyed by (seed, sample), one
    draw per site in site order.  Sample -1 is the clean chain.
    """
    if sample < 0 or delta == 0.0:
        return clean_positions(N)
    gen = np.random.Generator(np.random.Philox(key=[seed, sample]))
    return clean_positions(N) + gen.uniform(-delta, delta, size=N)


def apply_h2(V, gamma, psi):
    """H2 psi through the symmetric pair matrix P: (V P + P V)_mn - i Gamma psi.

    (V P)_mn sums the pairs {l, n} that share n with {m, n}, and (P V)_mn
    the pairs {m, l}; the zero diagonals of V and P drop l = m and l = n.
    """
    N = V.shape[0]
    m, n = np.triu_indices(N, 1)
    P = np.zeros((N, N), dtype=complex)
    P[m, n] = psi
    P[n, m] = psi
    return (V @ P + P @ V)[m, n] - 1j * gamma * np.asarray(psi)


def dense_h2(V, gamma, block=256):
    """The D x D matrix, entry by entry from the shared-site rule."""
    N = V.shape[0]
    m, n = np.triu_indices(N, 1)
    D = m.size
    H = np.empty((D, D), dtype=complex)
    for lo in range(0, D, block):
        rows = slice(lo, min(lo + block, D))
        a, b = m[rows, None], n[rows, None]
        # the differing sites of {a, b} and {m', n'} when they share one
        H[rows] = ((b == n) * V[a, m] + (a == m) * V[b, n]
                   + (a == n) * V[b, m] + (b == m) * V[a, n])
    H[np.diag_indices(D)] = -1j * gamma
    return H


def traces(V, gamma):
    """(Tr H2, Tr H2^2) in closed form.

    Each ordered coupling V_ab appears once for every third site s, so
    the off-diagonal part of Tr H2^2 = sum_ij H_ij H_ji (H2 is complex
    symmetric) is (N - 2) sum_{a != b} V_ab^2.
    """
    N = V.shape[0]
    D = N * (N - 1) // 2
    diag = -1j * gamma
    return diag * D, diag * diag * D + (N - 2) * np.sum(V * V)
