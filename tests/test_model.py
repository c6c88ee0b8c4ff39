"""Hamiltonian builders against independent oracles.

The two-excitation matrix is checked against a brute-force construction
on the full 2^N product space; the fast semiseparable matvec against the
dense matrix; the boundary tails of the K-conserving ansatz against
their closed form (two boundary spin waves).
"""

import numpy as np
import pytest

from dimerchain.model import (
    ChainGeometry,
    FreeSpace3D,
    RelativeModelSpec,
    TwoExcitationBasis,
    TwoExcitationWaveguideOp,
    Waveguide1D,
    build_defect_relative_hamiltonian,
    build_missing_site_hamiltonian,
    build_relative_hamiltonian,
    build_single_hamiltonian,
    build_two_hamiltonian,
    coupling_element,
    defect_grid,
    k_delta_vector,
    tails_residual,
)

RNG = np.random.default_rng(20260813)


# ------------------------------------------------------------- oracles


def brute_force_two_exc(chain):
    """Two-excitation block built on the explicit 2^N product space.

    H_eff = -(i/2) Gamma sum_{m,n} e^{ik|z_m-z_n|} sp_m sm_n acting on
    two-level emitters; the hard-core constraint is automatic in the
    qubit representation.
    """
    N = chain.N
    z = chain.positions
    G = -0.5j * chain.gamma1d * np.exp(
        1j * chain.k1d * np.abs(z[:, None] - z[None, :]))
    dim = 2 ** N
    H = np.zeros((dim, dim), dtype=complex)
    for m in range(N):
        for n in range(N):
            for s in range(dim):
                # sp_m sm_n |s>: site n must be excited; m must be empty
                # unless m == n
                if not (s >> n) & 1:
                    continue
                t = s & ~(1 << n)
                if (t >> m) & 1:
                    continue
                H[t | (1 << m), s] += G[m, n]
    two = [s for s in range(dim) if bin(s).count("1") == 2]
    sub = H[np.ix_(two, two)]
    # map product-state order (bit sets) onto the pair basis
    basis = TwoExcitationBasis(N)
    perm = np.zeros(len(two), dtype=int)
    for i, s in enumerate(two):
        bits = [b for b in range(N) if (s >> b) & 1]
        perm[basis.flatten(bits[0], bits[1])] = i
    return sub[np.ix_(perm, perm)]


def tails_closed_form(chain, Kd, delta, basis):
    """Boundary spin-wave tails: (iG/2) e^{i(kd+Kd/2)delta} s+_{-k}
    (s+_{K+k})_R + (iG/2) e^{i(kd-Kd/2)delta} s+_{k} (s+_{K-k})_L."""
    N = chain.N
    z = np.arange(N, dtype=float)  # units of d
    kd = chain.kd
    out = np.zeros(basis.dim, dtype=complex)
    in_R = z > z[-1] - delta
    in_L = z < z[0] + delta
    for pref, p_free, p_band, mask in (
        (0.5j * chain.gamma1d * np.exp(1j * (kd + Kd / 2.0) * delta),
         -kd, Kd + kd, in_R),
        (0.5j * chain.gamma1d * np.exp(1j * (kd - Kd / 2.0) * delta),
         kd, Kd - kd, in_L),
    ):
        for m in range(N):
            for n in range(N):
                if m >= n:
                    continue
                amp = 0.0j
                if mask[n]:
                    amp += np.exp(1j * p_free * z[m]) * np.exp(1j * p_band * z[n])
                if mask[m]:
                    amp += np.exp(1j * p_free * z[n]) * np.exp(1j * p_band * z[m])
                out[basis.flatten(m, n)] += pref * amp
    return out


# ------------------------------------------------------------- kernels


def test_waveguide_self_term():
    k = Waveguide1D(k1d=0.3, gamma1d=1.0)
    assert coupling_element(k, 0.0) == -0.5j


def test_waveguide_quarter_phase():
    # r = d with kd = pi/4: -0.5i e^{i pi/4}
    k = Waveguide1D(k1d=0.25 * np.pi, gamma1d=1.0)
    v = coupling_element(k, 1.0)
    assert v == pytest.approx(0.35355339059327373 - 0.35355339059327384j)


def test_free_space_quarter_wavelength_values():
    # theta = pi/2: e^{i theta} = i, so the dyadic factors reduce to
    # rational multiples of powers of pi
    t = coupling_element(FreeSpace3D(lambda0=1.0), 0.25)
    assert t == pytest.approx(3 / np.pi**2 - 1j * (1.5 / np.pi - 6 / np.pi**3))
    p = coupling_element(FreeSpace3D(lambda0=1.0, polarization="parallel"), 0.25)
    assert p == pytest.approx(-6 / np.pi**2 - 12j / np.pi**3)
    assert coupling_element(FreeSpace3D(lambda0=1.0), 0.0) == -0.5j


@pytest.mark.parametrize("pol", ["transverse", "parallel"])
def test_free_space_mirror_symmetry(pol):
    k = FreeSpace3D(lambda0=1.0, gamma0=1.0, polarization=pol)
    assert np.allclose(k.matrix([[0.37, -0.37]]),
                       [[k.element(0.37), k.element(0.37)]])


@pytest.mark.parametrize("bad", [float("nan"), -1.0, -0.0])
def test_separation_rejected(bad):
    k = Waveguide1D(k1d=0.3, gamma1d=1.0)
    with pytest.raises(ValueError):
        coupling_element(k, bad)


def test_phase_reduction_large_argument():
    # k*r ~ 6e9: naive float64 k*r carries ~1e-6 of phase error, which a
    # mod-2pi reduction in extended precision must avoid.  Oracle: exact
    # rational arithmetic on the binary values of k and r against a
    # 30-digit 2pi.
    from fractions import Fraction

    k1d = 2.0 * np.pi * 1e6 + 0.123456789
    r = 1000.0
    two_pi = Fraction("6.283185307179586476925286766559005768")
    phi = Fraction(k1d) * Fraction(r)
    phase = float(phi - (phi // two_pi) * two_pi)
    kern = Waveguide1D(k1d=k1d, gamma1d=1.0)
    assert abs(kern.element(r) - (-0.5j) * np.exp(1j * phase)) < 1e-8


# ------------------------------------------------------- geometry, basis


def test_positions_and_kd():
    c = ChainGeometry(N=4, k1d=0.5, d=2.0)
    assert np.allclose(c.positions, [0.0, 2.0, 4.0, 6.0])
    assert c.kd == 1.0


def test_offsets_validated():
    with pytest.raises(ValueError):
        ChainGeometry(N=3, k1d=0.5, offsets=(0.0, 0.6, 0.0))
    with pytest.raises(ValueError):
        ChainGeometry(N=3, k1d=0.5, offsets=(0.0, 0.1))


def test_basis_round_trip():
    basis = TwoExcitationBasis(7)
    assert basis.dim == 21
    for m in range(7):
        for n in range(m + 1, 7):
            i = basis.flatten(m, n)
            assert 0 <= i < basis.dim
            assert basis.unflatten(i) == (m, n)
    idx = sorted(basis.flatten(m, n) for m in range(7) for n in range(m + 1, 7))
    assert idx == list(range(21))


def test_basis_matrix_round_trip():
    basis = TwoExcitationBasis(6)
    psi = RNG.standard_normal(basis.dim) + 1j * RNG.standard_normal(basis.dim)
    Psi = basis.to_matrix(psi)
    assert np.allclose(Psi, Psi.T)
    assert np.allclose(np.diag(Psi), 0.0)
    assert np.allclose(basis.from_matrix(Psi), psi)


# ------------------------------------------------------- single exc


def test_single_n1():
    H = build_single_hamiltonian(ChainGeometry(N=1, k1d=0.3))
    assert H.shape == (1, 1) and H[0, 0] == -0.5j


def test_single_n2_eigenvalues():
    phi = 0.2 * np.pi
    H = build_single_hamiltonian(ChainGeometry(N=2, k1d=phi))
    lam = np.sort_complex(np.linalg.eigvals(H))
    want = np.sort_complex(np.array(
        [-0.5j * (1 + np.exp(1j * phi)), -0.5j * (1 - np.exp(1j * phi))]))
    assert np.allclose(lam, want, atol=1e-14)


def test_single_n3_cubic_oracle():
    H = build_single_hamiltonian(ChainGeometry.from_kd(3, 0.2 * np.pi))
    # independent root solve of the characteristic polynomial
    coeffs = np.poly(H)
    roots = np.sort_complex(np.roots(coeffs))
    lam = np.sort_complex(np.linalg.eigvals(H))
    assert np.max(np.abs(roots - lam)) < 1e-12


# ------------------------------------------------------- two exc


def test_two_exc_n2():
    chain = ChainGeometry.from_kd(2, 0.3 * np.pi)
    H2 = build_two_hamiltonian(chain)
    assert H2.shape == (1, 1)
    assert H2[0, 0] == pytest.approx(-1.0j)


@pytest.mark.parametrize("kd_pi", [0.25, 0.1, 0.45])
def test_two_exc_brute_force_oracle(kd_pi):
    chain = ChainGeometry.from_kd(4, kd_pi * np.pi)
    H2 = build_two_hamiltonian(chain)
    assert np.max(np.abs(H2 - brute_force_two_exc(chain))) < 1e-12


def test_two_exc_brute_force_disordered():
    chain = ChainGeometry.from_kd(5, 0.3 * np.pi,
                                  offsets=(0.02, -0.3, 0.11, 0.0, 0.4))
    H2 = build_two_hamiltonian(chain)
    assert np.max(np.abs(H2 - brute_force_two_exc(chain))) < 1e-12


@pytest.mark.parametrize("N,kd_pi", [(5, 0.2), (12, 0.25), (20, 0.37)])
def test_two_exc_trace_and_symmetry(N, kd_pi):
    chain = ChainGeometry.from_kd(N, kd_pi * np.pi)
    H2 = build_two_hamiltonian(chain)
    D = N * (N - 1) // 2
    assert abs(np.trace(H2) - (-1j * D)) < 1e-13 * D
    assert np.max(np.abs(H2 - H2.T)) <= 1e-14 * np.max(np.abs(H2))


@pytest.mark.parametrize("builder,args", [
    (build_single_hamiltonian, (ChainGeometry.from_kd(30, 0.2 * np.pi),)),
    (build_two_hamiltonian, (ChainGeometry.from_kd(12, 0.3 * np.pi),)),
    (build_relative_hamiltonian,
     (RelativeModelSpec(Kd=0.7, M=20, kd=0.2 * np.pi),)),
    (build_defect_relative_hamiltonian,
     (RelativeModelSpec(Kd=np.pi, M=15, kd=0.3 * np.pi),)),
])
def test_eigenvalues_in_lower_half_plane(builder, args):
    # the anti-Hermitian part is negative semidefinite
    lam = np.linalg.eigvals(builder(*args))
    assert np.max(lam.imag) <= 1e-10


# ------------------------------------------------------- fast matvec


@pytest.mark.parametrize("N,kd_pi", [(2, 0.3), (3, 0.2), (30, 0.3), (40, 0.17)])
def test_fast_matvec_equals_dense(N, kd_pi):
    chain = ChainGeometry.from_kd(N, kd_pi * np.pi)
    basis = TwoExcitationBasis(N)
    H2 = build_two_hamiltonian(chain, basis=basis)
    psi = RNG.standard_normal(basis.dim) + 1j * RNG.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)
    ref = H2 @ psi
    out = TwoExcitationWaveguideOp(chain, basis).matvec(psi)
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def test_fast_matvec_n2_is_minus_igamma():
    chain = ChainGeometry.from_kd(2, 0.41 * np.pi, gamma1d=1.0)
    basis = TwoExcitationBasis(2)
    psi = np.array([0.3 + 0.4j])
    assert np.allclose(TwoExcitationWaveguideOp(chain, basis).matvec(psi),
                       -1j * psi)


def test_fast_matvec_rejects_other_kernels():
    # the operator takes no kernel: it always applies the chain's guided
    # mode, never a free-space kernel
    chain = ChainGeometry(N=5, k1d=2 * np.pi, d=0.35)
    basis = TwoExcitationBasis(5)
    with pytest.raises(TypeError):
        TwoExcitationWaveguideOp(chain, basis, kernel=FreeSpace3D(lambda0=1.0))
    psi = RNG.standard_normal(basis.dim) + 0j
    out = TwoExcitationWaveguideOp(chain, basis).matvec(psi)
    assert np.allclose(out, build_two_hamiltonian(chain, basis=basis) @ psi)
    free = build_two_hamiltonian(chain, kernel=FreeSpace3D(lambda0=1.0),
                                 basis=basis)
    assert not np.allclose(out, free @ psi)


def test_operator_diagonal_and_matvec():
    chain = ChainGeometry.from_kd(9, 0.23 * np.pi)
    basis = TwoExcitationBasis(9)
    op = TwoExcitationWaveguideOp(chain, basis)
    H2 = build_two_hamiltonian(chain, basis=basis)
    assert np.allclose(op.diagonal(), np.diag(H2))
    psi = RNG.standard_normal(basis.dim) + 1j * RNG.standard_normal(basis.dim)
    assert np.allclose(op.matvec(psi), H2 @ psi)


# ------------------------------------------------------- relative models


def test_relative_m1_k0():
    kd = 0.2 * np.pi
    H = build_relative_hamiltonian(RelativeModelSpec(Kd=0.0, M=1, kd=kd))
    assert H[0, 0] == pytest.approx(-1j * (1 + np.exp(2j * kd)))


def test_relative_k0_closed_form():
    kd, M = 0.3 * np.pi, 12
    H = build_relative_hamiltonian(RelativeModelSpec(Kd=0.0, M=M, kd=kd))
    g = np.arange(1, M + 1)
    want = -1j * (np.exp(1j * kd * np.abs(g[:, None] - g[None, :]))
                  + np.exp(1j * kd * (g[:, None] + g[None, :])))
    assert np.max(np.abs(H - want)) < 1e-14


def test_relative_kpi_parity_decoupling():
    H = build_relative_hamiltonian(
        RelativeModelSpec(Kd=np.pi, M=20, kd=0.2 * np.pi))
    g = np.arange(1, 21)
    odd = np.abs(g[:, None] - g[None, :]) % 2 == 1
    assert np.max(np.abs(H[odd])) < 1e-14


def test_defect_relative_k0_form_and_parity():
    kd, M = 0.25 * np.pi, 8
    spec = RelativeModelSpec(Kd=0.0, M=M, kd=kd)
    H = build_defect_relative_hamiltonian(spec)
    g = defect_grid(M)
    want = -0.5j * np.exp(1j * kd * np.abs(g[:, None] - g[None, :]))
    assert np.max(np.abs(H - want)) < 1e-14
    # parity: Delta -> -Delta on both indices
    flip = np.argsort(-g, kind="stable")
    assert np.max(np.abs(H[np.ix_(flip, flip)] - H)) < 1e-14


def test_defect_relative_m1_even_eigenvector():
    kd = 0.2 * np.pi
    H = build_defect_relative_hamiltonian(RelativeModelSpec(Kd=0.0, M=1, kd=kd))
    v = np.array([1.0, 1.0])
    lam = -0.5j * (1 + np.exp(2j * kd))
    assert np.max(np.abs(H @ v - lam * v)) < 1e-14


def test_defect_relative_kpi_odd_entries_vanish():
    H = build_defect_relative_hamiltonian(
        RelativeModelSpec(Kd=np.pi, M=10, kd=0.3 * np.pi))
    g = defect_grid(10)
    odd = np.abs(g[:, None] - g[None, :]) % 2 == 1
    assert np.max(np.abs(H[odd])) < 1e-14


# ------------------------------------------------------- missing site


def test_missing_site_n3():
    chain = ChainGeometry.from_kd(3, 0.2 * np.pi)
    H = build_missing_site_hamiltonian(chain, 1)
    two = build_single_hamiltonian(ChainGeometry(N=2, k1d=0.2 * np.pi, d=2.0))
    assert np.allclose(H, two)


def test_missing_site_profile_ratio():
    # most subradiant defect state decays as cos(kd) per site on each side
    chain = ChainGeometry.from_kd(60, 0.25 * np.pi)
    H = build_missing_site_hamiltonian(chain, 29)
    lam, vecs = np.linalg.eig(H)
    v = np.abs(vecs[:, np.argmax(lam.imag)])
    left = v[:29]
    ratios = left[1:] / left[:-1]  # toward the defect
    agree = np.abs(ratios[8:-1] - 1.0 / np.cos(0.25 * np.pi))
    assert np.max(agree) * np.cos(0.25 * np.pi) < 0.02


def test_missing_site_mirror_symmetry():
    chain = ChainGeometry.from_kd(17, 0.3 * np.pi)
    rates = []
    for site in (4, 12):  # mirror pair: 17 - 1 - 4 = 12
        lam = np.linalg.eigvals(build_missing_site_hamiltonian(chain, site))
        rates.append(np.min(-2.0 * lam.imag))
    assert abs(rates[0] - rates[1]) < 1e-10


def test_missing_site_invalid():
    chain = ChainGeometry.from_kd(5, 0.2 * np.pi)
    with pytest.raises(ValueError):
        build_missing_site_hamiltonian(chain, 5)


# ------------------------------------------------------- ansatz, tails


def test_k_delta_vector_support():
    chain = ChainGeometry.from_kd(9, 0.2 * np.pi)
    basis = TwoExcitationBasis(9)
    psi = k_delta_vector(chain, 0.4, 3, basis=basis)
    m, n = basis.pair_m, basis.pair_n
    on = psi != 0
    assert np.all((n - m)[on] == 3)
    assert np.count_nonzero(on) == 6


@pytest.mark.parametrize("Kd,delta", [(0.0, 1), (0.5, 2), (np.pi, 3)])
def test_tails_closed_form_oracle(Kd, delta):
    chain = ChainGeometry.from_kd(40, 0.2 * np.pi)
    basis = TwoExcitationBasis(40)
    res = tails_residual(chain, Kd, delta, basis=basis)
    want = tails_closed_form(chain, Kd, delta, basis)
    assert np.max(np.abs(res - want)) < 1e-12


def test_tails_support_confined_to_ends():
    chain = ChainGeometry.from_kd(30, 0.25 * np.pi)
    basis = TwoExcitationBasis(30)
    delta = 2
    res = tails_residual(chain, 0.3, delta, basis=basis)
    z = np.arange(30, dtype=float)
    m, n = basis.pair_m, basis.pair_n
    near_end = (z[m] < delta) | (z[n] < delta) | (z[m] > 29 - delta) | (z[n] > 29 - delta)
    assert np.max(np.abs(res[~near_end])) < 1e-12


def test_tails_relative_weight_vanishes():
    # residual norm is N-independent while the ansatz norm grows as sqrt(N)
    norms = []
    for N in (20, 40, 80):
        chain = ChainGeometry.from_kd(N, 0.2 * np.pi)
        basis = TwoExcitationBasis(N)
        res = np.linalg.norm(tails_residual(chain, 0.0, 1, basis=basis))
        amp = np.linalg.norm(k_delta_vector(chain, 0.0, 1, basis=basis))
        norms.append(res / amp)
    assert norms[0] > norms[1] > norms[2]
