"""State analysis: K-Delta frame, fermionic overlap, classification, fits.

The frame decomposition is checked against states built from the ansatz
itself (exact bin, exact separation content); the fermionic overlap
against explicitly antisymmetrized one-excitation pairs; fits and the
period-4 detector against synthetic data with known parameters.
"""

import numpy as np
import pytest

from dimerchain import analysis, theory
from dimerchain.eig import EigenPair, eig_dense_all
from dimerchain.model import (
    ChainGeometry,
    TwoExcitationBasis,
    build_single_hamiltonian,
    build_two_hamiltonian,
    k_delta_vector,
)

RNG = np.random.default_rng(42)


def random_state(basis):
    psi = RNG.standard_normal(basis.dim) + 1j * RNG.standard_normal(basis.dim)
    return psi / np.linalg.norm(psi)


# ----------------------------------------------------- K-Delta frame


def test_decompose_exact_reconstruction():
    chain = ChainGeometry.from_kd(14, 0.2 * np.pi)
    basis = TwoExcitationBasis(14)
    dec = analysis.k_delta_decompose(random_state(basis), chain)
    assert dec.residual < 1e-12
    assert dec.total_weight <= 1.0 + 1e-12
    assert np.allclose(dec.delta_profile.sum(), 1.0)
    assert dec.coefficients.shape == (13, 14)


def test_decompose_exact_bin_self():
    # ansatz on an exact FFT bin: single-row, single-column content
    N, j0, d0 = 24, 9, 3
    chain = ChainGeometry.from_kd(N, 0.25 * np.pi)
    Kd = 2.0 * np.pi * j0 / N
    psi = k_delta_vector(chain, Kd, d0, normalized=True)
    dec = analysis.k_delta_decompose(psi, chain)
    assert dec.dominant_delta == d0
    wrapped = Kd - 2 * np.pi if Kd > np.pi else Kd
    assert dec.dominant_Kd == pytest.approx(wrapped)
    # off-delta rows carry nothing; peak column weight fraction (N-d)/N
    off = dec.weights[np.arange(N - 1) != d0 - 1, :]
    assert np.max(off) < 1e-24
    peak = dec.weights[d0 - 1, j0]
    assert peak / dec.weights[d0 - 1].sum() == pytest.approx((N - d0) / N)
    assert dec.k_concentration(bins=0) == pytest.approx((N - d0) / N)


def test_decompose_separation_mixture():
    # two even separations with known weights; odd weight exactly zero
    chain = ChainGeometry.from_kd(20, 0.25 * np.pi)
    a = k_delta_vector(chain, np.pi, 2, normalized=True)
    b = k_delta_vector(chain, np.pi, 4, normalized=True)
    psi = np.sqrt(0.8) * a + np.sqrt(0.2) * b
    dec = analysis.k_delta_decompose(psi, chain)
    assert dec.odd_delta_weight() == 0.0
    assert dec.weight_beyond_delta(2) == pytest.approx(0.2)
    assert dec.weight_beyond_delta(4) == 0.0
    assert dec.dominant_delta == 2


def test_decompose_length_validation():
    chain = ChainGeometry.from_kd(10, 0.2 * np.pi)
    with pytest.raises(ValueError):
        analysis.k_delta_decompose(np.ones(7), chain)


def test_decay_rate_accepts_pairs_and_arrays():
    p = EigenPair(1.0 - 0.25j, np.ones(1), 0.0)
    assert analysis.decay_rate(p) == 0.5
    assert analysis.decay_rate(1.0 - 0.25j) == 0.5
    assert np.allclose(analysis.decay_rate(np.array([-0.5j, -1j])), [1.0, 2.0])


# ----------------------------------------------------- fermionic overlap


def test_fermionic_overlap_exact_pair():
    chain = ChainGeometry.from_kd(12, 0.2 * np.pi)
    basis = TwoExcitationBasis(12)
    ferm = analysis.fermionic_basis(chain)
    i, j = 2, 7
    vi, vj = ferm.vectors[:, i], ferm.vectors[:, j]
    A = np.outer(vi, vj) - np.outer(vj, vi)
    psi = A[basis.pair_m, basis.pair_n]
    overlap, bi, bj = analysis.fermionic_overlap(psi, ferm)
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert (bi, bj) == (i, j)


def test_fermionic_overlap_scale_invariant():
    chain = ChainGeometry.from_kd(10, 0.3 * np.pi)
    basis = TwoExcitationBasis(10)
    ferm = analysis.fermionic_basis(chain)
    psi = random_state(basis)
    o1, i1, j1 = analysis.fermionic_overlap(psi, ferm)
    o2, i2, j2 = analysis.fermionic_overlap(3.0 * np.exp(0.7j) * psi, ferm)
    assert o1 == pytest.approx(o2) and (i1, j1) == (i2, j2)
    assert 0.0 <= o1 <= 1.0


def test_fermionic_reference_n2():
    # the two one-excitation rates exhaust the trace: their sum is 2 gamma
    chain = ChainGeometry.from_kd(2, 0.2 * np.pi)
    assert analysis.fermionic_basis(chain).baseline == pytest.approx(2.0)


# ----------------------------------------------------- classification


def synthetic_dimer_ii(N=25, kd=0.25 * np.pi):
    chain = ChainGeometry.from_kd(N, kd)
    psi = k_delta_vector(chain, np.pi, 2, normalized=True)
    om = theory.asymptotic_dimer(kd, "II").omega
    return chain, EigenPair(complex(om, -1e-3), psi, 0.0)


def test_classify_synthetic_dimer_ii():
    # pure Delta = 2 ansatz at the EPR point: odd-separation weight is
    # exactly zero and the K content sits at the zone edge
    chain, pair = synthetic_dimer_ii()
    cls = analysis.classify_state(pair, chain)
    assert cls.label == "DimerII"
    assert cls.dominant_delta == 2
    dec = analysis.k_delta_decompose(pair.vector, chain)
    assert dec.odd_delta_weight() < 1e-3
    assert abs(abs(cls.dominant_Kd) - np.pi) < 0.2 * np.pi
    assert cls.k_concentration > 0.9


def test_classify_synthetic_dimer_i():
    N, kd = 24, 0.2 * np.pi
    chain = ChainGeometry.from_kd(N, kd)
    deltas, p = theory.dimer_profile_pdf(kd, "I", 8)
    psi = sum(np.sqrt(pi) * k_delta_vector(chain, 0.0, int(d),
                                           normalized=True)
              for d, pi in zip(deltas, p))
    om = theory.asymptotic_dimer(kd, "I").omega
    cls = analysis.classify_state(EigenPair(complex(om, -1e-4), psi, 0.0),
                                  chain)
    assert cls.label == "DimerI"
    assert cls.dominant_delta == 1
    assert abs(cls.dominant_Kd) <= 0.2 * np.pi


def test_classify_rejects_wrong_energy():
    chain, pair = synthetic_dimer_ii()
    shifted = EigenPair(pair.lam + 2.0, pair.vector, 0.0)
    cls = analysis.classify_state(shifted, chain)
    assert cls.label != "DimerII"


def test_classify_scale_invariance():
    chain, pair = synthetic_dimer_ii()
    scaled = EigenPair(pair.lam, 5.0 * np.exp(1.3j) * pair.vector, 0.0)
    a = analysis.classify_state(pair, chain)
    b = analysis.classify_state(scaled, chain)
    assert a.label == b.label
    assert a.k_concentration == pytest.approx(b.k_concentration)
    assert a.fermionic_overlap == pytest.approx(b.fermionic_overlap)


def test_classify_thresholds_recorded():
    chain, pair = synthetic_dimer_ii()
    th = analysis.ClassifierThresholds(concentration_min=0.25,
                                       concentration_bins=4)
    cls = analysis.classify_state(pair, chain, thresholds=th)
    assert cls.thresholds is th


def test_real_spectrum_branches_n50():
    # full dense two-excitation spectrum: both dimer branches present,
    # plus doubly subradiant fermionic states; counts conserve dimension
    chain = ChainGeometry.from_kd(50, 0.2 * np.pi)
    spec = eig_dense_all(build_two_hamiltonian(chain))
    ferm = analysis.fermionic_basis(chain)
    classes = [analysis.classify_state(p, chain, ferm=ferm)
               for p in spec.pairs]
    counts = analysis.branch_summary(
        classes, np.linalg.eigvals(build_single_hamiltonian(chain)))
    assert counts["DimerI"] >= 1
    assert counts["DimerII"] >= 1
    assert counts["Fermionic-2sub"] >= 1
    assert sum(counts.values()) == 1225


def reference_metrics(pair, chain, ferm, basis):
    """The classifier's metrics for one state: the K-Delta ones from
    k_delta_decompose, the fermionic overlap written out per pair matrix."""
    dec = analysis.k_delta_decompose(pair.vector, chain)
    Psi = basis.to_matrix(pair.vector)
    A = np.triu(Psi, 1) - np.triu(Psi, 1).T
    V = ferm.vectors
    W = np.conj(V).T @ A @ np.conj(V)
    n2 = np.sum(np.abs(V) ** 2, axis=0)
    wedge2 = np.outer(n2, n2) - np.abs(np.conj(V).T @ V) ** 2
    iu = np.triu_indices(chain.N, 1)
    ratio = np.abs(W[iu]) ** 2 / (wedge2[iu] * np.vdot(pair.vector, pair.vector).real)
    best = int(np.argmax(ratio))
    return (dec.dominant_delta, abs(dec.dominant_Kd),
            dec.k_concentration(2), np.sqrt(min(ratio[best], 1.0)),
            (int(iu[0][best]), int(iu[1][best])))


def test_classify_states_matches_per_state():
    # the batched classifier against classify_state and against the
    # per-state metrics, on a pair count that is not a multiple of the
    # chunk size, on one chunk plus a few pairs, and on a single pair
    N = 40
    chain = ChainGeometry.from_kd(N, 0.2 * np.pi)
    basis = TwoExcitationBasis(N)
    spec = eig_dense_all(build_two_hamiltonian(chain),
                         mirror=basis.mirror())
    ferm = analysis.fermionic_basis(chain)
    step = analysis._CHUNK_BYTES // (16 * N * N)
    assert 1 < step < len(spec) and len(spec) % step != 0
    for pairs in (spec.pairs, spec.pairs[:step + 3], spec.pairs[:1]):
        batch = analysis.classify_states(pairs, chain, ferm=ferm)
        assert len(batch) == len(pairs)
        for p, c in zip(pairs, batch):
            one = analysis.classify_state(p, chain, ferm=ferm)
            assert (c.label, c.dominant_delta, c.fermionic_pair) == (
                one.label, one.dominant_delta, one.fermionic_pair)
            for name in ("omega_distance_I", "omega_distance_II", "dominant_Kd",
                         "k_concentration", "fermionic_overlap"):
                assert getattr(c, name) == pytest.approx(getattr(one, name),
                                                         abs=1e-12)
            delta, kd, conc, overlap, fpair = reference_metrics(p, chain, ferm,
                                                                basis)
            assert c.dominant_delta == delta and c.fermionic_pair == fpair
            # mirror-parity states tie in weight between +K and -K
            assert abs(c.dominant_Kd) == pytest.approx(kd, abs=1e-12)
            assert c.k_concentration == pytest.approx(conc, abs=1e-12)
            assert c.fermionic_overlap == pytest.approx(overlap, abs=1e-12)


def test_branch_summary_splits_by_constituents():
    vals = np.array([-0.05j, -0.1j, -0.5j, -1.0j])  # rates .1 .2 1 2
    th = analysis.ClassifierThresholds()

    def fcls(i, j):
        return analysis.StateClass("Fermionic", 0, 0, 1, 0.0, 1.0, 1.0,
                                   (i, j), th)

    classes = [fcls(0, 1), fcls(0, 2), fcls(2, 3),
               analysis.StateClass("Other", 0, 0, 1, 0.0, 0.0, 0.0, (0, 0), th)]
    counts = analysis.branch_summary(classes, vals)
    assert counts["Fermionic-2sub"] == 1
    assert counts["Fermionic-1sub"] == 1
    assert counts["Fermionic-0sub"] == 1
    assert counts["Other"] == 1


def test_band_edge_re():
    assert analysis.band_edge_re(0.2 * np.pi) == pytest.approx(
        -0.5 * np.tan(0.1 * np.pi))


# ----------------------------------------------------- selection


def make_pairs(lams):
    return [EigenPair(complex(l), np.ones(2), 0.0) for l in lams]


def test_most_subradiant_plain():
    pairs = make_pairs([1 - 0.5j, 2 - 0.01j, 3 - 1j])
    assert analysis.most_subradiant_index(pairs) == 1


def test_most_subradiant_label_filter():
    pairs = make_pairs([1 - 0.01j, 2 - 0.5j, 3 - 0.2j])
    th = analysis.ClassifierThresholds()
    classes = [analysis.StateClass(lab, 0, 0, 1, 0.0, 1.0, 0.0, (0, 1), th)
               for lab in ("Other", "DimerI", "DimerI")]
    assert analysis.most_subradiant_index(pairs, classes, label="DimerI") == 2
    with pytest.raises(ValueError):
        analysis.most_subradiant_index(pairs, classes, label="DimerII")
    with pytest.raises(ValueError):
        analysis.most_subradiant_index(pairs, label="DimerI")


def test_most_subradiant_tie_break_by_omega():
    pairs = make_pairs([1.0 - 0.1j, 3.0 - 0.1j - 1e-12j])
    i = analysis.most_subradiant_index(pairs, omega_target=2.9)
    assert i == 1
    assert analysis.most_subradiant(pairs, omega_target=0.9).lam.real == 1.0


def test_most_subradiant_empty():
    with pytest.raises(ValueError):
        analysis.most_subradiant_index([])


# ----------------------------------------------------- fits


def test_fit_power_law_exact():
    N = np.arange(20, 60, 5, dtype=float)
    f = analysis.fit_power_law(N, 3.7 * N**-2.4)
    assert f.exponent == pytest.approx(-2.4)
    assert f.amplitude == pytest.approx(3.7)
    assert f.r_squared == pytest.approx(1.0)
    assert f.model == "PowerLaw"


def test_fit_power_law_drops_boundary_sizes():
    # > 15 points: the 10 smallest N are transient and must not bias the fit
    N = np.arange(10, 26, dtype=float)
    r = 2.0 * N**-3.0
    r[:10] *= RNG.uniform(2.0, 5.0, 10)  # corrupt the dropped region
    f = analysis.fit_power_law(N, r)
    assert f.exponent == pytest.approx(-3.0)
    assert f.window[0] == 20.0


def test_fit_power_law_window():
    N = np.arange(10, 30, dtype=float)
    r = 0.5 * N**-2.0
    r[N > 25] = 1.0  # corrupted outside the window
    f = analysis.fit_power_law(N, r, window=(10, 25))
    assert f.exponent == pytest.approx(-2.0)


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        analysis.fit_power_law([1, 2, 3, 4], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        analysis.fit_power_law([1, 2, 3, 4, 5], [1, 1, -1, 1, 1])
    with pytest.raises(ValueError):
        analysis.fit_power_law(np.arange(5.0) + 1, np.ones(5), window=(8, 9))


def test_fit_exponential_tail_exact():
    s = np.arange(5, 20, dtype=float)
    ratio = np.cos(0.2 * np.pi) ** 2
    f = analysis.fit_exponential_tail(s, 0.8 * ratio**s)
    assert f.model == "Exponential"
    assert f.exponent == pytest.approx(np.log(ratio))
    assert f.ratio == pytest.approx(ratio)
    assert f.amplitude == pytest.approx(0.8)


def test_fit_exponential_tail_validation():
    with pytest.raises(ValueError):
        analysis.fit_exponential_tail([1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        analysis.fit_exponential_tail([1, 2, 3, 4], [1, 0, 1, 1])


# ----------------------------------------------------- period-4 detector


def test_period4_detected_on_synthetic():
    N = np.arange(60, 121, dtype=float)
    rates = 5.0 * N**-3.0 * (1.0 + 0.3 * np.cos(0.5 * np.pi * N))
    rep = analysis.period4_modulation(N, rates)
    assert rep.period == 4
    assert rep.detected
    assert rep.acf[3] > 0.5
    assert rep.depth > 0.1


def test_period4_not_detected_on_noise():
    N = np.arange(60, 121, dtype=float)
    rates = 5.0 * N**-3.0 * RNG.uniform(0.95, 1.05, N.size)
    rep = analysis.period4_modulation(N, rates)
    assert not rep.detected or rep.acf[3] < 0.5


def test_period4_rejects_other_periods():
    N = np.arange(60, 121, dtype=float)
    rates = 5.0 * N**-3.0 * (1.0 + 0.3 * np.cos(2.0 * np.pi * N / 6.0))
    rep = analysis.period4_modulation(N, rates)
    assert rep.period == 6
    assert not rep.detected


def test_period4_validation():
    with pytest.raises(ValueError):
        analysis.period4_modulation(np.arange(10.0), np.ones(10))
    N = np.arange(60, 121, dtype=float)
    with pytest.raises(ValueError):
        analysis.period4_modulation(N[::2][:20] * 1.0, np.ones(31)[:20])
    with pytest.raises(ValueError):
        analysis.period4_modulation(N, np.zeros(N.size))
