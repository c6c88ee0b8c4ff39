"""Spectrum analysis: decay rates, K-Delta decompositions, state
classification, and scaling / profile fits.

A two-excitation state is resolved onto pair-separation states

    |K; Delta> = sum_m e^{i K (m + Delta/2) d} |m, m+Delta>,

normalized by 1/sqrt(N - Delta), with K on the discrete grid
K_j d = 2 pi j / N.  At fixed Delta these N vectors form a tight frame
for the (N - Delta)-dimensional slice (an oversampled Fourier frame),
so the least-squares coefficients have the closed form

    a_j = ((N - Delta)/N) <f_j | psi_Delta>,

computable with one FFT per Delta, the reconstruction is exact, and
sum |a|^2 = sum_Delta ((N-Delta)/N) ||psi_Delta||^2 <= ||psi||^2.

Classification follows the decomposition: dimer states sit in a window
around omega_I or omega_II with the matching dominant (K, Delta);
fermionic states are recognized by their overlap with antisymmetrized
products of one-excitation eigenvectors, computed exactly for all pairs
at once via W = conj(V)^T A_psi conj(V) with A_psi the antisymmetric
pair matrix.  classify_states labels a whole spectrum in chunks of
states: one precomputed gather of the separation rows, one FFT and one
batch of W products per chunk; classify_state is its one-state case.
States are pair amplitudes in the order of model.TwoExcitationBasis(N).
"""

from dataclasses import dataclass, field

import numpy as np

from . import theory
from .model import TwoExcitationBasis, build_single_hamiltonian

DIMER_I = "DimerI"
DIMER_II = "DimerII"
FERMIONIC = "Fermionic"
OTHER = "Other"


def decay_rate(pair):
    """Decay rate -2 Im(lambda); accepts an eigenpair, scalar, or array."""
    lam = getattr(pair, "lam", pair)
    return -2.0 * np.imag(lam)


@dataclass(frozen=True)
class KDeltaDecomposition:
    """Frame coefficients a(Delta, K_j) of a two-excitation state."""

    N: int
    delta_grid: np.ndarray  # 1..N-1
    Kd_grid: np.ndarray  # K_j d wrapped to (-pi, pi], FFT bin order
    coefficients: np.ndarray  # (N-1, N) complex, rows indexed by Delta-1
    weights: np.ndarray  # |coefficients|^2
    delta_profile: np.ndarray  # exact ||psi_Delta||^2 per Delta
    k_marginal: np.ndarray  # frame weight summed over Delta
    total_weight: float  # sum of weights, <= ||psi||^2
    residual: float  # max reconstruction error (tight frame: ~0)

    @property
    def dominant_delta(self):
        return int(self.delta_grid[np.argmax(self.delta_profile)])

    @property
    def dominant_Kd(self):
        return float(self.Kd_grid[np.argmax(self.k_marginal)])

    def k_concentration(self, bins=2):
        """Fraction of frame weight within +-bins (circular) of the peak K."""
        j0 = int(np.argmax(self.k_marginal))
        idx = (j0 + np.arange(-bins, bins + 1)) % self.N
        return float(self.k_marginal[idx].sum() / max(self.total_weight, 1e-300))

    def weight_beyond_delta(self, delta_max):
        """Fraction of separation weight at Delta > delta_max."""
        total = self.delta_profile.sum()
        return float(self.delta_profile[self.delta_grid > delta_max].sum() / total)

    def odd_delta_weight(self):
        """Fraction of separation weight on odd Delta."""
        total = self.delta_profile.sum()
        return float(self.delta_profile[self.delta_grid % 2 == 1].sum() / total)


def _separation_index(N):
    """(N-1) x N gather index of the separation rows.

    Entry [Delta - 1, m] is the flat index of the pair (m, m + Delta); the
    slots m >= N - Delta point one past the last pair, where callers keep
    a zero.
    """
    basis = TwoExcitationBasis(N)
    index = np.full((N - 1, N), basis.dim)
    index[basis.pair_n - basis.pair_m - 1, basis.pair_m] = np.arange(basis.dim)
    return index


def _frame_factors(N):
    """(phase, scale) with a(Delta, K_j) = scale * phase * FFT(row Delta)."""
    deltas = np.arange(1, N)
    phase = np.exp(-1j * np.pi * np.outer(deltas, np.arange(N)) / N)
    scale = np.sqrt(N - deltas)[:, None] / N
    return phase, scale


def _kd_grid(N):
    """K_j d = 2 pi j / N wrapped to (-pi, pi], FFT bin order."""
    Kd = 2.0 * np.pi * np.arange(N) / N
    return np.where(Kd > np.pi, Kd - 2.0 * np.pi, Kd)


def k_delta_decompose(state, chain):
    """Least-squares K-Delta decomposition of a two-excitation state.

    Distances use the nominal lattice labels (disordered chains are
    decomposed against the clean grid).  Per Delta the frame is tight,
    so the coefficients are exact least-squares ones and the recorded
    reconstruction residual is at machine level; no rank deficiency can
    occur for N >= 2.
    """
    N = chain.N
    basis = TwoExcitationBasis(N)
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape[0] != basis.dim:
        raise ValueError("state length does not match the two-excitation basis")
    padded = np.append(psi, 0.0)[_separation_index(N)]
    phase, scale = _frame_factors(N)
    coeff = scale * phase * np.fft.fft(padded, axis=1)
    # exact reconstruction check: invert the closed form
    F_rec = coeff * np.conj(phase) / scale
    rec = np.fft.ifft(F_rec, axis=1)
    residual = float(np.abs(rec - padded).max())
    weights = np.abs(coeff) ** 2
    return KDeltaDecomposition(
        N=N,
        delta_grid=np.arange(1, N),
        Kd_grid=_kd_grid(N),
        coefficients=coeff,
        weights=weights,
        delta_profile=np.abs(padded) ** 2 @ np.ones(N),
        k_marginal=weights.sum(axis=0),
        total_weight=float(weights.sum()),
        residual=residual,
    )


@dataclass(frozen=True)
class FermionicBasis:
    """A chain's H1 = V diag(values) W, the one core that its shift solvers,
    fermionic overlaps, one-excitation minimum and baseline all read."""

    values: np.ndarray
    vectors: np.ndarray  # V, columns, unit norm
    inverse: np.ndarray  # W = V^{-1}
    pair_norms2: np.ndarray  # ||a_ij||^2 per pair i < j, in pair order

    @property
    def baseline(self):
        """Sum of the two smallest one-excitation decay rates."""
        return float(np.sum(np.sort(decay_rate(self.values))[:2]))


def fermionic_basis(chain, kernel=None):
    """The FermionicBasis of a chain: one zgeev of H1 and one inverse."""
    H1 = build_single_hamiltonian(chain, kernel)
    values, vectors = np.linalg.eig(H1)
    norms2 = np.einsum("ij,ij->j", np.conj(vectors), vectors).real
    gram = np.conj(vectors.T) @ vectors
    pair_norms2 = np.outer(norms2, norms2) - np.abs(gram) ** 2
    pairs = TwoExcitationBasis(len(values))
    return FermionicBasis(values=values, vectors=vectors,
                          inverse=np.linalg.inv(vectors),
                          pair_norms2=pairs.from_matrix(pair_norms2))


def _fermionic_overlaps(P, ferm):
    """fermionic_overlap of each row of P; returns arrays (overlap, i, j)."""
    N = ferm.vectors.shape[0]
    basis = TwoExcitationBasis(N)
    m, n = basis.pair_m, basis.pair_n
    A = np.zeros((P.shape[0], N, N), dtype=complex)
    A[:, m, n] = P
    A[:, n, m] = -P
    Vc = np.conj(ferm.vectors)
    num = np.abs((Vc.T @ A @ Vc)[:, m, n]) ** 2
    psi2 = np.einsum("ij,ij->i", np.conj(P), P).real
    den = ferm.pair_norms2 * psi2[:, None]
    ratio = np.where(den > 1e-300, num / np.maximum(den, 1e-300), 0.0)
    best = np.argmax(ratio, axis=1)
    top = ratio[np.arange(len(best)), best]
    return np.sqrt(np.clip(top, 0.0, 1.0)), m[best], n[best]


def fermionic_overlap(state, ferm):
    """Best overlap with an antisymmetrized pair of one-excitation modes.

    For the pair (i, j) the unnormalized amplitude matrix is
    v_i v_j^T - v_j v_i^T; numerators for every pair come from one triple
    product W = conj(V)^T A_psi conj(V), and the pair-basis norms from
    ||a_ij||^2 = ||v_i||^2 ||v_j||^2 - |(V^H V)_ij|^2.  Returns
    (overlap in [0, 1], i, j).
    """
    psi = np.asarray(state, dtype=complex).reshape(1, -1)
    overlap, i, j = _fermionic_overlaps(psi, ferm)
    return float(overlap[0]), int(i[0]), int(j[0])


@dataclass(frozen=True)
class ClassifierThresholds:
    """Classification windows; the defaults are recorded in every result."""

    omega_window: float = 0.5  # |Re lambda - omega_type| in units of gamma
    kd_window: float = 0.2 * np.pi  # dominant-K distance from 0 or pi
    concentration_min: float = 0.5
    concentration_bins: int = 2
    overlap_min: float = 0.9


@dataclass(frozen=True)
class StateClass:
    """Label plus the confidence metrics it was decided on."""

    label: str
    omega_distance_I: float
    omega_distance_II: float
    dominant_delta: int
    dominant_Kd: float
    k_concentration: float
    fermionic_overlap: float
    fermionic_pair: tuple
    thresholds: ClassifierThresholds = field(repr=False)


def _circular_distance(a, b):
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


# bytes of one chunk's N x N pair matrices in classify_states; its other
# temporaries are of the same size, a few MB in all
_CHUNK_BYTES = 1 << 21


def classify_state(pair, chain, ferm=None, thresholds=None):
    """Label a two-excitation eigenpair DimerI / DimerII / Fermionic / Other.

    Dimer labels need Re(lambda) inside the omega window AND the matching
    dominant separation (Delta = d or 2d), dominant K (near 0 or pi/d),
    and K-marginal concentration.  Fermionic needs the antisymmetrized
    pair overlap above threshold.  All metrics are modulus-based, so the
    label is invariant under a global phase or rescaling of the vector.
    """
    return classify_states([pair], chain, ferm, thresholds)[0]


def classify_states(pairs, chain, ferm=None, thresholds=None):
    """classify_state of each eigenpair in a list, in list order.

    The states go through in chunks: one gather of their separation rows
    (the K-Delta frame of k_delta_decompose) and one FFT per chunk, and
    batched conj(V)^T A_psi conj(V) products for the fermionic overlaps.
    """
    if thresholds is None:
        thresholds = ClassifierThresholds()
    if ferm is None:
        ferm = fermionic_basis(chain)
    N = chain.N
    basis = TwoExcitationBasis(N)
    gamma = chain.gamma1d
    om_I = theory.asymptotic_dimer(chain.kd, "I", gamma).omega
    om_II = theory.asymptotic_dimer(chain.kd, "II", gamma).omega
    window = thresholds.omega_window * gamma
    bins = np.arange(-thresholds.concentration_bins,
                     thresholds.concentration_bins + 1)
    gather = _separation_index(N)
    phase, scale = _frame_factors(N)
    Kd = _kd_grid(N)
    step = max(1, _CHUNK_BYTES // (16 * N * N))
    classes = []
    for start in range(0, len(pairs), step):
        chunk = pairs[start:start + step]
        P = np.zeros((len(chunk), basis.dim + 1), dtype=complex)
        for r, p in enumerate(chunk):
            P[r, :-1] = p.vector
        padded = P[:, gather]
        weights = np.abs(scale * phase * np.fft.fft(padded, axis=-1)) ** 2
        k_marginal = weights.sum(axis=1)
        peak = np.argmax(k_marginal, axis=1)
        near = np.take_along_axis(k_marginal, (peak[:, None] + bins) % N, axis=1)
        conc = near.sum(axis=1) / np.maximum(weights.sum(axis=(1, 2)), 1e-300)
        delta = 1 + np.argmax(np.abs(padded) ** 2 @ np.ones(N), axis=1)
        overlap, fi, fj = _fermionic_overlaps(P[:, :-1], ferm)
        for r, p in enumerate(chunk):
            dist_I = abs(p.lam.real - om_I)
            dist_II = abs(p.lam.real - om_II)
            Kd_r = float(Kd[peak[r]])
            dimer_k = conc[r] >= thresholds.concentration_min
            label = OTHER
            if (dist_I < window and delta[r] == 1 and dimer_k
                    and _circular_distance(Kd_r, 0.0) <= thresholds.kd_window):
                label = DIMER_I
            elif (dist_II < window and delta[r] == 2 and dimer_k
                    and _circular_distance(Kd_r, np.pi) <= thresholds.kd_window):
                label = DIMER_II
            elif overlap[r] > thresholds.overlap_min:
                label = FERMIONIC
            classes.append(StateClass(
                label=label,
                omega_distance_I=float(dist_I),
                omega_distance_II=float(dist_II),
                dominant_delta=int(delta[r]),
                dominant_Kd=Kd_r,
                k_concentration=float(conc[r]),
                fermionic_overlap=float(overlap[r]),
                fermionic_pair=(int(fi[r]), int(fj[r])),
                thresholds=thresholds,
            ))
    return classes


def band_edge_re(kd, gamma=1.0):
    """Re(lambda) of the one-excitation subradiant band edge."""
    return -0.5 * gamma * np.tan(0.5 * kd)


def most_subradiant_index(pairs, classes=None, label=None, omega_target=None,
                          tie_tol=1e-9):
    """Index of the minimal-decay eigenpair, optionally filtered by label.

    Near-ties (decay within tie_tol of the minimum, absolute in units of
    the minimum's scale) break deterministically: by |Re lambda -
    omega_target| when a target is given, else by position.
    """
    idx = range(len(pairs))
    if label is not None:
        if classes is None:
            raise ValueError("label filtering requires classes")
        idx = [i for i in idx if classes[i].label == label]
        if not idx:
            raise ValueError(f"no states labeled {label}")
    else:
        idx = list(idx)
        if not idx:
            raise ValueError("empty spectrum")
    decays = np.array([decay_rate(pairs[i]) for i in idx])
    dmin = decays.min()
    tol = tie_tol * max(1.0, abs(dmin))
    cands = [i for i, d in zip(idx, decays) if d <= dmin + tol]
    if omega_target is None or len(cands) == 1:
        return cands[0]
    dist = [abs(pairs[i].lam.real - omega_target) for i in cands]
    return cands[int(np.argmin(dist))]


def most_subradiant(pairs, classes=None, label=None, omega_target=None):
    """The slowest-decaying eigenpair among states with the requested label."""
    return pairs[most_subradiant_index(pairs, classes, label, omega_target)]


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit in transformed coordinates.

    PowerLaw: rate = amplitude * N^exponent (fit in log-log).
    Exponential: weight = amplitude * exp(exponent * site); the per-site
    geometric ratio is exp(exponent), exposed as .ratio.
    """

    model: str
    exponent: float
    amplitude: float
    window: tuple
    r_squared: float

    @property
    def ratio(self):
        return float(np.exp(self.exponent))


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, min(max(r2, 0.0), 1.0)


def fit_power_law(n_values, rates, window=None):
    """Power-law fit rate ~ N^exponent on log-log axes.

    With window=None and more than 15 points, the 10 smallest N are
    dropped to suppress boundary transients; pass window=(Nmin, Nmax)
    to control the range explicitly.
    """
    n = np.asarray(n_values, dtype=float)
    r = np.asarray(rates, dtype=float)
    if n.size < 5:
        raise ValueError("need at least 5 points")
    if np.any(r <= 0):
        raise ValueError("rates must be positive")
    if window is not None:
        mask = (n >= window[0]) & (n <= window[1])
    elif n.size > 15:
        mask = n > np.sort(n)[9]
    else:
        mask = np.ones(n.size, dtype=bool)
    n, r = n[mask], r[mask]
    if n.size < 3:
        raise ValueError("fewer than 3 points left in the fit window")
    slope, intercept, r2 = _linear_fit(np.log(n), np.log(r))
    return FitResult(
        model="PowerLaw", exponent=float(slope), amplitude=float(np.exp(intercept)),
        window=(float(n.min()), float(n.max())), r_squared=r2,
    )


def fit_exponential_tail(sites, weights, window=None):
    """Log-linear fit weight ~ ratio^site; returns the per-site ratio."""
    s = np.asarray(sites, dtype=float)
    w = np.asarray(weights, dtype=float)
    if s.size < 4:
        raise ValueError("need at least 4 points")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    if window is not None:
        mask = (s >= window[0]) & (s <= window[1])
        s, w = s[mask], w[mask]
        if s.size < 3:
            raise ValueError("fewer than 3 points left in the fit window")
    slope, intercept, r2 = _linear_fit(s, np.log(w))
    return FitResult(
        model="Exponential", exponent=float(slope),
        amplitude=float(np.exp(intercept)),
        window=(float(s.min()), float(s.max())), r_squared=r2,
    )


@dataclass(frozen=True)
class ModulationReport:
    """Autocorrelation analysis of detrended rate-vs-N residuals."""

    period: int  # lag with the largest autocorrelation (lags >= 2)
    acf: np.ndarray  # autocorrelation at lags 1..max_lag
    depth: float  # rms relative modulation (log residual * sqrt 2)
    threshold: float
    detected: bool  # period == 4 with acf above threshold


def period4_modulation(n_values, rates, detrend_degree=3, max_lag=8,
                       threshold=0.25):
    """Detect bond-length modulation of decay rates along consecutive N.

    The series is detrended by a low-degree polynomial in log-log (a
    slowly varying local power law); the residual autocorrelation then
    exposes any short-period modulation.
    """
    n = np.asarray(n_values, dtype=float)
    r = np.asarray(rates, dtype=float)
    if n.size < 16:
        raise ValueError("need at least 16 points")
    if np.any(np.diff(n) != 1):
        raise ValueError("N values must be consecutive")
    if np.any(r <= 0):
        raise ValueError("rates must be positive")
    x, y = np.log(n), np.log(r)
    resid = y - np.polyval(np.polyfit(x, y, detrend_degree), x)
    resid = resid - resid.mean()
    denom = float(np.sum(resid**2))
    lags = np.arange(1, max_lag + 1)
    acf = np.array(
        [np.sum(resid[:-ell] * resid[ell:]) / denom if denom > 0 else 0.0
         for ell in lags]
    )
    period = int(lags[1 + np.argmax(acf[1:])])  # ignore lag 1 (trend leakage)
    depth = float(np.sqrt(2.0) * resid.std())
    detected = bool(period == 4 and acf[3] >= threshold)
    return ModulationReport(period=period, acf=acf, depth=depth,
                            threshold=threshold, detected=detected)


def branch_summary(classes, single_exc_values, gamma=1.0, subradiant_cut=0.5):
    """Count the subradiant branches of a classified two-excitation spectrum.

    Dimer branches are counted by label; fermionic states split by how
    many of their one-excitation constituents are themselves subradiant
    (decay below subradiant_cut * gamma), giving the three fermionic
    branches (2, 1, or 0 subradiant constituents).
    """
    rates = decay_rate(np.asarray(single_exc_values))
    counts = {DIMER_I: 0, DIMER_II: 0, "Fermionic-2sub": 0,
              "Fermionic-1sub": 0, "Fermionic-0sub": 0, OTHER: 0}
    cut = subradiant_cut * gamma
    for c in classes:
        if c.label == FERMIONIC:
            i, j = c.fermionic_pair
            nsub = int(rates[i] < cut) + int(rates[j] < cut)
            counts[f"Fermionic-{nsub}sub"] += 1
        else:
            counts[c.label] += 1
    return counts
