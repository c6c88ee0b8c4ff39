"""Chain geometry, coupling kernels, and Hamiltonian builders.

A chain of two-level emitters coupled to a single guided mode acquires the
non-Hermitian effective Hamiltonian

    H = -(i/2) Gamma_1D sum_{m,n} exp(i k_1D |z_m - z_n|) sigma+_m sigma-_n ,

whose one- and two-excitation sectors contain all the physics treated here:
subradiant dimers, relative-coordinate models at fixed center-of-excitation
wavenumber K, defect (missing-site) chains, and 3D free-space analogues.
Two-level saturation enforces a hard-core constraint in the two-excitation
sector: double occupation of a site is excluded.

Conventions: site indices are 0-based, positions are z_m = m*d + offset_m,
decay rates are -2 Im(lambda) in units of the single-emitter rate.
"""

from dataclasses import dataclass

import numpy as np

# two pi to extended precision for phase reduction of k*|z| at large N*k*d
_TWO_PI = np.longdouble("6.28318530717958647692528676655900577")


def _unit_phasor(k, r):
    """exp(i*k*r) with the phase reduced mod 2pi in extended precision.

    Decay rates below 1e-9 are phase sensitive; naive float64 products
    k*z drift by ~N*k*d*eps, which this reduction avoids.
    """
    phi = np.multiply(np.longdouble(k), np.asarray(r, dtype=np.longdouble))
    phi = np.remainder(phi, _TWO_PI).astype(np.float64)
    return np.exp(1j * phi)


@dataclass(frozen=True)
class Waveguide1D:
    """Guided-mode kernel V(r) = -(i/2) gamma1d exp(i k1d |r|)."""

    k1d: float
    gamma1d: float = 1.0
    kind = "Waveguide1D"

    def element(self, r):
        return -0.5j * self.gamma1d * complex(_unit_phasor(self.k1d, abs(r)))

    def matrix(self, separations):
        return -0.5j * self.gamma1d * _unit_phasor(self.k1d, np.abs(separations))


def _dyadic_factors(kind, theta):
    # angular factors of the free-space dipole-dipole Green function for
    # dipoles transverse / parallel to the chain axis, theta = k0*r
    if kind == "transverse":
        return -0.75 * (1.0 / theta + 1j / theta**2 - 1.0 / theta**3)
    return 1.5 * (1j / theta**2 - 1.0 / theta**3)


@dataclass(frozen=True)
class FreeSpace3D:
    """Free-space dipole-dipole kernel for a chain of spacing-d emitters.

    polarization 'transverse' or 'parallel' refers to the dipole moment
    relative to the chain axis.  Normalized so the self term is -i*gamma0/2;
    Im V(r) -> -gamma0/2 as r -> 0, while Re V diverges as 1/r^3 (near field).
    """

    lambda0: float
    gamma0: float = 1.0
    polarization: str = "transverse"

    def __post_init__(self):
        if self.polarization not in ("transverse", "parallel"):
            raise ValueError(f"unknown polarization {self.polarization!r}")

    @property
    def kind(self):
        return "FreeSpace3D" + self.polarization.capitalize()

    @property
    def k0(self):
        return 2.0 * np.pi / self.lambda0

    def element(self, r):
        if r == 0.0:
            return -0.5j * self.gamma0
        theta = self.k0 * abs(r)
        fac = _dyadic_factors(self.polarization, theta)
        return self.gamma0 * complex(_unit_phasor(self.k0, abs(r))) * fac

    def matrix(self, separations):
        sep = np.abs(np.asarray(separations, dtype=float))
        out = np.full(sep.shape, -0.5j * self.gamma0, dtype=complex)
        off = sep > 0
        theta = self.k0 * sep[off]
        out[off] = self.gamma0 * _unit_phasor(self.k0, sep[off]) * _dyadic_factors(
            self.polarization, theta
        )
        return out


def coupling_element(kernel, r):
    """Pairwise coefficient of sigma+_m sigma-_n at separation r >= 0."""
    r = float(r)
    if np.isnan(r):
        raise ValueError("separation must not be NaN")
    if r < 0.0 or (r == 0.0 and np.signbit(r)):
        raise ValueError("separation must be nonnegative")
    return kernel.element(r)


@dataclass(frozen=True)
class ChainGeometry:
    """Regular emitter chain, optionally with weak position disorder."""

    N: int
    k1d: float
    d: float = 1.0
    gamma1d: float = 1.0
    offsets: tuple = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.d <= 0 or self.gamma1d <= 0:
            raise ValueError("d and gamma1d must be positive")
        if self.offsets is not None:
            off = tuple(float(x) for x in self.offsets)
            if len(off) != self.N:
                raise ValueError("offsets must have length N")
            if max(abs(x) for x in off) >= 0.5 * self.d:
                raise ValueError("weak-disorder regime requires |offset| < d/2")
            object.__setattr__(self, "offsets", off)
        z = self.positions
        if np.any(np.diff(z) <= 0):
            raise ValueError("positions must be strictly increasing")

    @property
    def positions(self):
        z = np.arange(self.N, dtype=float) * self.d
        if self.offsets is not None:
            z = z + np.asarray(self.offsets)
        return z

    @property
    def kd(self):
        return self.k1d * self.d

    @classmethod
    def from_kd(cls, N, kd, gamma1d=1.0, offsets=None):
        """Chain with d = 1 and the given dimensionless k1d*d."""
        return cls(N=N, k1d=kd, d=1.0, gamma1d=gamma1d, offsets=offsets)

    def default_kernel(self):
        return Waveguide1D(k1d=self.k1d, gamma1d=self.gamma1d)


class TwoExcitationBasis:
    """Bijection between ordered pairs (m,n), m<n, and flat indices 0..D-1.

    Row-major pair order, matching numpy.triu_indices(N, 1).
    """

    def __init__(self, N):
        if N < 2:
            raise ValueError("two-excitation sector needs N >= 2")
        self.N = N
        self.dim = N * (N - 1) // 2
        self.pair_m, self.pair_n = np.triu_indices(N, 1)

    def flatten(self, m, n):
        m = np.asarray(m)
        n = np.asarray(n)
        if np.any(m >= n) or np.any(m < 0) or np.any(n >= self.N):
            raise ValueError("need 0 <= m < n < N")
        idx = m * self.N - m * (m + 1) // 2 + (n - m - 1)
        return idx if idx.ndim else int(idx)

    def unflatten(self, i):
        return int(self.pair_m[i]), int(self.pair_n[i])

    def mirror(self):
        """Flat index of the mirror image (N-1-n, N-1-m) of each pair (m, n).

        The site reflection j -> N-1-j in the pair basis, an involution;
        the pairs with m + n = N - 1 are its fixed points.
        """
        N = self.N
        return self.flatten(N - 1 - self.pair_n, N - 1 - self.pair_m)

    def pair_index_matrix(self):
        # P[a,b] = flat index of pair {a,b}; diagonal left at -1
        P = np.full((self.N, self.N), -1, dtype=np.intp)
        idx = np.arange(self.dim, dtype=np.intp)
        P[self.pair_m, self.pair_n] = idx
        P[self.pair_n, self.pair_m] = idx
        return P

    def to_matrix(self, psi):
        """Pair amplitudes as a symmetric N x N matrix with zero diagonal."""
        Psi = np.zeros((self.N, self.N), dtype=complex)
        Psi[self.pair_m, self.pair_n] = psi
        Psi[self.pair_n, self.pair_m] = psi
        return Psi

    def from_matrix(self, Psi):
        return Psi[self.pair_m, self.pair_n]


def build_single_hamiltonian(chain, kernel=None):
    """One-excitation sector of H, an N x N complex symmetric matrix."""
    if kernel is None:
        kernel = chain.default_kernel()
    z = chain.positions
    return kernel.matrix(z[:, None] - z[None, :])


def build_two_hamiltonian(chain, kernel=None, basis=None):
    """Two-excitation sector with the hard-core constraint, D = N(N-1)/2.

    Pairs couple iff they share exactly one site; the matrix element is the
    kernel between the two differing sites.  Diagonal is twice the self term.
    """
    if kernel is None:
        kernel = chain.default_kernel()
    if basis is None:
        basis = TwoExcitationBasis(chain.N)
    if basis.N != chain.N:
        raise ValueError("basis.N must equal chain.N")
    N = chain.N
    V = build_single_hamiltonian(chain, kernel)
    np.fill_diagonal(V, 0.0)
    P = basis.pair_index_matrix()
    H = np.zeros((basis.dim, basis.dim), dtype=complex)
    for s in range(N):
        others = np.concatenate([np.arange(s), np.arange(s + 1, N)])
        sub = P[s, others]
        H[np.ix_(sub, sub)] += V[np.ix_(others, others)]
    np.fill_diagonal(H, 2.0 * coupling_element(kernel, 0.0))
    return H


class TwoExcitationWaveguideOp:
    """Matrix-free application of the two-excitation waveguide Hamiltonian.

    With Psi the symmetric zero-diagonal pair matrix of psi and S the
    one-excitation matrix without its diagonal,

        (H2 psi)_{m<n} = [S Psi + (S Psi)^T - i*Gamma*Psi]_{mn} ,

    and S applies in O(N) per column because exp(i k |z_m - z_n|) is
    semiseparable: forward/backward prefix sums of exp(-+ i k z) weights.
    Total cost O(N^2) per matvec against O(N^4) for the dense product.
    """

    def __init__(self, chain, basis=None):
        self.chain = chain
        self.basis = basis if basis is not None else TwoExcitationBasis(chain.N)
        if self.basis.N != chain.N:
            raise ValueError("basis.N must equal chain.N")
        self.dim = self.basis.dim
        self.gamma = chain.gamma1d
        ph = _unit_phasor(chain.k1d, chain.positions)
        self._ep = ph
        self._em = ph.conj()

    def matvec(self, psi):
        Psi = self.basis.to_matrix(psi)
        # E Psi with E_{mn} = exp(i k |z_m - z_n|), via cumulative sums;
        # the inclusive forward sum carries the n = m diagonal term
        A = self._em[:, None] * Psi
        B = self._ep[:, None] * Psi
        fwd = np.cumsum(A, axis=0)
        bwd = np.cumsum(B[::-1], axis=0)[::-1] - B
        EPsi = self._ep[:, None] * fwd + self._em[:, None] * bwd
        SPsi = -0.5j * self.gamma * (EPsi - Psi)  # remove kernel diagonal
        R = SPsi + SPsi.T - 1j * self.gamma * Psi
        return self.basis.from_matrix(R)

    __call__ = matvec

    def diagonal(self):
        """Diagonal of H2 (all entries -i*Gamma)."""
        return np.full(self.dim, -1j * self.gamma)


@dataclass(frozen=True)
class RelativeModelSpec:
    """Relative-coordinate model at fixed center-of-excitation wavenumber.

    Kd and kd are the dimensionless products K*d and k1d*d; the separation
    grid is Delta/d in {1..M} (relative model) or {+-1..+-M} (defect model).
    """

    Kd: float
    M: int
    kd: float
    gamma1d: float = 1.0

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 0.0 <= self.Kd < 2.0 * np.pi:
            raise ValueError("Kd must lie in [0, 2pi)")


def relative_grid(M):
    return np.arange(1, M + 1)


def defect_grid(M):
    return np.concatenate([np.arange(-M, 0), np.arange(1, M + 1)])


def build_relative_hamiltonian(spec):
    """H^K on Delta/d in {1..M}: the K-preserving part of H2 on the ansatz."""
    g = relative_grid(spec.M)
    H = np.zeros((spec.M, spec.M), dtype=complex)
    for eps in (1.0, -1.0):
        k_eff = spec.kd + eps * spec.Kd / 2.0
        for epsp in (1.0, -1.0):
            H += _unit_phasor(k_eff, np.abs(g[:, None] - epsp * g[None, :]))
    return -0.5j * spec.gamma1d * H


def build_defect_relative_hamiltonian(spec):
    """H^K_def on Delta/d in {+-1..+-M}; even eigenstates map to H^K at 2x."""
    g = defect_grid(spec.M)
    H = np.zeros((2 * spec.M, 2 * spec.M), dtype=complex)
    for eps in (1.0, -1.0):
        k_eff = spec.kd + eps * spec.Kd / 2.0
        H += _unit_phasor(k_eff, np.abs(g[:, None] - g[None, :]))
    return -0.25j * spec.gamma1d * H


def build_missing_site_hamiltonian(chain, site, kernel=None):
    """One-excitation Hamiltonian of the chain with one emitter removed.

    site is the 0-based index of the removed emitter; the remaining N-1
    emitters keep their original positions.
    """
    if not 0 <= site < chain.N:
        raise ValueError(f"site must be in 0..{chain.N - 1}")
    if kernel is None:
        kernel = chain.default_kernel()
    z = np.delete(chain.positions, site)
    return kernel.matrix(z[:, None] - z[None, :])


def k_delta_vector(chain, Kd, delta, basis=None, normalized=False):
    """Pair-basis amplitudes of the |K; Delta> ansatz.

    Amplitude exp(i K Z_c) on pairs (m, m+delta) with index-center
    Z_c = (m + delta/2) d; nominal lattice labels are used also for
    disordered chains.  delta counts lattice steps, 1 <= delta <= N-1.
    """
    N = chain.N
    if not 1 <= delta <= N - 1:
        raise ValueError("delta must be in 1..N-1")
    if basis is None:
        basis = TwoExcitationBasis(N)
    m = np.arange(N - delta)
    amp = np.exp(1j * Kd * (m + delta / 2.0))
    if normalized:
        amp = amp / np.sqrt(N - delta)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.flatten(m, m + delta)] = amp
    return psi


def tails_residual(chain, Kd, delta, basis=None):
    """K-conservation breaking remainder of H2 acting on |K; Delta>.

    Returns H2 |K;Delta> - sum_{Delta'} H^K_{Delta,Delta'} |K;Delta'> on the
    pair basis.  Support is confined to pairs with one member within Delta
    of either chain end (two boundary spin-wave terms).
    """
    N = chain.N
    if basis is None:
        basis = TwoExcitationBasis(N)
    op = TwoExcitationWaveguideOp(chain, basis)
    lhs = op.matvec(k_delta_vector(chain, Kd, delta, basis))
    kd, gamma = chain.kd, chain.gamma1d
    rhs = np.zeros(basis.dim, dtype=complex)
    dprime = np.arange(1, N)
    coeff = np.zeros(N - 1, dtype=complex)
    for eps in (1.0, -1.0):
        k_eff = kd + eps * Kd / 2.0
        for epsp in (1.0, -1.0):
            coeff += _unit_phasor(k_eff, np.abs(delta - epsp * dprime))
    coeff *= -0.5j * gamma
    for dp, c in zip(dprime, coeff):
        rhs += c * k_delta_vector(chain, Kd, int(dp), basis)
    return lhs - rhs
