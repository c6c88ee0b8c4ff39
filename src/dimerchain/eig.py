"""Eigensolvers for the non-Hermitian effective Hamiltonians.

Dense full decomposition (LAPACK zgeev) for small matrices, and a
shift-invert Krylov-Schur Arnoldi engine that targets the dimer
asymptotic eigenvalues of the hard-core two-excitation sector.

A clean chain is invariant under the site reflection j -> N-1-j, and so
is its pair sector under the pair mirror (m, n) -> (N-1-n, N-1-m).  The
dense solver then diagonalizes an even and an odd block of about D/2
each, a quarter of the zgeev work, and returns the eigenpairs of the
full zgeev up to round-off, normalized by zgeev's rule, with residuals
against the full matrix.

The shifted pair-sector systems are solved exactly in O(N^2) memory:
H2 is the off-diagonal block of the Kronecker sum L(X) = H1 X + X H1 on
symmetric N x N matrices, so (H2 - sigma)^{-1} is a Schur complement of
(L - sigma)^{-1}.  In the eigenbasis of H1 the latter is diagonal, one
elementwise division between GEMMs (the diagonal case of Bartels &
Stewart, CACM 15:820, 1972), and the complement is an N x N capacitance
correction (Hager, SIAM Rev. 31:221, 1989).  No D x D array is formed,
D = N(N-1)/2.  H1's eigendecomposition is the chain's
analysis.FermionicBasis, computed once per chain for every shift.

All Hamiltonians here are complex symmetric but non-normal; general
Arnoldi is used for robustness, and convergence is always judged by the
true residual ||H v - lambda v|| in the original (unshifted) problem.

The module uses numpy only, so all BLAS and LAPACK work runs in numpy's
OpenBLAS and its one thread pool: every `@`, every dense eigendecomposition
(zgeev through numpy.linalg.eig), the inverse of the capacitance matrix,
and the QR of the Ritz vectors at each Krylov-Schur restart.
"""

import time
from dataclasses import dataclass, field

import numpy as np

DENSE_CAP_DEFAULT = 6000

# the solver_mode that spectra of targeted solves record
SOLVER_MODE = "si-direct"


class RestartLimitExceeded(RuntimeError):
    """Krylov-Schur restart budget exhausted before convergence."""

    def __init__(self, msg, best_residuals=None):
        super().__init__(msg)
        self.best_residuals = best_residuals


@dataclass
class EigenPair:
    lam: complex
    vector: np.ndarray
    residual: float

    @property
    def decay_rate(self):
        return -2.0 * self.lam.imag


@dataclass
class Spectrum:
    """Eigenpairs sorted by ascending decay rate, with run metadata."""

    pairs: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pairs = sorted(self.pairs, key=lambda p: (-p.lam.imag, p.lam.real))

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    @property
    def eigenvalues(self):
        return np.array([p.lam for p in self.pairs])

    @property
    def decay_rates(self):
        return np.array([p.decay_rate for p in self.pairs])


@dataclass
class SolverConfig:
    count: int = 6
    max_subspace: int = 0  # 0 means 4*count (min 12)
    tol: float = 1e-10
    max_restarts: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_subspace and self.count > self.max_subspace:
            raise ValueError("count must not exceed max_subspace")

    @property
    def subspace(self):
        return self.max_subspace if self.max_subspace else max(4 * self.count, 12)


def _as_matvec(apply_H):
    if isinstance(apply_H, np.ndarray):
        return lambda x: apply_H @ x
    if hasattr(apply_H, "matvec"):
        return apply_H.matvec
    if callable(apply_H):
        return apply_H
    raise TypeError("apply_H must be a dense matrix or a matvec callable")


def residual_norm(apply_H, pair):
    """Recompute ||H v - lambda v||_2 for an eigenpair."""
    mv = _as_matvec(apply_H)
    return float(np.linalg.norm(mv(pair.vector) - pair.lam * pair.vector))


def eig_dense_all(H, cap=DENSE_CAP_DEFAULT, mirror=None):
    """All eigenpairs of a dense matrix, with per-pair true residuals.

    mirror is an involution img of the basis indices under which H is
    exactly invariant, H[img][:, img] == H; for a clean chain's pair
    sector it is TwoExcitationBasis.mirror().  H is then diagonalized as
    an even and an odd block of about half the size (see
    _mirror_sectors), which the metadata records as "mirror_sectors":
    [n_even, n_odd].  A matrix that is not invariant raises ValueError.
    """
    H = np.asarray(H)
    n = H.shape[0]
    if H.shape != (n, n):
        raise ValueError("H must be square")
    if n > cap:
        raise ValueError(f"dimension {n} exceeds dense cap {cap}")
    t0 = time.perf_counter()
    md = {"solver_mode": "dense", "dim": n}
    if mirror is None:
        lam, vecs = np.linalg.eig(H.astype(complex, copy=False))
    else:
        lam, vecs, md["mirror_sectors"] = _mirror_sectors(H, mirror)
    # unit vectors; residuals against the full H, a quarter of the columns
    # per GEMM, so the temporaries stay at half the size of vecs
    res = np.empty(n)
    step = max(1, -(-n // 4))
    for c in range(0, n, step):
        s = slice(c, c + step)
        R = H @ vecs[:, s]
        R -= vecs[:, s] * lam[s]
        res[s] = np.linalg.norm(R, axis=0)
    del R
    pairs = [EigenPair(complex(l), vecs[:, i].copy(), float(res[i]))
             for i, l in enumerate(lam)]
    md["wall_time"] = time.perf_counter() - t0
    return Spectrum(pairs, md)


# matrix elements compared per chunk of rows in the mirror check
_CHECK_CHUNK = 1 << 17


def _mirror_sectors(H, mirror):
    """Eigenpairs of a mirror-invariant H from its even and odd blocks.

    With a < img(a) one index of each swapped pair and f the fixed
    indices, the orthogonal columns (e_a + e_img(a))/sqrt(2), e_f (even)
    and (e_a - e_img(a))/sqrt(2) (odd) block-diagonalize H (Cantoni &
    Butler, Linear Algebra Appl. 13:275, 1976); H[img][:, img] == H makes
    both blocks index arithmetic on H.  Each block goes through zgeev, and
    the scattered vectors get zgeev's normalization back: unit norm (an
    orthogonal scatter keeps it), the first largest-modulus component
    real and positive.  Returns
    (eigenvalues, D x D vectors, [n_even, n_odd]).
    """
    n = H.shape[0]
    img = np.asarray(mirror)
    idx = np.arange(n)
    if img.shape != (n,) or not np.array_equal(np.sort(img), idx) \
            or not np.array_equal(img[img], idx):
        raise ValueError("mirror must be an involution of the basis indices")
    step = max(1, _CHECK_CHUNK // n)
    for r in range(0, n, step):
        if not np.array_equal(H[r:r + step], H[img[r:r + step]][:, img]):
            raise ValueError("H is not invariant under the mirror")
    a = idx[idx < img]
    b = img[a]
    f = idx[idx == img]
    na, ne = len(a), len(a) + len(f)
    root2 = np.sqrt(2.0)

    # H[b, b'] = H[a, a'] and H[b, a'] = H[a, b'], so the even block is
    # H[a, a'] + H[a, b'] and the odd block H[a, a'] - H[a, b'].  Each
    # block is freed once used, to keep the peak memory down
    odd = H[np.ix_(a, a)]
    Hab = H[np.ix_(a, b)]
    even = np.empty((ne, ne), dtype=complex)
    np.add(odd, Hab, out=even[:na, :na])
    even[:na, na:] = root2 * H[np.ix_(a, f)]
    even[na:, :na] = root2 * H[np.ix_(f, a)]
    even[na:, na:] = H[np.ix_(f, f)]
    odd -= Hab
    del Hab
    lam_e, Ye = np.linalg.eig(even)
    del even
    lam_o, Yo = np.linalg.eig(odd.astype(complex, copy=False))  # empty for N = 2
    del odd
    vecs = np.zeros((n, n), dtype=complex)
    half = Ye[:na] / root2
    vecs[a, :ne] = half
    vecs[b, :ne] = half
    vecs[f, :ne] = Ye[na:]
    half = Yo / root2
    vecs[a, ne:] = half
    vecs[b, ne:] = -half
    del Ye, Yo, half

    # the block vectors are unit vectors and the scatter is orthogonal;
    # zgeev's phase rule is taken again on the full vector, where a
    # swapped pair ties in modulus and the first of the two wins, as in
    # LAPACK's idamax
    k = np.argmax(np.abs(vecs), axis=0)
    top = vecs[k, idx]
    vecs *= np.conj(top) / np.abs(top)
    vecs[k, idx] = vecs[k, idx].real
    return np.concatenate([lam_e, lam_o]), vecs, [ne, n - ne]


def _make_shift_solver(ferm, sigma):
    """x -> (H2 - sigma)^{-1} x on pair amplitudes, exact.

    H2 is the hard-core two-excitation sector of a complex symmetric
    one-excitation Hamiltonian H1, in the row-major pair order of
    numpy.triu_indices(N, 1).  ferm is the chain's analysis.FermionicBasis,
    whose values, vectors and inverse give H1 = V diag(lam) W, W = V^{-1}.
    Set-up is the inverse of an N x N capacitance matrix built from N
    GEMMs; each apply is six N x N GEMMs and one N x N matrix-vector
    product.  The returned callable carries its shift as .sigma.
    """
    lam, V, W = ferm.values, ferm.vectors, ferm.inverse
    N = lam.shape[0]
    sigma = complex(sigma)
    # H1 = H1^T gives L(V Z V^T) = V [(lam_i + lam_j) Z_ij] V^T
    Dinv = 1.0 / (lam[:, None] + lam[None, :] - sigma)

    # capacitance G[a, b] = diag((L - sigma)^{-1} e_b e_b^T)[a]: the block
    # of the inverse on the N double-occupancy coordinates H2 leaves out
    G = np.zeros((N, N), dtype=complex)
    for i in range(N):
        G += np.outer(V[:, i], W[i]) * ((V * Dinv[i]) @ W)
    Ginv = np.linalg.inv(G)
    iu = np.triu_indices(N, 1)

    def solve(x):
        X = np.zeros((N, N), dtype=complex)
        X[iu] = x
        X.T[iu] = x
        # (L - sigma)^{-1} X = V Z V^T; then the Schur complement cancels
        # the diagonal it fills in, so the result solves the hard-core problem
        VZ = V @ ((W @ X @ W.T) * Dinv)
        c = Ginv @ np.einsum("ai,ai->a", VZ, V)
        VZ -= V @ (((W * c) @ W.T) * Dinv)
        return (VZ @ V.T)[iu]

    solve.sigma = sigma
    return solve


def _arnoldi_extend(T, V, S, k, m):
    """Extend a Krylov-Schur factorization T V_k ~ V_k S + spike to order m."""
    for j in range(k, m):
        w = T(V[:, j])
        # classical Gram-Schmidt, V^H w taken as conj(w^H V) so that the
        # basis is never copied
        h = np.conj(np.conj(w) @ V[:, : j + 1])
        w = w - V[:, : j + 1] @ h
        # one reorthogonalization pass keeps the basis orthonormal
        h2 = np.conj(np.conj(w) @ V[:, : j + 1])
        w = w - V[:, : j + 1] @ h2
        h = h + h2
        beta = np.linalg.norm(w)
        S[: j + 1, j] = h
        S[j + 1, j] = beta
        if beta < 1e-14:
            return j + 1  # invariant subspace found
        V[:, j + 1] = w / beta
    return m


def eig_target(apply_H, dim, config, solve, v0=None):
    """`count` eigenpairs of H nearest the shift of `solve`.

    apply_H is a dense matrix or a matvec (closure or object with
    .matvec) used for the true residuals ||H v - lambda v||.  solve
    applies (H - solve.sigma)^{-1}, as made by _make_shift_solver; one
    solver serves every call at the same shift.  v0 overrides the seeded
    random starting vector (warm starts across a sweep).
    """
    t0 = time.perf_counter()
    sigma = solve.sigma
    mv = _as_matvec(apply_H)
    if dim == 1:
        e1 = np.ones(1, dtype=complex)
        lam = complex(mv(e1)[0])
        return Spectrum([EigenPair(lam, e1, 0.0)],
                        {"solver_mode": SOLVER_MODE, "dim": 1, "target": sigma,
                         "wall_time": time.perf_counter() - t0})
    m = min(config.subspace, dim - 1)
    count = min(config.count, max(1, m - 1))

    if v0 is None:
        rng = np.random.default_rng(config.seed)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        v0 = np.asarray(v0, dtype=complex).reshape(-1)
        if v0.shape[0] != dim or not np.linalg.norm(v0) > 0:
            raise ValueError("v0 must be a nonzero vector of length dim")
    V = np.zeros((dim, m + 1), dtype=complex)
    S = np.zeros((m + 1, m), dtype=complex)
    V[:, 0] = v0 / np.linalg.norm(v0)

    k = 0
    best = None
    n_solves = 0
    for restart in range(config.max_restarts + 1):
        reached = _arnoldi_extend(solve, V, S, k, m)
        n_solves += reached - k
        A = S[:reached, :reached]
        theta, Y = np.linalg.eig(A)
        order = np.argsort(-np.abs(theta), kind="stable")
        sel = order[: min(count, reached)]
        X = V[:, :reached] @ Y[:, sel]
        X /= np.linalg.norm(X, axis=0)
        lam = sigma + 1.0 / theta[sel]
        # one column at a time: no D x count temporaries
        res = np.array([np.linalg.norm(mv(X[:, i]) - lam[i] * X[:, i])
                        for i in range(X.shape[1])])
        best = (lam, X, res)
        converged = len(sel) >= count and np.all(res <= config.tol)
        if converged or reached < m:  # reached < m: an invariant subspace
            pairs = [EigenPair(complex(lam[i]), X[:, i].copy(), float(res[i]))
                     for i in range(len(sel))]
            meta = {"solver_mode": SOLVER_MODE, "dim": dim, "target": sigma,
                    "restarts": restart, "op_solves": n_solves,
                    "wall_time": time.perf_counter() - t0}
            if not converged:
                meta["invariant"] = True
            return Spectrum(pairs, meta)
        if restart == config.max_restarts:
            break

        # Krylov-Schur restart (Stewart, SIAM J. Matrix Anal. Appl. 23:601,
        # 2001) from the p dominant Ritz vectors: with Y_p = Z R, A Z =
        # Z (R Theta_p R^{-1}), so the orthonormal Z spans the same invariant
        # subspace and Z^H A Z is an upper triangular Schur factor with the
        # dominant Ritz values on its diagonal (Morgan, Math. Comp. 65:1213,
        # 1996).  Equal moduli at the split go to the stable argsort
        p = min(max(count + 2, (m + 1) // 2), m - 1)
        Z, _ = np.linalg.qr(Y[:, order[:p]])
        Ts = Z.conj().T @ A @ Z  # before S is cleared: A is a view of S
        b = S[m, :m] @ Z  # transformed spike row
        V[:, :p] = V[:, :m] @ Z
        V[:, p] = V[:, m]
        S[:, :] = 0.0
        S[:p, :p] = Ts
        S[p, :p] = b
        k = p

    lam, X, res = best
    raise RestartLimitExceeded(
        f"no convergence after {config.max_restarts} restarts; "
        f"best residuals {np.sort(res)[:3]}",
        best_residuals=res,
    )


def nearest_match(values, targets):
    """Indices into `values` of the nearest value for each target (a list).

    Equally near values break the tie toward smaller decay.
    """
    values = np.asarray(values)
    out = []
    for t in np.atleast_1d(targets):
        d = np.abs(values - t)
        i = int(np.argmin(d))
        close = np.where(np.abs(d - d[i]) < 1e-12 * max(1.0, abs(t)))[0]
        if len(close) > 1:
            i = int(close[np.argmax([values[j].imag for j in close])])
        out.append(i)
    return out
