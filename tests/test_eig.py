"""Eigensolvers: dense reference and the structured shift-invert
Krylov-Schur solver of the two-excitation sector.

Targeted solves are validated against the full dense spectrum on sizes
where both are cheap; determinism and shift invariance are contract
tests for the experiment runner.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import linear_sum_assignment

from dimerchain import analysis, theory
from dimerchain.eig import (
    EigenPair,
    RestartLimitExceeded,
    SolverConfig,
    Spectrum,
    _arnoldi_extend,
    _make_shift_solver,
    eig_dense_all,
    eig_target,
    nearest_match,
    residual_norm,
)
from dimerchain.experiments import runner
from dimerchain.experiments.config import RunConfig, parse_config
from dimerchain.experiments.runner import disorder_offsets
from dimerchain.model import (
    ChainGeometry,
    TwoExcitationBasis,
    TwoExcitationWaveguideOp,
    build_single_hamiltonian,
    build_two_hamiltonian,
)


def two_exc(N, kd_pi):
    chain = ChainGeometry.from_kd(N, kd_pi * np.pi)
    return chain, build_two_hamiltonian(chain)


def targeted(chain, sigma, cfg, v0=None):
    """Structured shift-invert solve of the chain's two-excitation sector."""
    op = TwoExcitationWaveguideOp(chain)
    solve = _make_shift_solver(analysis.fermionic_basis(chain), sigma)
    return eig_target(op, op.dim, cfg, solve, v0=v0)


def nearest_dense(full, sigma, count):
    return np.array(sorted(full.eigenvalues, key=lambda l: abs(l - sigma))[:count])


# ------------------------------------------------------------ dense


def test_dense_one_by_one():
    spec = eig_dense_all(np.array([[-0.5j]]))
    assert len(spec) == 1
    assert spec[0].lam == -0.5j and spec[0].residual == 0.0


def test_dense_two_emitters():
    phi = 0.2 * np.pi
    H = build_single_hamiltonian(ChainGeometry.from_kd(2, phi))
    spec = eig_dense_all(H)
    want = sorted([-0.5j * (1 - np.exp(1j * phi)), -0.5j * (1 + np.exp(1j * phi))],
                  key=lambda l: -l.imag)
    assert np.allclose(spec.eigenvalues, want, atol=1e-14)
    # most subradiant first
    assert spec[0].decay_rate < spec[1].decay_rate


def test_dense_sorting_and_residuals():
    _, H2 = two_exc(20, 0.2)
    spec = eig_dense_all(H2)
    rates = spec.decay_rates
    assert np.all(np.diff(rates) >= -1e-14)
    assert max(p.residual for p in spec.pairs) < 1e-11
    for p in spec.pairs[:5]:
        assert residual_norm(H2, p) == pytest.approx(p.residual, abs=1e-13)
    assert spec.meta["solver_mode"] == "dense"
    assert spec.meta["dim"] == 190
    assert spec.meta["wall_time"] > 0


def test_dense_full_two_exc_spectrum_n50():
    # D = 1225 states; the global invariants pin the whole spectrum
    chain, H2 = two_exc(50, 0.2)
    spec = eig_dense_all(H2)
    assert len(spec) == 1225
    lam = spec.eigenvalues
    assert abs(lam.sum() - np.trace(H2)) < 1e-9
    assert np.max(lam.imag) < 1e-10  # all states decay
    assert np.min(-2 * lam.imag) < 1e-3  # subradiant branch present


@pytest.mark.parametrize("kd_over_pi", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("N", [2, 3, 12, 40])
def test_dense_mirror_sectors(N, kd_over_pi):
    # the even and odd blocks of the pair mirror give the full spectrum,
    # with true residuals and zgeev's vector normalization
    _, H2 = two_exc(N, kd_over_pi)
    img = TwoExcitationBasis(N).mirror()
    full = eig_dense_all(H2)
    split = eig_dense_all(H2, mirror=img)
    D = H2.shape[0]
    n_even = (D + N // 2) // 2  # the N // 2 pairs m + n = N - 1 are even
    assert split.meta["mirror_sectors"] == [n_even, D - n_even]
    want, got = full.eigenvalues, split.eigenvalues
    rows, cols = linear_sum_assignment(np.abs(want[:, None] - got[None, :]))
    assert np.max(np.abs(want[rows] - got[cols])) <= 1e-12 * np.max(np.abs(want))
    V = np.column_stack([p.vector for p in split.pairs])
    R = H2 @ V - V * got[None, :]
    assert np.max(np.linalg.norm(R, axis=0)) <= 1e-11
    assert max(p.residual for p in split.pairs) <= 1e-11
    parity = np.sum(np.conj(V[img]) * V, axis=0)
    assert np.allclose(np.abs(parity), 1.0, atol=1e-12)
    assert np.sum(parity.real > 0) == n_even
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-13)
    top = V[np.argmax(np.abs(V), axis=0), np.arange(D)]
    assert np.all(top.imag == 0.0) and np.all(top.real > 0.0)


def test_dense_mirror_rejects_asymmetric_input():
    N = 12
    img = TwoExcitationBasis(N).mirror()
    offsets = disorder_offsets(3, 0, N, 0.1)
    disordered = build_two_hamiltonian(
        ChainGeometry.from_kd(N, 0.2 * np.pi, offsets=offsets))
    with pytest.raises(ValueError):
        eig_dense_all(disordered, mirror=img)
    _, H2 = two_exc(N, 0.2)
    with pytest.raises(ValueError):  # not an involution
        eig_dense_all(H2, mirror=np.roll(np.arange(H2.shape[0]), 1))


def test_dense_eigendecompositions_avoid_scipy_eig(monkeypatch):
    # every dense eigendecomposition runs in numpy's LAPACK, whose BLAS
    # threads are the ones every `@` uses; scipy's own copy would compete
    reference = {N: sla.eig(two_exc(N, 0.2)[1])[0] for N in (2, 12)}

    def no_scipy_eig(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig called")

    monkeypatch.setattr(sla, "eig", no_scipy_eig)
    for N, want in reference.items():
        _, H2 = two_exc(N, 0.2)
        # N = 2 has one pair, its own mirror image: the odd block is empty
        for mirror in (None, TwoExcitationBasis(N).mirror()):
            got = eig_dense_all(H2, mirror=mirror).eigenvalues
            rows, cols = linear_sum_assignment(
                np.abs(want[:, None] - got[None, :]))
            assert len(rows) == len(want) == len(got)
            assert np.max(np.abs(want[rows] - got[cols])) \
                <= 1e-12 * np.max(np.abs(want))
    check_inverts_the_pair_sector(ChainGeometry.from_kd(12, 0.2 * np.pi))
    chain = ChainGeometry.from_kd(30, 0.1676 * np.pi)
    cfg = RunConfig(experiment="scaling")
    for dimer_type in ("I", "II"):
        pair, cls, _ = runner.find_dimer(chain, dimer_type, cfg)
        assert cls.label == f"Dimer{dimer_type}"
        assert pair.residual <= cfg.solver.tol
    records, _, _, (_, summary, _) = runner._spectrum_point(
        (12, 0.2, 0.2 * np.pi), RunConfig(experiment="spectrum"))
    assert len(records) == summary["states"] == 66
    assert summary["mirror_sectors"] == [36, 30]


def test_one_h1_eigendecomposition_per_chain(monkeypatch):
    # a chain's shift solvers, classifier, one-excitation minimum and
    # fermionic baseline all read one analysis.fermionic_basis: every point
    # function diagonalizes each chain's N x N H1 exactly once.  The Ritz
    # matrices of the targeted solves are 24 x 24 or 96 x 96 here
    shapes = []
    for name in ("eig", "eigvals"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def h1_calls(run, *Ns):
        shapes.clear()
        run()
        return [shapes.count((N, N)) for N in Ns]

    kd = 0.1676 * np.pi
    cfg = parse_config({"experiment": "scaling", "N": [30, 34],
                        "kd_over_pi": [0.1676]})
    assert h1_calls(lambda: runner._scaling_series((0.1676, kd), cfg),
                    30, 34) == [1, 1]
    cfg = parse_config({"experiment": "phase-diagram", "N": [40],
                        "kd_over_pi": [0.2]})
    assert h1_calls(lambda: runner._phase_point((40, 0.2, 0.2 * np.pi), cfg),
                    40) == [1]
    cfg = parse_config({"experiment": "disorder", "N": [36], "seed": 3,
                        "kd_over_pi": [0.1676],
                        "disorder": {"delta": 0.01, "samples": 1}})
    for sample in (-1, 0):
        assert h1_calls(lambda: runner._disorder_point(
            (36, 0.1676, kd, sample), cfg), 36) == [1]
    cfg = parse_config({"experiment": "spectrum", "N": [72],
                        "kd_over_pi": [0.2], "solver": {"fallback": True}})
    assert h1_calls(lambda: runner._spectrum_point((72, 0.2, 0.2 * np.pi), cfg),
                    72) == [1]


def test_program_runs_without_scipy():
    # scipy is a test dependency only: the runner and a targeted solve must
    # not import it, in a fresh interpreter that has not seen the tests
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dimerchain.experiments import runner\n"
        "from dimerchain.experiments.config import RunConfig\n"
        "from dimerchain.model import ChainGeometry\n"
        "chain = ChainGeometry.from_kd(20, 0.1676 * np.pi)\n"
        "pair, _, _ = runner.find_dimer(chain, 'I', RunConfig(experiment='scaling'))\n"
        "assert pair is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.normpath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_dense_cap_enforced():
    with pytest.raises(ValueError):
        eig_dense_all(np.eye(11, dtype=complex), cap=10)
    with pytest.raises(ValueError):
        eig_dense_all(np.ones((3, 4), dtype=complex))


# ------------------------------------------------------------ targeted


def test_target_dim_one():
    # N = 2 has the single pair state (0, 1), with eigenvalue -i*Gamma
    chain = ChainGeometry.from_kd(2, 0.25 * np.pi)
    spec = targeted(chain, 0.0, SolverConfig())
    assert len(spec) == 1 and spec[0].lam == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("residuals", ["dense-H2", "fast-matvec"])
def test_target_matches_dense(residuals):
    # N = 48 at the shallow-dip wavenumber; target the type-I dimer line.
    # The structured shift solver is the same in both cases; the residuals
    # are taken with the dense H2 or the fast matvec
    kd = 0.1676 * np.pi
    chain, H2 = two_exc(48, 0.1676)
    sigma = 2.0 / np.tan(kd)
    cfg = SolverConfig(count=6)
    solve = _make_shift_solver(analysis.fermionic_basis(chain), sigma)
    if residuals == "fast-matvec":
        op = TwoExcitationWaveguideOp(chain)
        spec = eig_target(op, op.dim, cfg, solve)
    else:
        spec = eig_target(H2, H2.shape[0], cfg, solve)
    full = eig_dense_all(H2)
    got = spec.eigenvalues
    for w in nearest_dense(full, sigma, 6):
        assert np.min(np.abs(got - w)) < 1e-9
    assert max(p.residual for p in spec.pairs) < 1e-9
    assert all(residual_norm(H2, p) < 1e-9 for p in spec.pairs)
    assert spec.meta["solver_mode"] == "si-direct"


@pytest.mark.parametrize("kd_over_pi", [0.1, 0.1676, 0.2, 0.25, 0.3, 0.45])
def test_target_matches_dense_kd_grid(kd_over_pi):
    # N = 48 at both dimer shifts, near and across the EPR point pi/4
    chain, H2 = two_exc(48, kd_over_pi)
    full = eig_dense_all(H2)
    cfg = SolverConfig(count=6)
    for dimer_type in ("I", "II"):
        sigma = theory.asymptotic_dimer(chain.kd, dimer_type).omega
        spec = targeted(chain, sigma, cfg)
        for w in nearest_dense(full, sigma, 6):
            assert np.min(np.abs(spec.eigenvalues - w)) <= 1e-10
        for p in spec.pairs:
            assert p.residual <= cfg.tol
            assert residual_norm(H2, p) <= cfg.tol
        assert spec.meta["solver_mode"] == "si-direct"
        assert spec.meta["target"] == sigma


def test_target_matches_dense_disordered():
    # the solver needs only a symmetric H1: position disorder included
    kd = 0.1676 * np.pi
    offsets = np.random.default_rng(5).uniform(-0.01, 0.01, 48)
    chain = ChainGeometry.from_kd(48, kd, offsets=tuple(offsets))
    H2 = build_two_hamiltonian(chain)
    full = eig_dense_all(H2)
    cfg = SolverConfig(count=6)
    for dimer_type in ("I", "II"):
        sigma = theory.asymptotic_dimer(kd, dimer_type).omega
        spec = targeted(chain, sigma, cfg)
        for w in nearest_dense(full, sigma, 6):
            assert np.min(np.abs(spec.eigenvalues - w)) <= 1e-10
        assert all(residual_norm(H2, p) <= cfg.tol for p in spec.pairs)


def check_inverts_the_pair_sector(chain):
    H2 = build_two_hamiltonian(chain)
    sigma = 0.3 - 0.01j
    solve = _make_shift_solver(analysis.fermionic_basis(chain), sigma)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(H2.shape[0]) + 1j * rng.standard_normal(H2.shape[0])
    want = np.linalg.solve(H2 - sigma * np.eye(H2.shape[0]), x)
    assert np.linalg.norm(solve(x) - want) <= 1e-11 * np.linalg.norm(want)
    assert solve.sigma == sigma


def test_shift_solver_inverts_the_pair_sector():
    check_inverts_the_pair_sector(ChainGeometry.from_kd(12, 0.2 * np.pi))


@pytest.mark.parametrize("N,kd_over_pi,delta", [
    (N, kd, 0.0) for N in (2, 3, 30) for kd in (0.02, 0.25, 0.49)
] + [(30, 0.1676, 0.1)])
def test_shift_solver_inverts_across_sizes_and_kd(N, kd_over_pi, delta):
    # delta > 0: a disordered chain, whose H1 is still complex symmetric
    offsets = disorder_offsets(3, 0, N, delta) if delta else None
    check_inverts_the_pair_sector(
        ChainGeometry.from_kd(N, kd_over_pi * np.pi, offsets=offsets))


def test_shift_solver_residual_at_n300():
    # D = 44850: one D x D complex array would be 32 GB, so the check goes
    # through the fast matvec, and the whole solve stays O(N^2) in memory.
    # Near an eigenvalue ||y|| >> ||x||, so the residual is relative to y
    kd = 0.1676 * np.pi
    chain = ChainGeometry.from_kd(300, kd)
    op = TwoExcitationWaveguideOp(chain)
    ferm = analysis.fermionic_basis(chain)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    for dimer_type in ("I", "II"):
        sigma = theory.asymptotic_dimer(kd, dimer_type).omega
        tracemalloc.start()
        try:
            y = _make_shift_solver(ferm, sigma)(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = op.matvec(y) - sigma * y - x
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(y)
        assert peak < 64e6


@pytest.mark.parametrize("kd_over_pi", [0.24, 0.25, 0.26, 0.45])
def test_target_many_restarts_match_dense(kd_over_pi):
    # a subspace of 10 for 4 pairs forces Krylov-Schur restarts at both
    # dimer shifts, near the EPR point pi/4 and close to pi/2
    chain, H2 = two_exc(40, kd_over_pi)
    full = eig_dense_all(H2, mirror=TwoExcitationBasis(40).mirror())
    cfg = SolverConfig(count=4, max_subspace=10)
    for dimer_type in ("I", "II"):
        sigma = theory.asymptotic_dimer(chain.kd, dimer_type).omega
        spec = targeted(chain, sigma, cfg)
        assert spec.meta["restarts"] > 0
        for w in nearest_dense(full, sigma, 4):
            assert np.min(np.abs(spec.eigenvalues - w)) <= cfg.tol
        assert all(p.residual <= cfg.tol for p in spec.pairs)


@pytest.mark.parametrize("count,m", [(3, 9), (4, 13)])
def test_target_restart_split_at_tied_ritz_moduli(count, m):
    # H = diag(sigma + d) with d in +-pairs 1, 1.05j, 1.1, ...: a start
    # vector even under the pair swap keeps the Krylov space invariant
    # under it, so the Ritz values of (H - sigma)^{-1} come in +-pairs of
    # equal modulus, and the restart keeps p of them, splitting a pair
    n = 40
    mod = 1.0 + 0.05 * np.arange(n)
    d = np.empty(2 * n, dtype=complex)
    d[0::2] = mod * 1j ** np.arange(n)
    d[1::2] = -d[0::2]
    sigma = 0.3 - 0.2j

    def solve(x):
        return x / d

    solve.sigma = sigma
    v0 = np.ones(2 * n, dtype=complex)
    V = np.zeros((2 * n, m + 1), dtype=complex)
    S = np.zeros((m + 1, m), dtype=complex)
    V[:, 0] = v0 / np.linalg.norm(v0)
    assert _arnoldi_extend(solve, V, S, 0, m) == m
    moduli = np.sort(np.abs(np.linalg.eigvals(S[:m, :m])))[::-1]
    p = min(max(count + 2, (m + 1) // 2), m - 1)
    assert abs(moduli[p - 1] - moduli[p]) <= 1e-14 * moduli[p]

    cfg = SolverConfig(count=count, max_subspace=m)
    spec = eig_target(np.diag(sigma + d), 2 * n, cfg, solve, v0=v0)
    assert spec.meta["restarts"] > 0
    dist = np.sort(np.abs(spec.eigenvalues - sigma))
    assert np.allclose(dist, np.sort(np.abs(d))[:count], rtol=0, atol=cfg.tol)
    for lam in spec.eigenvalues:
        assert np.min(np.abs(sigma + d - lam)) <= cfg.tol


def test_target_shift_invariance():
    chain = ChainGeometry.from_kd(30, 0.25 * np.pi)
    lam = {}
    for ds in (0.0, 0.01):
        spec = targeted(chain, 0.0 + ds, SolverConfig(count=4))
        key = np.argsort(np.abs(spec.eigenvalues))
        lam[ds] = spec.eigenvalues[key]
    assert np.max(np.abs(lam[0.0] - lam[0.01])) < 1e-9


def test_target_deterministic_rerun():
    chain = ChainGeometry.from_kd(24, 0.2 * np.pi)
    cfg = SolverConfig(count=4, seed=11)
    sigma = 2.0 / np.tan(0.2 * np.pi)
    a = targeted(chain, sigma, cfg)
    b = targeted(chain, sigma, cfg)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    for pa, pb in zip(a.pairs, b.pairs):
        assert pa.vector.tobytes() == pb.vector.tobytes()


def test_target_warm_start_converges():
    chain = ChainGeometry.from_kd(24, 0.25 * np.pi)
    cfg = SolverConfig(count=4)
    spec = targeted(chain, 0.0, cfg)
    again = targeted(chain, 0.0, cfg, v0=spec[0].vector)
    assert np.min(np.abs(again.eigenvalues - spec[0].lam)) < 1e-10


def test_target_v0_validation():
    chain = ChainGeometry.from_kd(10, 0.25 * np.pi)
    dim = TwoExcitationBasis(10).dim
    with pytest.raises(ValueError):
        targeted(chain, 0.0, SolverConfig(), v0=np.zeros(dim))
    with pytest.raises(ValueError):
        targeted(chain, 0.0, SolverConfig(), v0=np.ones(3))


def test_target_restart_limit():
    chain = ChainGeometry.from_kd(14, 0.2 * np.pi)
    cfg = SolverConfig(count=6, tol=1e-14, max_restarts=0, max_subspace=7)
    with pytest.raises(RestartLimitExceeded):
        targeted(chain, 0.0, cfg)


def test_target_invariant_subspace_exit():
    # a start vector on three eigenvectors closes the Krylov space after
    # three steps: asked for four pairs, the solver returns those three,
    # flagged "invariant"; asked for two, it converges without the flag
    d = np.arange(1.0, 21.0) - 0.1j

    def solve(x):
        return x / d

    solve.sigma = 0.0
    v0 = np.zeros(20, dtype=complex)
    v0[[0, 4, 9]] = 1.0
    closed = eig_target(np.diag(d), 20, SolverConfig(count=4), solve, v0=v0)
    assert closed.meta["invariant"] is True
    assert np.sort(closed.eigenvalues.real) == pytest.approx([1.0, 5.0, 10.0])
    assert all(p.residual <= 1e-10 for p in closed.pairs)
    converged = eig_target(np.diag(d), 20, SolverConfig(count=2), solve, v0=v0)
    assert set(closed.meta) == set(converged.meta) | {"invariant"}
    assert np.sort(converged.eigenvalues.real) == pytest.approx([1.0, 5.0])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(count=8, max_subspace=4)
    assert SolverConfig(count=2).subspace == 12
    assert SolverConfig(count=6).subspace == 24


# ------------------------------------------------------------ helpers


def test_residual_norm_detects_perturbation():
    _, H2 = two_exc(12, 0.25)
    spec = eig_dense_all(H2)
    p = spec[0]
    eps = 1e-6
    bad = EigenPair(p.lam + eps, p.vector, p.residual)
    assert residual_norm(H2, bad) == pytest.approx(eps, rel=1e-3)


def test_nearest_match():
    vals = np.array([1.0 + 0j, 2.0 - 1j, -3.0 + 0.5j])
    assert nearest_match(vals, 1.9 - 1.2j) == [1]
    assert nearest_match(vals, [1.1, -2.9 + 0.4j]) == [0, 2]


def test_spectrum_sorting_contract():
    pairs = [EigenPair(1.0 - 0.5j, np.ones(1), 0.0),
             EigenPair(-1.0 - 0.1j, np.ones(1), 0.0),
             EigenPair(0.0 - 0.1j, np.ones(1), 0.0)]
    spec = Spectrum(pairs)
    assert [p.lam for p in spec.pairs] == [-1.0 - 0.1j, 0.0 - 0.1j, 1.0 - 0.5j]
