"""Acceptance gate: the headline physics results at desk scale.

One test per criterion, in order:

  A1  exact confinement-localization mapping identities on a (M, K, kd) grid
  A2  DimerI energies converge to 2 cot(kd) with chain size
  A3  geometric separation profiles: cos^2(kd) per d (DimerI),
      cos^2(2kd) per 2d (DimerII), odd separations suppressed
  A4  EPR point kd = pi/4: DimerII pinned to separation 2d at omega = 0
  A5  decay-rate scaling exponents (one-exc -3, DimerI -2, DimerII <= -3)
  A6  first chain size where a DimerII outlives every one-excitation state
  A7  period-4 modulation of DimerII rates at kd = pi/4
  A8  defect-localized states: exponential rate vs N, symmetric site scan,
      secular equation against dense numerics
  A9  the subradiance dip near kd = pi/6 survives position disorder
  A10 free-space chains: defect-localized states with N-converged rates
  A11 semiseparable fast apply: exact, fast, deterministic

Each test appends a single PASS/FAIL line to the terminal summary
(printed by the conftest hook).  Heavy shared computations live in
module-scoped fixtures.  Everything is in natural units gamma1D = 1.
"""

import csv
import json
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from dimerchain import analysis, eig, theory
from dimerchain.experiments import runner
from dimerchain.experiments.config import DisorderSettings, RunConfig
from dimerchain.model import (
    ChainGeometry,
    TwoExcitationBasis,
    TwoExcitationWaveguideOp,
    build_missing_site_hamiltonian,
    build_single_hamiltonian,
    build_two_hamiltonian,
)


def _run(tag, body):
    """Append one verdict line per criterion, even on a crash."""
    try:
        ok, detail = body()
    except Exception as exc:
        ACCEPTANCE_LINES.append(f"[{tag}] FAIL - raised {type(exc).__name__}: {exc}")
        raise
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# --------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def dimer_states_n100():
    """Targeted DimerI / DimerII eigenpairs at N = 100, kd/pi in {0.2, 0.25},
    with their K-Delta decompositions (shared by A3 and A4)."""
    cfg = RunConfig(experiment="spectrum", seed=0,
                    solver=eig.SolverConfig())
    N = 100
    out = {}
    for kd_over_pi in (0.2, 0.25):
        chain = ChainGeometry.from_kd(N, kd_over_pi * np.pi)
        ferm = analysis.fermionic_basis(chain)
        for dimer_type in ("I", "II"):
            pair, cls, _ = runner.find_dimer(chain, dimer_type, cfg,
                                             ferm=ferm)
            if pair is None:
                raise RuntimeError(
                    f"Dimer{dimer_type} not found at kd = {kd_over_pi} pi")
            dec = analysis.k_delta_decompose(pair.vector, chain)
            out[(kd_over_pi, dimer_type)] = (pair, cls, dec)
    return out


@pytest.fixture(scope="module")
def scaling_run(tmp_path_factory):
    """Full scaling sweep at kd = 0.1676 pi, N = 50..150 step 10 (A5)."""
    cfg = RunConfig(experiment="scaling", N=tuple(range(50, 151, 10)),
                    kd_over_pi=(0.1676,), seed=7,
                    solver=eig.SolverConfig(),
                    out=str(tmp_path_factory.mktemp("scaling")))
    t0 = time.perf_counter()
    paths = runner.cmd_scaling(cfg)
    wall = time.perf_counter() - t0
    with open(paths["meta"]) as fh:
        return json.load(fh), wall


@pytest.fixture(scope="module")
def dimer_ii_rates_consecutive():
    """Most subradiant DimerII rate for every N = 60..120 at kd = pi/4,
    warm-starting each size from the previous eigenvector (A7)."""
    kd = 0.25 * np.pi
    cfg = RunConfig(experiment="scaling", seed=0,
                    solver=eig.SolverConfig())
    sizes = np.arange(60, 121)
    rates, prev = [], None
    for N in sizes:
        chain = ChainGeometry.from_kd(N, kd)
        v0 = None
        if prev is not None:
            v0 = runner._embed_pair_vector(prev[0], prev[1], N)
        pair, _, _ = runner.find_dimer(chain, "II", cfg, v0=v0)
        if pair is None:
            raise RuntimeError(f"DimerII not found at N={N}")
        rates.append(pair.decay_rate)
        prev = (pair.vector, N)
    return sizes, np.array(rates)


# ------------------------------------------------------------- criteria


def test_a1_mapping_identities(tmp_path):
    def body():
        cfg = RunConfig(experiment="map-check",
                        kd_over_pi=(0.1, 0.2, 0.25, 0.3, 0.45),
                        seed=0, out=str(tmp_path))
        t0 = time.perf_counter()
        paths = runner.cmd_mapcheck(cfg)
        wall = time.perf_counter() - t0
        with open(paths["meta"]) as fh:
            worst = json.load(fh)["max_residuals"]
        ok = (worst["fold"] <= 1e-12 and worst["halving"] <= 1e-12
              and worst["parity"] <= 1e-14 and wall < 60.0)
        return ok, (f"M x K x kd grid: fold {worst['fold']:.1e}, "
                    f"halving {worst['halving']:.1e}, "
                    f"parity gauge {worst['parity']:.1e}, wall {wall:.1f}s")
    _run("A1", body)


def test_a2_dimer_i_energy_convergence():
    def body():
        kd = 0.2 * np.pi
        target = theory.asymptotic_dimer(kd, "I").omega  # 2 cot(kd)
        cfg = RunConfig(experiment="scaling", seed=0,
                        solver=eig.SolverConfig())
        gaps, prev, wall = [], None, 0.0
        for N in (60, 90, 120):
            chain = ChainGeometry.from_kd(N, kd)
            v0 = None
            if prev is not None:
                v0 = runner._embed_pair_vector(prev[0], prev[1], N)
            t0 = time.perf_counter()
            pair, _, _ = runner.find_dimer(chain, "I", cfg, v0=v0)
            wall += time.perf_counter() - t0
            if pair is None:
                return False, f"DimerI not found at N={N}"
            gaps.append(abs(pair.lam.real - target))
            prev = (pair.vector, N)
        ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.05 and wall < 60.0
        return ok, ("|Re lambda - 2 cot(kd)| at N=60,90,120: "
                    + " > ".join(f"{g:.4f}" for g in gaps)
                    + f", wall {wall:.1f}s")
    _run("A2", body)


def test_a3_separation_profiles(dimer_states_n100):
    def body():
        details, ok = [], True
        # DimerI: weight drops by cos^2(kd) per lattice spacing
        for kd_over_pi in (0.2, 0.25):
            _, _, dec = dimer_states_n100[(kd_over_pi, "I")]
            fit = analysis.fit_exponential_tail(dec.delta_grid,
                                                dec.delta_profile,
                                                window=(1, 12))
            want = np.cos(kd_over_pi * np.pi) ** 2
            ok = ok and abs(fit.ratio / want - 1.0) <= 0.05
            details.append(f"I@{kd_over_pi}pi ratio {fit.ratio:.4f}"
                           f" (cos^2 kd = {want:.4f})")
        # DimerII at kd = 0.2 pi: cos^2(2 kd) per two spacings
        _, _, dec = dimer_states_n100[(0.2, "II")]
        even = dec.delta_grid % 2 == 0
        mask = even & (dec.delta_grid <= 8)
        fit = analysis.fit_exponential_tail(dec.delta_grid[mask],
                                            dec.delta_profile[mask])
        ratio2 = float(np.exp(2.0 * fit.exponent))
        want2 = np.cos(2 * 0.2 * np.pi) ** 2
        ok = ok and abs(ratio2 / want2 - 1.0) <= 0.05
        details.append(f"II@0.2pi per-2d ratio {ratio2:.4f}"
                       f" (cos^2 2kd = {want2:.4f})")
        # DimerII odd-separation weight inside the dominant-K channel
        for kd_over_pi in (0.2, 0.25):
            _, _, dec = dimer_states_n100[(kd_over_pi, "II")]
            col = dec.weights[:, int(np.argmax(dec.k_marginal))]
            odd = float(col[dec.delta_grid % 2 == 1].sum() / col.sum())
            ok = ok and odd < 1e-3
            details.append(f"II@{kd_over_pi}pi odd weight {odd:.1e}"
                           f" (marginal {dec.odd_delta_weight():.1e})")
        return ok, "; ".join(details)
    _run("A3", body)


def test_a4_epr_point(dimer_states_n100):
    def body():
        _, _, dec = dimer_states_n100[(0.25, "II")]
        beyond = dec.weight_beyond_delta(2)
        omega = theory.asymptotic_dimer(0.25 * np.pi, "II").omega
        ok = beyond < 1e-3 and omega == 0.0
        return ok, (f"weight beyond Delta=2d {beyond:.1e}, "
                    f"asymptotic omega_II = {omega}")
    _run("A4", body)


def test_a5_scaling_exponents(scaling_run):
    def body():
        meta, wall_sweep = scaling_run
        fits = meta["fits"]
        e_one = fits["kd_over_pi=0.1676,series=one-exc"]["exponent"]
        e_ii = fits["kd_over_pi=0.1676,series=DimerII"]["exponent"]
        # DimerI approaches its limiting power law too slowly at this kd
        # for N <= 150; its exponent is read off at kd = pi/4, where the
        # finite-size transient is gone at these sizes
        kd = 0.25 * np.pi
        cfg = RunConfig(experiment="scaling", seed=0,
                        solver=eig.SolverConfig(count=32))
        sizes, rates, prev = list(range(50, 151, 10)), [], None
        t0 = time.perf_counter()
        for N in sizes:
            chain = ChainGeometry.from_kd(N, kd)
            v0 = None
            if prev is not None:
                v0 = runner._embed_pair_vector(prev[0], prev[1], N)
            pair, _, _ = runner.find_dimer(chain, "I", cfg, v0=v0)
            if pair is None:
                return False, f"DimerI not found at N={N}"
            rates.append(pair.decay_rate)
            prev = (pair.vector, N)
        wall = wall_sweep + time.perf_counter() - t0
        e_i = analysis.fit_power_law(sizes, rates, window=(50, 150)).exponent
        ok = (abs(e_one + 3.0) <= 0.3 and abs(e_i + 2.0) <= 0.3
              and e_ii <= -3.0 and wall < 900.0)
        return ok, (f"one-exc {e_one:+.2f} (-3 +- 0.3), "
                    f"DimerI {e_i:+.2f} at kd=0.25pi (-2 +- 0.3), "
                    f"DimerII {e_ii:+.2f} at kd=0.1676pi (<= -3), "
                    f"wall {wall:.0f}s")
    _run("A5", body)


def test_a6_crossover_size():
    def body():
        kd = 0.1676 * np.pi
        for N in range(40, 61):
            chain = ChainGeometry.from_kd(N, kd)
            one_min = float(analysis.decay_rate(
                np.linalg.eigvals(build_single_hamiltonian(chain))).min())
            ferm = analysis.fermionic_basis(chain)
            spec = eig.eig_dense_all(build_two_hamiltonian(chain))
            for p in spec.pairs:  # sorted by decay: first DimerII wins
                cls = analysis.classify_state(p, chain, ferm=ferm)
                if cls.label == analysis.DIMER_II:
                    if p.decay_rate < one_min:
                        ok = 40 <= N <= 60
                        return ok, (f"first DimerII below the one-exc "
                                    f"minimum at N = {N} "
                                    f"({p.decay_rate:.3e} < {one_min:.3e}, "
                                    f"dense)")
                    break
        return False, "no crossover found for N in [40, 60] (dense scan)"
    _run("A6", body)


def test_a7_period_four_modulation(dimer_ii_rates_consecutive):
    def body():
        sizes, rates = dimer_ii_rates_consecutive
        rep = analysis.period4_modulation(sizes, rates)
        ok = rep.detected and rep.period == 4
        return ok, (f"N = 60..120: period {rep.period}, "
                    f"acf(4) = {rep.acf[3]:+.2f} "
                    f"(threshold {rep.threshold}), depth {rep.depth:.3f}")
    _run("A7", body)


def test_a8_defect_states(tmp_path):
    def body():
        # central defect: log rate falls like log cos(kd) per site
        cfg = RunConfig(experiment="defect", N=(21, 25, 29, 33, 37, 41),
                        kd_over_pi=(0.25,), seed=0,
                        out=str(tmp_path / "slope"))
        with open(runner.cmd_defect(cfg)["meta"]) as fh:
            slope = json.load(fh)["central_slope_kd_over_pi=0.25"]
        # defect-position scan at N = 25
        cfg = RunConfig(experiment="defect", N=(25,), kd_over_pi=(0.25,),
                        defect_sites=tuple(range(1, 24)), seed=0,
                        out=str(tmp_path / "scan"))
        with open(runner.cmd_defect(cfg)["table"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        rate = {int(r["site"]): -2.0 * float(r["im_numeric"]) for r in rows}
        asym = max(abs(rate[s] - rate[24 - s]) for s in range(1, 24))
        minimum = min(rate, key=rate.get)
        # secular equation against dense numerics at N = 40
        kd = 0.3 * np.pi
        sol = theory.solve_defect_secular(40, kd, 20)
        chain = ChainGeometry.from_kd(40, kd)
        spec = eig.eig_dense_all(build_missing_site_hamiltonian(chain, 20))
        lam = spec.eigenvalues[
            int(np.argmin(np.abs(spec.eigenvalues - sol.omega)))]
        rel = abs(sol.decay_rate - (-2.0 * lam.imag)) / (-2.0 * lam.imag)
        ok = (slope["relative_gap"] < 0.10 and asym <= 1e-10
              and minimum == 12 and rel < 0.05)
        return ok, (f"central slope {slope['fit_dlog_rate_dN']:.4f} vs "
                    f"log cos kd {slope['predicted_log_cos_kd']:.4f} "
                    f"(gap {slope['relative_gap']:.1%}), scan asymmetry "
                    f"{asym:.1e}, minimum at site {minimum}, secular rate "
                    f"gap {rel:.1%} at N=40")
    _run("A8", body)


def test_a9_disorder_robustness(tmp_path):
    def body():
        kds = (0.15, 0.155, 0.16, 0.1676, 0.175, 0.1833)
        cfg = RunConfig(experiment="disorder", N=(60,), kd_over_pi=kds,
                        seed=202608,
                        disorder=DisorderSettings(delta=0.01, samples=10),
                        solver=eig.SolverConfig(),
                        out=str(tmp_path))
        paths = runner.cmd_disorder(cfg)
        with open(paths["table"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        dips = 0
        for s in range(10):
            curve = {float(r["kd_over_pi"]): float(r["rate_dimerII"])
                     for r in rows
                     if r["rate_dimerII"] and int(r["sample"]) == s}
            if len(curve) != len(kds):
                return False, f"sample {s}: DimerII missing at some kd"
            r = [curve[k] for k in sorted(curve)]
            i = int(np.argmin(r))
            if 0 < i < len(r) - 1 and r[i] < r[0] and r[i] < r[-1]:
                dips += 1
        below = sum(1 for r in rows if r["below_clean"] == "True")
        ok = dips == 10 and below >= 1
        return ok, (f"delta=0.01, N=60: interior rate dip in {dips}/10 "
                    f"samples, {below} sample points below the clean curve")
    _run("A9", body)


def test_a10_free_space_localization(tmp_path):
    def body():
        details, ok = [], True
        for polarization in ("transverse", "parallel"):
            cfg = RunConfig(experiment="freespace", N=(100, 200),
                            d_over_lambda0=(0.35, 0.45),
                            kernel=polarization, seed=0,
                            out=str(tmp_path / polarization))
            paths = runner.cmd_freespace(cfg)
            with open(paths["meta"]) as fh:
                meta = json.load(fh)
            with open(paths["table"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            for d in (0.35, 0.45):
                change = meta[f"rate_change_d={d}"]["relative_change"]
                frac = min(float(r["near_defect_weight"]) for r in rows
                           if float(r["d_over_lambda0"]) == d)
                ok = ok and change < 0.05 and frac > 0.3
                details.append(f"{polarization} d={d}: rate change "
                               f"{change:.1%}, near-defect weight "
                               f">= {frac:.2f}")
        return ok, "; ".join(details)
    _run("A10", body)


def test_a11_fast_apply():
    def body():
        rng = np.random.default_rng(11)
        # exact agreement with the dense matrix at N = 40
        chain = ChainGeometry.from_kd(40, 0.2 * np.pi)
        basis = TwoExcitationBasis(40)
        H2 = build_two_hamiltonian(chain)
        op = TwoExcitationWaveguideOp(chain)
        x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        ref = H2 @ x
        agree40 = float(np.linalg.norm(op.matvec(x) - ref)
                        / np.linalg.norm(ref))
        del H2
        # N = 200: the full dense matrix does not fit in memory, so the
        # dense reference is applied (and timed) in row blocks
        N = 200
        chain = ChainGeometry.from_kd(N, 0.2 * np.pi)
        basis = TwoExcitationBasis(N)
        op = TwoExcitationWaveguideOp(chain)
        D = basis.dim
        x = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        op.matvec(x)  # warm up
        t0 = time.perf_counter()
        for _ in range(5):
            y_fast = op.matvec(x)
        t_fast = (time.perf_counter() - t0) / 5
        H1 = build_single_hamiltonian(chain)
        pm, pn = basis.pair_m, basis.pair_n
        y_dense = np.empty(D, dtype=complex)
        t_dense = 0.0
        for lo in range(0, D, 1000):
            hi = min(lo + 1000, D)
            m, n = pm[lo:hi, None], pn[lo:hi, None]
            block = (H1[m, pm[None, :]] * (n == pn[None, :])
                     + H1[n, pn[None, :]] * (m == pm[None, :])
                     + H1[m, pn[None, :]] * (n == pm[None, :])
                     + H1[n, pm[None, :]] * (m == pn[None, :]))
            t0 = time.perf_counter()
            y_dense[lo:hi] = block @ x
            t_dense += time.perf_counter() - t0
        agree200 = float(np.linalg.norm(y_dense - y_fast)
                         / np.linalg.norm(y_dense))
        speedup = t_dense / t_fast
        # determinism and algebraic invariants
        deterministic = op.matvec(x).tobytes() == op.matvec(x).tobytes()
        trace = complex(op.diagonal().sum())
        trace_rel = abs(trace - (-1j * chain.gamma1d * D)) / D
        u = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        a, b = np.dot(u, op.matvec(x)), np.dot(x, op.matvec(u))
        sym_rel = abs(a - b) / max(abs(a), abs(b))
        ok = (agree40 <= 1e-12 and speedup >= 50.0 and agree200 <= 1e-9
              and deterministic and trace_rel <= 1e-12 and sym_rel <= 1e-10)
        return ok, (f"N=40 agreement {agree40:.1e}; N=200 speedup "
                    f"{speedup:.0f}x (fast {t_fast*1e3:.1f}ms vs dense "
                    f"{t_dense:.2f}s), agreement {agree200:.1e}; "
                    f"deterministic {deterministic}, trace {trace_rel:.1e}, "
                    f"symmetry {sym_rel:.1e}")
    _run("A11", body)
