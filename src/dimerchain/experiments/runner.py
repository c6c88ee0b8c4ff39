"""The numerical campaigns behind each CLI subcommand.

Every command reads a validated RunConfig, runs module functions, and
writes: a SweepRecord CSV (the contract), a sorted-key JSON metadata
sidecar, optional supplementary per-grid-point tables, optional
eigenvector dumps, and an SVG plot.  Reruns with the same config and
seed are byte-identical except for wall-time columns.

Two-excitation states come from one of two solvers.  Full spectra
(`spectrum`) are dense zgeev up to N = 70; past that cap a run raises
unless solver.fallback is set, in which case it returns the targeted
partial spectrum around both dimer eigenvalues (flagged in metadata).
Every other two-excitation search is targeted: Krylov-Schur on the
exact structured shift-invert of eig._make_shift_solver, with O(N^2)
memory and no cap on N.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import analysis, eig, theory
from ..model import (
    ChainGeometry,
    FreeSpace3D,
    RelativeModelSpec,
    TwoExcitationBasis,
    TwoExcitationWaveguideOp,
    build_defect_relative_hamiltonian,
    build_missing_site_hamiltonian,
    build_relative_hamiltonian,
    build_single_hamiltonian,
    build_two_hamiltonian,
)
from .config import DENSE_TWOEXC_CAP, ConfigError
from .records import make_record, write_meta, write_records, write_table, write_vectors
from .svg import heatmap, line_plot


def _outpaths(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    base = os.path.join(cfg.out, f"{cfg.experiment}-{cfg.run_hash()}")
    return {
        "csv": base + ".csv",
        "table": base + ".grid.csv",
        "meta": base + ".meta.json",
        "vectors": base + ".vectors.json",
        "svg": base + ".svg",
    }


def _finish(cfg, paths, records, meta, tables=None, vectors=None):
    write_records(paths["csv"], records)
    meta = dict(meta)
    meta.update(
        experiment=cfg.experiment,
        config=cfg.canonical_dict(),
        run_hash=cfg.run_hash(),
        n_records=len(records),
    )
    write_meta(paths["meta"], meta)
    if tables:
        write_table(paths["table"], tables[0], tables[1])
    if vectors:
        write_vectors(paths["vectors"], vectors)
    return paths


def _targeted_two_exc(op, solve, cfg, count=None, v0=None):
    """Eigenpairs of the two-excitation sector nearest solve.sigma."""
    sc = eig.SolverConfig(
        count=count if count is not None else cfg.solver.count,
        tol=cfg.solver.tol,
        max_restarts=cfg.solver.max_restarts,
        max_subspace=cfg.solver.max_subspace,
        seed=cfg.seed,
    )
    return eig.eig_target(op, op.dim, sc, solve, v0=v0)


# position disorder broadens the K wavepacket of a dimer without touching
# its separation content or energy; identification in disorder runs keeps
# the same tests but integrates K over a wider window
DISORDER_THRESHOLDS = analysis.ClassifierThresholds(
    concentration_min=0.25, concentration_bins=4)


def find_dimer(chain, dimer_type, cfg, ferm=None, basis=None, v0=None,
               thresholds=None):
    """Most subradiant DimerI / DimerII state near its asymptotic value.

    Classifies the eigenpairs returned by a targeted solve; escalates the
    count once, on the same shift-invert set-up, if the first batch
    contains no state with the wanted label.  Returns (pair, state_class,
    spectrum) or (None, None, last spectrum) when the label is absent.
    """
    label = analysis.DIMER_I if dimer_type == "I" else analysis.DIMER_II
    th = theory.asymptotic_dimer(chain.kd, dimer_type, chain.gamma1d)
    if ferm is None:
        ferm = analysis.fermionic_basis(chain)
    if basis is None:
        basis = TwoExcitationBasis(chain.N)
    op = TwoExcitationWaveguideOp(chain, basis)
    solve = eig._make_shift_solver(build_single_hamiltonian(chain), th.omega)
    spec = None
    for count in (cfg.solver.count, 4 * cfg.solver.count):
        spec = _targeted_two_exc(op, solve, cfg, count=count, v0=v0)
        classes = [analysis.classify_state(p, chain, ferm=ferm, basis=basis,
                                           thresholds=thresholds)
                   for p in spec.pairs]
        try:
            i = analysis.most_subradiant_index(
                spec.pairs, classes, label=label, omega_target=th.omega)
        except ValueError:
            continue
        return spec.pairs[i], classes[i], spec
    return None, None, spec


def _one_exc_min(chain):
    """Most subradiant one-excitation eigenpair (dense)."""
    spec = eig.eig_dense_all(build_single_hamiltonian(chain))
    return spec.pairs[0], spec.meta["wall_time"]


def _embed_pair_vector(v, basis_old, basis_new):
    """Zero-padded embedding of pair amplitudes into a larger chain."""
    out = np.zeros(basis_new.dim, dtype=complex)
    out[basis_new.flatten(basis_old.pair_m, basis_old.pair_n)] = v
    return out


def disorder_offsets(seed, sample_index, N, delta, d=1.0):
    """Uniform position offsets in [-delta, delta] * d.

    Counter-based stream keyed by (seed, sample index); the site index is
    the draw position in the stream, so ensembles are reproducible and
    order-independent.
    """
    if delta == 0.0:
        return np.zeros(N)
    gen = np.random.Generator(np.random.Philox(key=[seed, sample_index]))
    return gen.uniform(-delta * d, delta * d, size=N)


def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(cfg):
    """Full two-excitation spectrum per (N, kd), classified, with a
    branch summary; falls back to a targeted partial spectrum past the
    dense cap when solver.fallback is set."""
    paths = _outpaths(cfg)
    records, vectors, summaries = [], {}, {}
    scatter_series = []
    for N in cfg.N:
        for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
            chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
            basis = TwoExcitationBasis(N) if N >= 2 else None
            if basis is None:
                raise ConfigError("spectrum needs N >= 2")
            # full spectra are dense; past the cap the run degrades to a
            # targeted partial spectrum around both dimer branches
            # (flagged in metadata)
            partial = N > DENSE_TWOEXC_CAP
            if partial and not cfg.solver.fallback:
                raise ConfigError(
                    f"full two-excitation spectrum cap exceeded (N={N} > "
                    f"{DENSE_TWOEXC_CAP}); enable solver.fallback for a "
                    "targeted partial spectrum"
                )
            t0 = time.perf_counter()
            if not partial:
                H2 = build_two_hamiltonian(chain, basis=basis)
                spec = eig.eig_dense_all(H2)
                pairs = spec.pairs
                trace_gap = abs(np.sum(spec.eigenvalues) - np.trace(H2)) / max(
                    abs(np.trace(H2)), 1e-300)
            else:
                op = TwoExcitationWaveguideOp(chain, basis)
                H1 = build_single_hamiltonian(chain)
                seen, pairs = set(), []
                for t in ("I", "II"):
                    om = theory.asymptotic_dimer(kd, t, cfg.gamma).omega
                    sp = _targeted_two_exc(
                        op, eig._make_shift_solver(H1, om), cfg)
                    for p in sp.pairs:
                        key = (round(p.lam.real, 9), round(p.lam.imag, 9))
                        if key not in seen:
                            seen.add(key)
                            pairs.append(p)
                trace_gap = None
            wall = time.perf_counter() - t0
            ferm = analysis.fermionic_basis(chain)
            classes = [analysis.classify_state(p, chain, ferm=ferm, basis=basis)
                       for p in pairs]
            mode_used = "dense" if not partial else eig.SOLVER_MODE
            for p, c in zip(pairs, classes):
                records.append(make_record(
                    "spectrum", N, kd, "two-exc", c.label, p.lam, mode_used,
                    p.residual, wall, cfg.seed))
            key = f"N={N},kd_over_pi={kd_over_pi}"
            summaries[key] = {
                "branches": analysis.branch_summary(classes, ferm.values,
                                                    cfg.gamma),
                "partial": partial,
                "trace_relative_gap": trace_gap,
                "states": len(pairs),
            }
            if cfg.dump_vectors:
                for label in (analysis.DIMER_I, analysis.DIMER_II,
                              analysis.FERMIONIC, analysis.OTHER):
                    try:
                        p = analysis.most_subradiant(pairs, classes, label)
                    except ValueError:
                        continue
                    vectors[f"{key},label={label}"] = p.vector
            for label in sorted({c.label for c in classes}):
                pts = [(p.lam.real, p.decay_rate)
                       for p, c in zip(pairs, classes)
                       if c.label == label and p.decay_rate > 0]
                if pts:
                    scatter_series.append((
                        f"{label} {key}", [q[0] for q in pts],
                        [q[1] for q in pts]))
    meta = {"summaries": summaries,
            "classifier_thresholds": vars(analysis.ClassifierThresholds())}
    try:
        line_plot(paths["svg"], scatter_series, title="two-excitation spectrum",
                  xlabel="Re lambda / Gamma", ylabel="decay rate / Gamma",
                  logy=True)
    except ValueError:
        pass
    return _finish(cfg, paths, records, meta, vectors=vectors or None)


# ----------------------------------------------------------- phase diagram


def _phase_point(args):
    (N, kd_over_pi, kd, cfg) = args
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
    one, wall1 = _one_exc_min(chain)
    baseline = analysis.fermionic_reference(chain)
    t0 = time.perf_counter()
    pair, cls, _ = find_dimer(chain, "II", cfg)
    wall2 = time.perf_counter() - t0
    return (N, kd_over_pi, kd, one, wall1, baseline, pair, cls, wall2)


def cmd_phase_diagram(cfg):
    """Most subradiant type-II rate vs (N, kd) against the one-excitation
    minimum and the fermionic sum-rule baseline, with crossover curves."""
    paths = _outpaths(cfg)
    tasks = [(N, kd_over_pi, kd, cfg)
             for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)
             for N in cfg.N]
    results = _pmap(_phase_point, tasks, cfg.jobs)
    records, rows = [], []
    rateII = {}
    for (N, kd_over_pi, kd, one, wall1, baseline, pair, cls, wall2) in results:
        records.append(make_record(
            "phase-diagram", N, kd, "one-exc", "one-exc", one.lam, "dense",
            one.residual, wall1, cfg.seed))
        if pair is not None:
            records.append(make_record(
                "phase-diagram", N, kd, "two-exc", cls.label, pair.lam,
                eig.SOLVER_MODE, pair.residual, wall2, cfg.seed))
            rII = pair.decay_rate
        else:
            rII = None
        rateII[(kd_over_pi, N)] = rII
        rows.append([
            N, kd_over_pi, rII if rII is not None else "",
            one.decay_rate, baseline,
            bool(rII is not None and rII < one.decay_rate),
            bool(rII is not None and rII < baseline),
        ])
    first_crossover = {}
    for kd_over_pi in cfg.kd_over_pi:
        first = None
        for N in sorted(cfg.N):
            row = next(r for r in rows if r[0] == N and r[1] == kd_over_pi)
            if row[5] is True:
                first = N
                break
        first_crossover[str(kd_over_pi)] = first
    meta = {"first_crossover_N": first_crossover}
    Zplot = [[rateII[(k, N)] if rateII[(k, N)] is not None else 0.0
              for N in sorted(cfg.N)] for k in cfg.kd_over_pi]
    try:
        heatmap(paths["svg"], sorted(cfg.N), list(cfg.kd_over_pi), Zplot,
                title="type-II dimer decay rate", xlabel="N",
                ylabel="kd / pi", log=True)
    except ValueError:
        pass
    cols = ("N", "kd_over_pi", "rate_dimerII", "rate_one_exc",
            "fermionic_baseline", "crossover_vs_one_exc",
            "crossover_vs_fermionic")
    return _finish(cfg, paths, records, meta, tables=(cols, rows))


# ----------------------------------------------------------------- scaling


def cmd_scaling(cfg):
    """Decay rate vs N for the type-I / type-II / one-excitation series,
    power-law fits, plus period-4 and dip diagnostics."""
    paths = _outpaths(cfg)
    records, rows = [], []
    series = {}  # (kd_over_pi, name) -> (Ns, rates)
    for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
        warm = {"I": None, "II": None}
        for N in sorted(cfg.N):
            chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
            basis = TwoExcitationBasis(N)
            ferm = analysis.fermionic_basis(chain)
            one, wall1 = _one_exc_min(chain)
            records.append(make_record(
                "scaling", N, kd, "one-exc", "one-exc", one.lam, "dense",
                one.residual, wall1, cfg.seed))
            series.setdefault((kd_over_pi, "one-exc"), []).append(
                (N, one.decay_rate))
            for t in ("I", "II"):
                t0 = time.perf_counter()
                v0 = warm[t]
                pair, cls, _ = find_dimer(chain, t, cfg, ferm=ferm,
                                          basis=basis, v0=v0)
                wall = time.perf_counter() - t0
                name = "DimerI" if t == "I" else "DimerII"
                if pair is None:
                    rows.append([N, kd_over_pi, name, "", "", eig.SOLVER_MODE])
                    warm[t] = None
                    continue
                records.append(make_record(
                    "scaling", N, kd, "two-exc", cls.label, pair.lam,
                    eig.SOLVER_MODE, pair.residual, wall, cfg.seed))
                series.setdefault((kd_over_pi, name), []).append(
                    (N, pair.decay_rate))
                rows.append([N, kd_over_pi, name, pair.lam.real,
                             pair.decay_rate, eig.SOLVER_MODE])
                if N != sorted(cfg.N)[-1]:
                    nxt = sorted(cfg.N)[sorted(cfg.N).index(N) + 1]
                    warm[t] = _embed_pair_vector(
                        pair.vector, basis, TwoExcitationBasis(nxt))
    fits, period4, dips = {}, {}, {}
    for (kd_over_pi, name), pts in series.items():
        Ns = np.array([p[0] for p in pts], dtype=float)
        rates = np.array([p[1] for p in pts], dtype=float)
        key = f"kd_over_pi={kd_over_pi},series={name}"
        if Ns.size >= 5 and np.all(rates > 0):
            f = analysis.fit_power_law(Ns, rates)
            fits[key] = {"exponent": f.exponent, "amplitude": f.amplitude,
                         "window": f.window, "r_squared": f.r_squared}
        if (name == "DimerII" and abs(kd_over_pi - 0.25) < 1e-9
                and Ns.size >= 16 and np.all(np.diff(Ns) == 1)):
            rep = analysis.period4_modulation(Ns, rates)
            period4[key] = {"period": rep.period, "acf": rep.acf.tolist(),
                            "depth": rep.depth, "detected": rep.detected}
    # dip in kd at fixed N for the type-II series
    for N in sorted(cfg.N):
        pts = []
        for (k, nm), pp in series.items():
            if nm != "DimerII":
                continue
            pts.extend((k, r) for (n, r) in pp if n == N)
        if len(pts) >= 3:
            kmin, rmin = min(pts, key=lambda p: p[1])
            dips[str(N)] = {"kd_over_pi_at_min": kmin, "rate": rmin,
                            "inside_016_017": bool(0.16 <= kmin <= 0.17)}
    meta = {"fits": fits, "period4": period4, "dip": dips}
    plot = [(f"{nm} kd={k}pi", [p[0] for p in pts], [p[1] for p in pts])
            for (k, nm), pts in sorted(series.items())]
    try:
        line_plot(paths["svg"], plot, title="decay rate scaling", xlabel="N",
                  ylabel="decay rate / Gamma", logx=True, logy=True)
    except ValueError:
        pass
    cols = ("N", "kd_over_pi", "series", "re_lambda", "decay_rate", "mode")
    return _finish(cfg, paths, records, meta, tables=(cols, rows))


# ------------------------------------------------------------------ defect


def cmd_defect(cfg):
    """Missing-emitter localized states: dense numerics vs the secular
    equation, per (N, site, kd)."""
    paths = _outpaths(cfg)
    records, rows, vectors = [], [], {}
    profile_series = []
    for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
        central = {}
        for N in sorted(cfg.N):
            sites = list(cfg.defect_sites) if cfg.defect_sites else [N // 2]
            chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
            for site in sites:
                sol = theory.solve_defect_secular(N, kd, site, cfg.gamma)
                t0 = time.perf_counter()
                spec = eig.eig_dense_all(
                    build_missing_site_hamiltonian(chain, site))
                wall = time.perf_counter() - t0
                lams = spec.eigenvalues
                i = int(np.argmin(np.abs(lams - sol.omega)))
                pair = spec.pairs[i]
                records.append(make_record(
                    "defect", N, kd, "one-exc", "defect-localized", pair.lam,
                    "dense", pair.residual, wall, cfg.seed))
                rows.append([
                    N, kd_over_pi, site, sol.minNLR, pair.lam.real,
                    pair.lam.imag, sol.omega.real, sol.omega.imag,
                    abs(pair.lam - sol.omega), sol.secular_residual,
                    sol.equation,
                ])
                if site == N // 2:
                    central[N] = pair.decay_rate
                if cfg.dump_vectors:
                    vectors[f"N={N},site={site},kd_over_pi={kd_over_pi}"] = (
                        pair.vector)
        if len(central) >= 5:
            Ns = np.array(sorted(central), dtype=float)
            rates = np.array([central[int(n)] for n in Ns])
            if np.all(rates > 0):
                slope = np.polyfit(Ns, np.log(rates), 1)[0]
                profile_series.append((kd_over_pi, slope, np.log(np.cos(kd))))
    meta = {}
    for kd_over_pi, slope, predicted in profile_series:
        meta[f"central_slope_kd_over_pi={kd_over_pi}"] = {
            "fit_dlog_rate_dN": slope,
            "predicted_log_cos_kd": predicted,
            "relative_gap": abs(slope - predicted) / abs(predicted),
        }
    plot = []
    for kd_over_pi in cfg.kd_over_pi:
        pts = [(r[0], -2.0 * r[5]) for r in rows
               if r[1] == kd_over_pi and r[2] == r[0] // 2 and -2.0 * r[5] > 0]
        if pts:
            plot.append((f"central defect kd={kd_over_pi}pi",
                         [p[0] for p in pts], [p[1] for p in pts]))
    if not plot:
        pts = [(r[2], -2.0 * r[5]) for r in rows if -2.0 * r[5] > 0]
        if pts:
            plot.append(("defect scan", [p[0] for p in pts],
                         [p[1] for p in pts]))
    try:
        line_plot(paths["svg"], plot, title="defect-localized decay rate",
                  xlabel="N (or site)", ylabel="decay rate / Gamma", logy=True)
    except ValueError:
        pass
    cols = ("N", "kd_over_pi", "site", "minNLR", "re_numeric", "im_numeric",
            "re_secular", "im_secular", "abs_gap", "secular_residual",
            "equation")
    return _finish(cfg, paths, records, meta, tables=(cols, rows),
                   vectors=vectors or None)


# ---------------------------------------------------------------- disorder


def _disorder_point(args):
    (N, kd_over_pi, kd, sample, cfg) = args
    offsets = disorder_offsets(cfg.seed, sample, N, cfg.disorder.delta)
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma,
                                  offsets=tuple(offsets))
    t0 = time.perf_counter()
    pair, cls, _ = find_dimer(chain, "II", cfg, thresholds=DISORDER_THRESHOLDS)
    wall = time.perf_counter() - t0
    return (N, kd_over_pi, kd, sample, pair, cls, wall)


def cmd_disorder(cfg):
    """Ensemble of weakly position-disordered chains: most subradiant
    type-II rate per sample, with the clean chain as reference rows
    (sample_index = -1)."""
    if cfg.disorder.samples < 1:
        raise ConfigError("disorder needs disorder.samples >= 1")
    paths = _outpaths(cfg)
    records, rows = [], []
    clean = {}
    for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
        for N in cfg.N:
            chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
            t0 = time.perf_counter()
            pair, cls, _ = find_dimer(chain, "II", cfg,
                                      thresholds=DISORDER_THRESHOLDS)
            wall = time.perf_counter() - t0
            if pair is not None:
                records.append(make_record(
                    "disorder", N, kd, "two-exc", cls.label, pair.lam,
                    eig.SOLVER_MODE, pair.residual, wall, cfg.seed,
                    sample_index=-1))
            clean[(kd_over_pi, N)] = (pair.decay_rate if pair is not None
                                      else None)
    tasks = [(N, kd_over_pi, kd, s, cfg)
             for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)
             for N in cfg.N
             for s in range(cfg.disorder.samples)]
    results = _pmap(_disorder_point, tasks, cfg.jobs)
    for (N, kd_over_pi, kd, sample, pair, cls, wall) in results:
        cl = clean[(kd_over_pi, N)]
        if pair is None:
            rows.append([N, kd_over_pi, sample, "", cl if cl else "", ""])
            continue
        records.append(make_record(
            "disorder", N, kd, "two-exc", cls.label, pair.lam, eig.SOLVER_MODE,
            pair.residual, wall, cfg.seed, sample_index=sample))
        rows.append([N, kd_over_pi, sample, pair.decay_rate,
                     cl if cl is not None else "",
                     bool(cl is not None and pair.decay_rate < cl)])
    meta = {"delta": cfg.disorder.delta, "samples": cfg.disorder.samples}
    plot = []
    for N in cfg.N:
        pts = [(r[1], r[3]) for r in rows if r[0] == N and r[3] != ""]
        bykd = {}
        for k, r in pts:
            bykd.setdefault(k, []).append(r)
        if bykd:
            ks = sorted(bykd)
            plot.append((f"min over samples N={N}", ks,
                         [min(bykd[k]) for k in ks]))
            plot.append((f"max over samples N={N}", ks,
                         [max(bykd[k]) for k in ks]))
        cln = [(k, clean[(k, N)]) for k in sorted(cfg.kd_over_pi)
               if clean.get((k, N)) is not None]
        if cln:
            plot.append((f"clean N={N}", [c[0] for c in cln],
                         [c[1] for c in cln]))
    try:
        line_plot(paths["svg"], plot, title="type-II rate under disorder",
                  xlabel="kd / pi", ylabel="decay rate / Gamma", logy=True)
    except ValueError:
        pass
    cols = ("N", "kd_over_pi", "sample", "rate_dimerII", "rate_clean",
            "below_clean")
    return _finish(cfg, paths, records, meta, tables=(cols, rows))


# --------------------------------------------------------------- freespace


def _localized_state(spec, positions, z_defect, window=5.0):
    """Pick the eigenpair whose weight concentrates around the defect."""
    best, best_frac = None, -1.0
    near = np.abs(positions - z_defect) <= window
    for p in spec.pairs:
        w = np.abs(p.vector) ** 2
        frac = float(w[near].sum() / w.sum())
        if frac > best_frac:
            best, best_frac = p, frac
    return best, best_frac


def cmd_freespace(cfg):
    """Free-space dipole chains with a missing emitter: localized-state
    profiles (amplitude and phase) and decay rate vs N."""
    paths = _outpaths(cfg)
    records, rows, vectors = [], [], {}
    rate_vs_N = {}
    for d_over_l in cfg.d_over_lambda0:
        kernel = FreeSpace3D(lambda0=1.0, gamma0=cfg.gamma,
                             polarization=cfg.kernel)
        for N in sorted(cfg.N):
            sites = list(cfg.defect_sites) if cfg.defect_sites else [N // 2]
            chain = ChainGeometry(N=N, k1d=kernel.k0, d=d_over_l,
                                  gamma1d=cfg.gamma)
            for site in sites:
                t0 = time.perf_counter()
                spec = eig.eig_dense_all(
                    build_missing_site_hamiltonian(chain, site, kernel=kernel))
                wall = time.perf_counter() - t0
                z = np.delete(chain.positions, site)
                z0 = chain.positions[site]
                pair, frac = _localized_state(spec, z, z0,
                                              window=5.0 * d_over_l)
                records.append(make_record(
                    "freespace", N, kernel.k0 * d_over_l, "one-exc",
                    "defect-localized", pair.lam, "dense", pair.residual,
                    wall, cfg.seed))
                rows.append([N, d_over_l, cfg.kernel, site, pair.lam.real,
                             pair.lam.imag, frac])
                key = f"pol={cfg.kernel},d_over_lambda0={d_over_l},N={N},site={site}"
                vectors[key] = pair.vector
                # the default central site moves with N; rate-vs-N
                # convergence is tracked per spacing in that case
                skey = "central" if not cfg.defect_sites else site
                rate_vs_N.setdefault((d_over_l, skey), []).append(
                    (N, pair.decay_rate))
    meta = {"polarization": cfg.kernel}
    for (d_over_l, site), pts in rate_vs_N.items():
        pts = sorted(pts)
        if len(pts) >= 2:
            (n1, r1), (n2, r2) = pts[-2], pts[-1]
            meta[f"rate_change_d={d_over_l}"] = {
                "from_N": n1, "to_N": n2,
                "relative_change": abs(r2 - r1) / max(abs(r1), 1e-300),
            }
    plot = []
    for (d_over_l, site), pts in sorted(rate_vs_N.items()):
        pts = sorted(pts)
        plot.append((f"d={d_over_l} lambda0", [p[0] for p in pts],
                     [p[1] for p in pts]))
    largest = sorted(cfg.N)[-1]
    for key, vec in vectors.items():
        if f"N={largest}" in key:
            amps = np.abs(np.asarray(vec))
            plot.append((f"|psi| {key}", list(range(len(amps))),
                         (amps / amps.max()).tolist()))
    try:
        line_plot(paths["svg"], plot, title="free-space defect states",
                  xlabel="N (rates) / site (profiles)",
                  ylabel="rate, normalized |psi|", logy=False)
    except ValueError:
        pass
    cols = ("N", "d_over_lambda0", "polarization", "site", "re_lambda",
            "im_lambda", "near_defect_weight")
    return _finish(cfg, paths, records, meta, tables=(cols, rows),
                   vectors=vectors)


# --------------------------------------------------------------- map-check


def cmd_mapcheck(cfg):
    """Verify the confinement-localization fold/unfold and parity
    reduction identities over a (M, K, kd) grid; optionally compare a
    full-chain dimer profile against the relative model."""
    paths = _outpaths(cfg)
    records, rows = [], []
    worst = {"fold": 0.0, "halving": 0.0, "parity": 0.0}
    for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
        for Kd_over_pi, Kd in zip(cfg.Kd_over_pi, cfg.Kd_values):
            for M in cfg.M:
                spec_rel = RelativeModelSpec(Kd=Kd, M=M, kd=kd,
                                             gamma1d=cfg.gamma)
                Hrel = build_relative_hamiltonian(spec_rel)
                Hdef = build_defect_relative_hamiltonian(spec_rel)
                t0 = time.perf_counter()
                sp = eig.eig_dense_all(Hrel)
                wall = time.perf_counter() - t0
                fold_res = 0.0
                for p in sp.pairs:
                    folded = theory.fold_even_extension(p.vector)
                    r = np.abs(Hdef @ folded - 0.5 * p.lam * folded).max()
                    fold_res = max(fold_res, float(r))
                    records.append(make_record(
                        "map-check", M, kd, "relative", "relative-mode",
                        p.lam, "dense", p.residual, wall, cfg.seed))
                wdef = np.linalg.eigvals(Hdef)
                match = eig.nearest_match(wdef, 0.5 * sp.eigenvalues)
                halving = float(np.max(np.abs(
                    wdef[match] - 0.5 * sp.eigenvalues)))
                parity = ""
                if abs(Kd - np.pi) < 1e-12 and kd < 0.5 * np.pi and M >= 2:
                    pr = theory.parity_reduce(kd)
                    Hpi = build_defect_relative_hamiltonian(spec_rel)
                    red = pr.reduce_even_block(Hpi, M)
                    parity = float(np.abs(red - pr.target_matrix(
                        M, cfg.gamma)).max())
                    worst["parity"] = max(worst["parity"], parity)
                worst["fold"] = max(worst["fold"], fold_res)
                worst["halving"] = max(worst["halving"], halving)
                rows.append([M, Kd_over_pi, kd_over_pi, fold_res, halving,
                             parity])
    meta = {"max_residuals": worst,
            "note": "relative-sector rows store M in the N column"}
    # cross-model profile comparison on a full chain, when N is given
    for N in cfg.N:
        for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
            chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
            pair, cls, _ = find_dimer(chain, "I", cfg)
            if pair is None:
                continue
            dec = analysis.k_delta_decompose(pair.vector, chain)
            prof = np.sqrt(dec.delta_profile)
            prof /= np.linalg.norm(prof)
            srel = eig.eig_dense_all(build_relative_hamiltonian(
                RelativeModelSpec(Kd=0.0, M=N - 1, kd=kd, gamma1d=cfg.gamma)))
            # the bound state, not the most subradiant: truncation noise
            # and band-edge states compete at small M
            om = theory.asymptotic_dimer(kd, "I", cfg.gamma).omega
            i = int(np.argmin(np.abs(srel.eigenvalues - om)))
            ground = np.abs(srel.pairs[i].vector)
            ground /= np.linalg.norm(ground)
            overlap = float(np.dot(prof, ground))
            meta[f"profile_overlap_N={N},kd_over_pi={kd_over_pi}"] = overlap
    plot = []
    for kd_over_pi in cfg.kd_over_pi:
        for Kd_over_pi in cfg.Kd_over_pi:
            pts = [(r[0], max(r[3], 1e-18)) for r in rows
                   if r[1] == Kd_over_pi and r[2] == kd_over_pi]
            pts.sort()
            plot.append((f"fold K={Kd_over_pi}pi kd={kd_over_pi}pi",
                         [p[0] for p in pts], [p[1] for p in pts]))
    try:
        line_plot(paths["svg"], plot, title="mapping residuals", xlabel="M",
                  ylabel="max residual", logy=True)
    except ValueError:
        pass
    cols = ("M", "Kd_over_pi", "kd_over_pi", "fold_residual",
            "halving_mismatch", "parity_residual")
    return _finish(cfg, paths, records, meta, tables=(cols, rows))


COMMANDS = {
    "spectrum": cmd_spectrum,
    "phase-diagram": cmd_phase_diagram,
    "scaling": cmd_scaling,
    "defect": cmd_defect,
    "disorder": cmd_disorder,
    "freespace": cmd_freespace,
    "map-check": cmd_mapcheck,
}
