"""The numerical campaigns behind each CLI subcommand.

Every command is one sweep: a list of tasks, a module-level point
function point(task, cfg) -> (records, table rows, vectors, summary),
and one writer.  _sweep runs the point function through _pmap (in
cfg.jobs worker processes) and gathers the results in task order, so
outputs do not depend on jobs.  The command derives its metadata and
plot from the gathered rows and summaries; _finish writes a SweepRecord
CSV (the contract), a sorted-key JSON metadata sidecar, an optional
per-grid-point table, optional eigenvector dumps and an SVG plot.
Reruns with the same config and seed are byte-identical except for
wall-time columns.  A task is one grid point, except in `scaling`,
whose warm starts along N make a whole kd series one task.

Full two-excitation spectra (`spectrum`) are dense zgeev up to N = 70,
one per mirror-parity sector of the clean chain.  Past that cap, which
only solver.fallback allows, they are the targeted partial spectrum
around both dimer eigenvalues, flagged in metadata.  Every other
two-excitation search is targeted: Krylov-Schur on the exact structured
shift-invert of eig._make_shift_solver, with O(N^2) memory and no cap
on N.  Each chain's H1 is diagonalized once, by analysis.fermionic_basis,
and every one-excitation quantity of the chain reads that core.
"""
import functools
import os
import platform
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


def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _sweep(cfg, point, tasks):
    """point(task, cfg) over the tasks, in cfg.jobs processes; returns the
    concatenated records, table rows and vectors, and the list of
    per-task summaries, all in task order."""
    records, rows, vectors, summaries = [], [], {}, []
    for rec, row, vec, summary in _pmap(functools.partial(point, cfg=cfg),
                                        tasks, cfg.jobs):
        records += rec
        rows += row
        vectors.update(vec)
        summaries.append(summary)
    return records, rows, vectors, summaries


def _finish(cfg, records, meta, plot, table=None, vectors=None):
    """Write a run's files, named <experiment>-<run hash>.*, and return
    their paths.  plot(svg_path) draws the figure; a run with nothing to
    draw (the plotters raise ValueError) has no SVG.  The metadata also
    records the environment: the Python and numpy versions and the CPU
    count, all fixed on one machine, so reruns stay byte-identical."""
    os.makedirs(cfg.out, exist_ok=True)
    base = os.path.join(cfg.out, f"{cfg.experiment}-{cfg.run_hash()}")
    paths = {"csv": base + ".csv", "table": base + ".grid.csv",
             "meta": base + ".meta.json", "vectors": base + ".vectors.json",
             "svg": base + ".svg"}
    try:
        plot(paths["svg"])
    except ValueError:
        pass
    write_records(paths["csv"], records)
    write_meta(paths["meta"], dict(
        meta, experiment=cfg.experiment, config=cfg.canonical_dict(),
        run_hash=cfg.run_hash(), n_records=len(records),
        environment={"python": platform.python_version(),
                     "numpy": np.__version__, "cpu_count": os.cpu_count()}))
    if table:
        write_table(paths["table"], *table)
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
    solve = eig._make_shift_solver(ferm, th.omega)
    spec = None
    for count in (cfg.solver.count, 4 * cfg.solver.count):
        spec = _targeted_two_exc(op, solve, cfg, count=count, v0=v0)
        classes = analysis.classify_states(spec.pairs, chain, ferm=ferm,
                                           basis=basis, thresholds=thresholds)
        try:
            i = analysis.most_subradiant_index(
                spec.pairs, classes, label=label, omega_target=th.omega)
        except ValueError:
            continue
        return spec.pairs[i], classes[i], spec
    return None, None, spec


def _one_exc(chain, ferm, cfg):
    """Most subradiant one-excitation eigenpair of the chain's core ferm,
    picked by the order eig.Spectrum sorts in, and its record."""
    t0 = time.perf_counter()
    lam = ferm.values
    i = min(range(len(lam)), key=lambda j: (-lam[j].imag, lam[j].real))
    one = eig.EigenPair(complex(lam[i]), ferm.vectors[:, i], 0.0)
    one.residual = eig.residual_norm(build_single_hamiltonian(chain), one)
    return one, [make_record(
        cfg.experiment, chain.N, chain.kd, "one-exc", "one-exc", one.lam,
        "dense", one.residual, time.perf_counter() - t0, cfg.seed)]


def _dimer(chain, dimer_type, cfg, sample=-1, **kwargs):
    """find_dimer and the record of the state it found: (pair, [record]),
    or (None, []) when the label is absent."""
    t0 = time.perf_counter()
    pair, cls, _ = find_dimer(chain, dimer_type, cfg, **kwargs)
    wall = time.perf_counter() - t0
    if pair is None:
        return None, []
    return pair, [make_record(
        cfg.experiment, chain.N, chain.kd, "two-exc", cls.label, pair.lam,
        eig.SOLVER_MODE, pair.residual, wall, cfg.seed, sample_index=sample)]


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


# ---------------------------------------------------------------- spectrum


def _spectrum_point(task, cfg):
    N, kd_over_pi, kd = task
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
    basis = TwoExcitationBasis(N)
    # full spectra are dense; past the cap (parse_config allows it only
    # with solver.fallback) the run degrades to a targeted partial
    # spectrum around both dimer branches (flagged in metadata)
    partial = N > DENSE_TWOEXC_CAP
    ferm = analysis.fermionic_basis(chain)
    t0 = time.perf_counter()
    if not partial:
        H2 = build_two_hamiltonian(chain, basis=basis)
        spec = eig.eig_dense_all(H2, mirror=basis.mirror())
        pairs = spec.pairs
        sectors = spec.meta["mirror_sectors"]
        trace_gap = abs(np.sum(spec.eigenvalues) - np.trace(H2)) / max(
            abs(np.trace(H2)), 1e-300)
    else:
        op = TwoExcitationWaveguideOp(chain, basis)
        seen, pairs = set(), []
        for t in ("I", "II"):
            om = theory.asymptotic_dimer(kd, t, cfg.gamma).omega
            sp = _targeted_two_exc(op, eig._make_shift_solver(ferm, om), cfg)
            for p in sp.pairs:
                key = (round(p.lam.real, 9), round(p.lam.imag, 9))
                if key not in seen:
                    seen.add(key)
                    pairs.append(p)
        trace_gap = sectors = None
    wall = time.perf_counter() - t0
    classes = analysis.classify_states(pairs, chain, ferm=ferm, basis=basis)
    mode_used = "dense" if not partial else eig.SOLVER_MODE
    records = [make_record("spectrum", N, kd, "two-exc", c.label, p.lam,
                           mode_used, p.residual, wall, cfg.seed)
               for p, c in zip(pairs, classes)]
    key = f"N={N},kd_over_pi={kd_over_pi}"
    summary = {
        "branches": analysis.branch_summary(classes, ferm.values, cfg.gamma),
        "partial": partial,
        "trace_relative_gap": trace_gap,
        "states": len(pairs),
        "mirror_sectors": sectors,
    }
    vectors = {}
    if cfg.dump_vectors:
        for label in (analysis.DIMER_I, analysis.DIMER_II,
                      analysis.FERMIONIC, analysis.OTHER):
            try:
                p = analysis.most_subradiant(pairs, classes, label)
            except ValueError:
                continue
            vectors[f"{key},label={label}"] = p.vector
    scatter = []
    for label in sorted({c.label for c in classes}):
        pts = [(p.lam.real, p.decay_rate) for p, c in zip(pairs, classes)
               if c.label == label and p.decay_rate > 0]
        if pts:
            scatter.append((f"{label} {key}", [q[0] for q in pts],
                            [q[1] for q in pts]))
    return records, [], vectors, (key, summary, scatter)


def cmd_spectrum(cfg):
    """Full two-excitation spectrum per (N, kd), classified, with a
    branch summary; falls back to a targeted partial spectrum past the
    dense cap when solver.fallback is set."""
    tasks = [(N, kd_over_pi, kd) for N in cfg.N
             for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)]
    records, _, vectors, points = _sweep(cfg, _spectrum_point, tasks)
    meta = {"summaries": {key: summary for key, summary, _ in points},
            "classifier_thresholds": vars(analysis.ClassifierThresholds())}
    scatter = [s for _, _, series in points for s in series]
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, scatter, title="two-excitation spectrum",
        xlabel="Re lambda / Gamma", ylabel="decay rate / Gamma", logy=True),
        vectors=vectors)


# ----------------------------------------------------------- phase diagram


def _phase_point(task, cfg):
    N, kd_over_pi, kd = task
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
    ferm = analysis.fermionic_basis(chain)
    one, records = _one_exc(chain, ferm, cfg)
    pair, found = _dimer(chain, "II", cfg, ferm=ferm)
    rII = pair.decay_rate if pair is not None else ""
    row = [N, kd_over_pi, rII, one.decay_rate, ferm.baseline,
           bool(rII != "" and rII < one.decay_rate),
           bool(rII != "" and rII < ferm.baseline)]
    return records + found, [row], {}, None


def cmd_phase_diagram(cfg):
    """Most subradiant type-II rate vs (N, kd) against the one-excitation
    minimum and the fermionic sum-rule baseline, with crossover curves."""
    tasks = [(N, kd_over_pi, kd)
             for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)
             for N in cfg.N]
    records, rows, _, _ = _sweep(cfg, _phase_point, tasks)
    meta = {"first_crossover_N": {
        str(k): min((r[0] for r in rows if r[1] == k and r[5]), default=None)
        for k in cfg.kd_over_pi}}
    rateII = {(r[1], r[0]): r[2] for r in rows}
    Zplot = [[rateII[(k, N)] or 0.0 for N in sorted(cfg.N)]
             for k in cfg.kd_over_pi]
    cols = ("N", "kd_over_pi", "rate_dimerII", "rate_one_exc",
            "fermionic_baseline", "crossover_vs_one_exc",
            "crossover_vs_fermionic")
    return _finish(cfg, records, meta, lambda svg: heatmap(
        svg, sorted(cfg.N), list(cfg.kd_over_pi), Zplot,
        title="type-II dimer decay rate", xlabel="N", ylabel="kd / pi",
        log=True), table=(cols, rows))


# ----------------------------------------------------------------- scaling


def _scaling_series(task, cfg):
    """One kd series in ascending N; each size's dimer searches start from
    the previous size's dimer vectors."""
    kd_over_pi, kd = task
    Ns = sorted(cfg.N)
    records, rows = [], []
    series = {}  # (kd_over_pi, name) -> [(N, rate)]
    warm = {"I": None, "II": None}
    for N in Ns:
        chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
        basis = TwoExcitationBasis(N)
        ferm = analysis.fermionic_basis(chain)
        one, rec = _one_exc(chain, ferm, cfg)
        records += rec
        series.setdefault((kd_over_pi, "one-exc"), []).append(
            (N, one.decay_rate))
        for t in ("I", "II"):
            name = "Dimer" + t
            pair, rec = _dimer(chain, t, cfg, ferm=ferm, basis=basis,
                               v0=warm[t])
            records += rec
            if pair is None:
                rows.append([N, kd_over_pi, name, "", "", eig.SOLVER_MODE])
                warm[t] = None
                continue
            series.setdefault((kd_over_pi, name), []).append(
                (N, pair.decay_rate))
            rows.append([N, kd_over_pi, name, pair.lam.real,
                         pair.decay_rate, eig.SOLVER_MODE])
            if N != Ns[-1]:
                nxt = TwoExcitationBasis(Ns[Ns.index(N) + 1])
                warm[t] = _embed_pair_vector(pair.vector, basis, nxt)
    return records, rows, {}, series


def cmd_scaling(cfg):
    """Decay rate vs N for the type-I / type-II / one-excitation series,
    power-law fits, plus period-4 and dip diagnostics."""
    records, rows, _, parts = _sweep(
        cfg, _scaling_series, list(zip(cfg.kd_over_pi, cfg.kd_values)))
    series = {}
    for part in parts:
        for key, pts in part.items():
            series.setdefault(key, []).extend(pts)
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
    cols = ("N", "kd_over_pi", "series", "re_lambda", "decay_rate", "mode")
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, plot, title="decay rate scaling", xlabel="N",
        ylabel="decay rate / Gamma", logx=True, logy=True), table=(cols, rows))


# ------------------------------------------------------------------ defect


def _defect_point(task, cfg):
    kd_over_pi, kd, N, site = task
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
    sol = theory.solve_defect_secular(N, kd, site, cfg.gamma)
    t0 = time.perf_counter()
    spec = eig.eig_dense_all(build_missing_site_hamiltonian(chain, site))
    wall = time.perf_counter() - t0
    pair = spec.pairs[int(np.argmin(np.abs(spec.eigenvalues - sol.omega)))]
    record = make_record("defect", N, kd, "one-exc", "defect-localized",
                         pair.lam, "dense", pair.residual, wall, cfg.seed)
    row = [N, kd_over_pi, site, sol.minNLR, pair.lam.real, pair.lam.imag,
           sol.omega.real, sol.omega.imag, abs(pair.lam - sol.omega),
           sol.secular_residual, sol.equation]
    vectors = ({f"N={N},site={site},kd_over_pi={kd_over_pi}": pair.vector}
               if cfg.dump_vectors else {})
    return [record], [row], vectors, None


def cmd_defect(cfg):
    """Missing-emitter localized states: dense numerics vs the secular
    equation, per (N, site, kd)."""
    tasks = [(kd_over_pi, kd, N, site)
             for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)
             for N in sorted(cfg.N)
             for site in cfg.defect_sites or (N // 2,)]
    records, rows, vectors, _ = _sweep(cfg, _defect_point, tasks)
    # rate = -2 Im lambda (row column 5)
    meta, plot = {}, []
    for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values):
        central = [(r[0], -2.0 * r[5]) for r in rows
                   if r[1] == kd_over_pi and r[2] == r[0] // 2]
        pts = [p for p in central if p[1] > 0]
        if pts:
            plot.append((f"central defect kd={kd_over_pi}pi",
                         [p[0] for p in pts], [p[1] for p in pts]))
        central = dict(central)
        if len(central) >= 5:
            Ns = np.array(sorted(central), dtype=float)
            rates = np.array([central[int(n)] for n in Ns])
            if np.all(rates > 0):
                slope = np.polyfit(Ns, np.log(rates), 1)[0]
                predicted = np.log(np.cos(kd))
                meta[f"central_slope_kd_over_pi={kd_over_pi}"] = {
                    "fit_dlog_rate_dN": slope,
                    "predicted_log_cos_kd": predicted,
                    "relative_gap": abs(slope - predicted) / abs(predicted),
                }
    if not plot:
        pts = [(r[2], -2.0 * r[5]) for r in rows if -2.0 * r[5] > 0]
        if pts:
            plot.append(("defect scan", [p[0] for p in pts],
                         [p[1] for p in pts]))
    cols = ("N", "kd_over_pi", "site", "minNLR", "re_numeric", "im_numeric",
            "re_secular", "im_secular", "abs_gap", "secular_residual",
            "equation")
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, plot, title="defect-localized decay rate",
        xlabel="N (or site)", ylabel="decay rate / Gamma", logy=True),
        table=(cols, rows), vectors=vectors)


# ---------------------------------------------------------------- disorder


def _disorder_point(task, cfg):
    """The most subradiant DimerII of one disorder sample, or of the clean
    chain for sample -1."""
    N, kd_over_pi, kd, sample = task
    offsets = None if sample < 0 else tuple(
        disorder_offsets(cfg.seed, sample, N, cfg.disorder.delta))
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma, offsets=offsets)
    pair, records = _dimer(chain, "II", cfg, sample=sample,
                           thresholds=DISORDER_THRESHOLDS)
    rate = pair.decay_rate if pair is not None else None
    return records, [], {}, (N, kd_over_pi, sample, rate)


def cmd_disorder(cfg):
    """Ensemble of weakly position-disordered chains: most subradiant
    type-II rate per sample, with the clean chain as reference rows
    (sample_index = -1)."""
    if cfg.disorder.samples < 1:
        raise ConfigError("disorder needs disorder.samples >= 1")
    grid = [(N, kd_over_pi, kd)
            for kd_over_pi, kd in zip(cfg.kd_over_pi, cfg.kd_values)
            for N in cfg.N]
    # the clean chains first, so that their records lead the CSV
    tasks = ([g + (-1,) for g in grid]
             + [g + (s,) for g in grid for s in range(cfg.disorder.samples)])
    records, _, _, rates = _sweep(cfg, _disorder_point, tasks)
    clean = {(k, N): r for N, k, s, r in rates if s < 0}
    rows = []
    for N, k, s, r in rates[len(grid):]:
        cl = clean[(k, N)]
        rows.append([N, k, s, "" if r is None else r, "" if cl is None else cl,
                     "" if r is None else bool(cl is not None and r < cl)])
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
    cols = ("N", "kd_over_pi", "sample", "rate_dimerII", "rate_clean",
            "below_clean")
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, plot, title="type-II rate under disorder", xlabel="kd / pi",
        ylabel="decay rate / Gamma", logy=True), table=(cols, rows))


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


def _freespace_point(task, cfg):
    d_over_l, N, site = task
    kernel = FreeSpace3D(lambda0=1.0, gamma0=cfg.gamma,
                         polarization=cfg.kernel)
    chain = ChainGeometry(N=N, k1d=kernel.k0, d=d_over_l, gamma1d=cfg.gamma)
    t0 = time.perf_counter()
    spec = eig.eig_dense_all(
        build_missing_site_hamiltonian(chain, site, kernel=kernel))
    wall = time.perf_counter() - t0
    pair, frac = _localized_state(spec, np.delete(chain.positions, site),
                                  chain.positions[site], window=5.0 * d_over_l)
    record = make_record("freespace", N, kernel.k0 * d_over_l, "one-exc",
                         "defect-localized", pair.lam, "dense", pair.residual,
                         wall, cfg.seed)
    row = [N, d_over_l, cfg.kernel, site, pair.lam.real, pair.lam.imag, frac]
    key = f"pol={cfg.kernel},d_over_lambda0={d_over_l},N={N},site={site}"
    return [record], [row], {key: pair.vector}, None


def cmd_freespace(cfg):
    """Free-space dipole chains with a missing emitter: localized-state
    profiles (amplitude and phase) and decay rate vs N."""
    tasks = [(d_over_l, N, site) for d_over_l in cfg.d_over_lambda0
             for N in sorted(cfg.N)
             for site in cfg.defect_sites or (N // 2,)]
    records, rows, vectors, _ = _sweep(cfg, _freespace_point, tasks)
    # rate = -2 Im lambda (row column 5); the default central site moves
    # with N, so rate-vs-N convergence is tracked per spacing in that case
    rate_vs_N = {}
    for r in rows:
        key = (r[1], r[3] if cfg.defect_sites else "central")
        rate_vs_N.setdefault(key, []).append((r[0], -2.0 * r[5]))
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
    cols = ("N", "d_over_lambda0", "polarization", "site", "re_lambda",
            "im_lambda", "near_defect_weight")
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, plot, title="free-space defect states",
        xlabel="N (rates) / site (profiles)",
        ylabel="rate, normalized |psi|", logy=False),
        table=(cols, rows), vectors=vectors)


# --------------------------------------------------------------- map-check


def _fold_point(task, cfg):
    """Fold/unfold, halving and parity residuals of one (kd, K, M) point."""
    kd_over_pi, kd, Kd_over_pi, Kd, M = task
    spec_rel = RelativeModelSpec(Kd=Kd, M=M, kd=kd, gamma1d=cfg.gamma)
    Hrel = build_relative_hamiltonian(spec_rel)
    Hdef = build_defect_relative_hamiltonian(spec_rel)
    t0 = time.perf_counter()
    sp = eig.eig_dense_all(Hrel)
    wall = time.perf_counter() - t0
    records, fold_res = [], 0.0
    for p in sp.pairs:
        folded = theory.fold_even_extension(p.vector)
        r = np.abs(Hdef @ folded - 0.5 * p.lam * folded).max()
        fold_res = max(fold_res, float(r))
        records.append(make_record(
            "map-check", M, kd, "relative", "relative-mode", p.lam, "dense",
            p.residual, wall, cfg.seed))
    wdef = np.linalg.eigvals(Hdef)
    match = eig.nearest_match(wdef, 0.5 * sp.eigenvalues)
    halving = float(np.max(np.abs(wdef[match] - 0.5 * sp.eigenvalues)))
    parity = ""
    if abs(Kd - np.pi) < 1e-12 and kd < 0.5 * np.pi and M >= 2:
        pr = theory.parity_reduce(kd)
        parity = float(np.abs(pr.reduce_even_block(Hdef, M)
                              - pr.target_matrix(M, cfg.gamma)).max())
    return records, [[M, Kd_over_pi, kd_over_pi, fold_res, halving,
                      parity]], {}, None


def _profile_point(task, cfg):
    """Overlap of a full-chain DimerI Delta profile with the relative
    model's bound state: (meta key, overlap), or None without a DimerI."""
    N, kd_over_pi, kd = task
    chain = ChainGeometry.from_kd(N, kd, gamma1d=cfg.gamma)
    pair, cls, _ = find_dimer(chain, "I", cfg)
    if pair is None:
        return [], [], {}, None
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
    key = f"profile_overlap_N={N},kd_over_pi={kd_over_pi}"
    return [], [], {}, (key, float(np.dot(prof, ground)))


def cmd_mapcheck(cfg):
    """Verify the confinement-localization fold/unfold and parity
    reduction identities over a (M, K, kd) grid; optionally compare a
    full-chain dimer profile against the relative model."""
    kds = list(zip(cfg.kd_over_pi, cfg.kd_values))
    grid = [(kd_over_pi, kd, Kd_over_pi, Kd, M) for kd_over_pi, kd in kds
            for Kd_over_pi, Kd in zip(cfg.Kd_over_pi, cfg.Kd_values)
            for M in cfg.M]
    records, rows, _, _ = _sweep(cfg, _fold_point, grid)
    worst = {"fold": max([0.0] + [r[3] for r in rows]),
             "halving": max([0.0] + [r[4] for r in rows]),
             "parity": max([0.0] + [r[5] for r in rows if r[5] != ""])}
    meta = {"max_residuals": worst,
            "note": "relative-sector rows store M in the N column"}
    # cross-model profile comparison on a full chain, when N is given
    *_, overlaps = _sweep(cfg, _profile_point,
                          [(N,) + k for N in cfg.N for k in kds])
    meta.update(o for o in overlaps if o is not None)
    plot = []
    for kd_over_pi in cfg.kd_over_pi:
        for Kd_over_pi in cfg.Kd_over_pi:
            pts = sorted((r[0], max(r[3], 1e-18)) for r in rows
                         if r[1] == Kd_over_pi and r[2] == kd_over_pi)
            plot.append((f"fold K={Kd_over_pi}pi kd={kd_over_pi}pi",
                         [p[0] for p in pts], [p[1] for p in pts]))
    cols = ("M", "Kd_over_pi", "kd_over_pi", "fold_residual",
            "halving_mismatch", "parity_residual")
    return _finish(cfg, records, meta, lambda svg: line_plot(
        svg, plot, title="mapping residuals", xlabel="M",
        ylabel="max residual", logy=True), table=(cols, rows))


COMMANDS = {
    "spectrum": cmd_spectrum,
    "phase-diagram": cmd_phase_diagram,
    "scaling": cmd_scaling,
    "defect": cmd_defect,
    "disorder": cmd_disorder,
    "freespace": cmd_freespace,
    "map-check": cmd_mapcheck,
}
