"""The benchmark's workloads: inputs made from the seed, one round of grid
points, and the correctness checks on the round's outputs.

Each workload is a closed loop: one caller runs its grid points one after
another, except disorder-pool, which fans the disorder samples out to the
runner's process pool.  A grid point (one operation) is one find_dimer
call, or one full spectrum with its classification.  disorder-pool is
not in BENCHMARK.json: its times vary too much from run to run (see
README.md), but it runs by hand like the others.

Construction parses the configs and is part of set-up.  run_round() is
timed; points() and check() run outside the timed region.
"""

import time

import numpy as np

import checks
import reference

KD_DIMER = 0.1676  # kd / pi of the scaling and matrix-free points


class _Workload:
    ops = 0  # grid points per round

    def __init__(self, dc, seed, outdir):
        self.runner = dc.experiments.runner
        self.parse = dc.experiments.config.parse_config
        self.model = dc.model
        self.seed = seed

    def points(self, result, calls):
        """(seconds, ok) per grid point run in the round."""
        return [(c["seconds"], c["lam"] is not None) for c in calls]

    def failures(self, calls):
        return [f"N={c['N']} Dimer{c['type']}: {c['error'] or 'no state with the label'}"
                for c in calls if c["lam"] is None]


class ScalingDirect(_Workload):
    """`scaling` with si-direct: few, large LU shift-invert solves."""

    name = "scaling-direct"

    def __init__(self, dc, seed, outdir):
        super().__init__(dc, seed, outdir)
        self.cfg = self.parse({
            "experiment": "scaling", "N": {"start": 50, "stop": 90, "step": 10},
            "kd_over_pi": [KD_DIMER], "seed": seed,
            "solver": {"mode": "si-direct"}, "out": outdir})
        self.ops = 2 * len(self.cfg.N)

    def run_round(self):
        return self.runner.cmd_scaling(self.cfg)

    def check(self, paths, calls):
        rows = checks.read_csv(paths["csv"])
        matches, problems = checks.match_rows(rows, calls)
        if len(matches) != self.ops:
            problems.append(f"{len(matches)} dimer rows, want {self.ops}")
        kd = KD_DIMER * np.pi
        problems += checks.eigen_residuals(
            [dict(c, name=f"N={c['N']} {c['label']}", kd=kd,
                  z=reference.clean_positions(c["N"])) for _, c in matches],
            self.cfg.solver.tol)
        return problems + checks.scaling_physics(rows)


class SpectrumDense(_Workload):
    """`spectrum` with dense: full zgeev spectra and a classification of
    every state; no shift-invert solve runs."""

    name = "spectrum-dense"
    GRID = [(N, k) for N in (40, 50) for k in (0.2, 0.25)]

    def __init__(self, dc, seed, outdir):
        super().__init__(dc, seed, outdir)
        # one run per point, so that each point's time is its own
        self.cfgs = [self.parse({
            "experiment": "spectrum", "N": [N], "kd_over_pi": [k], "seed": seed,
            "solver": {"mode": "dense"}, "out": outdir}) for N, k in self.GRID]
        self.ops = len(self.cfgs)

    def run_round(self):
        out = []
        for cfg in self.cfgs:
            t0 = time.perf_counter()
            out.append((self.runner.cmd_spectrum(cfg), time.perf_counter() - t0))
        return out

    def points(self, result, calls):
        return [(seconds, True) for _, seconds in result]

    def check(self, result, calls):
        problems = []
        for (N, k), (paths, _) in zip(self.GRID, result):
            rows = checks.read_csv(paths["csv"])
            problems += checks.spectrum_point(f"N={N} kd={k}pi", rows, N, k * np.pi)
        return problems


class MatrixFree(_Workload):
    """runner.find_dimer with si-matfree: the O(N^2) matvec, GMRES and the
    product-space preconditioner do all the work."""

    name = "matfree"
    # (N, dimer type, seeded): the DimerII point raises InnerSolveStagnation
    # on every run; it keeps a fixed seed so that it fails the same way
    # whatever --seed is
    POINTS = ((60, "I", True), (70, "I", True), (60, "II", False))
    FIXED_SEED = 0

    def __init__(self, dc, seed, outdir):
        super().__init__(dc, seed, outdir)

        def cfg(s):
            return self.parse({
                "experiment": "scaling", "N": [60, 70], "kd_over_pi": [KD_DIMER],
                "seed": s, "solver": {"mode": "si-matfree"}, "out": outdir})

        self.cfg, self.cfg_fixed = cfg(seed), cfg(self.FIXED_SEED)
        self.ops = len(self.POINTS)

    def run_round(self):
        kd = self.cfg.kd_values[0]
        for N, dimer_type, seeded in self.POINTS:
            chain = self.model.ChainGeometry.from_kd(N, kd, gamma1d=self.cfg.gamma)
            try:
                self.runner.find_dimer(chain, dimer_type,
                                       self.cfg if seeded else self.cfg_fixed,
                                       "si-matfree")
            except Exception:  # the hook recorded it; the point counts as failed
                pass

    def check(self, result, calls):
        kept = [dict(c, name=f"N={c['N']} {c['label']}",
                     z=reference.clean_positions(c["N"]))
                for c in calls if c["lam"] is not None]
        problems = checks.eigen_residuals(kept, self.cfg.solver.tol)
        first = [c for c in kept if c["N"] == 60 and c["type"] == "I"]
        if not first:
            return problems + ["no DimerI at N=60 to compare with the dense spectrum"]
        c = first[0]
        return problems + checks.dense_match(c["name"], c["lam"], c["z"], c["kd"])


class DisorderPool(_Workload):
    """`disorder` through the runner's process pool: many small LU solves."""

    name = "disorder-pool"
    KDS = (0.15, 0.1676, 0.1833)

    def __init__(self, dc, seed, outdir):
        super().__init__(dc, seed, outdir)
        self.cfg = self.parse({
            "experiment": "disorder", "N": [60], "kd_over_pi": list(self.KDS),
            "seed": seed, "disorder": {"delta": 0.01, "samples": 6}, "jobs": 2,
            "solver": {"mode": "si-direct"}, "out": outdir})
        # the clean chain per kd, then every sample per kd
        self.ops = len(self.KDS) * (1 + self.cfg.disorder.samples)

    def run_round(self):
        return self.runner.cmd_disorder(self.cfg)

    def check(self, paths, calls):
        rows = checks.read_csv(paths["csv"])
        kds = [k * np.pi for k in self.KDS]
        problems = checks.disorder_dip(rows, kds)
        matches, more = checks.match_rows(rows, calls)
        problems += more
        if len(matches) != self.ops:
            problems.append(f"{len(matches)} dimer rows, want {self.ops}")
        N, delta = self.cfg.N[0], self.cfg.disorder.delta
        kept = [dict(c, name=f"sample {r['sample_index']} kd={r['kd']}",
                     kd=float(r["kd"]),
                     z=reference.disorder_positions(self.seed, int(r["sample_index"]),
                                                    N, delta))
                for r, c in matches]
        return problems + checks.eigen_residuals(kept, self.cfg.solver.tol)


WORKLOADS = {w.name: w for w in (ScalingDirect, SpectrumDense, MatrixFree, DisorderPool)}
