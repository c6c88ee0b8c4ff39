"""Correctness checks on a workload's outputs, made apart from the program.

Every check returns a list of problems; an empty list means it passed.
Eigenvalues and eigenvectors are tested against reference.py's own
Hamiltonian, never against dimerchain's.
"""

import csv

import numpy as np
import scipy.linalg as sla

import reference

# a kept eigenpair may miss the solver tolerance by rounding in the
# benchmark's own H2 (plain float64 phases), never by more than this factor
RESIDUAL_FACTOR = 10.0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def row_lambda(row):
    return complex(float(row["re_lambda"]), float(row["im_lambda"]))


def eigen_residuals(kept, tol):
    """||H2 v - lambda v|| <= RESIDUAL_FACTOR * tol * ||v|| for each kept pair.

    kept: dicts with z, kd, gamma, lam, vector and a name for messages.
    """
    problems = []
    for k in kept:
        V = reference.coupling(k["z"], k["kd"], k["gamma"])
        v = np.asarray(k["vector"])
        r = np.linalg.norm(reference.apply_h2(V, k["gamma"], v) - k["lam"] * v)
        if not r <= RESIDUAL_FACTOR * tol * np.linalg.norm(v):
            problems.append(f"{k['name']}: residual {r:.3e} against tol {tol:.1e}")
    return problems


def dense_match(name, lam, z, kd, gamma=1.0, atol=1e-8):
    """lambda is within atol of the nearest eigenvalue of the dense H2."""
    w = sla.eigvals(reference.dense_h2(reference.coupling(z, kd, gamma), gamma),
                    overwrite_a=True, check_finite=False)
    near = w[np.argmin(np.abs(w - lam))]
    gap = abs(near - lam)
    if not gap <= atol:
        return [f"{name}: lambda {lam} is {gap:.2e} from the nearest dense "
                f"eigenvalue {near}"]
    return []


def spectrum_point(name, rows, N, kd, gamma=1.0):
    """A full spectrum: D rows, sum lambda = Tr H2, sum lambda^2 = Tr H2^2,
    and no negative decay rate (the chain is passive)."""
    D = N * (N - 1) // 2
    if len(rows) != D:
        return [f"{name}: {len(rows)} rows, want D = {D}"]
    lam = np.array([row_lambda(r) for r in rows])
    tr1, tr2 = reference.traces(reference.coupling(reference.clean_positions(N),
                                                   kd, gamma), gamma)
    # backward-stable eigensolvers keep both sums to O(D eps ||H||^k)
    scale = max(1.0, float(np.abs(lam).max()))
    problems = []
    gap1 = abs(lam.sum() - tr1)
    if not gap1 <= 1e-13 * D * scale:
        problems.append(f"{name}: |sum lambda - Tr H2| = {gap1:.2e}")
    gap2 = abs(np.sum(lam * lam) - tr2)
    if not gap2 <= 1e-13 * D * scale ** 2:
        problems.append(f"{name}: |sum lambda^2 - Tr H2^2| = {gap2:.2e}")
    rates = np.array([float(r["decay_rate"]) for r in rows])
    if not rates.min() >= -1e-13 * scale:
        problems.append(f"{name}: decay rate {rates.min():.2e} < 0")
    return problems


def scaling_physics(rows, crossover=48):
    """The DimerII rate is below the one-excitation minimum at the first
    size past the crossover, and the one-excitation minimum falls like
    N^-3 (+- 0.3).

    Past the crossover the DimerII rate is modulated with period 4 in N,
    and at kd = 0.1676 pi it is back above the one-excitation minimum at
    N = 60 and N = 90; only the first size is a property of every sweep.
    """
    one, two = {}, {}
    for r in rows:
        if r["sector"] == "one-exc":
            one[int(r["N"])] = float(r["decay_rate"])
        elif r["state_label"] == "DimerII":
            two[int(r["N"])] = float(r["decay_rate"])
    Ns = sorted(n for n in one if n > crossover)
    if len(Ns) < 3:
        return [f"scaling: one-excitation rates at only {len(Ns)} sizes > {crossover}"]
    problems = []
    first = Ns[0]
    if not (first in two and two[first] < one[first]):
        problems.append(f"scaling: N = {first}: DimerII rate {two.get(first)} is not "
                        f"below the one-excitation minimum {one[first]}")
    slope = np.polyfit(np.log(Ns), np.log([one[n] for n in Ns]), 1)[0]
    if not abs(slope + 3.0) <= 0.3:
        problems.append(f"scaling: one-excitation exponent {slope:+.3f}, want -3 +- 0.3")
    return problems


def disorder_dip(rows, kds):
    """The subradiance dip sits at an interior kd, for the clean chain
    (sample -1) and for the disordered ensemble's mean log rate.

    Single samples are not tested: disorder spreads one sample's rate over
    about a decade, and about one sample in eight has its lowest rate at an
    edge kd.
    """
    kds = [round(k, 12) for k in kds]
    by_sample = {}
    for r in rows:
        if r["state_label"] == "DimerII":
            kd = round(float(r["kd"]), 12)
            by_sample.setdefault(int(r["sample_index"]), {})[kd] = float(r["decay_rate"])
    problems = [f"disorder sample {s}: DimerII at kd {sorted(curve)}"
                for s, curve in sorted(by_sample.items()) if sorted(curve) != sorted(kds)]
    samples = [s for s in by_sample if s >= 0]
    if problems or -1 not in by_sample or not samples:
        return problems + [f"disorder: DimerII rows for samples {sorted(by_sample)}"]
    curves = {
        "clean chain": [by_sample[-1][k] for k in kds],
        "ensemble mean log rate": np.exp([np.mean([np.log(by_sample[s][k])
                                                   for s in samples]) for k in kds]),
    }
    for name, rates in curves.items():
        i = int(np.argmin(rates))
        if not 0 < i < len(kds) - 1:
            problems.append(f"disorder {name}: lowest rate at kd = {kds[i]}, "
                            "not at an interior kd")
    return problems


def match_rows(rows, captured):
    """Pair each two-excitation CSV row with the captured eigenpair of the
    same N and the bitwise-same lambda.  Returns (matches, problems)."""
    index = {}
    for c in captured:
        if c["lam"] is not None:
            index.setdefault((c["N"], c["lam"]), []).append(c)
    matches, problems = [], []
    for r in rows:
        if r["sector"] != "two-exc":
            continue
        hits = index.get((int(r["N"]), row_lambda(r)))
        if not hits:
            problems.append(f"CSV row N={r['N']} lambda={row_lambda(r)} matches "
                            "no eigenpair returned by find_dimer")
            continue
        matches.append((r, hits[0]))
    return matches, problems
