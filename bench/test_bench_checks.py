"""The benchmark's correctness checks pass on right results and fail on
corrupted ones.  Small chains, so the whole file runs in about a second."""

import numpy as np
import pytest

import checks
import reference

KD = 0.1676 * np.pi


def _row(N, lam, sector="two-exc", label="Other", sample=-1, kd=KD):
    lam = complex(lam)
    return {"N": str(N), "kd": repr(kd), "sector": sector, "state_label": label,
            "re_lambda": repr(lam.real), "im_lambda": repr(lam.imag),
            "decay_rate": repr(-2.0 * lam.imag), "sample_index": str(sample)}


def _dense_spectrum(N, kd=KD, z=None):
    z = reference.clean_positions(N) if z is None else z
    H = reference.dense_h2(reference.coupling(z, kd), 1.0)
    lam, vecs = np.linalg.eig(H)
    return z, lam, vecs


def _kept(N, i=0):
    z, lam, vecs = _dense_spectrum(N)
    return {"name": "pair", "z": z, "kd": KD, "gamma": 1.0, "lam": lam[i],
            "vector": vecs[:, i]}


def test_reference_matches_program_hamiltonian():
    from dimerchain.model import ChainGeometry, build_two_hamiltonian

    N = 7
    H = reference.dense_h2(reference.coupling(reference.clean_positions(N), KD), 1.0)
    assert np.allclose(H, build_two_hamiltonian(ChainGeometry.from_kd(N, KD)),
                       rtol=0, atol=1e-13)


def test_reference_matvec_and_traces_agree_with_dense():
    N = 9
    z = reference.disorder_positions(5, 2, N, 0.01)
    V = reference.coupling(z, KD)
    H = reference.dense_h2(V, 1.0)
    psi = np.random.default_rng(0).standard_normal(H.shape[0]) + 0j
    assert np.allclose(reference.apply_h2(V, 1.0, psi), H @ psi, rtol=0, atol=1e-13)
    tr1, tr2 = reference.traces(V, 1.0)
    assert abs(tr1 - np.trace(H)) < 1e-12
    assert abs(tr2 - np.trace(H @ H)) < 1e-12


def test_disorder_positions_follow_the_philox_stream():
    a = reference.disorder_positions(7, 3, 12, 0.01)
    assert np.array_equal(a, reference.disorder_positions(7, 3, 12, 0.01))
    assert not np.array_equal(a, reference.disorder_positions(7, 4, 12, 0.01))
    assert np.all(np.abs(a - np.arange(12)) <= 0.01)
    assert np.array_equal(reference.disorder_positions(7, -1, 12, 0.01), np.arange(12))


def test_eigen_residuals_pass_on_an_eigenpair():
    assert checks.eigen_residuals([_kept(8)], tol=1e-10) == []


@pytest.mark.parametrize("corrupt", [
    lambda k: dict(k, lam=k["lam"] + 1e-6),
    lambda k: dict(k, vector=k["vector"] + 1e-6 * np.roll(k["vector"], 1)),
    lambda k: dict(k, z=k["z"] + 1e-3 * np.arange(len(k["z"]))),
])
def test_eigen_residuals_fail_on_corruption(corrupt):
    assert checks.eigen_residuals([corrupt(_kept(8))], tol=1e-10)


def test_dense_match():
    k = _kept(8, 3)
    assert checks.dense_match("pair", k["lam"], k["z"], KD) == []
    assert checks.dense_match("pair", k["lam"] + 1e-6, k["z"], KD)


def _spectrum_rows(N, kd=KD):
    _, lam, _ = _dense_spectrum(N, kd)
    return [_row(N, x, kd=kd) for x in lam]


def test_spectrum_point_passes_on_a_full_spectrum():
    assert checks.spectrum_point("p", _spectrum_rows(10), 10, KD) == []


def test_spectrum_point_fails_on_a_dropped_row():
    assert checks.spectrum_point("p", _spectrum_rows(10)[1:], 10, KD)


def test_spectrum_point_fails_on_a_shifted_eigenvalue():
    rows = _spectrum_rows(10)
    rows[4] = _row(10, checks.row_lambda(rows[4]) + 1e-6)
    assert checks.spectrum_point("p", rows, 10, KD)


def test_spectrum_point_fails_on_a_gaining_state():
    rows = _spectrum_rows(10)
    rows[0] = dict(rows[0], decay_rate=repr(-1e-3))
    assert checks.spectrum_point("p", rows, 10, KD)


def _scaling_rows(exponent=-3.0, dimer_factor=0.5, skip=None):
    rows = []
    for N in (50, 60, 70, 80, 90):
        one = 2.0 * N ** exponent
        rows.append(_row(N, -0.5j * one, sector="one-exc", label="one-exc"))
        if N != skip:
            rows.append(_row(N, -0.5j * one * dimer_factor, label="DimerII"))
    return rows


def test_scaling_physics():
    assert checks.scaling_physics(_scaling_rows()) == []
    assert checks.scaling_physics(_scaling_rows(exponent=-2.0))
    assert checks.scaling_physics(_scaling_rows(dimer_factor=1.5))
    assert checks.scaling_physics(_scaling_rows(skip=50))


KDS = [k * np.pi for k in (0.15, 0.1676, 0.1833)]


def _disorder_rows(rates_by_sample, clean=(3e-5, 1e-6, 2e-5)):
    curves = [clean] + list(rates_by_sample)
    return [_row(60, -0.5j * r, label="DimerII", sample=s - 1, kd=kd)
            for s, rates in enumerate(curves) for kd, r in zip(KDS, rates)]


def test_disorder_dip():
    dip, edge = (3e-5, 1e-5, 2e-5), (1e-5, 2e-5, 3e-5)
    # one sample may dip at an edge while the ensemble dips inside
    assert checks.disorder_dip(_disorder_rows([dip, dip, edge]), KDS) == []
    assert checks.disorder_dip(_disorder_rows([dip, edge, edge]), KDS)
    assert checks.disorder_dip(_disorder_rows([dip], clean=edge), KDS)
    assert checks.disorder_dip(_disorder_rows([dip, dip])[:-1], KDS)


def test_match_rows():
    k = dict(_kept(8), N=8)
    rows = [_row(8, k["lam"]), _row(8, 0.1, sector="one-exc")]
    matches, problems = checks.match_rows(rows, [k])
    assert problems == [] and len(matches) == 1
    _, problems = checks.match_rows([_row(8, k["lam"] + 1e-6)], [k])
    assert problems
