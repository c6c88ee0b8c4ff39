"""Closed-form results: dimer asymptotics, boundary coefficients, the
defect secular equation, and the confinement-localization maps.

The relative-coordinate Hamiltonian H^K on the separation grid
Delta/d in {1..M} admits spin-wave solutions |q> = exp(i q Delta/d).
Acting with H^0 on |q> gives the exact identity (d = 1 units)

    H^0 |q> = omega_q |q> - i Gamma g0_q |k> + i Gamma h0_q |-k> ,

with omega_q = (Gamma/2) sum_± cot((kd ± qd)/2).  The dimer wavenumbers
are the roots of g0 = h0 = 0 in the long-chain limit.  The defect model
H^K_def carries the same physics at exactly half the eigenvalue; its
secular equation for a chain with one missing emitter is solved here by
damped Newton iteration and reproduces missing-site numerics to machine
precision.

Note on normalizations: omega_relative is the eigen-coefficient of H^K
(the identity above); omega_defect = omega_relative / 2 is the
eigenvalue of the defect model and of missing-site chains.  Conventions
differ by this factor of two across sources; both are exposed and
tested.
"""

from dataclasses import dataclass

import numpy as np

from .model import RelativeModelSpec, build_defect_relative_hamiltonian, defect_grid


def _cot(z):
    return np.cos(z) / np.sin(z)


@dataclass(frozen=True)
class DimerTheory:
    type: str  # "I" or "II"
    qd: complex
    omega: float
    kd: float
    gamma: float


def asymptotic_dimer(kd, dimer_type, gamma=1.0):
    """Infinite-chain dimer wavenumber q and eigenvalue omega.

    Type I:  qd = -i ln cos(kd),            omega = 2 gamma cot(kd)
    Type II: qd = [pi + i ln cos(2kd)] / 2, omega = 2 gamma cot(2kd)
    """
    if not 0.0 < kd < 0.5 * np.pi:
        raise ValueError("kd must lie in (0, pi/2)")
    if dimer_type == "I":
        qd = -1j * np.log(np.cos(kd))
        omega = 2.0 * gamma * _cot(kd)
    elif dimer_type == "II":
        c2 = np.cos(2.0 * kd)
        if abs(c2) < 1e-15:  # within rounding of the 2kd = pi/2 pole
            qd = complex(0.5 * np.pi, np.inf)  # EPR point, amplitudes beyond 2d vanish
            omega = 0.0
        else:
            qd = (np.pi + 1j * np.log(complex(c2))) / 2.0
            omega = 2.0 * gamma * _cot(2.0 * kd)
    else:
        raise ValueError("dimer_type must be 'I' or 'II'")
    return DimerTheory(dimer_type, complex(qd), float(omega), kd, gamma)


def dimer_profile_pdf(kd, dimer_type, delta_max):
    """Normalized separation distribution p(Delta) up to delta_max.

    Type I:  p ~ cos(kd)^(2 Delta/d) on Delta/d = 1, 2, ...
    Type II: p ~ cos(2kd)^(Delta/d) on even Delta/d only.
    """
    if not 0.0 < kd < 0.5 * np.pi:
        raise ValueError("kd must lie in (0, pi/2)")
    if dimer_type == "I":
        deltas = np.arange(1, delta_max + 1)
        ratio = np.cos(kd) ** 2
        w = ratio ** (deltas - 1)
    elif dimer_type == "II":
        deltas = np.arange(2, delta_max + 1, 2)
        ratio = np.cos(2.0 * kd) ** 2  # per 2d step; even powers keep p positive
        if ratio < 1e-30:  # rounding of the EPR pole, see asymptotic_dimer
            ratio = 0.0
        w = ratio ** ((deltas - 2) // 2).astype(float)
    else:
        raise ValueError("dimer_type must be 'I' or 'II'")
    if len(deltas) == 0:
        raise ValueError("delta_max too small for this dimer type")
    return deltas, w / w.sum()


def omega_relative(kd, qd, gamma=1.0):
    """Eigen-coefficient of H^K spin waves; 2*gamma*cot(kd) at q_I."""
    return 0.5 * gamma * (_cot((kd + qd) / 2.0) + _cot((kd - qd) / 2.0))


def omega_defect(kd, qd, gamma=1.0):
    """Defect-model dispersion, exactly half the relative one."""
    return omega_relative(kd, qd, gamma) / 2.0


@dataclass(frozen=True)
class BoundaryCoefficients:
    """Coefficients of the H^0 |q> identity on a finite Delta grid {1..N-1}."""

    omega_q: complex
    g0: complex
    h0: complex
    N: int
    kd: float
    qd: complex


def boundary_coefficients(N, kd, qd, gamma=1.0):
    """omega_q, g0_q, h0_q such that, on the grid Delta/d in {1..N-1},

        H^0 |q> = omega_q |q> - i gamma g0 |k> + i gamma h0 |-k>  (exact).
    """
    x = np.exp(1j * (qd - kd))
    y = np.exp(1j * (qd + kd))
    g0 = x / (1.0 - x) + (y - y**N) / (1.0 - y)
    h0 = y**N / (1.0 - y)
    return BoundaryCoefficients(
        omega_q=complex(omega_relative(kd, qd, gamma)),
        g0=complex(g0), h0=complex(h0), N=N, kd=kd, qd=complex(qd),
    )


def _newton(f, q0, tol=1e-13, maxiter=100, h=1e-7):
    """Damped Newton with a numerical derivative.

    Returns (root, |f|, iters, converged); converged means the last
    accepted step was below tol.
    """
    q = q0
    fq = f(q)
    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        fp = (f(q + h) - f(q - h)) / (2.0 * h)
        if fp == 0:
            break
        dq = -fq / fp
        step = 1.0
        qn, fn = q + dq, f(q + dq)
        while abs(fn) >= abs(fq) and step > 1e-12:
            step *= 0.5  # damp on non-decreasing residual
            qn = q + step * dq
            fn = f(qn)
        q, fq = qn, fn
        if abs(step * dq) < tol:
            converged = True
            break
    return q, abs(fq), it, converged


def solve_boundary_wavenumber(kd):
    """Root of the long-chain boundary condition

        exp(2ikd) = -(1 - exp(i(q+k)d)) / (1 - exp(i(q-k)d)),

    which is q_I d = -i ln cos(kd)."""

    def f(q):
        return np.exp(2j * kd) * (1.0 - np.exp(1j * (q - kd))) + (
            1.0 - np.exp(1j * (q + kd))
        )

    q, _, _, _ = _newton(f, 0.5j)
    return complex(q)


@dataclass(frozen=True)
class DefectSolution:
    """Secular-equation solution for a chain with one missing emitter."""

    qd: complex
    omega: complex
    delta: complex  # analytic finite-size correction to q_I
    site: int  # 0-based removed site
    minNLR: int  # length of the shorter subchain
    g_L: complex
    g_R: complex
    h_L: complex
    h_R: complex
    beta_q: complex
    theta_q: complex
    A_q: complex
    secular_residual: float
    iterations: int
    equation: str  # "full" or "reduced"

    @property
    def decay_rate(self):
        return -2.0 * self.omega.imag


def _defect_coeffs(N, kd, m1):
    """Closed-form boundary coefficients for defect site m1 (1-based)."""
    z1, zm, zN = 1.0, float(m1), float(N)

    def gL(q):
        return np.exp(1j * (q - kd) * z1) / (1.0 - np.exp(1j * (q - kd)))

    def gR(q):
        return np.exp(1j * (q - kd) * (zm + 1.0)) / (1.0 - np.exp(1j * (q - kd)))

    def hL(q):
        return np.exp(1j * (q + kd) * zm) / (1.0 - np.exp(1j * (q + kd)))

    def hR(q):
        return np.exp(1j * (q + kd) * (zN + 1.0)) / (1.0 - np.exp(1j * (q + kd)))

    def beta(q):
        e = np.exp(1j * (q - kd))
        return (e**z1 - e**zm) / (1.0 - e)

    def theta(q):
        e = np.exp(1j * (q + kd))
        return (e ** (zm + 1.0) - e ** (zN + 1.0)) / (1.0 - e)

    return gL, gR, hL, hR, beta, theta


def secular_determinant(N, kd, m1, q):
    """2x2 determinant whose roots are the defect-localized wavenumbers."""
    gL, gR, hL, hR, beta, theta = _defect_coeffs(N, kd, m1)
    a11 = gL(q) * hL(-q) - gL(-q) * hL(q)
    a12 = theta(q) * hR(-q) - theta(-q) * hR(q)
    a21 = beta(q) * gL(-q) - beta(-q) * gL(q)
    a22 = gR(q) * hR(-q) - gR(-q) * hR(q)
    return a11 * a22 - a12 * a21


def secular_reduced(N, kd, m1, q):
    """Long-chain reduction of the secular equation (exp(iqN) dropped)."""
    c = np.cos(kd)
    Aq = 2.0 - 2.0 * np.cos(q - kd)
    Amq = 2.0 - 2.0 * np.cos(-q - kd)
    rhs = (1.0 - np.exp(2j * kd)) * (
        c ** (2 * (N - m1)) + c ** (2 * (m1 - 1))
    )
    return Amq / Aq - np.exp(2j * kd) - rhs


def solve_defect_secular(N, kd, site, gamma=1.0, tol=1e-13, maxiter=100):
    """Defect-localized wavenumber and eigenvalue for removed emitter `site`.

    Newton iteration seeded at q_I; uses the full determinant unless
    cos(kd)^N is below 1e-12, where the reduced equation is numerically
    identical and better scaled.  The resulting omega (defect dispersion,
    i.e. half the relative-model coefficient) matches the missing-site
    eigenvalue to machine precision.
    """
    if not 1 <= site <= N - 2:
        raise ValueError("defect site must have neighbors on both sides")
    if not 0.0 < kd < 0.5 * np.pi:
        raise ValueError("kd must lie in (0, pi/2)")
    m1 = site + 1
    qI = -1j * np.log(np.cos(kd))
    if np.cos(kd) ** N > 1e-12:
        f = lambda q: secular_determinant(N, kd, m1, q)
        equation = "full"
    else:
        f = lambda q: secular_reduced(N, kd, m1, q)
        equation = "reduced"
    q, fres, iters, converged = _newton(f, qI, tol=tol, maxiter=maxiter)
    if not converged or not np.isfinite(q) or abs(q - qI) > 1.0:
        raise RuntimeError(
            "secular Newton did not converge: "
            f"last iterate q={q}, |f(q)|={fres:.3e}, iterations={iters}"
        )
    minNLR = min(site, N - 1 - site)
    cot = _cot(kd)
    delta = -0.5j * cot**2 * np.cos(kd) ** minNLR
    gL, gR, hL, hR, beta, theta = _defect_coeffs(N, kd, m1)
    return DefectSolution(
        qd=complex(q),
        omega=complex(omega_defect(kd, q, gamma)),
        delta=complex(delta),
        site=site,
        minNLR=minNLR,
        g_L=complex(gL(q)), g_R=complex(gR(q)),
        h_L=complex(hL(q)), h_R=complex(hR(q)),
        beta_q=complex(beta(q)), theta_q=complex(theta(q)),
        A_q=complex(2.0 - 2.0 * np.cos(q - kd)),
        secular_residual=float(fres),
        iterations=iters,
        equation=equation,
    )


def fold_even_extension(psi_rel):
    """Even extension onto {-M..-1, 1..M}: psi_def(-D) = psi_def(D) = psi(D).

    If H^K psi = lambda psi on {1..M} then H^K_def psi_def = (lambda/2)
    psi_def, exactly at any truncation M.
    """
    psi_rel = np.asarray(psi_rel)
    return np.concatenate([psi_rel[::-1], psi_rel])


def unfold_even_extension(psi_def):
    """Restrict an even defect-grid vector back to Delta > 0."""
    psi_def = np.asarray(psi_def)
    if psi_def.shape[0] % 2:
        raise ValueError("defect-grid vector must have even length 2M")
    M = psi_def.shape[0] // 2
    return psi_def[M:]


@dataclass(frozen=True)
class ParityReduction:
    """Gauge map sending the even-Delta block of H^{pi/d}_def(kd) onto
    H^0_def(2kd): Delta = 2 xi, gauge (-1)^xi."""

    kd: float
    kd_scaled: float

    def even_positions(self, M):
        g = defect_grid(M)
        return np.where(np.abs(g) % 2 == 0)[0]

    def gauge(self, M):
        g = defect_grid(M)
        xi = g[np.abs(g) % 2 == 0] // 2
        return np.where(xi % 2 == 0, 1.0, -1.0)

    def reduce_even_block(self, H_def, M):
        """Extract the even-Delta block and apply the gauge."""
        pos = self.even_positions(M)
        s = self.gauge(M)
        return s[:, None] * H_def[np.ix_(pos, pos)] * s[None, :]

    def target_matrix(self, M, gamma=1.0):
        return build_defect_relative_hamiltonian(
            RelativeModelSpec(Kd=0.0, M=M // 2, kd=self.kd_scaled, gamma1d=gamma)
        )


def parity_reduce(kd):
    """Descriptor of the K = pi/d -> K = 0 reduction at doubled kd.

    At K = pi/d odd and even Delta decouple; the even block, after the
    local phases (-1)^xi with Delta = 2 xi, is the K = 0 defect model at
    2 kd.  Odd Delta has no coupling to the Delta = 0 defect, hence no
    localized solutions.  The identity is entrywise and algebraic; kd is
    kept below pi/2 so the doubled wavenumber stays in the principal
    band.
    """
    if not 0.0 < kd < 0.5 * np.pi:
        raise ValueError("parity reduction needs kd in (0, pi/2)")
    return ParityReduction(kd=kd, kd_scaled=2.0 * kd)
