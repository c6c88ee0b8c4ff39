"""Subradiant two-excitation dimers in waveguide-coupled emitter chains.

Non-Hermitian effective Hamiltonians for chains of two-level emitters
coupled to a one-dimensional waveguide (plus free-space dipole kernels),
eigensolvers targeting the dimer asymptotic eigenvalues, closed-form
theory for dimer wavenumbers and defect-localized states, and spectrum
analysis with K-Delta decomposition and state classification.
"""

from . import analysis, eig, model, theory
from .analysis import (
    ClassifierThresholds,
    FitResult,
    KDeltaDecomposition,
    StateClass,
    band_edge_re,
    branch_summary,
    classify_state,
    classify_states,
    decay_rate,
    fermionic_basis,
    fermionic_overlap,
    fit_exponential_tail,
    fit_power_law,
    k_delta_decompose,
    most_subradiant,
    period4_modulation,
)
from .eig import (
    EigenPair,
    RestartLimitExceeded,
    SolverConfig,
    Spectrum,
    eig_dense_all,
    eig_target,
    nearest_match,
    residual_norm,
)
from .model import (
    ChainGeometry,
    FreeSpace3D,
    RelativeModelSpec,
    TwoExcitationBasis,
    TwoExcitationWaveguideOp,
    Waveguide1D,
    build_defect_relative_hamiltonian,
    build_missing_site_hamiltonian,
    build_relative_hamiltonian,
    build_single_hamiltonian,
    build_two_hamiltonian,
    k_delta_vector,
    tails_residual,
)
from .theory import (
    BoundaryCoefficients,
    DefectSolution,
    DimerTheory,
    asymptotic_dimer,
    boundary_coefficients,
    dimer_profile_pdf,
    fold_even_extension,
    omega_defect,
    omega_relative,
    parity_reduce,
    solve_boundary_wavenumber,
    solve_defect_secular,
    unfold_even_extension,
)

__version__ = "0.1.0"
