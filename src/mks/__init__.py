"""Finite-temperature Kohn-Sham solver on periodic plane-wave bases.

Solves the smeared-occupation self-consistent field equations through
one-electron density matrices, provides the linearized response operator
and constrained Jacobian solves for optimality checks, and ships a
discretization-convergence harness with bundled benchmark configurations.
"""

from .cell import (
    Cell,
    GridFunction,
    PlaneWaveBasis,
    build_basis,
    l2_norm,
)
from .config import ConfigError, RunConfig
from .density_matrix import (
    DensityMatrix,
    FreeEnergyBreakdown,
    density,
    free_energy,
    project_dm,
    s11_distance,
)
from .harness import fit_decay, quasi_optimality, run_single, run_sweep
from .potentials import (
    ExternalPotential,
    XcFunctional,
    assemble_effective,
    audit_xc,
    cosine_series,
    dirac_corr,
    dirac_exchange,
    gaussian_wells,
    hartree,
    null_xc,
    power_law_xc,
    xc_eval,
)
from .response import (
    ResponseContext,
    TangentPerturbation,
    apply_chi,
    apply_jacobian,
    audit_a4,
    solve_jacobian,
)
from .scf import (
    EigensolverError,
    Hamiltonian,
    ScfError,
    ScfState,
    fixed_point_map,
    free_energy_gradient,
    lowest_eigenpairs,
    run_scf,
)
from .smearing import Smearing, entropy, fermi_dirac, fermi_dirac_dmu, solve_mu

__version__ = "0.1.0"
