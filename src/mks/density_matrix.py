"""Finite-rank one-electron density matrices over a plane-wave basis.

A state is stored spectrally: orthonormal orbital coefficients (one column
per retained state) plus occupations in [0, 1].  All trace-class bookkeeping
(the S^{1,1} norm Tr|A| + Tr(| |grad| A |grad| |), free energies, entropy)
is evaluated through this representation; operator logarithms are never
formed, and distances between two states come from a core of their
difference on the span of both orbital sets, whose size is the smaller of
npw and the number of stacked orbitals.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .cell import GridFunction, PlaneWaveBasis
from .potentials import ExternalPotential, XcFunctional, assemble_effective
from .smearing import Smearing, entropy

__all__ = [
    "DensityMatrix",
    "density",
    "s11_distance",
    "gamma_overlap_distance",
    "project_dm",
    "FreeEnergyBreakdown",
    "free_energy",
    "mode_positions",
    "embed_dm",
]

OCC_TOL = 1e-12
ANNIHILATION_TOL = 1e-8


class DensityMatrix:
    """Gamma = sum_i f_i |phi_i><phi_i| with 0 <= f_i <= 1.

    Args:
        basis: plane-wave basis carrying the orbitals.
        orbitals: (basis.size, m) complex array, orthonormal columns.
        occupations: (m,) occupation numbers.
        eigenvalues: optional (m,) finite one-body eigenvalues lambda_i.
        validate: check orthonormality to 1e-10 (skip for deliberately
            non-orthonormal states such as truncated projections).

    Whether the orbitals are real functions, c(-G) = conj c(G) in every
    column to 1e-10 of the largest coefficient (the partner of index i is
    npw - 1 - i), is decided once, at construction, and kept in
    ``real_functions``.  Every orbital the SCF makes is one.  Such a state
    is sampled on the grid in real arithmetic, two orbitals per complex
    FFT, once: ``orbitals_on_grid`` keeps the samples, which ``density``
    and a ``ResponseContext`` of the state read.  Any other state, such as
    a random or phase-turned one, takes the complex transform and keeps no
    samples.  A state is never modified after construction: ``density``
    keeps its result on the state and hands it out again.
    """

    def __init__(self, basis: PlaneWaveBasis, orbitals, occupations,
                 eigenvalues=None, validate=True):
        orbitals = np.asarray(orbitals, dtype=complex)
        occupations = np.asarray(occupations, dtype=float)
        if orbitals.ndim != 2 or orbitals.shape[0] != basis.size:
            raise ValueError(
                f"orbitals must be ({basis.size}, m), got {orbitals.shape}"
            )
        if occupations.shape != (orbitals.shape[1],):
            raise ValueError("one occupation per orbital required")
        if occupations.size and not (
            occupations.min() >= -OCC_TOL and occupations.max() <= 1.0 + OCC_TOL
        ):
            raise ValueError("occupations not finite or outside [0, 1] beyond 1e-12")
        if eigenvalues is not None:
            eigenvalues = np.asarray(eigenvalues, dtype=float)
            if eigenvalues.shape != occupations.shape or not np.isfinite(eigenvalues).all():
                raise ValueError("eigenvalues not finite or not one per orbital")
        if validate and orbitals.shape[1]:
            overlap = blas.zgemm(1.0, orbitals, orbitals, trans_a=2)
            drift = np.abs(overlap - np.eye(orbitals.shape[1])).max()
            if not drift <= 1e-10:
                raise ValueError(f"orbitals not orthonormal, drift {drift:.3e}")
        self.basis = basis
        self.orbitals = orbitals
        self.occupations = np.clip(occupations, 0.0, 1.0)
        self.eigenvalues = eigenvalues
        self.real_functions = _are_real_functions(orbitals)
        self._grid = None
        self._density = None

    @property
    def n_states(self):
        return self.orbitals.shape[1]

    def trace(self) -> float:
        return float(self.occupations.sum())

    def orbitals_on_grid(self) -> np.ndarray:
        """Orbitals sampled on the FFT grid, one flattened row each, shape
        (m, n_grid).  For real functions the samples are float64, made on
        the first call and returned read-only afterwards; otherwise they
        are complex and made afresh."""
        if not self.real_functions:
            return self.basis.to_grid(self.orbitals.T).reshape(self.n_states, -1)
        if self._grid is None:
            grid = self.basis.real_to_grid(self.orbitals.T)
            grid.flags.writeable = False
            self._grid = grid
        return self._grid

    def __repr__(self):
        return (
            f"DensityMatrix(states={self.n_states}, trace={self.trace():.6g}, "
            f"basis={self.basis!r})"
        )


def _are_real_functions(orbitals) -> bool:
    """c(-G) = conj c(G) in every column, to 1e-10 of the largest entry."""
    if not orbitals.size:
        return True
    mirror = np.abs(orbitals - orbitals[::-1].conj()).max()
    return bool(mirror <= 1e-10 * np.abs(orbitals).max())


def density(gamma: DensityMatrix) -> GridFunction:
    """rho(r) = sum_i f_i |phi_i(r)|^2 on the FFT grid (real, >= -1e-10).

    Made once per state: the first call keeps the grid function on gamma,
    with read-only values, and every later call returns that object.
    """
    if gamma._density is None:
        grid = gamma.orbitals_on_grid()
        if gamma.real_functions:
            rho = gamma.occupations @ grid**2
        else:
            rho = np.einsum("i,ix->x", gamma.occupations, np.abs(grid) ** 2)
        rho = rho.reshape(gamma.basis.fft_shape)
        rho.flags.writeable = False
        gamma._density = GridFunction(gamma.basis, rho)
    return gamma._density


def mode_positions(sub: PlaneWaveBasis, sup: PlaneWaveBasis) -> np.ndarray:
    """Positions of sub's G-vectors inside sup's G-list (sub must nest)."""
    if sub.cell != sup.cell:
        raise ValueError("bases live on different cells")
    # sup's FFT grid holds every sup mode without collision (>= 4m+1 per axis)
    table = np.full(sup.fft_shape, -1)
    table[sup.grid_index(sup.g_int)] = np.arange(sup.size)
    pos = table[sup.grid_index(sub.g_int)]
    if np.any(pos < 0) or np.any(sup.g_int[pos] != sub.g_int):
        raise ValueError("sub basis is not contained in the super basis")
    return pos


def embed_dm(gamma: DensityMatrix, target: PlaneWaveBasis) -> DensityMatrix:
    """Express Gamma on a larger basis (zero-padding the new modes)."""
    pos = mode_positions(gamma.basis, target)
    orbitals = np.zeros((target.size, gamma.n_states), dtype=complex)
    orbitals[pos] = gamma.orbitals
    return DensityMatrix(
        target, orbitals, gamma.occupations, gamma.eigenvalues, validate=False
    )


@lru_cache(maxsize=None)
def _geqrf_lwork(rows: int, cols: int) -> int:
    """zgeqrf's workspace for a (rows, cols) matrix, from its own query."""
    work = lapack.zgeqrf(np.zeros((rows, cols), dtype=complex), lwork=-1)[2]
    return int(work[0].real)


def _difference_core(a_orbitals, a_occupations, b_orbitals, b_occupations):
    """Small Hermitian core of A - B = Phi diag(f_a, -f_b) Phi*, Phi = [a b].

    With R from a QR of Phi, A - B = Q (R D R*) Q* for orthonormal Q, so the
    core R D R* has the nonzero spectrum of A - B whether or not the columns
    of Phi are orthonormal.  When the states use up the basis (ma + mb >=
    npw) the core is A - B itself, the same size as R D R* but without the
    QR.
    """
    # Fortran order, so that LAPACK factors it in place
    stacked = np.concatenate([a_orbitals.T, b_orbitals.T]).T
    d = np.concatenate([a_occupations, -b_occupations])
    npw, n = stacked.shape
    if n >= npw:
        return blas.zgemm(1.0, stacked * d, stacked, trans_b=2)
    # the R of scipy.linalg.qr(stacked, mode="r") without its zero rows:
    # the same call, with the workspace of the same query
    qr = lapack.zgeqrf(stacked, lwork=_geqrf_lwork(npw, n), overwrite_a=1)[0]
    r = np.triu(qr[:n])
    # (r * d) @ r.conj().T
    return blas.zgemm(1.0, r.conj().T, (r * d).T, trans_a=1).T


def s11_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """S^{1,1} distance Tr|A - B| + Tr(| |grad| (A - B) |grad| |), exact.

    Both states are embedded in the finer of the two bases.  Each trace is
    the absolute eigenvalue sum of a core of the difference of size at most
    min(npw, ma + mb) (see ``_difference_core``), the second with every
    orbital row scaled by |G| first, so the cost is O(npw (ma + mb)^2) and
    the value does not depend on the basis chosen inside a degenerate
    eigenspace.
    """
    common = a.basis if a.basis.cutoff >= b.basis.cutoff else b.basis
    pa = a.orbitals if a.basis == common else embed_dm(a, common).orbitals
    pb = b.orbitals if b.basis == common else embed_dm(b, common).orbitals

    def trace_abs(left, right):
        core = _difference_core(left, a.occupations, right, b.occupations)
        return float(np.abs(scipy.linalg.eigvalsh(core)).sum())

    scale = np.sqrt(common.g_norm2)[:, None]
    return trace_abs(pa, pb) + trace_abs(scale * pa, scale * pb)


def gamma_overlap_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Frobenius distance ||A - B||_F evaluated on the union orbital span.

    The difference operator has its range inside span(a) + span(b); a QR
    factorisation of the stacked orbitals reduces it to a small Hermitian
    matrix whose entries subtract before any large traces accumulate, so
    the value stays accurate down to machine precision even when a ~ b.
    """
    core = _difference_core(a.orbitals, a.occupations,
                            b.orbitals, b.occupations)
    return float(np.linalg.norm(core))


def project_dm(gamma: DensityMatrix, target: PlaneWaveBasis) -> DensityMatrix:
    """Pi_n Gamma = sum f_i |pi_n phi_i><pi_n phi_i|, keeping occupations.

    Truncated orbitals are not re-normalized, for error fidelity; orbitals
    annihilated by the truncation are dropped, so their occupation weight
    shows up as pure projection error.
    """
    if target.cutoff > gamma.basis.cutoff:
        raise ValueError("projection target must be the coarser basis")
    pos = mode_positions(target, gamma.basis)
    truncated = gamma.orbitals[pos]
    norms = np.linalg.norm(truncated, axis=0)
    keep = norms > ANNIHILATION_TOL
    eig = gamma.eigenvalues[keep] if gamma.eigenvalues is not None else None
    return DensityMatrix(target, truncated[:, keep], gamma.occupations[keep],
                         eig, validate=False)


class FreeEnergyBreakdown:
    """Free-energy terms; ``total`` is their exact sum."""

    __slots__ = ("kinetic", "external", "hartree", "xc", "entropy", "total")

    def __init__(self, kinetic, external, hartree, xc, entropy):
        self.kinetic = float(kinetic)
        self.external = float(external)
        self.hartree = float(hartree)
        self.xc = float(xc)
        self.entropy = float(entropy)
        self.total = self.kinetic + self.external + self.hartree + self.xc + self.entropy

    def as_dict(self):
        return {
            "kinetic": self.kinetic,
            "external": self.external,
            "hartree": self.hartree,
            "xc": self.xc,
            "entropy": self.entropy,
            "total": self.total,
        }

    def __repr__(self):
        parts = ", ".join(f"{k}={v:.10g}" for k, v in self.as_dict().items())
        return f"FreeEnergyBreakdown({parts})"


def free_energy(gamma: DensityMatrix, external: ExternalPotential,
                xc: XcFunctional, smearing: Smearing,
                hartree_on=True) -> FreeEnergyBreakdown:
    """Mermin free energy of a state.

    F = Tr(-1/2 Laplacian Gamma) + int v_ext rho + Hartree + int e_xc(rho)
      + beta^-1 sum_i [f_i ln f_i + (1 - f_i) ln(1 - f_i)],
    the entropy evaluated through occupations only; rho is density(gamma),
    which the state keeps once made.
    """
    kinetic = float(
        np.einsum(
            "i,g,gi->",
            gamma.occupations,
            gamma.basis.kinetic(),
            np.abs(gamma.orbitals) ** 2,
        )
    )
    terms = assemble_effective(density(gamma), external, xc, hartree_on=hartree_on)
    s = entropy(gamma.occupations, smearing)
    return FreeEnergyBreakdown(kinetic, terms.e_ext, terms.e_hartree,
                               terms.e_xc, s)

