"""Shared fixtures: converged benchmark states, solved once per session,
the dense column-by-column oracle of the response operator, the dense
grid oracle of the SCF's dielectric preconditioner, and the
density-matrix oracles the tests build states and quadratic forms with."""

import weakref

import numpy as np
import pytest
import scipy.linalg

from mks.config import RunConfig
from mks.density_matrix import DensityMatrix
from mks.harness import run_single
from mks.response import coords_to_hermitian, hermitian_to_coords

_STATES = {}
_DENSE_BARE = weakref.WeakKeyDictionary()


def converged_state(name, cutoff=None, beta=None):
    """Converged SCF state of a bundled benchmark, at its own cutoff and
    beta unless overridden, cached for the session."""
    config = RunConfig.from_file(name)
    key = (name, cutoff or config.cutoff, beta or config.beta)
    if key not in _STATES:
        _STATES[key] = run_single(config, cutoff, beta)
    return _STATES[key]


@pytest.fixture(scope="session")
def free1d_state():
    return converged_state("free1d")


@pytest.fixture(scope="session")
def si1d_state():
    return converged_state("si1d")


@pytest.fixture(scope="session")
def rhf1d_state():
    return converged_state("rhf1d")


@pytest.fixture(scope="session")
def tiny3d_state():
    return converged_state("tiny3d")


def random_density_matrix(basis, m, seed, occupations=None):
    """Random orthonormal orbitals with given (or random) occupations."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((basis.size, m)) + 1j * rng.standard_normal(
        (basis.size, m)
    )
    q, _ = np.linalg.qr(raw)
    if occupations is None:
        occupations = rng.uniform(0.05, 0.95, size=m)
    return DensityMatrix(basis, q, np.asarray(occupations, dtype=float))


def coordinate_weights(ctx):
    """Divided-difference factor of each real tangent coordinate."""
    iu = np.triu_indices(ctx.n_states, 1)
    d = ctx.dd_table
    return np.concatenate([d.diagonal(), d[iu], d[iu]])


def dense_bare_matrix(ctx):
    """Matrix of Psi -> <phi_i| dv[rho_Psi] |phi_j> on the real Hermitian
    coordinates, one kernel application per column; cached per context."""
    if ctx not in _DENSE_BARE:
        m = ctx.n_states
        dim = m * m
        cols = np.empty((dim, dim))
        for alpha in range(dim):
            e = np.zeros(dim)
            e[alpha] = 1.0
            b = coords_to_hermitian(e, m)
            dv = ctx.kernel_potential(ctx.pair_density(b).real)
            cols[:, alpha] = hermitian_to_coords(ctx.matrix_elements(dv))
        _DENSE_BARE[ctx] = cols
    return _DENSE_BARE[ctx]


def dense_dielectric_matrix(ctx):
    """The SCF preconditioner's epsilon = I - J on the grid, built entry by
    entry: J = (chi_0 - rho_d rho_d^T w / sum_i D_ii) K, with chi_0 =
    P diag(D) P^T w for the pair products P[x, ij] = phi_i(x) phi_j(x),
    rho_d = sum_i D_ii phi_i^2, and K the kernel applied to each grid unit
    vector.  The shift is left out when sum_i D_ii is 0."""
    grid = ctx.grid_orbitals
    m, n = grid.shape
    w = ctx.weight
    d = ctx.dd_table
    pairs = (grid[:, None, :] * grid[None, :, :]).reshape(m * m, n).T
    chi0 = w * (pairs * d.ravel()) @ pairs.T
    rho_d = (d.diagonal()[:, None] * grid**2).sum(axis=0)
    if d.diagonal().sum() != 0.0:
        chi0 -= w * np.outer(rho_d, rho_d) / d.diagonal().sum()
    kernel = np.stack([ctx.kernel_potential(e) for e in np.eye(n)], axis=1)
    return np.eye(n) - chi0 @ kernel


def dense_chi_matrix(ctx):
    """Matrix of chi on the real Hermitian coordinates: diag(w) @ bare."""
    return coordinate_weights(ctx)[:, None] * dense_bare_matrix(ctx)


def rhf_quadratic_form(ctx, psi):
    """sum_ij D_ij |<phi_i| v_H(rho_Psi) |phi_j>|^2, the Coulomb-paired
    quadratic form of chi.  Non-positive whenever the xc kernel is off."""
    m_el = ctx.kernel_matrix(np.asarray(psi, dtype=complex))
    return float(np.sum(ctx.dd_table * np.abs(m_el) ** 2))


def s11_norm(gamma):
    """Sum_i |f_i| (1 + ||grad phi_i||^2), the S^{1,1} norm of Gamma."""
    grad2 = np.einsum(
        "g,gi->i", gamma.basis.g_norm2, np.abs(gamma.orbitals) ** 2
    )
    return float(np.sum(np.abs(gamma.occupations) * (1.0 + grad2)))


def perturb(gamma, tangent, eps):
    """State Gamma + eps Psi for a Hermitian tangent in the orbital frame.

    Diagonalizes diag(f) + eps Psi and rotates the orbitals accordingly; the
    caller is responsible for keeping the perturbed spectrum inside [0, 1].
    """
    tangent = np.asarray(tangent, dtype=complex)
    m = gamma.n_states
    if tangent.shape != (m, m):
        raise ValueError(f"tangent must be ({m}, {m})")
    matrix = np.diag(gamma.occupations.astype(complex)) + eps * tangent
    occ, vecs = np.linalg.eigh(matrix)
    return DensityMatrix(gamma.basis, gamma.orbitals @ vecs, occ)


def rotate(gamma, antihermitian, eps):
    """Spectrum-preserving rotation exp(eps A) Gamma exp(-eps A)."""
    a = np.asarray(antihermitian, dtype=complex)
    u = scipy.linalg.expm(eps * a)
    return DensityMatrix(
        gamma.basis, gamma.orbitals @ u, gamma.occupations, gamma.eigenvalues
    )
