"""Linearized self-consistency map: response operator and Jacobian solves.

The derivative of Gamma -> f_mu(H(rho_Gamma)) at a converged state acts on
a Hermitian tangent Psi (written in the retained orbital frame) as

    (chi Psi)_ij = D(lambda_i, lambda_j) <phi_i| dv[rho_Psi] |phi_j>,

where D is the divided-difference table of the occupation function (its
diagonal is f') and dv collects the Hartree and local xc kernels.  The
constrained Jacobian pairs chi - I with the trace row; its solve eliminates
Psi by a dense factorization on the tangent space and recovers the
chemical-potential component from the trace constraint.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .potentials import coulomb_solve
from .smearing import fermi_dirac_dmu
from .scf import ScfState

__all__ = [
    "TangentPerturbation",
    "ResponseContext",
    "divided_difference_table",
    "apply_chi",
    "rhf_quadratic_form",
    "apply_jacobian",
    "solve_jacobian",
    "dense_bare_matrix",
    "dense_chi_matrix",
    "audit_a4",
]

DEGENERACY_TOL = 1e-7


class TangentPerturbation:
    """Hermitian matrix in the retained orbital frame plus a scalar slot.

    The scalar is the chemical-potential component of the block system
    (an ``s`` on input to the Jacobian, the trace value on output).
    """

    __slots__ = ("matrix", "scalar")

    def __init__(self, matrix, scalar=0.0):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("tangent matrix must be square")
        if np.abs(matrix - matrix.conj().T).max() > 1e-10:
            raise ValueError("tangent matrix must be Hermitian")
        self.matrix = 0.5 * (matrix + matrix.conj().T)
        self.scalar = float(scalar)

    def __repr__(self):
        return f"TangentPerturbation(dim={self.matrix.shape[0]}, scalar={self.scalar:.6g})"


def _log_cosh(x):
    return np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - np.log(2.0)


def divided_difference_table(eigenvalues, mu, smearing, tol=DEGENERACY_TOL):
    """D(l_i, l_j) = (f(l_i) - f(l_j)) / (l_i - l_j), with the f' limit on
    (near-)degenerate pairs.  Every entry is negative for Fermi-Dirac f.

    Evaluated through log(sinh)/log(cosh): the naive quotient cancels to
    an exact zero once both occupations round to the same double, and
    those zeros would degenerate the weighted metric of the positivity
    audit.  The identity used is

        f(a) - f(b) = sinh(beta (b - a)/2)
                      / (2 cosh(beta (a - mu)/2) cosh(beta (b - mu)/2)).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    beta = smearing.beta
    half = _log_cosh(0.5 * beta * (vals - float(mu)))
    diff = vals[:, None] - vals[None, :]
    ay = 0.5 * beta * np.abs(diff)
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    near = np.abs(diff) < tol * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        logsinh = np.where(
            ay <= 1.0,
            np.log(np.sinh(np.minimum(ay, 1.0))),
            np.maximum(ay, 1.0)
            + np.log1p(-np.exp(-2.0 * np.maximum(ay, 1.0)))
            - np.log(2.0),
        )
        logmag = (
            logsinh
            - np.log(2.0)
            - half[:, None]
            - half[None, :]
            - np.log(np.abs(diff))
        )
        table = -np.exp(logmag)
    mid_half = _log_cosh(0.25 * beta * (vals[:, None] + vals[None, :] - 2.0 * float(mu)))
    deriv = -0.25 * beta * np.exp(-2.0 * mid_half)
    table[near] = deriv[near]
    return table


class ResponseContext:
    """Frozen ingredients of the response operator at a converged state."""

    def __init__(self, state: ScfState, g_sign: str = "paper"):
        gamma = state.gamma
        if gamma.eigenvalues is None:
            raise ValueError("response context requires stored eigenvalues")
        if g_sign not in ("paper", "analytic"):
            raise ValueError(f"unknown g_sign {g_sign!r}")
        self.basis = gamma.basis
        self.orbitals = gamma.orbitals
        self.eigenvalues = gamma.eigenvalues
        self.occupations = gamma.occupations
        self.mu = state.mu
        self.smearing = state.smearing
        self.hartree_on = state.hartree_on
        self.xc = state.xc
        self.g_sign = g_sign
        self.n_states = gamma.n_states

        self.grid_orbitals = gamma.orbitals_on_grid().reshape(self.n_states, -1)
        self.weight = self.basis.quadrature_weight
        self.dd_table = divided_difference_table(
            self.eigenvalues, self.mu, self.smearing
        )
        self.g_diag = fermi_dirac_dmu(
            self.eigenvalues, self.mu, self.smearing, convention=g_sign
        )
        if not self.xc.is_null:
            rho = state.rho.values.real
            self._fxc = self.xc.d2(rho).reshape(-1)
        else:
            self._fxc = None
        self._dense_cache = None

    # -- kernel pieces ---------------------------------------------------

    def pair_density(self, psi) -> np.ndarray:
        """rho_Psi(r) = sum_ij Psi_ij phi_i(r) conj(phi_j(r)), flattened."""
        mixed = np.tensordot(psi, self.grid_orbitals, axes=([0], [0]))
        rho = np.einsum("jx,jx->x", mixed, np.conj(self.grid_orbitals))
        return rho

    def kernel_potential(self, rho_flat) -> np.ndarray:
        """dv = v_H(rho) + e_xc''(rho_bar) rho on the grid, flattened."""
        dv = np.zeros_like(rho_flat)
        if self.hartree_on:
            _, vh = coulomb_solve(self.basis, rho_flat.reshape(self.basis.fft_shape))
            dv = dv + vh.reshape(-1)
        if self._fxc is not None:
            dv = dv + self._fxc * rho_flat
        return dv

    def matrix_elements(self, potential_flat) -> np.ndarray:
        """M_ij = <phi_i| v |phi_j> by grid quadrature."""
        weighted = self.grid_orbitals * potential_flat
        return self.weight * (np.conj(self.grid_orbitals) @ weighted.T)


def apply_chi(ctx: ResponseContext, psi) -> np.ndarray:
    """chi Psi via the exact spectral double sum over retained pairs."""
    psi = np.asarray(psi, dtype=complex)
    m = ctx.n_states
    if psi.shape != (m, m):
        raise ValueError(f"tangent must be ({m}, {m})")
    rho = ctx.pair_density(psi)
    if np.abs(psi - psi.conj().T).max() < 1e-10:
        rho = rho.real
    dv = ctx.kernel_potential(rho)
    return ctx.dd_table * ctx.matrix_elements(dv)


def rhf_quadratic_form(ctx: ResponseContext, psi) -> float:
    """sum_ij D_ij |<phi_i| v_H(rho_Psi) |phi_j>|^2, the Coulomb-paired
    quadratic form of chi.  Non-positive whenever the xc kernel is off."""
    psi = np.asarray(psi, dtype=complex)
    rho = ctx.pair_density(psi).real
    dv = ctx.kernel_potential(rho)
    m_el = ctx.matrix_elements(dv)
    return float(np.sum(ctx.dd_table * np.abs(m_el) ** 2))


def apply_jacobian(ctx: ResponseContext, psi, s: float) -> TangentPerturbation:
    """J(Psi, s) = (chi Psi - Psi + s g_mu(H), Tr Psi)."""
    psi = np.asarray(psi, dtype=complex)
    first = apply_chi(ctx, psi) - psi + s * np.diag(ctx.g_diag).astype(complex)
    trace = float(np.trace(psi).real)
    return TangentPerturbation(first, trace)


# -- real coordinates on the Hermitian tangent space ----------------------


def _coord_maps(m):
    iu = np.triu_indices(m, 1)
    return iu


def hermitian_to_coords(psi, m=None) -> np.ndarray:
    """Coordinates in a Frobenius-orthonormal real basis of Hermitian matrices."""
    psi = np.asarray(psi, dtype=complex)
    m = psi.shape[0]
    iu = _coord_maps(m)
    sqrt2 = np.sqrt(2.0)
    return np.concatenate(
        [psi.diagonal().real, sqrt2 * psi[iu].real, sqrt2 * psi[iu].imag]
    )


def coords_to_hermitian(x, m) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    iu = _coord_maps(m)
    k = iu[0].size
    psi = np.zeros((m, m), dtype=complex)
    psi[np.diag_indices(m)] = x[:m]
    upper = (x[m : m + k] + 1j * x[m + k :]) / np.sqrt(2.0)
    psi[iu] = upper
    psi[iu[1], iu[0]] = np.conj(upper)
    return psi


def _coordinate_weights(ctx: ResponseContext) -> np.ndarray:
    """Divided-difference factor of each real tangent coordinate.

    The Hadamard product with the symmetric real table D is diagonal in
    the real coordinates, so chi factors exactly as diag(w) @ B with B
    the bare Hartree/xc kernel matrix.  Every w is negative (or a
    negative underflowed to -0.0) for Fermi-Dirac occupations.
    """
    iu = _coord_maps(ctx.n_states)
    d = ctx.dd_table
    return np.concatenate([d.diagonal(), d[iu], d[iu]])


def dense_bare_matrix(ctx: ResponseContext) -> np.ndarray:
    """Matrix of Psi -> <phi_i| dv[rho_Psi] |phi_j> on the real Hermitian
    coordinates (tangent_dim^2 reals), symmetric up to quadrature roundoff.

    Columns are the kernel applied to the orthonormal Hermitian basis
    elements; the result is cached on the context.
    """
    if ctx._dense_cache is not None:
        return ctx._dense_cache
    m = ctx.n_states
    dim = m * m
    cols = np.empty((dim, dim))
    for alpha in range(dim):
        e = np.zeros(dim)
        e[alpha] = 1.0
        b = coords_to_hermitian(e, m)
        dv = ctx.kernel_potential(ctx.pair_density(b).real)
        cols[:, alpha] = hermitian_to_coords(ctx.matrix_elements(dv))
    ctx._dense_cache = cols
    return cols


def dense_chi_matrix(ctx: ResponseContext) -> np.ndarray:
    """Matrix of chi on the real Hermitian coordinates: diag(w) @ bare."""
    return _coordinate_weights(ctx)[:, None] * dense_bare_matrix(ctx)


def solve_jacobian(ctx: ResponseContext, phi, t: float,
                   refine: int = 2) -> TangentPerturbation:
    """Solve J(Psi, s) = (Phi, t) for the tangent and the mu component.

    Psi = (chi - I)^{-1} (Phi - s g_mu(H)) with
    s = (Tr((chi - I)^{-1} Phi) - t) / Tr((chi - I)^{-1} g_mu(H)); both
    solves share one dense factorization.  A residual is checked and
    polished by iterative refinement; singular systems raise with the
    smallest singular value in the message.
    """
    phi = np.asarray(phi, dtype=complex)
    m = ctx.n_states
    if phi.shape != (m, m):
        raise ValueError(f"right-hand side must be ({m}, {m})")
    a = dense_chi_matrix(ctx) - np.eye(m * m)
    try:
        lu = scipy.linalg.lu_factor(a)
    except scipy.linalg.LinAlgError as exc:
        smin = scipy.linalg.svdvals(a)[-1]
        raise RuntimeError(
            f"chi - I is singular on the tangent space (s_min = {smin:.3e})"
        ) from exc

    g_coords = hermitian_to_coords(np.diag(ctx.g_diag).astype(complex))
    phi_coords = hermitian_to_coords(phi)
    y_phi = scipy.linalg.lu_solve(lu, phi_coords)
    y_g = scipy.linalg.lu_solve(lu, g_coords)
    denom = float(y_g[:m].sum())
    if abs(denom) < 1e-13 * max(1.0, float(np.abs(y_g).max())):
        raise RuntimeError(
            f"trace-row denominator Tr((chi-I)^-1 g) = {denom:.3e} vanishes"
        )
    s = (float(y_phi[:m].sum()) - t) / denom
    x = y_phi - s * y_g

    for _ in range(max(refine, 0)):
        psi = coords_to_hermitian(x, m)
        out = apply_jacobian(ctx, psi, s)
        r_first = phi - out.matrix
        r_trace = t - out.scalar
        size = np.linalg.norm(hermitian_to_coords(r_first)) + abs(r_trace)
        if size <= 1e-10 * max(1.0, np.linalg.norm(phi_coords) + abs(t)):
            break
        y_r = scipy.linalg.lu_solve(lu, hermitian_to_coords(r_first))
        ds = (float(y_r[:m].sum()) - r_trace) / denom
        x = x + y_r - ds * y_g
        s = s + ds
    psi = coords_to_hermitian(x, m)
    return TangentPerturbation(psi, s)


def audit_a4(ctx: ResponseContext) -> dict:
    """Positivity audit of I - chi on the retained tangent space.

    chi = diag(w) @ bare is not symmetric in the plain Frobenius
    coordinates, but all the divided-difference weights w are negative, so
    conjugating by diag(sqrt|w|) is a similarity transform onto the
    symmetric matrix -sqrt|w| bare sqrt|w|.  The reported spectrum of
    I - chi therefore comes from an ordinary symmetric eigensolve in the
    metric where chi is self-adjoint.  Reports the smallest eigenvalue,
    the implied kappa = 1 / lambda_min, and the trace-row denominator
    under the configured g convention.  A non-positive lambda_min is
    flagged, not raised; the report is the deliverable.
    """
    m = ctx.n_states
    bare = dense_bare_matrix(ctx)
    bare = 0.5 * (bare + bare.T)
    s = np.sqrt(np.abs(_coordinate_weights(ctx)))
    sym = np.eye(m * m) + (s[:, None] * bare) * s[None, :]
    eigs = np.linalg.eigvalsh(sym)
    lambda_min = float(eigs[0])
    kappa = float(1.0 / lambda_min) if lambda_min > 0 else float("inf")

    a = dense_chi_matrix(ctx) - np.eye(m * m)
    lu = scipy.linalg.lu_factor(a)
    g_coords = hermitian_to_coords(np.diag(ctx.g_diag).astype(complex))
    y_g = scipy.linalg.lu_solve(lu, g_coords)
    denominator_s = float(y_g[:m].sum())

    return {
        "lambda_min": lambda_min,
        "kappa": kappa,
        "denominator_s": denominator_s,
        "g_sign": ctx.g_sign,
        "tangent_dim": int(m * m),
        "violated": bool(lambda_min <= 0.0),
    }
