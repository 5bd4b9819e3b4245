"""Linearized self-consistency map: response operator and Jacobian solves.

The derivative of Gamma -> f_mu(H(rho_Gamma)) at a converged state acts on
a Hermitian tangent Psi (written in the retained orbital frame) as

    (chi Psi)_ij = D(lambda_i, lambda_j) <phi_i| dv[rho_Psi] |phi_j>,

where D is the divided-difference table of the occupation function (its
diagonal is f') and dv collects the Hartree and local xc kernels.  The
constrained Jacobian pairs chi - I with the trace row.

The orbitals are real functions, so the pair density
rho_Psi = sum_ij Psi_ij phi_i phi_j sees only the real symmetric part of
Psi: of the m^2 real coordinates of a Hermitian tangent, the m(m-1)/2
imaginary antisymmetric ones are annihilated by chi, and I - chi = I there.
Nothing of size (m^2)^2 is ever built.  On the other m(m+1)/2 coordinates,
the diagonal and the real upper triangle, chi is -S^2 B, with S = sqrt|D|
per coordinate and B the bare Hartree/xc kernel, so every question is put
to the symmetric operator A = I + S B S on those coordinates, applied at
O(m^2 N_grid) cost: the A4 audit takes its smallest eigenvalue by Lanczos
(ARPACK's implicitly restarted variant) and caps it at the 1 of the
imaginary block, and the Jacobian solve eliminates Psi by MINRES on A (A is
indefinite whenever A4 fails) before recovering the chemical-potential
component from the trace constraint.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, minres

from .potentials import coulomb_solve
from .smearing import fermi_dirac_dmu
from .scf import ScfState

__all__ = [
    "TangentPerturbation",
    "ResponseContext",
    "divided_difference_table",
    "apply_chi",
    "apply_jacobian",
    "solve_jacobian",
    "audit_a4",
]

DEGENERACY_TOL = 1e-7

# Lanczos (A4 audit) and MINRES (Jacobian solves) settings.  ARPACK's
# default of 20 Lanczos vectors stalls on the unit-eigenvalue cluster of
# Coulomb-only states (rhf1d); 40 converge on every bundled state.  The
# seeded start vector makes repeated audits bitwise identical.
LANCZOS_NCV = 40
LANCZOS_TOL = 1e-12
LANCZOS_SEED = 0
MINRES_RTOL = 1e-14
REFINE_STEPS = 2


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
        if not np.abs(matrix - matrix.conj().T).max() <= 1e-10:
            raise ValueError("tangent matrix must be finite and Hermitian")
        self.matrix = 0.5 * (matrix + matrix.conj().T)
        self.scalar = float(scalar)

    def __repr__(self):
        return f"TangentPerturbation(dim={self.matrix.shape[0]}, scalar={self.scalar:.6g})"


def _log_cosh(x):
    return np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - np.log(2.0)


def divided_difference_table(eigenvalues, mu, smearing):
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
    near = np.abs(diff) < DEGENERACY_TOL * scale
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

        grid = gamma.orbitals_on_grid().reshape(self.n_states, -1)
        if not np.abs(grid.imag).max() <= 1e-10 * np.abs(grid).max():
            raise ValueError("response context requires real orbitals on the grid")
        self.grid_orbitals = np.ascontiguousarray(grid.real)
        self.weight = self.basis.quadrature_weight
        self.dd_table = divided_difference_table(
            self.eigenvalues, self.mu, self.smearing
        )
        self.g_diag = fermi_dirac_dmu(
            self.eigenvalues, self.mu, self.smearing, convention=g_sign
        )
        self._fxc = self.xc.d2(state.rho.values).reshape(-1)

    # -- kernel pieces ---------------------------------------------------

    def pair_density(self, psi) -> np.ndarray:
        """rho_Psi(r) = sum_ij Psi_ij phi_i(r) phi_j(r), flattened.  For a
        Hermitian Psi the imaginary part is antisymmetric and drops out."""
        mixed = np.tensordot(np.real(psi), self.grid_orbitals, axes=([0], [0]))
        return np.einsum("jx,jx->x", mixed, self.grid_orbitals)

    def kernel_potential(self, rho_flat) -> np.ndarray:
        """dv = v_H(rho) + e_xc''(rho_bar) rho on the grid, flattened."""
        dv = self._fxc * rho_flat
        if self.hartree_on:
            _, vh = coulomb_solve(self.basis, rho_flat.reshape(self.basis.fft_shape))
            dv += vh.reshape(-1)
        return dv

    def matrix_elements(self, potential_flat) -> np.ndarray:
        """M_ij = <phi_i| v |phi_j> by grid quadrature."""
        weighted = self.grid_orbitals * potential_flat
        return self.weight * (self.grid_orbitals @ weighted.T)

    def kernel_matrix(self, psi) -> np.ndarray:
        """The bare kernel B Psi = <phi_i| dv[rho_Psi] |phi_j>."""
        return self.matrix_elements(self.kernel_potential(self.pair_density(psi)))


def apply_chi(ctx: ResponseContext, psi) -> np.ndarray:
    """chi Psi via the exact spectral double sum over retained pairs."""
    psi = np.asarray(psi, dtype=complex)
    m = ctx.n_states
    if psi.shape != (m, m):
        raise ValueError(f"tangent must be ({m}, {m})")
    if not np.abs(psi - psi.conj().T).max() <= 1e-10:
        raise ValueError("tangent must be finite and Hermitian")
    return ctx.dd_table * ctx.kernel_matrix(psi)


def apply_jacobian(ctx: ResponseContext, psi, s: float) -> TangentPerturbation:
    """J(Psi, s) = (chi Psi - Psi + s g_mu(H), Tr Psi)."""
    psi = np.asarray(psi, dtype=complex)
    first = apply_chi(ctx, psi) - psi + s * np.diag(ctx.g_diag).astype(complex)
    trace = float(np.trace(psi).real)
    return TangentPerturbation(first, trace)


# -- real coordinates on the Hermitian tangent space ----------------------


def hermitian_to_coords(psi) -> np.ndarray:
    """Coordinates in a Frobenius-orthonormal real basis of Hermitian matrices."""
    psi = np.asarray(psi, dtype=complex)
    iu = np.triu_indices(psi.shape[0], 1)
    sqrt2 = np.sqrt(2.0)
    return np.concatenate(
        [psi.diagonal().real, sqrt2 * psi[iu].real, sqrt2 * psi[iu].imag]
    )


def coords_to_hermitian(x, m) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    iu = np.triu_indices(m, 1)
    k = iu[0].size
    psi = np.zeros((m, m), dtype=complex)
    psi[np.diag_indices(m)] = x[:m]
    upper = (x[m : m + k] + 1j * x[m + k :]) / np.sqrt(2.0)
    psi[iu] = upper
    psi[iu[1], iu[0]] = np.conj(upper)
    return psi


class _WeightedKernel:
    """A = I + S B S, applied matrix-free; ``applications`` counts its uses.

    A acts on the first m(m+1)/2 coordinates of ``hermitian_to_coords``,
    the diagonal and the real upper triangle of a real symmetric tangent.
    B is the bare Hartree/xc kernel Psi -> <phi_i| dv[rho_Psi] |phi_j>
    there, symmetric up to quadrature roundoff; on the imaginary
    antisymmetric coordinates after them B = 0, because real orbitals give
    those tangents no pair density, so I - chi = I on that block.  The
    Hadamard product with the symmetric real table D is diagonal in these
    coordinates, so chi = diag(w) B exactly, and every w is negative (or a
    negative underflowed to -0.0) for Fermi-Dirac occupations.  With
    S = sqrt|w|, chi = -S^2 B, so A is I - chi conjugated by S and carries
    its spectrum on the symmetric block.
    """

    def __init__(self, ctx: ResponseContext):
        self.ctx = ctx
        iu = np.triu_indices(ctx.n_states, 1)
        d = ctx.dd_table
        self.s = np.sqrt(np.abs(np.concatenate([d.diagonal(), d[iu]])))
        self.dim = self.s.size
        self.applications = 0

    def operator(self) -> LinearOperator:
        # made per call: stored on self it would form a reference cycle
        # that keeps the context's grid arrays alive until a gc pass
        return LinearOperator((self.dim, self.dim), matvec=self.apply, dtype=float)

    def bare(self, x) -> np.ndarray:
        """B x on the symmetric coordinates."""
        m = self.ctx.n_states
        psi = coords_to_hermitian(np.concatenate([x, np.zeros(m * m - self.dim)]), m)
        return hermitian_to_coords(self.ctx.kernel_matrix(psi))[: self.dim]

    def apply(self, q) -> np.ndarray:
        self.applications += 1
        q = np.ravel(q)
        return q + self.s * self.bare(self.s * q)

    def lowest_eigenvalue(self) -> float:
        if not (self.ctx.hartree_on or self.ctx._fxc.any()):
            # no Hartree term and a zero xc kernel: B = 0, so A = I.
            # Lanczos breaks down on its first step and restarts from
            # ARPACK's own unseeded vectors, which makes the roundoff of
            # the result vary from call to call
            return 1.0
        if self.dim == 1:
            return float(self.apply(np.ones(1))[0])
        v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(self.dim)
        eigs = eigsh(self.operator(), k=1, which="SA", v0=v0, tol=LANCZOS_TOL,
                     ncv=min(LANCZOS_NCV, self.dim - 1), return_eigenvectors=False)
        # m >= 2 here, so the imaginary block, where A = I, is not empty
        return min(float(eigs[0]), 1.0)

    def solve_chi_minus_identity(self, r) -> np.ndarray:
        """y = (chi - I)^{-1} r for r on all m^2 coordinates: -r, plus S q on
        the symmetric block with (I + S B S) q = S B r there, which needs no
        division by S where a weight underflows to -0.0."""
        b = self.s * self.bare(r[: self.dim])
        q, info = minres(self.operator(), b, rtol=MINRES_RTOL)
        if info != 0:
            residual = np.linalg.norm(b - self.apply(q))
            raise RuntimeError(
                f"MINRES on I + S B S stopped without converging (info = {info}, "
                f"residual = {residual:.3e})"
            )
        y = -r
        y[: self.dim] += self.s * q
        return y


def solve_jacobian(ctx: ResponseContext, phi, t: float) -> TangentPerturbation:
    """Solve J(Psi, s) = (Phi, t) for the tangent and the mu component.

    Psi = (chi - I)^{-1} (Phi - s g_mu(H)) with
    s = (Tr((chi - I)^{-1} Phi) - t) / Tr((chi - I)^{-1} g_mu(H)); each
    (chi - I)^{-1} is a MINRES solve on A = I + S B S.  The exact residual
    is checked through apply_jacobian and polished by up to REFINE_STEPS
    steps of iterative refinement; a system that stays unsolved raises with
    the MINRES status and the residual in the message.
    """
    phi = np.asarray(phi, dtype=complex)
    m = ctx.n_states
    if phi.shape != (m, m):
        raise ValueError(f"right-hand side must be ({m}, {m})")
    op = _WeightedKernel(ctx)
    g_coords = hermitian_to_coords(np.diag(ctx.g_diag).astype(complex))
    phi_coords = hermitian_to_coords(phi)
    y_phi = op.solve_chi_minus_identity(phi_coords)
    y_g = op.solve_chi_minus_identity(g_coords)
    denom = float(y_g[:m].sum())
    if abs(denom) < 1e-13 * max(1.0, float(np.abs(y_g).max())):
        raise RuntimeError(
            f"trace-row denominator Tr((chi-I)^-1 g) = {denom:.3e} vanishes"
        )
    s = (float(y_phi[:m].sum()) - t) / denom
    x = y_phi - s * y_g

    tolerance = 1e-10 * max(1.0, np.linalg.norm(phi_coords) + abs(t))
    for attempt in range(REFINE_STEPS + 1):
        out = apply_jacobian(ctx, coords_to_hermitian(x, m), s)
        r_first = hermitian_to_coords(phi - out.matrix)
        r_trace = t - out.scalar
        size = np.linalg.norm(r_first) + abs(r_trace)
        if size <= tolerance:
            break
        if attempt == REFINE_STEPS:
            raise RuntimeError(
                f"chi - I is singular on the tangent space (MINRES info 0, "
                f"Jacobian residual {size:.3e} after {REFINE_STEPS} refinement steps)"
            )
        y_r = op.solve_chi_minus_identity(r_first)
        ds = (float(y_r[:m].sum()) - r_trace) / denom
        x = x + y_r - ds * y_g
        s = s + ds
    return TangentPerturbation(coords_to_hermitian(x, m), s)


def audit_a4(ctx: ResponseContext) -> dict:
    """Positivity audit of I - chi on the retained tangent space.

    chi is not symmetric in the plain Frobenius coordinates, but I - chi is
    similar to the symmetric A = I + S B S, whose smallest eigenvalue comes
    from Lanczos.  Reports that eigenvalue, the implied kappa =
    1 / lambda_min, the trace-row denominator under the configured g
    convention (a MINRES solve on A) and the number of products with A
    used.  A non-positive lambda_min is flagged, not raised; the report is
    the deliverable.
    """
    m = ctx.n_states
    op = _WeightedKernel(ctx)
    lambda_min = op.lowest_eigenvalue()
    kappa = float(1.0 / lambda_min) if lambda_min > 0 else float("inf")

    g_coords = hermitian_to_coords(np.diag(ctx.g_diag).astype(complex))
    denominator_s = float(op.solve_chi_minus_identity(g_coords)[:m].sum())

    return {
        "lambda_min": lambda_min,
        "kappa": kappa,
        "denominator_s": denominator_s,
        "g_sign": ctx.g_sign,
        "tangent_dim": int(m * m),
        "operator_applications": op.applications,
        "violated": bool(lambda_min <= 0.0),
    }
