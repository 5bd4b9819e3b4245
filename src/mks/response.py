"""Linearized self-consistency map: response operator and Jacobian solves.

The derivative of Gamma -> f_mu(H(rho_Gamma)) at a converged state acts on
a Hermitian tangent Psi (written in the retained orbital frame) as

    (chi Psi)_ij = D(lambda_i, lambda_j) <phi_i| dv[rho_Psi] |phi_j>,

where D is the divided-difference table of the occupation function (its
diagonal is f') and dv collects the Hartree and local xc kernels.  The
constrained Jacobian pairs chi - I with the trace row.

The orbitals are real functions, and a context reads the float64 grid
samples its state keeps (DensityMatrix.orbitals_on_grid, shared with the
state's density), so the pair density
rho_Psi = sum_ij Psi_ij phi_i phi_j sees only the real symmetric part of
Psi: chi annihilates the imaginary antisymmetric part, where I - chi = I,
and that part has no trace, so the Jacobian solve answers it in closed
form.  Nothing of size (m^2)^2 is ever built.  On the m(m+1)/2 coordinates
of a real symmetric tangent, the diagonal and the upper triangle, chi is
-S^2 B, with S = sqrt|D| per coordinate and B the bare Hartree/xc kernel,
so every question is put to the symmetric operator A = I + S B S, applied
at O(m^2 N_grid) cost: the A4 audit takes its smallest eigenvalue by
Lanczos with full reorthogonalisation, which tests its smallest Ritz value
after every step and stops once the residual estimate reaches LANCZOS_TOL
(or raises at LANCZOS_MAX_STEPS), and caps it at the 1 of the imaginary
block; the Jacobian solve eliminates Psi by MINRES on A (A is
indefinite whenever A4 fails) before recovering the chemical-potential
component from the trace constraint.  Both need the trace-row solve
y_g = (chi - I)^{-1} g_mu(H); a context makes it at most once and shares
it between its audits and Jacobian solves.

The same pieces give the density response of an SCF iterate,
J drho = chi_0 K drho at a fixed electron count, which the SCF's
dielectric preconditioner inverts (ResponseContext.density_response).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import blas
from scipy.linalg.lapack import dstebz, dstein
from scipy.sparse.linalg import LinearOperator, minres

from .potentials import coulomb_solve
from .smearing import fermi_dirac_dmu

__all__ = [
    "TangentPerturbation",
    "ResponseContext",
    "divided_difference_table",
    "apply_chi",
    "apply_jacobian",
    "solve_jacobian",
    "audit_a4",
]

# Lanczos (A4 audit) and MINRES (Jacobian solves) settings.  The Lanczos
# stops once its residual estimate reaches LANCZOS_TOL relative to the
# Ritz value; the bundled states and sweep references take 11 to 37 steps.
# The seeded start vector makes repeated audits bitwise identical.
LANCZOS_MAX_STEPS = 300
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
    """D(l_i, l_j) = (f(l_i) - f(l_j)) / (l_i - l_j), with f' on the
    diagonal.  Every entry is negative for Fermi-Dirac f.

    With x = beta (l - mu)/2 and sinhc(u) = sinh(u)/u, one identity holds
    for every pair, degenerate or not:

        D(a, b) = -(beta/4) sinhc(x_a - x_b) / (cosh x_a cosh x_b).

    It is evaluated in log form, with

        log sinhc(u) = |u| + log(-expm1(-2|u|) / (2|u|)),

    and is exact to roundoff at near-degenerate pairs.  The naive quotient
    cancels to an exact zero once both occupations round to the same
    double, and those zeros would degenerate the weighted metric of the
    positivity audit.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    beta = smearing.beta
    half = _log_cosh(0.5 * beta * (vals - float(mu)))
    u = 0.5 * beta * np.abs(vals[:, None] - vals[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        sinhc_scaled = np.where(u > 0.0, -np.expm1(-2.0 * u) / (2.0 * u), 1.0)
    log_sinhc = u + np.log(sinhc_scaled)
    return -0.25 * beta * np.exp(log_sinhc - half[:, None] - half[None, :])


# -- real coordinates on the Hermitian tangent space ----------------------
#
# A real symmetric matrix has m(m+1)/2 coordinates in a Frobenius-
# orthonormal basis: its diagonal, then sqrt(2) times its strict upper
# triangle row by row.  A Hermitian matrix has the coordinates of its real
# part followed by the off-diagonal ones of its imaginary antisymmetric
# part, m^2 in all.


@lru_cache(maxsize=16)
def _sym_index(m):
    """Row and column of each symmetric coordinate, read-only and shared."""
    iu = np.triu_indices(m, 1)
    index = tuple(np.concatenate([np.arange(m), k]) for k in iu)
    for k in index:
        k.flags.writeable = False
    return index


def _sym_to_coords(a) -> np.ndarray:
    m = a.shape[0]
    x = a[_sym_index(m)]
    x[m:] *= np.sqrt(2.0)
    return x


def _coords_to_sym(x, m) -> np.ndarray:
    rows, cols = _sym_index(m)
    a = np.empty((m, m))
    a[rows, cols] = a[cols, rows] = np.concatenate([x[:m], x[m:] / np.sqrt(2.0)])
    return a


def hermitian_to_coords(psi) -> np.ndarray:
    """Coordinates in a Frobenius-orthonormal real basis of Hermitian matrices."""
    psi = np.asarray(psi, dtype=complex)
    m = psi.shape[0]
    return np.concatenate([_sym_to_coords(psi.real), _sym_to_coords(psi.imag)[m:]])


class ResponseContext:
    """Frozen ingredients of the response operator at a converged state.

    Besides the kernel pieces, the context holds S = sqrt|D| on the
    m(m+1)/2 real symmetric coordinates and applies A = I + S B S there,
    counting its products in ``applications``.  B is the bare Hartree/xc
    kernel Psi -> <phi_i| dv[rho_Psi] |phi_j>, symmetric up to quadrature
    roundoff.  The Hadamard product with the symmetric real table D is
    diagonal in these coordinates, so chi = diag(D) B exactly, and every
    D is negative (or a negative underflowed to -0.0) for Fermi-Dirac
    occupations; with S = sqrt|D|, chi = -S^2 B, so A is I - chi
    conjugated by S.  The trace-row solve (chi - I)^{-1} g_mu(H), which
    the audit and every Jacobian solve need, is made once and kept.

    The SCF also builds a context of each iterate near its fixed point,
    for the density response ``density_response`` its preconditioner
    inverts; any object with the ``gamma``, ``mu``, ``rho``, ``xc``,
    ``smearing`` and ``hartree_on`` of a state will do.

    The context's dense products, like every dense product of the package
    but the SCF loop's small numpy ones, go to scipy's BLAS, the pool its
    LAPACK (eigh, qr, the tridiagonal solve) uses: numpy and scipy each
    ship their own OpenBLAS, and after a threaded product on one pool its
    idle workers busy-wait on the cores the other then needs.
    """

    def __init__(self, state, g_sign: str = "paper"):
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

        if not gamma.real_functions:
            raise ValueError(
                "response context requires real orbitals, c(-G) = conj c(G)"
            )
        # the state's own read-only samples, shared with density(gamma)
        self.grid_orbitals = gamma.orbitals_on_grid()
        self.weight = self.basis.quadrature_weight
        self.dd_table = divided_difference_table(
            self.eigenvalues, self.mu, self.smearing
        )
        self._fxc = self.xc.d2(state.rho.values).reshape(-1)
        self.applications = 0
        self._trace_row = None
        self._rho_d = None

    # made on first use: an SCF iterate's context reads neither

    @cached_property
    def g_diag(self) -> np.ndarray:
        """g_mu(lambda_i), the occupations' response to mu (``g_sign``)."""
        return fermi_dirac_dmu(
            self.eigenvalues, self.mu, self.smearing, convention=self.g_sign
        )

    @cached_property
    def s(self) -> np.ndarray:
        """S = sqrt|D| on the real symmetric coordinates."""
        return np.sqrt(np.abs(self.dd_table[_sym_index(self.n_states)]))

    # -- kernel pieces ---------------------------------------------------

    def pair_density(self, psi) -> np.ndarray:
        """rho_Psi(r) = sum_ij Psi_ij phi_i(r) phi_j(r), flattened.  For a
        Hermitian Psi the imaginary part is antisymmetric and drops out."""
        grid = self.grid_orbitals
        # (grid.T psi).T; grid.T is Fortran-ordered, so BLAS reads it in place
        mixed = blas.dgemm(1.0, grid.T, np.real(psi)).T
        return np.einsum("jx,jx->x", mixed, grid)

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
        return blas.dgemm(self.weight, self.grid_orbitals.T, weighted.T, trans_a=1)

    def kernel_matrix(self, psi) -> np.ndarray:
        """The bare kernel B Psi = <phi_i| dv[rho_Psi] |phi_j>."""
        return self.matrix_elements(self.kernel_potential(self.pair_density(psi)))

    def density_response(self, drho_flat) -> np.ndarray:
        """J drho = chi_0 K drho at a fixed electron count, flattened.

        The pair density of D o M, with M_ij = <phi_i| dv[drho] |phi_j>,
        minus rho_d (sum_i D_ii M_ii) / (sum_i D_ii), where rho_d =
        sum_i D_ii phi_i^2: the chemical-potential shift, which makes
        int J drho = 0 for every drho.  When every f' underflows,
        sum_i D_ii is exactly 0 and the shift is dropped.
        """
        d = self.dd_table
        m_el = self.matrix_elements(self.kernel_potential(drho_flat))
        out = self.pair_density(d * m_el)
        d_diag = d.diagonal()
        d_sum = float(d_diag.sum())
        if d_sum != 0.0:
            if self._rho_d is None:
                self._rho_d = self.pair_density(np.diag(d_diag))
            out -= self._rho_d * (float((d_diag * m_el.diagonal()).sum()) / d_sum)
        return out

    # -- A = I + S B S on the real symmetric coordinates -----------------

    def _bare(self, x) -> np.ndarray:
        return _sym_to_coords(self.kernel_matrix(_coords_to_sym(x, self.n_states)))

    def apply_a(self, q) -> np.ndarray:
        """A q, counted in ``applications``."""
        self.applications += 1
        q = np.ravel(q)
        return q + self.s * self._bare(self.s * q)

    def _operator(self) -> LinearOperator:
        # made per call: stored on self it would form a reference cycle
        # that keeps the grid arrays alive until a gc pass
        dim = self.s.size
        return LinearOperator((dim, dim), matvec=self.apply_a, dtype=float)

    def lowest_eigenvalue(self) -> float:
        """Smallest eigenvalue of I - chi on all m^2 tangent coordinates.

        Lanczos on A with full reorthogonalisation (two classical
        Gram-Schmidt passes against every stored vector).  After each step
        the smallest Ritz value theta of the tridiagonal matrix is tested:
        the run stops once the residual estimate |beta_k s_k| (s_k the last
        component of its Ritz vector) is at most LANCZOS_TOL max(|theta|, 1).
        That covers breakdown, where the Krylov space is invariant and
        theta is exact, and k = dim.  A run that reaches LANCZOS_MAX_STEPS
        first raises RuntimeError.
        """
        if not (self.hartree_on or self._fxc.any()):
            # no Hartree term and a zero xc kernel: B = 0, so A = I
            return 1.0
        dim = self.s.size
        v = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        basis = (v / np.linalg.norm(v))[None, :]
        alpha, beta = [], []
        for k in range(1, min(dim, LANCZOS_MAX_STEPS) + 1):
            w = self.apply_a(basis[-1])
            alpha.append(float(basis[-1] @ w))
            for _ in range(2):
                w -= blas.dgemv(1.0, basis.T, blas.dgemv(1.0, basis.T, w, trans=1))
            norm = float(np.linalg.norm(w))
            theta, s_k = _lowest_ritz_pair(alpha, beta)
            residual = norm * abs(s_k)
            if residual <= LANCZOS_TOL * max(abs(theta), 1.0) or k == dim:
                lowest = theta
                # for m >= 2 the imaginary block, where A = I, is not empty
                return min(lowest, 1.0) if self.n_states > 1 else lowest
            beta.append(norm)
            basis = np.vstack([basis, w / norm])
        raise RuntimeError(
            f"Lanczos on I + S B S stopped without converging ({k} steps, "
            f"residual estimate {residual:.3e})"
        )

    def trace_row_solve(self) -> tuple[np.ndarray, int]:
        """y_g = (chi - I)^{-1} g_mu(H) in symmetric coordinates, read-only,
        and the number of products with A its MINRES solve took.  The solve
        is made on the first call only; later calls return the same pair."""
        if self._trace_row is None:
            before = self.applications
            y_g = self.solve_chi_minus_identity(_sym_to_coords(np.diag(self.g_diag)))
            y_g.flags.writeable = False
            self._trace_row = (y_g, self.applications - before)
        return self._trace_row

    def solve_chi_minus_identity(self, r) -> np.ndarray:
        """y = (chi - I)^{-1} r for a real symmetric r, both in symmetric
        coordinates: -r plus S q, with (I + S B S) q = S B r, which needs
        no division by S where a weight underflows to -0.0."""
        b = self.s * self._bare(r)
        q, info = minres(self._operator(), b, rtol=MINRES_RTOL)
        if info != 0:
            residual = np.linalg.norm(b - self.apply_a(q))
            raise RuntimeError(
                f"MINRES on I + S B S stopped without converging (info = {info}, "
                f"residual = {residual:.3e})"
            )
        return self.s * q - r


def _lowest_ritz_pair(alpha, beta) -> tuple[float, float]:
    """Smallest eigenvalue of the symmetric tridiagonal matrix with diagonal
    alpha and off-diagonal beta, and the last component of its unit
    eigenvector.  These are the LAPACK bisection (stebz) and inverse
    iteration (stein) that eigh_tridiagonal(select="i") runs, bit for bit,
    without the wrapper's argument handling: on 2 vCPU that handling took
    about 35 us a call, the two calls 8-19 us at 5 to 30 Lanczos steps."""
    d = np.asarray(alpha, dtype=float)
    if d.size == 1:
        return float(d[0]), 1.0
    e = np.asarray(beta, dtype=float)
    # by index (range 2), eigenvalues 1 to 1, default abstol, in the block
    # order stein takes
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    if info == 0:
        vec, info = dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise RuntimeError(
            f"tridiagonal eigensolve failed at Lanczos step {d.size} (LAPACK info = {info})"
        )
    return float(w[0]), float(vec[-1, 0])


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


def solve_jacobian(ctx: ResponseContext, phi, t: float) -> TangentPerturbation:
    """Solve J(Psi, s) = (Phi, t) for the tangent and the mu component.

    chi annihilates the imaginary antisymmetric part of a tangent and that
    part has no trace, so Im Psi = -Im Phi.  On the real symmetric part,
    Psi = (chi - I)^{-1} (Re Phi - s g_mu(H)) with
    s = (Tr((chi - I)^{-1} Re Phi) - t) / Tr((chi - I)^{-1} g_mu(H)); each
    (chi - I)^{-1} is a MINRES solve on A = I + S B S, and the one of
    g_mu(H) is the context's trace-row solve, made at most once per context
    (ResponseContext.trace_row_solve).  The exact residual Phi - J(Psi, s)
    is checked through apply_jacobian and polished by up to REFINE_STEPS
    steps of iterative refinement.  A Phi that is not Hermitian, or a t
    that is not finite, raises ValueError before any product is made; a
    system that stays unsolved raises RuntimeError with the MINRES status
    and the residual in the message.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"trace value t must be finite, got {t}")
    phi = TangentPerturbation(phi).matrix
    m = ctx.n_states
    if phi.shape != (m, m):
        raise ValueError(f"right-hand side must be ({m}, {m})")
    imag = -1j * phi.imag
    y_phi = ctx.solve_chi_minus_identity(_sym_to_coords(phi.real))
    y_g, _ = ctx.trace_row_solve()
    denom = float(y_g[:m].sum())
    if abs(denom) < 1e-13 * max(1.0, float(np.abs(y_g).max())):
        raise RuntimeError(
            f"trace-row denominator Tr((chi-I)^-1 g) = {denom:.3e} vanishes"
        )
    s = (float(y_phi[:m].sum()) - t) / denom
    x = y_phi - s * y_g

    tolerance = 1e-10 * max(1.0, np.linalg.norm(phi) + abs(t))
    for attempt in range(REFINE_STEPS + 1):
        out = apply_jacobian(ctx, _coords_to_sym(x, m) + imag, s)
        r_first = phi - out.matrix
        r_trace = t - out.scalar
        size = np.linalg.norm(r_first) + abs(r_trace)
        if size <= tolerance:
            break
        if attempt == REFINE_STEPS:
            raise RuntimeError(
                f"chi - I is singular on the tangent space (MINRES info 0, "
                f"Jacobian residual {size:.3e} after {REFINE_STEPS} refinement steps)"
            )
        y_r = ctx.solve_chi_minus_identity(_sym_to_coords(r_first.real))
        ds = (float(y_r[:m].sum()) - r_trace) / denom
        x = x + y_r - ds * y_g
        s = s + ds
    return TangentPerturbation(_coords_to_sym(x, m) + imag, s)


def audit_a4(ctx: ResponseContext) -> dict:
    """Positivity audit of I - chi on the retained tangent space.

    chi is not symmetric in the plain Frobenius coordinates, but I - chi is
    similar to the symmetric A = I + S B S, whose smallest eigenvalue comes
    from Lanczos.  Reports that eigenvalue, the implied kappa =
    1 / lambda_min, the trace-row denominator under the configured g
    convention, the number of Lanczos steps (one product with A each) and
    the products the audit rests on: those steps plus the MINRES products
    of the context's trace-row solve, which is made at most once per
    context (ResponseContext.trace_row_solve) and counted in every audit,
    whether this audit or an earlier call made it.  So every audit of a
    state reports the same count.  A non-positive lambda_min is flagged,
    not raised; the report is the deliverable.
    """
    m = ctx.n_states
    before = ctx.applications
    lambda_min = ctx.lowest_eigenvalue()
    lanczos_steps = ctx.applications - before
    kappa = float(1.0 / lambda_min) if lambda_min > 0 else float("inf")
    y_g, trace_row_products = ctx.trace_row_solve()
    denominator_s = float(y_g[:m].sum())

    return {
        "lambda_min": lambda_min,
        "kappa": kappa,
        "denominator_s": denominator_s,
        "g_sign": ctx.g_sign,
        "tangent_dim": int(m * m),
        "operator_applications": lanczos_steps + trace_row_products,
        "lanczos_steps": lanczos_steps,
        "violated": bool(lambda_min <= 0.0),
    }
