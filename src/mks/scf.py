"""Self-consistent solution of the finite-temperature Kohn-Sham equations.

The discrete problem is a fixed point of rho -> density(f_mu(H(rho))) with
the chemical potential mu always re-solved so that the occupation sum equals
the electron count.  Eigenpairs come from one dense solver in real
arithmetic: the basis is closed under G -> -G and the potential is real, so
in the basis {sqrt2 cos(G.r), sqrt2 sin(G.r), 1} every H is real symmetric
(the Gamma-point trick of plane-wave codes, Kresse & Furthmueller 1996).
That dense H, refused above DENSE_MAX_PLANE_WAVES with EigensolverError,
is the only form of H here: residual checks and gradients multiply by it.

The fixed point is found by Anderson mixing.  Far from it the mixer takes
the residual r = rho_out - rho_in with alpha 0.5.  Once the density
residual is below PRECOND_THRESHOLD, it takes the dielectric-preconditioned
residual delta rho = (I - J)^{-1} r with alpha 1 instead, where J = chi_0 K
is the density response of the current iterate at a fixed electron count
(ResponseContext.density_response) and the solve is one loose GMRES cycle
(Herbst & Levitt, J. Phys.: Condens. Matter 33, 085503 (2021)), written
here so that it makes only the products it uses: scipy's gmres closes each
cycle with a product b - A x that this loop has no use for.  The context
reads the grid samples the iterate's density was made from, so a
preconditioned step transforms no orbital again.  The
threshold keeps the step away from the first iterates, whose response can
be far from the fixed point's: from the uniform density at beta 1e4 on
si1d every f' of the first iterates underflows, and an SCF preconditioned
from its first step does not converge there within 200 iterations.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, blas, lapack
# lobpcg is not called here: bound only so that perfbench/tracing.py can wrap it
from scipy.sparse.linalg import lobpcg  # noqa: F401

from .cell import GridFunction, PlaneWaveBasis, l2_norm
from .density_matrix import (
    DensityMatrix,
    FreeEnergyBreakdown,
    density,
    free_energy,
    gamma_overlap_distance,
)
from .potentials import ExternalPotential, XcFunctional, assemble_effective
from .response import ResponseContext
from .smearing import Smearing, fermi_dirac, solve_mu

__all__ = [
    "Hamiltonian",
    "EigensolverError",
    "ScfError",
    "lowest_eigenpairs",
    "fixed_point_map",
    "run_scf",
    "ScfState",
    "free_energy_gradient",
    "fixed_point_residual",
]

# the complex H, its real form and the int32 difference table take
# 28 npw^2 bytes, about 470 MB at this size
DENSE_MAX_PLANE_WAVES = 4096
# lowest_eigenpairs asks LAPACK for the whole spectrum (dsyevd) up to this
# many plane waves and for the wanted pairs only (dsyevr) above it.  On
# 2 vCPU dsyevd is the faster up to about 45 rows for 10 wanted pairs and
# up to about 150 for 27; every 1d basis the sweeps solve (at most 29)
# lies far below, scf3d's 251 above
FULL_SPECTRUM_MAX = 100
OCC_TAIL = 1e-12
STATE_BUFFER = 8
RESIDUAL_TOL = 1e-8
MIXING_ALPHA = 0.5
ANDERSON_WINDOW = 5
PRECOND_THRESHOLD = 1e-2
PRECOND_RTOL = 1e-2
PRECOND_RESTART = 50
_EPS = float(np.finfo(float).eps)


class EigensolverError(RuntimeError):
    pass


class ScfError(RuntimeError):
    pass


class Hamiltonian:
    """H = -1/2 Laplacian + v, with v a real multiplication operator.

    Args:
        basis: plane-wave basis.
        v_local: effective potential sampled on the basis' FFT grid.
    """

    def __init__(self, basis: PlaneWaveBasis, v_local: GridFunction):
        if v_local.basis != basis:
            raise ValueError("potential grid does not match the basis")
        self.basis = basis
        self.v_values = v_local.values
        self._dense = None

    def apply(self, block: np.ndarray) -> np.ndarray:
        """H times a (size, k) block of coefficient vectors.  dense().T with
        trans_a=1 reads H in place, with no Fortran-order copy."""
        return blas.zgemm(1.0, self.dense().T, block, trans_a=1)

    def dense(self) -> np.ndarray:
        """The dense matrix H_GG' = |G|^2/2 delta + vhat(G - G').

        Assembled on the first call and returned read-only afterwards.
        """
        if self._dense is None:
            basis = self.basis
            npw = basis.size
            if npw > DENSE_MAX_PLANE_WAVES:
                raise EigensolverError(
                    f"{npw} plane waves exceed the dense limit of "
                    f"{DENSE_MAX_PLANE_WAVES}: H, its real form and the index "
                    f"table would take {28 * npw**2 / 1e6:.0f} MB"
                )
            vhat = basis.fourier_coefficients(self.v_values).ravel()
            h = vhat[basis.difference_index]
            h[np.diag_indices(npw)] += 0.5 * basis.g_norm2
            h.flags.writeable = False
            self._dense = h
        return self._dense


def _real_form(h: np.ndarray) -> np.ndarray:
    """U^H H U for the dense H, with U the cos/sin basis of the G -> -G pairs.

    The basis is sorted lexicographically and closed under negation, so the
    partner of index i is n - 1 - i and G = 0 sits at k = n // 2.  Columns
    of U: u_i = (e_i + e_i')/sqrt2, w_i = i (e_i - e_i')/sqrt2 for i < k,
    then e_k.  With A = H[:k, :k] and B_ij = H[i, j'] (symmetric, since
    both entries are vhat(G_i + G_j)), a real potential makes the result
    real, and it is exactly symmetric because dense() is exactly Hermitian.
    """
    n = h.shape[0]
    k = n // 2
    a = h[:k, :k]
    b = h[:k, ::-1][:, :k]
    cross = b.imag - a.imag
    edge = np.sqrt(2.0) * h[k, :k]
    hr = np.empty((n, n))
    hr[:k, :k] = a.real + b.real
    hr[k:-1, k:-1] = a.real - b.real
    hr[:k, k:-1] = cross
    hr[k:-1, :k] = cross.T
    hr[-1, :k] = hr[:k, -1] = edge.real
    hr[-1, k:-1] = hr[k:-1, -1] = -edge.imag
    hr[-1, -1] = h[k, k].real
    return hr


def _from_real_form(x: np.ndarray) -> np.ndarray:
    """Plane-wave coefficients U x of real vectors x in the cos/sin basis."""
    n = x.shape[0]
    k = n // 2
    head = (x[:k] + 1j * x[k:-1]) / np.sqrt(2.0)
    vecs = np.empty(x.shape, dtype=complex)
    vecs[:k] = head
    vecs[k] = x[-1]
    vecs[k + 1:] = head[::-1].conj()
    return vecs


@lru_cache(maxsize=None)
def _workspace(driver: str, n: int):
    """(lwork, liwork) from LAPACK's workspace query of dsyevd or dsyevr on
    an n x n matrix with eigenvectors, as scipy's eigh takes them."""
    if driver == "evd":
        work, iwork, info = lapack.dsyevd_lwork(n, compute_v=1, lower=1)
    else:
        work, iwork, info = lapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise LinAlgError(f"workspace query of dsy{driver} failed (info {info})")
    return int(work), int(iwork)


def _symmetric_eigh(hr: np.ndarray, m: int):
    """Lowest m eigenpairs of the real symmetric hr, and the driver taken.

    Up to FULL_SPECTRUM_MAX rows dsyevd takes the whole spectrum and the
    first m pairs are kept; above it dsyevr takes only those m.  Each is
    called as scipy's eigh calls it (lower triangle, the queried
    workspace), so the pairs are bitwise those of eigh(driver="evd") and
    of eigh(subset_by_index=[0, m - 1]).  hr is exactly symmetric, so its
    transpose is the same matrix in Fortran order: LAPACK overwrites it
    in place, with no copy.
    """
    n = hr.shape[0]
    driver = "evd" if n <= FULL_SPECTRUM_MAX else "evr"
    lwork, liwork = _workspace(driver, n)
    if driver == "evd":
        vals, x, info = lapack.dsyevd(hr.T, compute_v=1, lower=1, lwork=lwork,
                                      liwork=liwork, overwrite_a=1)
    else:
        vals, x, _, _, info = lapack.dsyevr(hr.T, compute_v=1, range="I", lower=1,
                                            il=1, iu=m, lwork=lwork, liwork=liwork,
                                            overwrite_a=1)
    if info != 0:
        raise LinAlgError(f"eigenvalue algorithm did not converge (dsy{driver} info {info})")
    return vals[:m], x[:, :m], driver


def lowest_eigenpairs(ham: Hamiltonian, m: int, info: dict | None = None):
    """Lowest m eigenpairs of H, ascending, with residuals below RESIDUAL_TOL.

    LAPACK's real symmetric solver (``_symmetric_eigh``) on H in the cos/sin
    basis, each real eigenvector signed so that its largest-magnitude
    entry is positive, then mapped back to plane waves: every orbital has
    c(-G) = conj c(G), so it is a real function.  The residual is taken with
    the complex dense(), so it also checks the real form and the map back.
    A non-finite H raises EigensolverError before LAPACK sees it.  A dict
    ``info`` receives the LAPACK ``driver`` ("evd" or "evr") and the worst
    ``residual`` norm.
    """
    basis = ham.basis
    if not 0 < m <= basis.size:
        raise ValueError(f"need 1 <= m <= {basis.size}, got {m}")
    hr = _real_form(ham.dense())
    if not np.isfinite(hr).all():
        raise EigensolverError("Hamiltonian has non-finite entries")
    vals, x, driver = _symmetric_eigh(hr, m)
    x *= np.sign(x[np.argmax(np.abs(x), axis=0), np.arange(m)])
    vecs = _from_real_form(x)
    resid = ham.apply(vecs) - vecs * vals
    worst = float(np.linalg.norm(resid, axis=0).max())
    if info is not None:
        info["driver"], info["residual"] = driver, worst
    scale = max(1.0, float(np.abs(vals).max()))
    if worst > RESIDUAL_TOL * scale:
        raise EigensolverError(f"eigensolver residual {worst:.3e} above tolerance")
    return vals, vecs


def fixed_point_map(rho_in: GridFunction, external: ExternalPotential,
                    xc: XcFunctional, smearing: Smearing, n_electrons: float,
                    hartree_on=True, n_states: int | None = None,
                    info: dict | None = None):
    """One application of the Kohn-Sham map rho -> rho(f_mu(H(rho))).

    The number of computed eigenpairs grows until the occupation of the
    highest computed state falls below 1e-12 (or the basis is exhausted,
    in which case nothing is discarded).  Returns (gamma, mu, rho_out).
    A dict ``info`` receives the LAPACK ``driver`` and the worst
    ``residual`` of the last eigensolve.
    """
    basis = rho_in.basis
    if n_electrons >= basis.size:
        raise ScfError(
            f"{n_electrons} electrons cannot be held by {basis.size} plane waves"
        )
    terms = assemble_effective(rho_in, external, xc, hartree_on=hartree_on)
    ham = Hamiltonian(basis, terms.v_eff)

    m = n_states or min(basis.size, int(np.ceil(n_electrons)) + STATE_BUFFER)
    m = max(m, int(np.floor(n_electrons)) + 1)
    m = min(m, basis.size)
    while True:
        vals, vecs = lowest_eigenpairs(ham, m, info=info)
        mu = solve_mu(vals, n_electrons, smearing)
        tail = float(fermi_dirac(vals[-1], mu, smearing))
        if tail < OCC_TAIL or m == basis.size:
            break
        m = min(basis.size, max(m + STATE_BUFFER, int(1.5 * m)))

    occ = fermi_dirac(vals, mu, smearing)
    keep = int(np.count_nonzero(occ > OCC_TAIL)) + STATE_BUFFER
    keep = min(m, max(keep, int(np.floor(n_electrons)) + 1))
    if keep < m:
        # the dropped states carried up to OCC_TAIL of occupation each, far
        # above the roundoff solve_mu meets: re-solve mu on the retained
        # spectrum so Tr Gamma = N holds to roundoff
        vals, vecs = vals[:keep], vecs[:, :keep]
        mu = solve_mu(vals, n_electrons, smearing)
        occ = fermi_dirac(vals, mu, smearing)
    gamma = DensityMatrix(basis, vecs, occ, eigenvalues=vals)
    return gamma, mu, density(gamma)


class _AndersonMixer:
    """Anderson acceleration over density iterates (Walker & Ni 2011).

    Keeps the last ANDERSON_WINDOW input densities and the residuals fed
    with them, and mixes the least-squares combination of them with alpha
    1 for dielectric-preconditioned residuals and MIXING_ALPHA for plain
    ones.  Residuals of the two kinds do not mix in one least-squares fit,
    so the history restarts whenever the kind changes; the first step
    after a restart is plain damping.
    """

    def __init__(self):
        self.inputs = []
        self.residuals = []
        self.preconditioned = False

    def step(self, rho_in, r, preconditioned):
        if preconditioned != self.preconditioned:
            self.inputs.clear()
            self.residuals.clear()
            self.preconditioned = preconditioned
        alpha = 1.0 if preconditioned else MIXING_ALPHA
        self.inputs.append(rho_in.copy())
        self.residuals.append(r.copy())
        if len(self.inputs) > ANDERSON_WINDOW:
            self.inputs.pop(0)
            self.residuals.pop(0)
        h = len(self.inputs)
        if h == 1:
            return rho_in + alpha * r
        history = np.stack(self.inputs + self.residuals).reshape(2, h, -1)
        dx, dr = history[:, 1:] - history[:, :-1]
        coef, *_ = np.linalg.lstsq(dr.T, r.ravel(), rcond=None)
        x_bar = rho_in - (coef @ dx).reshape(r.shape)
        r_bar = r - (coef @ dr).reshape(r.shape)
        return x_bar + alpha * r_bar


class _Iterate(NamedTuple):
    """What ResponseContext reads of a state, here an SCF iterate: the
    map's output state and the input density its Hamiltonian was built on."""

    gamma: DensityMatrix
    mu: float
    rho: GridFunction
    xc: XcFunctional
    smearing: Smearing
    hartree_on: bool


def dielectric_solve(ctx: ResponseContext, r: np.ndarray, rtol=PRECOND_RTOL):
    """delta rho = (I - J)^{-1} r, with J = ctx.density_response, by one
    restarted-GMRES cycle from x0 = 0.

    Arnoldi with classical Gram-Schmidt applied twice builds the Krylov
    basis of I - J from r, and Givens rotations on Python floats keep the
    least-squares residual |g_{k+1}| of step k.  The cycle stops, as
    scipy's gmres does, once |g_{k+1}| <= rtol ||r||, on breakdown, or
    after min(PRECOND_RESTART, r.size) steps; delta rho then comes from
    the triangular system, with no closing product b - A x.  Returns
    delta rho in r's shape and the number of products with I - J, one a
    step (none for a zero r).  Every Krylov vector keeps the integral of
    r, so int delta rho = int r to roundoff.
    """
    b = r.ravel()
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return np.zeros_like(r), 0
    steps = min(PRECOND_RESTART, b.size)
    krylov = np.empty((steps + 1, b.size))
    krylov[0] = b / norm_b
    columns = []      # the triangular factor, column by column
    rotations = []    # (c, s) of each Givens rotation
    g = [norm_b]      # rotated right-hand side of the least-squares problem
    for k in range(steps):
        w = krylov[k] - ctx.density_response(krylov[k])
        before = math.sqrt(w @ w)
        done = krylov[: k + 1]
        h = np.zeros(k + 1)
        for _ in range(2):
            coef = done @ w
            w -= coef @ done
            h += coef
        norm = math.sqrt(w @ w)
        breakdown = norm <= _EPS * before
        col = h.tolist() + [0.0 if breakdown else norm]
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diagonal = math.hypot(col[k], col[k + 1])
        c, s = col[k] / diagonal, col[k + 1] / diagonal
        rotations.append((c, s))
        col[k] = diagonal
        columns.append(col[: k + 1])
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= rtol * norm_b or breakdown:
            break
        krylov[k + 1] = w / norm
    n = len(columns)
    y = g[:n]
    for i in reversed(range(n)):
        y[i] = (y[i] - sum(columns[j][i] * y[j] for j in range(i + 1, n))) / columns[i][i]
    return (np.asarray(y) @ krylov[:n]).reshape(r.shape), n


class ScfState:
    """Converged self-consistent state plus its model.

    Its fixed-point residual is measured on first read: one more map,
    which only a caller that reports it pays for.
    """

    def __init__(self, gamma, mu, rho, breakdown, residual_density,
                 iterations, converged, history,
                 external, xc, smearing, n_electrons, hartree_on):
        self.gamma = gamma
        self.mu = mu
        self.rho = rho
        self.free_energy = breakdown
        self.residual_density = residual_density
        self.iterations = iterations
        self.converged = converged
        self.history = history
        self.external = external
        self.xc = xc
        self.smearing = smearing
        self.n_electrons = n_electrons
        self.hartree_on = hartree_on

    @property
    def basis(self):
        return self.gamma.basis

    @cached_property
    def residual_fixedpoint(self) -> float:
        return fixed_point_residual(self)

    def __repr__(self):
        return (
            f"ScfState(F={self.free_energy.total:.10g}, mu={self.mu:.6g}, "
            f"iterations={self.iterations}, converged={self.converged})"
        )


def fixed_point_residual(state: ScfState) -> float:
    """||f_mu(H(rho_Gamma)) - Gamma||_F at the converged density."""
    gamma = state.gamma
    out, _, _ = fixed_point_map(
        state.rho,
        state.external,
        state.xc,
        state.smearing,
        state.n_electrons,
        hartree_on=state.hartree_on,
        n_states=gamma.n_states,
    )
    return gamma_overlap_distance(out, gamma)


def run_scf(basis: PlaneWaveBasis, external: ExternalPotential,
            xc: XcFunctional, smearing: Smearing, n_electrons: float,
            hartree_on=True, tol_rho=1e-8, tol_f=1e-10,
            max_iter=200, initial_rho: GridFunction | None = None) -> ScfState:
    """Self-consistent field loop with dielectric-preconditioned Anderson.

    Starts from the uniform density N/|Omega| (or ``initial_rho`` when
    given, e.g. to restart from a converged density); converged when the
    density update falls below tol_rho in L2 and the free energy moves by
    less than tol_f.  Raises ScfError on non-convergence.

    While the density residual ||rho_out - rho_in|| is at least
    PRECOND_THRESHOLD, each step is plain Anderson on r = rho_out - rho_in
    with alpha MIXING_ALPHA.  Below it, r is replaced by delta rho solving
    (I - J) delta rho = r (``dielectric_solve``), J the response of the
    map's output state with the kernel at rho_in, and the step mixes with
    alpha 1.  The Anderson history restarts whenever the step changes kind.
    Each history record holds the iteration, free energy, density residual,
    mu, the number of states kept, ``precond_products``, the products
    with I - J its step took (0 on a plain step), and of the map's last
    eigensolve the LAPACK driver, ``eigensolver`` ("evd" or "evr"), and
    ``eig_residual``, its worst residual norm.
    """
    if n_electrons <= 0:
        raise ValueError("n_electrons must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    mixer = _AndersonMixer()

    if initial_rho is None:
        rho_in = GridFunction(
            basis, np.full(basis.fft_shape, n_electrons / basis.cell.volume)
        )
    else:
        if initial_rho.basis != basis:
            raise ValueError("initial density lives on a different basis")
        rho_in = GridFunction(basis, initial_rho.values.copy())
    history = []
    f_prev = None
    n_states = None
    for it in range(1, max_iter + 1):
        solve = {}
        gamma, mu, rho_out = fixed_point_map(
            rho_in, external, xc, smearing, n_electrons,
            hartree_on=hartree_on, n_states=n_states, info=solve,
        )
        n_states = gamma.n_states
        breakdown = free_energy(gamma, external, xc, smearing, hartree_on=hartree_on)
        delta = l2_norm(rho_out - rho_in)
        history.append(
            {
                "iteration": it,
                "free_energy": breakdown.total,
                "density_residual": delta,
                "mu": mu,
                "n_states": n_states,
                "precond_products": 0,
                "eigensolver": solve["driver"],
                "eig_residual": solve["residual"],
            }
        )
        if f_prev is not None and delta <= tol_rho and abs(breakdown.total - f_prev) <= tol_f:
            break
        f_prev = breakdown.total
        r = rho_out.values - rho_in.values
        precondition = delta < PRECOND_THRESHOLD
        if precondition:
            iterate = _Iterate(gamma, mu, rho_in, xc, smearing, hartree_on)
            r, history[-1]["precond_products"] = dielectric_solve(
                ResponseContext(iterate), r
            )
        rho_in = GridFunction(basis, mixer.step(rho_in.values, r, precondition))
    else:
        raise ScfError(
            f"no convergence in {max_iter} iterations "
            f"(density residual {delta:.3e}, F {breakdown.total:.12g})"
        )
    return ScfState(
        gamma, mu, rho_out, breakdown,
        residual_density=delta,
        iterations=len(history),
        converged=True,
        history=history,
        external=external,
        xc=xc,
        smearing=smearing,
        n_electrons=n_electrons,
        hartree_on=hartree_on,
    )


def free_energy_gradient(gamma: DensityMatrix, external: ExternalPotential,
                         xc: XcFunctional, smearing: Smearing,
                         hartree_on=True) -> np.ndarray:
    """Gradient of the free energy in the retained orbital frame.

    Returns the Hermitian matrix <phi_i| H(rho_Gamma) |phi_j>
    + beta^-1 ln(f/(1-f)) delta_ij, so that dF(Gamma + eps Psi)/d eps
    = Tr(grad Psi) for admissible tangents.  Diagonal entries blow up as
    occupations reach 0 or 1; pair it with tangents supported on
    fractionally occupied states.
    """
    rho = density(gamma)
    terms = assemble_effective(rho, external, xc, hartree_on=hartree_on)
    ham = Hamiltonian(gamma.basis, terms.v_eff)
    grad = blas.zgemm(1.0, gamma.orbitals, ham.apply(gamma.orbitals), trans_a=2)
    f = np.clip(gamma.occupations, 1e-300, 1.0 - 1e-16)
    grad[np.diag_indices_from(grad)] += (np.log(f) - np.log1p(-f)) / smearing.beta
    return 0.5 * (grad + grad.conj().T)
