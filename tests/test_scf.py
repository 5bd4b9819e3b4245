"""Self-consistent field loop, eigensolvers, and optimality diagnostics."""

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, gmres

from conftest import (
    converged_state,
    dense_dielectric_matrix,
    perturb,
    random_density_matrix,
    rotate,
)
from test_density_matrix import dense_from_projectors
from mks import cell, density_matrix, scf
from mks.cell import Cell, GridFunction, PlaneWaveBasis, build_basis, l2_norm
from mks.config import RunConfig
from mks.density_matrix import (
    DensityMatrix,
    density,
    free_energy,
    gamma_overlap_distance,
)
from mks.harness import quasi_optimality, run_single, run_sweep
from mks.potentials import (
    ExternalPotential,
    XcFunctional,
    assemble_effective,
    dirac_exchange,
    gaussian_wells,
    null_xc,
)
from mks.response import (
    ResponseContext,
    audit_a4,
    divided_difference_table,
    solve_jacobian,
)
from mks.scf import (
    EigensolverError,
    Hamiltonian,
    ScfError,
    dielectric_solve,
    fixed_point_map,
    fixed_point_residual,
    free_energy_gradient,
    lowest_eigenpairs,
    run_scf,
)
from mks.smearing import Smearing, fermi_dirac, solve_mu

BENCHMARKS = ["free1d", "si1d", "rhf1d", "tiny3d"]

# occupations this far inside (0, 1) keep centered differences of the
# entropy term well conditioned at eps = 1e-5
FRACTIONAL_WINDOW = (1e-2, 1.0 - 1e-2)


def admissible_tangent(state, rng):
    """Random Hermitian tangent supported on fractionally occupied states."""
    f = state.gamma.occupations
    idx = np.flatnonzero((f > FRACTIONAL_WINDOW[0]) & (f < FRACTIONAL_WINDOW[1]))
    assert idx.size >= 2, "benchmark lost its fractional block"
    m = state.gamma.n_states
    block = rng.standard_normal((idx.size, idx.size)) + 1j * rng.standard_normal(
        (idx.size, idx.size)
    )
    block = block + block.conj().T
    psi = np.zeros((m, m), dtype=complex)
    psi[np.ix_(idx, idx)] = block
    return psi / np.linalg.norm(psi)


def random_block(size, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k))


def fft_apply(ham, block):
    """H times a (size, k) block through the FFT grid: the kinetic term
    |G|^2/2 on the coefficients plus v multiplied on the grid, the operator
    dense() is checked against."""
    basis = ham.basis
    grid = basis.to_grid(block.T)
    grid *= ham.v_values
    return 0.5 * basis.g_norm2[:, None] * block + basis.from_grid(grid).T


def test_hamiltonian_dense_matches_apply():
    basis = build_basis(Cell(10.0), 8.0)
    v = gaussian_wells([[3.0]], [-2.0], [0.7]).evaluate(basis)
    ham = Hamiltonian(basis, v)
    h = ham.dense()
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    block = random_block(basis.size)
    product = ham.apply(block)
    assert np.array_equal(product, scipy.linalg.blas.zgemm(1.0, h.T, block, trans_a=1))
    expected = h @ block
    assert np.linalg.norm(product - expected) <= 1e-14 * np.linalg.norm(expected)
    # diagonal carries the kinetic term plus the potential mean
    np.testing.assert_allclose(
        np.diag(h).real, 0.5 * basis.g_norm2 + v.values.mean(), atol=1e-12
    )


def state_hamiltonian(state):
    v_eff = assemble_effective(state.rho, state.external, state.xc,
                               hartree_on=state.hartree_on)
    return Hamiltonian(state.basis, v_eff)


# a 1d, a skewed 2d and a 3d basis
LATTICE_CASES = [
    (10.0, 8.0),
    ([[6.0, 0.0], [1.5, 5.0]], 3.0),
    (6.0 * np.eye(3), 4.0),
]


@pytest.mark.parametrize("lattice, cutoff", LATTICE_CASES, ids=["1d", "2d", "3d"])
def test_hamiltonian_dense_matches_per_axis_gather(lattice, cutoff):
    basis = build_basis(Cell(lattice), cutoff)
    d = basis.cell.dimension
    v = gaussian_wells([[2.0] * d], [-2.0], [0.7]).evaluate(basis)
    ham = Hamiltonian(basis, v)
    h = ham.dense()
    # reference gather: one wrapped index array per axis
    vhat = basis.fourier_coefficients(v.values)
    reference = vhat[basis.grid_index(basis.g_int[:, None] - basis.g_int[None])]
    reference[np.diag_indices(basis.size)] += 0.5 * basis.g_norm2
    assert np.array_equal(h, reference)
    assert basis.difference_index.dtype == np.int32
    # assembled once, and shared read-only
    assert ham.dense() is h
    assert not h.flags.writeable


@pytest.mark.parametrize("lattice, cutoff", LATTICE_CASES, ids=["1d", "2d", "3d"])
def test_basis_order_pairs_each_g_with_minus_g(lattice, cutoff):
    basis = build_basis(Cell(lattice), cutoff)
    assert basis.size % 2 == 1
    assert np.array_equal(basis.g_int[::-1], -basis.g_int)
    assert not basis.g_int[basis.size // 2].any()


def cos_sin_basis(size):
    """Columns (e_i + e_i')/sqrt2, i (e_i - e_i')/sqrt2 for i < size // 2
    (i' = size - 1 - i), then e_{size // 2}: the real-form basis as a matrix."""
    k = size // 2
    u = np.zeros((size, size), dtype=complex)
    for i in range(k):
        u[i, i] = u[size - 1 - i, i] = 1.0 / np.sqrt(2.0)
        u[i, k + i] = 1j / np.sqrt(2.0)
        u[size - 1 - i, k + i] = -1j / np.sqrt(2.0)
    u[k, -1] = 1.0
    return u


def real_form_cases():
    """H of an off-centre well on each lattice case, then of each converged
    bundled state."""
    for lattice, cutoff in LATTICE_CASES:
        basis = build_basis(Cell(lattice), cutoff)
        d = basis.cell.dimension
        centre = [[1.3, 2.2, 0.7][:d]]
        yield Hamiltonian(basis, gaussian_wells(centre, [-2.0], [0.7]).evaluate(basis))
    for name in BENCHMARKS:
        yield state_hamiltonian(converged_state(name))


def test_dense_hamiltonian_matches_fft_oracle():
    for ham in real_form_cases():
        h = ham.dense()
        block = random_block(ham.basis.size)
        scale = np.abs(h).max()
        assert np.abs(fft_apply(ham, block) - h @ block).max() <= 1e-13 * scale


def test_real_form_is_the_cos_sin_matrix_of_h():
    complex_cases = 0
    for ham in real_form_cases():
        h = ham.dense()
        complex_cases += np.abs(h.imag).max() > 1e-3
        hr = scf._real_form(h)
        assert hr.dtype == np.float64
        assert np.array_equal(hr, hr.T)
        u = cos_sin_basis(ham.basis.size)
        oracle = u.conj().T @ h @ u
        scale = np.abs(h).max()
        assert np.abs(oracle.imag).max() <= 1e-13 * scale
        assert np.abs(oracle.real - hr).max() <= 1e-13 * scale
        _, x = scipy.linalg.eigh(hr)
        vecs = scf._from_real_form(x)
        np.testing.assert_allclose(vecs, u @ x, atol=1e-15)
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(ham.basis.size)).max() <= 1e-12
    # the three off-centre wells and si1d/rhf1d give genuinely complex H
    assert complex_cases == 5


def lapack_spy(monkeypatch):
    """Spy on the two LAPACK eigensolvers of the scf module: each call
    appends (routine, dtype of the matrix handed over)."""
    seen = []
    for name in ("dsyevd", "dsyevr"):
        def spy(a, *args, _name=name, _solve=getattr(scf.lapack, name), **kwargs):
            seen.append((_name, np.asarray(a).dtype))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(scf.lapack, name, spy)
    return seen


def well_hamiltonian(lattice, cutoff):
    """H of an off-centre Gaussian well, complex in the plane-wave basis."""
    basis = build_basis(Cell(lattice), cutoff)
    centre = [[1.3, 2.2, 0.7][:basis.cell.dimension]]
    return Hamiltonian(basis, gaussian_wells(centre, [-2.0], [0.7]).evaluate(basis))


def uniform_hamiltonian(name, cutoff):
    """H of a bundled model at the uniform density, at any cutoff."""
    cfg = RunConfig.from_file(name)
    basis = cfg.build_basis(cutoff)
    rho = GridFunction(basis, np.full(basis.fft_shape, cfg.n_electrons / basis.cell.volume))
    v_eff = assemble_effective(rho, cfg.external, cfg.xc, hartree_on=cfg.hartree_on)
    return Hamiltonian(basis, v_eff)


# one Hamiltonian on each side of scf.FULL_SPECTRUM_MAX: si1d's 21 plane
# waves and an off-centre well in tiny3d's cell at ec 8, 251 plane waves
CROSSOVER_SIDES = {
    "dsyevd": lambda: state_hamiltonian(converged_state("si1d")),
    "dsyevr": lambda: well_hamiltonian(6.0 * np.eye(3), 8.0),
}


def test_dense_path_hands_lapack_a_real_matrix(monkeypatch):
    for routine, make in sorted(CROSSOVER_SIDES.items()):
        ham = make()
        assert (ham.basis.size <= scf.FULL_SPECTRUM_MAX) is (routine == "dsyevd")
        info = {}
        with monkeypatch.context() as patch:
            seen = lapack_spy(patch)
            assert np.abs(ham.dense().imag).max() > 1e-3
            vals, vecs = lowest_eigenpairs(ham, 5, info=info)
        assert seen == [(routine, np.float64)]
        assert info["driver"] == routine[-3:]
        assert vecs.dtype == complex
        assert np.abs(vecs.conj().T @ vecs - np.eye(5)).max() <= 1e-12


@pytest.mark.parametrize("routine", sorted(CROSSOVER_SIDES))
def test_non_finite_potential_raises_before_lapack(monkeypatch, routine):
    # scipy's eigh refused it through check_finite; without a check a NaN
    # residual would compare False against RESIDUAL_TOL and pass
    ham = CROSSOVER_SIDES[routine]()
    values = ham.v_values.copy()
    values.flat[3] = np.nan
    poisoned = Hamiltonian(ham.basis, GridFunction(ham.basis, values))
    seen = lapack_spy(monkeypatch)
    with pytest.raises(EigensolverError, match="non-finite"):
        lowest_eigenpairs(poisoned, 5)
    assert seen == []


@pytest.mark.parametrize("routine", ["dsyevd", "dsyevr"])
def test_lapack_failure_raises_linalg_error(monkeypatch, routine):
    ham = CROSSOVER_SIDES[routine]()
    solve = getattr(scf.lapack, routine)

    def failing(*args, **kwargs):
        *out, _ = solve(*args, **kwargs)
        return (*out, 3)

    monkeypatch.setattr(scf.lapack, routine, failing)
    with pytest.raises(scipy.linalg.LinAlgError, match=f"{routine} info 3"):
        lowest_eigenpairs(ham, 5)


def parent_eigenpairs(ham, m, **eigh_kwargs):
    """lowest_eigenpairs as it was on scipy.linalg.eigh, with no residual
    check: the real form's pairs, sign-fixed and mapped back."""
    vals, x = scipy.linalg.eigh(scf._real_form(ham.dense()), **eigh_kwargs)
    vals, x = vals[:m], x[:, :m]
    x *= np.sign(x[np.argmax(np.abs(x), axis=0), np.arange(m)])
    return vals, scf._from_real_form(x)


@pytest.mark.parametrize("m", [1, 10, 27])
def test_subset_path_is_bitwise_eigh_subset_by_index(m):
    ham = uniform_hamiltonian("tiny3d", 8.0)
    assert ham.basis.size == 251 > scf.FULL_SPECTRUM_MAX
    info = {}
    vals, vecs = lowest_eigenpairs(ham, m, info=info)
    assert info["driver"] == "evr"
    oracle = parent_eigenpairs(ham, m, subset_by_index=[0, m - 1])
    assert np.array_equal(vals, oracle[0])
    assert np.array_equal(vecs, oracle[1])


@pytest.mark.parametrize("m", [1, 12, 21])
def test_full_spectrum_path_is_bitwise_eigh_evd(m):
    ham = state_hamiltonian(converged_state("si1d"))
    assert ham.basis.size == 21 <= scf.FULL_SPECTRUM_MAX
    info = {}
    vals, vecs = lowest_eigenpairs(ham, m, info=info)
    assert info["driver"] == "evd"
    oracle = parent_eigenpairs(ham, m, driver="evd")
    assert np.array_equal(vals, oracle[0])
    assert np.array_equal(vecs, oracle[1])


def test_residual_check_catches_a_wrong_partner_map(monkeypatch):
    from_real_form = scf._from_real_form

    def swapped(x):
        # pairs index i with k + 1 + i instead of its partner n - 1 - i
        vecs = from_real_form(x)
        k = x.shape[0] // 2
        vecs[k + 1:] = vecs[:k].conj()
        return vecs

    ham = state_hamiltonian(converged_state("si1d"))
    assert np.abs(ham.dense().imag).max() > 1e-3
    lowest_eigenpairs(ham, 5)
    monkeypatch.setattr(scf, "_from_real_form", swapped)
    with pytest.raises(EigensolverError, match="residual"):
        lowest_eigenpairs(ham, 5)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_scf_orbitals_are_real_functions(name):
    # each eigenvector's sign is fixed on the real cos/sin vector, so no
    # complex phase breaks c(-G) = conj c(G); the basis is sorted and closed
    # under negation, so -G of index i sits at n - 1 - i
    gamma = converged_state(name).gamma
    assert np.array_equal(gamma.basis.g_int[::-1], -gamma.basis.g_int)
    assert np.abs(gamma.orbitals[::-1] - gamma.orbitals.conj()).max() <= 1e-15


@pytest.mark.parametrize("name", ["free1d", "si1d", "tiny3d"])
def test_dense_partial_eigensolve_matches_full_eigh(name):
    state = converged_state(name)
    ham = state_hamiltonian(state)
    size = state.basis.size
    full_vals, full_vecs = scipy.linalg.eigh(ham.dense())
    tol = 1e-12 * max(1.0, np.abs(full_vals).max())
    # smallest m at or above the kept state count that ends on a spectral
    # gap; free1d keeps its whole basis, so there it is the largest gapped
    # m (its cos/sin pairs are exactly degenerate)
    gapped = [m for m in range(2, size) if full_vals[m] - full_vals[m - 1] > 1e-6]
    m_gap = next((m for m in gapped if m >= state.gamma.n_states), gapped[-1])
    for m in (1, m_gap, size):
        vals, vecs = lowest_eigenpairs(ham, m)
        assert vals.shape == (m,)
        assert np.abs(vals - full_vals[:m]).max() <= tol
        if m == 1:
            continue
        projector = vecs @ vecs.conj().T
        oracle = full_vecs[:, :m] @ full_vecs[:, :m].conj().T
        assert np.abs(projector - oracle).max() <= 1e-10


def test_fixed_point_map_assembles_once_while_growing(monkeypatch):
    cfg = RunConfig.from_file("tiny3d")
    basis = cfg.build_basis()
    rho0 = GridFunction(
        basis, np.full(basis.fft_shape, cfg.n_electrons / basis.cell.volume)
    )
    calls = []
    solve = scf.lowest_eigenpairs

    def spy(ham, m, **kwargs):
        calls.append((m, ham.dense()))
        return solve(ham, m, **kwargs)

    monkeypatch.setattr(scf, "lowest_eigenpairs", spy)
    gamma, _, _ = fixed_point_map(
        rho0, cfg.external, cfg.xc, cfg.build_smearing(),
        cfg.n_electrons,
    )
    sizes = [m for m, _ in calls]
    assert sizes[0] == 10
    assert len(sizes) > 1 and sizes == sorted(sizes)
    assert gamma.n_states > 10
    assert all(h is calls[0][1] for _, h in calls)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_scf_free_energy_matches_recomputation(name):
    # run_scf reuses the map's output density; a fresh evaluation agrees
    state = converged_state(name)
    fresh = free_energy(state.gamma, state.external, state.xc,
                        state.smearing, hartree_on=state.hartree_on)
    assert fresh.as_dict() == state.free_energy.as_dict()


def test_run_scf_computes_one_density_per_iteration(monkeypatch):
    # free_energy asks for density(gamma) again and reads the kept one:
    # count the calls that compute
    calls = []
    compute = density_matrix.density

    def counted(gamma):
        if gamma._density is None:
            calls.append(gamma)
        return compute(gamma)

    monkeypatch.setattr(density_matrix, "density", counted)
    monkeypatch.setattr(scf, "density", counted)
    cfg = RunConfig.from_file("si1d")
    state = run_scf(
        cfg.build_basis(), cfg.external, cfg.xc,
        cfg.build_smearing(), cfg.n_electrons, hartree_on=cfg.hartree_on,
        tol_rho=cfg.tol_rho, tol_f=cfg.tol_f, max_iter=cfg.max_iter,
    )
    # one per map; the fixed-point residual's map adds one on first read
    assert len(calls) == state.iterations
    state.residual_fixedpoint
    assert len(calls) == state.iterations + 1


def test_scf_evaluates_xc_once_per_iteration():
    # each iteration makes v_eff(rho_in) for the map and F(Gamma_out) for the
    # convergence test: one e_xc' and one e_xc evaluation, on different
    # densities
    base = dirac_exchange()
    calls = {"e": 0, "d1": 0}

    def counting(name, f):
        def counted(t):
            calls[name] += 1
            return f(t)
        return counted

    xc = XcFunctional("counting", counting("e", base._e), counting("d1", base._d1),
                      base._d2, base._d3, base.c0, base.c1, base.c2, base.p1, base.p2)
    cfg = RunConfig.from_file("si1d")
    state = run_scf(
        cfg.build_basis(), cfg.external, xc,
        cfg.build_smearing(), cfg.n_electrons, hartree_on=cfg.hartree_on,
        tol_rho=cfg.tol_rho, tol_f=cfg.tol_f, max_iter=cfg.max_iter,
    )
    assert state.iterations > 1
    assert calls == {"e": state.iterations, "d1": state.iterations}


def test_tiny3d_converges_within_ten_iterations():
    # preconditioned Anderson takes 8 iterations here, plain Anderson 12 and
    # plain damping 36; the bound leaves a margin of 2
    assert converged_state("tiny3d").iterations <= 10


@pytest.mark.parametrize("name, beta, plain_anderson", [
    ("si1d", 1e4, 67),
    ("rhf1d", 2e3, 78),
])
def test_low_temperature_scf_converges(name, beta, plain_anderson):
    # from the uniform density, where a preconditioner applied from the
    # first step does not converge within 200 iterations; the gated one
    # needs 58 and 68 iterations, never more than plain Anderson did
    state = run_single(RunConfig.from_file(name), beta=beta)
    assert state.iterations <= plain_anderson


def random_zero_mean(shape, seed):
    r = np.random.default_rng(seed).standard_normal(shape)
    return r - r.mean()


@pytest.mark.parametrize("name", ["si1d", "rhf1d"])
def test_dielectric_solve_matches_the_dense_oracle(name):
    state = converged_state(name)
    ctx = ResponseContext(state)
    eps = dense_dielectric_matrix(ctx)
    assert eps.shape[0] <= 120
    r = random_zero_mean(state.basis.fft_shape, seed=70)
    drho, products = dielectric_solve(ctx, r, rtol=1e-13)
    exact = np.linalg.solve(eps, r.ravel())
    assert np.linalg.norm(drho.ravel() - exact) <= 1e-10 * np.linalg.norm(exact)
    assert 0 < products <= scf.PRECOND_RESTART


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_response_grid_products_match_numpy(name):
    ctx = ResponseContext(converged_state(name))
    grid = ctx.grid_orbitals
    rng = np.random.default_rng(73)
    psi = rng.standard_normal((ctx.n_states,) * 2)
    psi += psi.T
    expected = np.einsum("jx,jx->x", np.tensordot(psi, grid, axes=([0], [0])), grid)
    rho = ctx.pair_density(psi)
    assert np.linalg.norm(rho - expected) <= 1e-13 * np.linalg.norm(expected)
    v = rng.standard_normal(grid.shape[1])
    expected = ctx.weight * (grid @ (grid * v).T)
    elements = ctx.matrix_elements(v)
    assert np.linalg.norm(elements - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", ["si1d", "rhf1d"])
def test_dielectric_solve_keeps_the_integral_zero(name):
    state = converged_state(name)
    ctx = ResponseContext(state)
    w = state.basis.quadrature_weight
    r = random_zero_mean(state.basis.fft_shape, seed=72)
    drho, _ = dielectric_solve(ctx, r)
    # the loose solve is far from exact, but every Krylov vector keeps int r
    assert abs(w * drho.sum()) <= 1e-14 * w * np.abs(drho).sum()
    response = ctx.density_response(r.ravel())
    assert abs(w * response.sum()) <= 1e-14 * w * np.abs(response).sum()


def test_dielectric_solve_is_finite_where_every_f_prime_underflows(monkeypatch):
    # the third iterate of si1d at beta 1e4 from the uniform density has
    # every level more than 0.07 from mu, so every f' and sum_i D_ii are 0
    cfg = RunConfig.from_file("si1d")
    smearing = cfg.build_smearing(1e4)
    iterates = []
    solve = scf.fixed_point_map

    def spy(rho_in, *args, **kwargs):
        result = solve(rho_in, *args, **kwargs)
        iterates.append((rho_in, *result))
        return result

    monkeypatch.setattr(scf, "fixed_point_map", spy)
    with pytest.raises(ScfError, match="no convergence"):
        run_scf(cfg.build_basis(), cfg.external, cfg.xc, smearing,
                cfg.n_electrons, hartree_on=cfg.hartree_on, max_iter=3)
    rho_in, gamma, mu, rho_out = iterates[2]
    assert divided_difference_table(gamma.eigenvalues, mu, smearing).trace() == 0.0
    iterate = scf._Iterate(gamma, mu, rho_in, cfg.xc, smearing, cfg.hartree_on)
    ctx = ResponseContext(iterate)
    r = rho_out.values - rho_in.values
    drho, _ = dielectric_solve(ctx, r, rtol=1e-13)
    assert np.isfinite(drho).all()
    exact = np.linalg.solve(dense_dielectric_matrix(ctx), r.ravel())
    assert np.linalg.norm(drho.ravel() - exact) <= 1e-10 * np.linalg.norm(exact)


def first_preconditioned_step(monkeypatch, name):
    """(context, residual) of the first dielectric solve of an SCF."""
    calls = []
    solve = scf.dielectric_solve

    def spy(ctx, r, *args, **kwargs):
        calls.append((ctx, r.copy()))
        return solve(ctx, r, *args, **kwargs)

    monkeypatch.setattr(scf, "dielectric_solve", spy)
    run_single(RunConfig.from_file(name))
    monkeypatch.undo()
    return calls[0]


@pytest.mark.parametrize("name", ["si1d", "rhf1d", "tiny3d"])
def test_gmres_cycle_matches_scipy_without_the_closing_product(monkeypatch, name):
    ctx, r = first_preconditioned_step(monkeypatch, name)
    responses = []
    respond = ctx.density_response

    def counted(x):
        responses.append(None)
        return respond(x)

    monkeypatch.setattr(ctx, "density_response", counted)
    drho, products = dielectric_solve(ctx, r)
    assert products == len(responses) > 0

    oracle_products = []

    def matvec(x):
        oracle_products.append(None)
        return x - respond(x)

    op = LinearOperator((r.size, r.size), matvec=matvec, dtype=float)
    exact, _ = gmres(op, r.ravel(), rtol=scf.PRECOND_RTOL,
                     restart=scf.PRECOND_RESTART, maxiter=1)
    assert np.linalg.norm(drho.ravel() - exact) <= 1e-12 * np.linalg.norm(exact)
    # scipy's cycle ends with the product b - A x, whose residual it discards
    assert products == len(oracle_products) - 1


def test_gmres_cycle_on_a_zero_residual_makes_no_product():
    state = converged_state("si1d")
    ctx = ResponseContext(state)

    def refuse(x):
        raise AssertionError("product made for a zero residual")

    ctx.density_response = refuse
    r = np.zeros(state.basis.fft_shape)
    drho, products = dielectric_solve(ctx, r)
    assert products == 0
    assert drho.shape == r.shape and not drho.any()


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_response_context_reads_the_samples_density_made(monkeypatch, name):
    # one transform per state: after density(gamma), a context of the state
    # makes no FFT and keeps the state's own read-only samples
    state = converged_state(name)
    density(state.gamma)
    transforms = []

    def counted(fft):
        def wrapper(*args, **kwargs):
            transforms.append(fft.__name__)
            return fft(*args, **kwargs)
        return wrapper

    # every transform of the package goes through these two names
    monkeypatch.setattr(cell, "fftn", counted(cell.fftn))
    monkeypatch.setattr(cell, "ifftn", counted(cell.ifftn))
    ctx = ResponseContext(state)
    assert transforms == []
    assert ctx.grid_orbitals is state.gamma.orbitals_on_grid()
    assert not ctx.grid_orbitals.flags.writeable


def test_hamiltonian_rejects_mismatched_potential():
    basis = build_basis(Cell(10.0), 8.0)
    other = build_basis(Cell(10.0), 4.0)
    v_other = GridFunction(other, np.zeros(other.fft_shape))
    with pytest.raises(ValueError):
        Hamiltonian(basis, v_other)


def test_hamiltonian_refuses_huge_dense_assembly():
    basis = build_basis(Cell(10.0), 3.4e6)
    assert basis.size > 4096
    ham = Hamiltonian(basis, GridFunction(basis, np.zeros(basis.fft_shape)))
    with pytest.raises(EigensolverError, match="dense limit of 4096"):
        ham.dense()
    with pytest.raises(EigensolverError, match="dense limit of 4096"):
        ham.apply(np.zeros((basis.size, 1), dtype=complex))
    with pytest.raises(EigensolverError, match="dense limit of 4096"):
        lowest_eigenpairs(ham, 6)


def test_no_src_path_applies_h_through_ffts(monkeypatch):
    def refuse(self, values):
        raise AssertionError("H applied through from_grid")

    reference = converged_state("tiny3d")
    monkeypatch.setattr(PlaneWaveBasis, "from_grid", refuse)
    state = run_single(RunConfig.from_file("tiny3d"))
    assert state.converged
    assert state.free_energy.total == pytest.approx(
        reference.free_energy.total, abs=1e-12
    )
    grad = free_energy_gradient(state.gamma, state.external, state.xc,
                                state.smearing, hartree_on=state.hartree_on)
    assert np.isfinite(grad).all()
    ctx = ResponseContext(state)
    assert np.isfinite(audit_a4(ctx)["lambda_min"])
    out = solve_jacobian(ctx, np.eye(ctx.n_states), 0.1)
    assert np.isfinite(out.matrix).all()


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_free_energy_gradient_reuses_the_scf_density(monkeypatch, name):
    # the last SCF map made density(state.gamma); the gradient transforms
    # no orbital again, and equals the gradient of a state built afresh
    state = converged_state(name)
    gamma = state.gamma
    twin = DensityMatrix(gamma.basis, gamma.orbitals, gamma.occupations,
                         gamma.eigenvalues)
    expected = free_energy_gradient(twin, state.external, state.xc,
                                    state.smearing, hartree_on=state.hartree_on)
    calls = []
    to_grid = PlaneWaveBasis.to_grid

    def counted(self, coeffs):
        calls.append(None)
        return to_grid(self, coeffs)

    monkeypatch.setattr(PlaneWaveBasis, "to_grid", counted)
    grad = free_energy_gradient(gamma, state.external, state.xc,
                                state.smearing, hartree_on=state.hartree_on)
    assert calls == []
    assert np.array_equal(grad, expected)
    assert density(gamma) is state.rho


def test_every_product_with_h_goes_through_apply(monkeypatch):
    # one product with H a call: the eigensolver's residual check and the
    # gradient's matrix elements both take H times their orbitals by apply
    state = converged_state("si1d")
    ham = state_hamiltonian(state)
    applied, products = [], []
    apply, zgemm = Hamiltonian.apply, scipy.linalg.blas.zgemm

    def counted_apply(self, block):
        applied.append(block.shape)
        return apply(self, block)

    def counted_zgemm(*args, **kwargs):
        products.append(None)
        return zgemm(*args, **kwargs)

    monkeypatch.setattr(Hamiltonian, "apply", counted_apply)
    monkeypatch.setattr(scf.blas, "zgemm", counted_zgemm)
    m = state.gamma.n_states
    lowest_eigenpairs(ham, m)
    assert applied == [(state.basis.size, m)]
    assert len(products) == 1
    free_energy_gradient(state.gamma, state.external, state.xc,
                         state.smearing, hartree_on=state.hartree_on)
    assert applied[1:] == [(state.basis.size, m)]
    # the product with H and the matrix elements <phi_i| H phi_j>
    assert len(products) == 3


def test_lowest_eigenpairs_free_particle_exact():
    basis = build_basis(Cell(10.0), 12.0)
    ham = Hamiltonian(basis, GridFunction(basis, np.zeros(basis.fft_shape)))
    vals, vecs = lowest_eigenpairs(ham, 7)
    np.testing.assert_allclose(vals, np.sort(0.5 * basis.g_norm2)[:7], atol=1e-12)
    overlap = vecs.conj().T @ vecs
    np.testing.assert_allclose(overlap, np.eye(7), atol=1e-12)


def test_lowest_eigenpairs_validation():
    basis = build_basis(Cell(10.0), 8.0)
    ham = Hamiltonian(basis, GridFunction(basis, np.zeros(basis.fft_shape)))
    with pytest.raises(ValueError):
        lowest_eigenpairs(ham, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(ham, basis.size + 1)


def test_fixed_point_map_trace_and_density():
    cfg = RunConfig.from_file("si1d")
    basis = cfg.build_basis()
    rho0 = GridFunction(
        basis, np.full(basis.fft_shape, cfg.n_electrons / basis.cell.volume)
    )
    gamma, mu, rho = fixed_point_map(
        rho0, cfg.external, cfg.xc, cfg.build_smearing(),
        cfg.n_electrons,
    )
    assert abs(gamma.trace() - cfg.n_electrons) <= 1e-12 * cfg.n_electrons
    assert rho.integral() == pytest.approx(cfg.n_electrons, rel=1e-12)
    np.testing.assert_allclose(
        gamma.occupations, fermi_dirac(gamma.eigenvalues, mu, cfg.build_smearing())
    )


def count_solves(monkeypatch):
    """Spy on the map's eigensolves (with their sizes) and mu solves, in
    call order."""
    calls = []
    eig, mu = scf.lowest_eigenpairs, scf.solve_mu

    def eig_spy(ham, m, info=None):
        calls.append(m)
        return eig(ham, m, info=info)

    def mu_spy(*args):
        calls.append("mu")
        return mu(*args)

    monkeypatch.setattr(scf, "lowest_eigenpairs", eig_spy)
    monkeypatch.setattr(scf, "solve_mu", mu_spy)
    return calls


def second_solve_oracle(gamma, n_electrons, smearing):
    """(gamma, mu, rho) with mu solved again on the retained spectrum, as
    the map did after every eigensolve before it skipped that repeat."""
    mu = solve_mu(gamma.eigenvalues, n_electrons, smearing)
    occ = fermi_dirac(gamma.eigenvalues, mu, smearing)
    again = DensityMatrix(gamma.basis, gamma.orbitals, occ,
                          eigenvalues=gamma.eigenvalues)
    return again, mu, density(again)


@pytest.mark.parametrize("name, full, solves", [
    ("si1d", False, [12, "mu"]),
    ("tiny3d", False, [10, "mu", 18, "mu", 27, "mu"]),
    ("si1d", True, [21, "mu", "mu"]),
], ids=["si1d", "tiny3d-growing", "si1d-states-dropped"])
def test_fixed_point_map_solves_mu_again_only_after_dropping(
        monkeypatch, name, full, solves):
    # from the uniform density at the bundled beta: si1d keeps its default
    # block of 12 whole, tiny3d grows its block to 27 and keeps it, and a
    # block of all 21 si1d plane waves is cut to 13
    cfg = RunConfig.from_file(name)
    basis = cfg.build_basis()
    smearing = cfg.build_smearing()
    rho0 = GridFunction(
        basis, np.full(basis.fft_shape, cfg.n_electrons / basis.cell.volume)
    )
    calls = count_solves(monkeypatch)
    gamma, mu, rho = fixed_point_map(
        rho0, cfg.external, cfg.xc, smearing, cfg.n_electrons,
        n_states=basis.size if full else None,
    )
    assert calls == solves
    last_block = [c for c in calls if c != "mu"][-1]
    assert (gamma.n_states < last_block) == full
    monkeypatch.undo()
    oracle, mu_o, rho_o = second_solve_oracle(gamma, cfg.n_electrons, smearing)
    assert mu == mu_o
    assert np.array_equal(gamma.occupations, oracle.occupations)
    assert np.array_equal(rho.values, rho_o.values)


def test_fixed_point_map_rejects_overfull_basis():
    basis = build_basis(Cell(10.0), 0.3)
    rho0 = GridFunction(basis, np.full(basis.fft_shape, 1.0))
    with pytest.raises(ScfError):
        fixed_point_map(
            rho0, ExternalPotential.zero(), null_xc(), Smearing(5.0), basis.size
        )


def test_free_particle_solution_is_exact():
    state = converged_state("free1d")
    basis = state.basis
    assert state.converged
    assert state.iterations <= 2
    np.testing.assert_allclose(
        state.gamma.eigenvalues, np.sort(0.5 * basis.g_norm2), atol=1e-12
    )
    sm = state.smearing
    lam = np.sort(0.5 * basis.g_norm2)
    mu = solve_mu(lam, state.n_electrons, sm)
    f = fermi_dirac(lam, mu, sm)
    from mks.smearing import entropy

    closed = float(lam @ f) + entropy(f, sm)
    assert state.free_energy.total == pytest.approx(closed, abs=1e-13)
    assert state.residual_fixedpoint <= 1e-12


@pytest.mark.parametrize("name", BENCHMARKS)
def test_constraints_hold_at_convergence(name):
    state = converged_state(name)
    gamma = state.gamma
    n = state.n_electrons
    assert state.converged
    # mu is solved to roundoff
    assert abs(gamma.trace() - n) <= 1e-14 * n
    overlap = gamma.orbitals.conj().T @ gamma.orbitals
    assert np.abs(overlap - np.eye(gamma.n_states)).max() <= 1e-10
    assert gamma.occupations.min() >= 0.0
    assert gamma.occupations.max() <= 1.0


@pytest.mark.parametrize("name", BENCHMARKS)
def test_aufbau_ordering(name):
    gamma = converged_state(name).gamma
    assert np.all(np.diff(gamma.eigenvalues) >= -1e-12)
    assert np.all(np.diff(gamma.occupations) <= 1e-12)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_fixed_point_residual_small(name):
    state = converged_state(name)
    assert state.residual_fixedpoint <= 1e-8
    # recomputation is deterministic
    assert fixed_point_residual(state) == pytest.approx(
        state.residual_fixedpoint, abs=1e-14
    )


def test_fixed_point_residual_is_measured_once_on_first_read(monkeypatch):
    cfg = RunConfig.from_file("si1d")
    state = run_single(cfg)
    calls = []
    measure = scf.fixed_point_residual

    def spy(s):
        calls.append(s)
        return measure(s)

    monkeypatch.setattr(scf, "fixed_point_residual", spy)
    first, second = state.residual_fixedpoint, state.residual_fixedpoint
    assert calls == [state]
    monkeypatch.undo()
    assert first == second == fixed_point_residual(state)


def test_sweeps_make_no_fixed_point_residual(monkeypatch):
    calls = []
    monkeypatch.setattr(scf, "fixed_point_residual", calls.append)
    cfg = RunConfig.from_file("si1d")
    run_sweep(cfg)
    quasi_optimality(cfg)
    assert calls == []


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_gradient_matches_centered_differences(name):
    state = converged_state(name)
    grad = free_energy_gradient(
        state.gamma, state.external, state.xc, state.smearing, state.hartree_on
    )
    rng = np.random.default_rng(20)
    eps = 1e-5
    for _ in range(3):
        psi = admissible_tangent(state, rng)
        f_plus = free_energy(
            perturb(state.gamma, psi, eps), state.external, state.xc,
            state.smearing, state.hartree_on,
        ).total
        f_minus = free_energy(
            perturb(state.gamma, psi, -eps), state.external, state.xc,
            state.smearing, state.hartree_on,
        ).total
        fd = (f_plus - f_minus) / (2.0 * eps)
        exact = float(np.trace(grad @ psi).real)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_gradient_is_stationary_at_convergence(name):
    # at self-consistency the orbital-frame gradient collapses to mu I
    state = converged_state(name)
    grad = free_energy_gradient(
        state.gamma, state.external, state.xc, state.smearing, state.hartree_on
    )
    f = state.gamma.occupations
    inside = (f > 1e-10) & (f < 1.0 - 1e-10)
    idx = np.flatnonzero(inside)
    block = grad[np.ix_(idx, idx)]
    drift = np.abs(block - state.mu * np.eye(idx.size)).max()
    assert drift <= 1e-6


def test_scf_is_idempotent_from_converged_density():
    state = converged_state("si1d")
    cfg = RunConfig.from_file("si1d")
    restart = run_scf(
        state.basis, state.external, state.xc, state.smearing,
        cfg.n_electrons, hartree_on=cfg.hartree_on,
        tol_rho=cfg.tol_rho, tol_f=cfg.tol_f, max_iter=50,
        initial_rho=state.rho,
    )
    assert abs(restart.free_energy.total - state.free_energy.total) <= 1e-10
    assert restart.iterations <= 5


def test_initial_density_must_match_basis():
    state = converged_state("si1d")
    other = build_basis(state.basis.cell, 9.0)
    wrong = GridFunction(other, np.full(other.fft_shape, 0.4))
    with pytest.raises(ValueError, match="different basis"):
        run_scf(
            state.basis, state.external, state.xc, state.smearing,
            4.0, initial_rho=wrong,
        )


def test_scf_failure_paths():
    cfg = RunConfig.from_file("si1d")
    with pytest.raises(ScfError, match="no convergence"):
        run_scf(cfg.build_basis(), cfg.external, cfg.xc, cfg.build_smearing(),
                cfg.n_electrons, hartree_on=cfg.hartree_on, tol_rho=cfg.tol_rho,
                tol_f=cfg.tol_f, max_iter=3)


def test_scf_rejects_bad_arguments():
    cfg = RunConfig.from_file("free1d")
    basis = cfg.build_basis()
    with pytest.raises(ValueError):
        run_scf(basis, ExternalPotential.zero(), null_xc(),
                cfg.build_smearing(), -1.0)
    # no iteration means no state to report
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        run_scf(basis, ExternalPotential.zero(), null_xc(),
                cfg.build_smearing(), cfg.n_electrons, max_iter=0)


def test_free_energy_decreases_near_convergence():
    state = converged_state("si1d")
    tail = [rec["free_energy"] for rec in state.history[-5:]]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_free_energy_invariant_under_degenerate_rotation():
    # mixing a degenerate occupied pair is a gauge freedom of the state
    state = converged_state("free1d")
    lam = state.gamma.eigenvalues
    pair = None
    for i in range(len(lam) - 1):
        if abs(lam[i + 1] - lam[i]) < 1e-12 and state.gamma.occupations[i] > 0.01:
            pair = (i, i + 1)
            break
    assert pair is not None
    m = state.gamma.n_states
    a = np.zeros((m, m), dtype=complex)
    a[pair[0], pair[1]] = 0.7 + 0.2j
    a[pair[1], pair[0]] = -np.conj(a[pair[0], pair[1]])
    rotated = rotate(state.gamma, a, 1.0)
    f0 = free_energy(state.gamma, state.external, state.xc, state.smearing,
                     state.hartree_on)
    f1 = free_energy(rotated, state.external, state.xc, state.smearing,
                     state.hartree_on)
    assert f1.total == pytest.approx(f0.total, abs=1e-12)
    from mks.density_matrix import density

    assert l2_norm(density(rotated) - density(state.gamma)) <= 1e-12


def test_unitary_rotations_do_not_lower_free_energy():
    # second-order optimality probe along spectrum-preserving directions
    state = converged_state("si1d")
    f0 = state.free_energy.total
    rng = np.random.default_rng(21)
    m = state.gamma.n_states
    for _ in range(5):
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = raw - raw.conj().T
        a /= np.linalg.norm(a)
        for eps in (1e-2, 3e-2):
            f_rot = free_energy(
                rotate(state.gamma, a, eps), state.external, state.xc,
                state.smearing, state.hartree_on,
            ).total
            assert f_rot >= f0 - 1e-10


def test_occupation_transfers_do_not_lower_free_energy():
    state = converged_state("si1d")
    f0 = state.free_energy.total
    f = state.gamma.occupations
    idx = np.flatnonzero((f > 1e-2) & (f < 1.0 - 1e-2))
    m = state.gamma.n_states
    for k, i in enumerate(idx[:-1]):
        j = idx[k + 1]
        psi = np.zeros((m, m))
        psi[i, i], psi[j, j] = 1.0, -1.0
        for eps in (1e-3, -1e-3):
            moved = perturb(state.gamma, psi, eps)
            f_new = free_energy(
                moved, state.external, state.xc, state.smearing, state.hartree_on
            ).total
            assert f_new >= f0 - 1e-10


def test_gamma_overlap_distance_matches_dense():
    basis = build_basis(Cell(10.0), 5.0)
    a = random_density_matrix(basis, 4, seed=30)
    b = random_density_matrix(basis, 3, seed=31)
    diff = dense_from_projectors(a) - dense_from_projectors(b)
    oracle = float(np.linalg.norm(diff))
    assert gamma_overlap_distance(a, b) == pytest.approx(oracle, rel=1e-12)
    assert gamma_overlap_distance(a, a) <= 1e-14


def anderson_oracle(steps):
    """The mixed densities of _AndersonMixer as first written: one list of
    differences per step, stacked, and tensordot for the combinations."""
    inputs, residuals, kind, out = [], [], False, []
    for rho_in, r, preconditioned in steps:
        if preconditioned != kind:
            inputs, residuals, kind = [], [], preconditioned
        alpha = 1.0 if preconditioned else scf.MIXING_ALPHA
        inputs, residuals = inputs[-4:] + [rho_in], residuals[-4:] + [r]
        h = len(inputs)
        if h == 1:
            out.append(rho_in + alpha * r)
            continue
        dr = np.stack([residuals[j + 1] - residuals[j] for j in range(h - 1)])
        dx = np.stack([inputs[j + 1] - inputs[j] for j in range(h - 1)])
        coef, *_ = np.linalg.lstsq(dr.reshape(h - 1, -1).T, r.ravel(), rcond=None)
        x_bar = rho_in - np.tensordot(coef, dx, axes=1)
        r_bar = r - np.tensordot(coef, dr, axes=1)
        out.append(x_bar + alpha * r_bar)
    return out


@pytest.mark.parametrize("shape", [(42,), (9, 9, 9)])
def test_anderson_step_is_bitwise_the_oracle(shape):
    assert scf.ANDERSON_WINDOW == 5
    rng = np.random.default_rng(7)
    # eight plain steps (the window fills and slides), then a restart into
    # six preconditioned ones
    steps = [(rng.standard_normal(shape), rng.standard_normal(shape), k >= 8)
             for k in range(14)]
    mixer = scf._AndersonMixer()
    mixed = [mixer.step(rho_in, r, pre) for rho_in, r, pre in steps]
    for got, want in zip(mixed, anderson_oracle(steps), strict=True):
        assert np.array_equal(got, want)


def test_per_iteration_history_is_complete():
    state = converged_state("rhf1d")
    assert len(state.history) == state.iterations
    for k, rec in enumerate(state.history, start=1):
        assert rec["iteration"] == k
        assert set(rec) == {"iteration", "free_energy", "density_residual", "mu",
                            "n_states", "precond_products", "eigensolver",
                            "eig_residual"}
        # 21 plane waves: the whole spectrum, with residuals at roundoff
        assert rec["eigensolver"] == "evd"
        assert 0.0 < rec["eig_residual"] <= 1e-12
        # a step below the threshold makes at least one product, others none
        below = rec["density_residual"] < scf.PRECOND_THRESHOLD
        assert (rec["precond_products"] > 0) is (below and k < state.iterations)
    assert state.history[-1]["free_energy"] == pytest.approx(
        state.free_energy.total, abs=1e-14
    )
    assert state.history[-1]["density_residual"] == state.residual_density
    assert state.history[-1]["n_states"] == state.gamma.n_states
