"""Response operator, constrained Jacobian, and the positivity audit.

The chi oracle rebuilds the induced potential by direct quadrature sums
(no FFT), assembles the perturbed Hamiltonian densely, and differences the
occupation function of its full spectrum at fixed chemical potential.
"""

import copy
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conftest import (
    converged_state,
    coordinate_weights,
    coords_to_hermitian,
    dense_bare_matrix,
    dense_chi_matrix,
    grid_points,
    rhf_quadratic_form,
)
from mks.cell import GridFunction
from mks.cli import main
from mks.config import RunConfig, bundled_config_path
from mks.density_matrix import DensityMatrix
from mks.harness import run_single
from mks.potentials import ExternalPotential, assemble_effective, null_xc
from mks.response import (
    ResponseContext,
    TangentPerturbation,
    _lowest_ritz_pair,
    _sym_index,
    apply_chi,
    apply_jacobian,
    audit_a4,
    divided_difference_table,
    hermitian_to_coords,
    solve_jacobian,
)
from mks.smearing import Smearing, fermi_dirac, fermi_dirac_dmu

UNIFORM_GAS_CFG = """
[cell]
dimension = 1
lattice = 6.283185307179586

[system]
n_electrons = 2
beta = 10.0
cutoff = 8.0

[potential]
kind = zero

[xc]
functional = dirac
hartree = on

[scf]
tol_rho = 1e-10
tol_f = 1e-12
"""


@pytest.fixture(scope="module")
def ctx_free1d():
    return ResponseContext(converged_state("free1d"))


@pytest.fixture(scope="module")
def ctx_si1d():
    return ResponseContext(converged_state("si1d"))


@pytest.fixture(scope="module")
def ctx_rhf1d():
    return ResponseContext(converged_state("rhf1d"))


@pytest.fixture(scope="module")
def ctx_tiny3d():
    return ResponseContext(converged_state("tiny3d"))


def random_hermitian(m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = raw + raw.conj().T
    return h / np.linalg.norm(h)


# -- divided differences ---------------------------------------------------


def test_divided_difference_table_basic_identities():
    sm = Smearing(10.0)
    lam = np.array([0.0, 0.3, 1.7])
    mu = 0.4
    table = divided_difference_table(lam, mu, sm)
    np.testing.assert_allclose(table, table.T, atol=1e-15)
    assert np.all(table < 0.0)
    f = fermi_dirac(lam, mu, sm)
    for i in range(3):
        for j in range(3):
            if i == j:
                expected = -sm.beta * f[i] * (1.0 - f[i])
            else:
                expected = (f[i] - f[j]) / (lam[i] - lam[j])
            assert table[i, j] == pytest.approx(expected, rel=1e-12)


def test_divided_difference_near_degenerate_limit():
    sm = Smearing(25.0)
    mu = 0.1
    lam = np.array([0.3, 0.3 + 1e-9])
    table = divided_difference_table(lam, mu, sm)
    f = fermi_dirac(np.array([0.3]), mu, sm)[0]
    assert table[0, 1] == pytest.approx(-sm.beta * f * (1.0 - f), rel=1e-6)


@pytest.mark.parametrize("gap", [1e-9, 5e-8, 0.99e-7, 1.01e-7])
@pytest.mark.parametrize("beta", [1e4, 1e5])
@pytest.mark.parametrize("a", [0.3, 2.5])
def test_divided_difference_exact_at_near_degenerate_pairs(a, beta, gap):
    # the expm1 rewrite of (f(a) - f(b))/(a - b), y = beta (l - mu), with
    # yb - ya taken as beta (b - a), agrees with 50-digit values to 2e-16
    mu = a + 0.5 / beta
    b = a + gap
    table = divided_difference_table(np.array([a, b]), mu, Smearing(beta))
    ya, yb = beta * (a - mu), beta * (b - mu)
    oracle = np.exp(ya) * np.expm1(beta * (b - a)) / (
        (1.0 + np.exp(ya)) * (1.0 + np.exp(yb)) * (a - b)
    )
    assert table[0, 1] == pytest.approx(oracle, rel=1e-12)
    assert table[1, 0] == table[0, 1]


def test_divided_difference_survives_occupation_rounding():
    # both occupations round to 1.0 in doubles, the literal quotient is an
    # exact zero, yet the true divided difference is ~1e-26
    beta = 40.0
    mu = 0.0
    a, b = -1.5, -2.5
    sm = Smearing(beta)
    f = fermi_dirac(np.array([a, b]), mu, sm)
    assert f[0] == 1.0 and f[1] == 1.0
    table = divided_difference_table(np.array([a, b]), mu, sm)
    # rational rewrite (f(a) - f(b)) = (e^yb - e^ya)/((1+e^ya)(1+e^yb)),
    # overflow-free for levels below mu and free of the cancellation
    ya, yb = beta * (a - mu), beta * (b - mu)
    oracle = (np.exp(yb) - np.exp(ya)) / (
        (1.0 + np.exp(ya)) * (1.0 + np.exp(yb)) * (a - b)
    )
    assert oracle < 0.0
    assert table[0, 1] == pytest.approx(oracle, rel=1e-10)
    assert table[0, 1] < 0.0


@pytest.mark.parametrize("name", ["free1d", "si1d", "rhf1d", "tiny3d"])
def test_divided_difference_strictly_negative_on_benchmarks(name):
    ctx = ResponseContext(converged_state(name))
    assert ctx.dd_table.max() < 0.0


# -- chi -------------------------------------------------------------------


def direct_kernel_potential(ctx, rho_flat):
    """Hartree + local xc kernel by explicit coefficient sums, no FFT."""
    basis = ctx.basis
    pts = grid_points(basis).reshape(-1, basis.cell.dimension)
    modes = basis.grid_modes.reshape(-1, basis.cell.dimension)
    cart = modes @ basis.cell.reciprocal
    g2 = np.einsum("ij,ij->i", cart, cart)
    dv = np.zeros(len(pts), dtype=complex)
    if ctx.hartree_on:
        for g, gg in zip(cart, g2):
            if gg < 1e-14:
                continue
            coeff = np.sum(rho_flat * np.exp(-1j * (pts @ g))) / len(pts)
            dv += (4.0 * np.pi / gg) * coeff * np.exp(1j * (pts @ g))
    if ctx._fxc is not None:
        dv = dv + ctx._fxc * rho_flat
    return dv.real


def chi_finite_difference(state, psi, eps=1e-5):
    """(d/d eps) f_mu(H + eps dv[rho_psi]) in the retained orbital frame."""
    from mks.scf import Hamiltonian

    ctx = ResponseContext(state)
    basis = state.basis
    rho_psi = np.zeros(basis.n_grid, dtype=complex)
    grid_orb = ctx.grid_orbitals
    for i in range(ctx.n_states):
        for j in range(ctx.n_states):
            rho_psi += psi[i, j] * grid_orb[i] * np.conj(grid_orb[j])
    dv = direct_kernel_potential(ctx, rho_psi.real)

    # dense matrix of the perturbation by direct quadrature per mode pair
    n = basis.size
    pts = grid_points(basis).reshape(-1, basis.cell.dimension)
    v_mat = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            dg = basis.g_cart[a] - basis.g_cart[b]
            v_mat[a, b] = np.sum(dv * np.exp(-1j * (pts @ dg))) / len(pts)

    v_eff = assemble_effective(state.rho, state.external, state.xc,
                               hartree_on=state.hartree_on)
    h0 = Hamiltonian(basis, v_eff).dense()
    sm, mu = state.smearing, state.mu

    def gamma_projection(sign):
        vals, vecs = np.linalg.eigh(h0 + sign * eps * v_mat)
        occ = fermi_dirac(vals, mu, sm)
        gamma_dense = (vecs * occ) @ vecs.conj().T
        phi = state.gamma.orbitals
        return phi.conj().T @ gamma_dense @ phi

    return (gamma_projection(+1) - gamma_projection(-1)) / (2.0 * eps)


@pytest.mark.parametrize("name", ["si1d", "rhf1d"])
def test_apply_chi_matches_finite_differences(name):
    state = converged_state(name)
    ctx = ResponseContext(state)
    psi = random_hermitian(ctx.n_states, seed=40)
    fd = chi_finite_difference(state, psi)
    lin = apply_chi(ctx, psi)
    assert np.abs(lin - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_apply_chi_agrees_with_dense_matrix(ctx_si1d):
    m = ctx_si1d.n_states
    chi = dense_chi_matrix(ctx_si1d)
    for seed in (41, 42):
        psi = random_hermitian(m, seed)
        direct = apply_chi(ctx_si1d, psi)
        via_coords = coords_to_hermitian(chi @ hermitian_to_coords(psi), m)
        np.testing.assert_allclose(via_coords, direct, atol=1e-10)


def test_symmetric_index_is_shared_and_read_only():
    rows, cols = _sym_index(4)
    assert _sym_index(4)[0] is rows
    np.testing.assert_array_equal(rows, [0, 1, 2, 3, 0, 0, 0, 1, 1, 2])
    np.testing.assert_array_equal(cols, [0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
    with pytest.raises(ValueError):
        rows[0] = 1


def test_coordinate_maps_are_inverse_isometries():
    m = 5
    psi = random_hermitian(m, seed=43)
    x = hermitian_to_coords(psi)
    assert x.shape == (m * m,)
    np.testing.assert_allclose(coords_to_hermitian(x, m), psi, atol=1e-14)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(psi), rel=1e-13)


def test_dense_bare_matrix_is_symmetric(ctx_si1d):
    bare = dense_bare_matrix(ctx_si1d)
    scale = np.abs(bare).max()
    assert np.abs(bare - bare.T).max() <= 1e-9 * scale


def test_chi_vanishes_without_interactions(ctx_free1d):
    psi = random_hermitian(ctx_free1d.n_states, seed=44)
    assert np.abs(apply_chi(ctx_free1d, psi)).max() <= 1e-14


def test_kernel_potential_matches_hartree_without_xc(ctx_rhf1d):
    basis = ctx_rhf1d.basis
    psi = random_hermitian(ctx_rhf1d.n_states, seed=45)
    rho = ctx_rhf1d.pair_density(psi).real
    v_h = assemble_effective(GridFunction(basis, rho.reshape(basis.fft_shape)),
                             ExternalPotential.zero(), null_xc())
    np.testing.assert_allclose(
        ctx_rhf1d.kernel_potential(rho), v_h.values.reshape(-1), rtol=0, atol=1e-14
    )


def test_kernel_product_is_real_for_hermitian_tangents(ctx_si1d):
    psi = random_hermitian(ctx_si1d.n_states, seed=46)
    assert ctx_si1d.grid_orbitals.dtype == np.float64
    rho = ctx_si1d.pair_density(psi)
    assert rho.dtype == np.float64
    assert ctx_si1d.kernel_potential(rho).dtype == np.float64


@pytest.mark.parametrize("name", ["si1d", "rhf1d", "tiny3d"])
def test_bare_kernel_vanishes_on_imaginary_coordinates(name, request):
    # real orbitals give an imaginary antisymmetric tangent no pair density,
    # and every matrix element between them is real
    ctx = request.getfixturevalue(f"ctx_{name}")
    m = ctx.n_states
    sym = m * (m + 1) // 2
    bare = dense_bare_matrix(ctx)
    assert np.abs(bare[sym:]).max() == 0.0
    assert np.abs(bare[:, sym:]).max() == 0.0
    assert np.abs(bare[:sym, :sym]).max() > 0.0


def test_apply_chi_rejects_non_hermitian_tangent(ctx_si1d):
    psi = random_hermitian(ctx_si1d.n_states, seed=47)
    psi[0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        apply_chi(ctx_si1d, psi)


def test_nan_tangent_rejected(ctx_si1d):
    psi = random_hermitian(ctx_si1d.n_states, seed=48)
    psi[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite and Hermitian"):
        TangentPerturbation(psi)
    with pytest.raises(ValueError, match="finite and Hermitian"):
        apply_chi(ctx_si1d, psi)


def test_rhf_quadratic_form_nonpositive(ctx_rhf1d):
    for seed in range(20):
        psi = random_hermitian(ctx_rhf1d.n_states, seed=100 + seed)
        assert rhf_quadratic_form(ctx_rhf1d, psi) <= 1e-10


def degenerate_pair_rotation(state):
    """Hermitian tangent generating a rotation of a degenerate pair whose
    real combinations carry identically zero pair density."""
    gamma = state.gamma
    lam, f = gamma.eigenvalues, gamma.occupations
    pair = None
    for i in range(len(lam) - 1):
        if abs(lam[i + 1] - lam[i]) < 1e-10 and f[i] > 1e-6:
            pair = (i, i + 1)
            break
    assert pair is not None, "no degenerate occupied pair found"
    a, b = pair
    basis = gamma.basis
    # index of -G for every G, for the conjugation c -> conj(c[perm])
    lookup = {tuple(g): k for k, g in enumerate(basis.g_int)}
    perm = np.array([lookup[tuple(-g)] for g in basis.g_int])

    def realize(vec):
        cand = vec + np.conj(vec[perm])
        if np.linalg.norm(cand) < 1e-8:
            cand = 1j * (vec - np.conj(vec[perm]))
        return cand / np.linalg.norm(cand)

    r1 = realize(gamma.orbitals[:, a])
    r2 = gamma.orbitals[:, b] + np.conj(gamma.orbitals[:, b][perm])
    if np.linalg.norm(r2) < 1e-8:
        r2 = 1j * (gamma.orbitals[:, b] - np.conj(gamma.orbitals[:, b][perm]))
    r2 = r2 - r1 * (r1.conj() @ r2)
    r2 /= np.linalg.norm(r2)

    span = gamma.orbitals[:, [a, b]]
    w = span.conj().T @ np.stack([r1, r2], axis=1)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(2), atol=1e-10)
    rot = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    m = gamma.n_states
    psi = np.zeros((m, m), dtype=complex)
    psi[np.ix_([a, b], [a, b])] = w @ rot @ w.conj().T
    return psi


def test_density_free_tangent_is_annihilated():
    cfg = RunConfig.from_text(UNIFORM_GAS_CFG, origin="uniform-gas")
    state = run_single(cfg)
    assert state.iterations <= 3
    ctx = ResponseContext(state)
    psi = degenerate_pair_rotation(state)
    assert np.linalg.norm(psi) == pytest.approx(np.sqrt(2.0), rel=1e-10)
    rho = ctx.pair_density(psi)
    w = ctx.weight
    assert np.sqrt(w * np.sum(np.abs(rho) ** 2)) <= 1e-10
    assert np.abs(apply_chi(ctx, psi)).max() <= 1e-10
    assert abs(rhf_quadratic_form(ctx, psi)) <= 1e-10


# -- Jacobian ----------------------------------------------------------------


def test_apply_jacobian_matches_block_matrix(ctx_si1d):
    m = ctx_si1d.n_states
    dim = m * m
    chi = dense_chi_matrix(ctx_si1d)
    g = hermitian_to_coords(np.diag(ctx_si1d.g_diag).astype(complex))
    psi = random_hermitian(m, seed=50)
    s = 0.83
    out = apply_jacobian(ctx_si1d, psi, s)
    x = hermitian_to_coords(psi)
    first = (chi - np.eye(dim)) @ x + s * g
    np.testing.assert_allclose(
        out.matrix, coords_to_hermitian(first, m), atol=1e-10
    )
    assert out.scalar == pytest.approx(float(np.trace(psi).real), abs=1e-12)


def test_solve_jacobian_noninteracting_closed_form(ctx_free1d):
    # with chi = 0 the blocks decouple: Psi = s g - Phi, s = (t + Tr Phi)/Tr g
    m = ctx_free1d.n_states
    phi = random_hermitian(m, seed=51)
    t = 0.37
    out = solve_jacobian(ctx_free1d, phi, t)
    g = ctx_free1d.g_diag
    s_expected = (t + float(np.trace(phi).real)) / float(g.sum())
    assert out.scalar == pytest.approx(s_expected, rel=1e-10)
    psi_expected = s_expected * np.diag(g).astype(complex) - phi
    np.testing.assert_allclose(out.matrix, psi_expected, atol=1e-9)


@pytest.mark.parametrize("name", ["si1d", "rhf1d", "tiny3d"])
def test_solve_jacobian_round_trip(name):
    ctx = ResponseContext(converged_state(name))
    m = ctx.n_states
    phi = random_hermitian(m, seed=52)
    t = -0.6
    out = solve_jacobian(ctx, phi, t)
    back = apply_jacobian(ctx, out.matrix, out.scalar)
    assert np.abs(back.matrix - phi).max() <= 1e-8 * max(1.0, np.abs(phi).max())
    assert back.scalar == pytest.approx(t, abs=1e-8)


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_solve_jacobian_answers_the_imaginary_part_in_closed_form(name, request):
    # chi annihilates the imaginary antisymmetric part, which has no trace
    ctx = request.getfixturevalue(f"ctx_{name}")
    phi = random_hermitian(ctx.n_states, seed=56)
    out = solve_jacobian(ctx, phi, 0.2)
    assert np.array_equal(out.matrix.imag, -phi.imag)


@pytest.mark.parametrize("info, message", [(0, "refinement steps"), (7, "info = 7")])
def test_unsolved_jacobian_raises_with_minres_status(ctx_si1d, monkeypatch, info,
                                                     message):
    # a MINRES that stops at zero: with info 0 the refinement cannot reach
    # the residual tolerance, with info > 0 the solve itself reports it
    def stalled(a, b, **kwargs):
        return np.zeros_like(b), info

    monkeypatch.setattr("mks.response.minres", stalled)
    phi = random_hermitian(ctx_si1d.n_states, seed=55)
    with pytest.raises(RuntimeError, match=message):
        solve_jacobian(ctx_si1d, phi, 0.1)


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_solve_after_audit_reuses_the_trace_row_solve(name):
    # the audit made y_g = (chi - I)^-1 g; the solve adds only the MINRES
    # products of Re Phi (and of any refinement step)
    state = converged_state(name)
    phi = random_hermitian(state.gamma.n_states, seed=59)
    fresh = ResponseContext(state)
    expected = solve_jacobian(fresh, phi, 0.3)
    ctx = ResponseContext(state)
    audit_a4(ctx)
    y_g, trace_row_products = ctx.trace_row_solve()
    assert trace_row_products > 0 and not y_g.flags.writeable
    before = ctx.applications
    out = solve_jacobian(ctx, phi, 0.3)
    assert ctx.applications - before == fresh.applications - trace_row_products
    assert np.array_equal(out.matrix, expected.matrix)
    assert out.scalar == expected.scalar
    assert ctx.trace_row_solve()[0] is y_g


def test_second_jacobian_solve_makes_one_minres_solve_fewer(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return scipy.sparse.linalg.minres(*args, **kwargs)

    monkeypatch.setattr("mks.response.minres", counted)
    ctx = ResponseContext(converged_state("si1d"))
    phi = random_hermitian(ctx.n_states, seed=60)
    first = solve_jacobian(ctx, phi, -0.2)
    first_calls, first_products = len(calls), ctx.applications
    second = solve_jacobian(ctx, phi, -0.2)
    assert len(calls) - first_calls == first_calls - 1
    assert ctx.applications - first_products == first_products - ctx.trace_row_solve()[1]
    assert np.array_equal(first.matrix, second.matrix) and first.scalar == second.scalar


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_solve_jacobian_rejects_non_finite_t_before_any_product(t):
    ctx = ResponseContext(converged_state("si1d"))
    phi = random_hermitian(ctx.n_states, seed=61)
    with pytest.raises(ValueError, match="trace value t must be finite"):
        solve_jacobian(ctx, phi, t)
    assert ctx.applications == 0


def test_solve_jacobian_validates_shape(ctx_free1d):
    with pytest.raises(ValueError):
        solve_jacobian(ctx_free1d, np.eye(2), 0.0)


def test_solve_jacobian_rejects_non_hermitian_rhs(ctx_si1d):
    phi = random_hermitian(ctx_si1d.n_states, seed=58)
    phi[0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        solve_jacobian(ctx_si1d, phi, 0.0)


def test_tangent_perturbation_validation():
    with pytest.raises(ValueError):
        TangentPerturbation(np.ones((2, 3)))
    with pytest.raises(ValueError):
        TangentPerturbation(np.array([[0.0, 1.0], [0.0, 0.0]]))
    tp = TangentPerturbation(np.eye(3), scalar=2.5)
    assert tp.scalar == 2.5


# -- A4 audit ----------------------------------------------------------------


def test_audit_free1d_is_trivial(ctx_free1d):
    # no Hartree term and a zero xc kernel: B = 0, and no product is taken
    report = audit_a4(ctx_free1d)
    assert report["operator_applications"] == 0
    assert report["lambda_min"] == 1.0
    assert report["kappa"] == pytest.approx(1.0, abs=1e-12)
    assert not report["violated"]
    assert report["tangent_dim"] == ctx_free1d.n_states**2
    # for chi = 0 the trace-row denominator is just -sum g, i.e.
    # beta sum f (1 - f) under the paper sign
    f = ctx_free1d.occupations
    beta = ctx_free1d.smearing.beta
    assert report["denominator_s"] == pytest.approx(
        beta * float(np.sum(f * (1.0 - f))), rel=1e-12
    )


def test_audit_without_hartree_keeps_the_xc_kernel():
    # Hartree off but Dirac exchange on: B is the xc kernel alone, not 0,
    # so the audit runs Lanczos like any other state
    text = bundled_config_path("si1d").read_text()
    config = RunConfig.from_text(text.replace("hartree = on", "hartree = off"))
    assert not config.hartree_on
    report = audit_a4(ResponseContext(run_single(config)))
    assert report["operator_applications"] > 0
    assert report["lambda_min"] == pytest.approx(0.605145344522, rel=1e-7)


def test_audit_rhf1d_reaches_unit_floor(ctx_rhf1d):
    # the Coulomb-only kernel is positive semidefinite in the weighted
    # metric, so the smallest eigenvalue of I - chi sits at exactly 1
    report = audit_a4(ctx_rhf1d)
    assert report["lambda_min"] == pytest.approx(1.0, abs=1e-9)
    assert report["kappa"] == pytest.approx(1.0, abs=1e-9)
    assert not report["violated"]
    assert report["denominator_s"] == pytest.approx(11.941395441131766, rel=1e-7)


def test_audit_si1d_regression(ctx_si1d):
    report = audit_a4(ctx_si1d)
    assert report["lambda_min"] == pytest.approx(0.189659018467, rel=1e-7)
    assert report["kappa"] == pytest.approx(1.0 / report["lambda_min"], rel=1e-12)
    assert not report["violated"]
    assert np.isfinite(report["denominator_s"])


def test_audit_tiny3d_regression(ctx_tiny3d):
    report = audit_a4(ctx_tiny3d)
    assert report["lambda_min"] == pytest.approx(0.840808517254, rel=1e-7)
    assert not report["violated"]


@pytest.mark.parametrize(
    "name, beta",
    [("si1d", None), ("rhf1d", None), ("tiny3d", None), ("si1d", 400.0)],
    ids=["si1d", "rhf1d", "tiny3d", "si1d-beta400"],
)
def test_audit_spectrum_equals_nonsymmetric_eigenvalues(name, beta):
    # the weighted-metric symmetric operator is a similarity transform of
    # I - chi, so the dense oracle's spectrum in the raw coordinates must
    # match, and the Lanczos value must be its smallest eigenvalue (rhf1d
    # puts it inside a degenerate cluster at exactly 1; si1d at beta 400
    # violates A4, lambda_min near -4.19)
    ctx = ResponseContext(converged_state(name, beta=beta))
    m = ctx.n_states
    dim = m * m
    a = np.eye(dim) - dense_chi_matrix(ctx)
    raw = np.linalg.eigvals(a)
    assert np.abs(raw.imag).max() <= 1e-10
    s = np.sqrt(np.abs(coordinate_weights(ctx)))
    bare = dense_bare_matrix(ctx)
    sym = np.eye(dim) + (s[:, None] * 0.5 * (bare + bare.T)) * s[None, :]
    sym_eigs = np.linalg.eigvalsh(sym)
    np.testing.assert_allclose(np.sort(raw.real), sym_eigs, atol=1e-8)
    report = audit_a4(ctx)
    assert report["lambda_min"] == pytest.approx(sym_eigs[0], abs=1e-10)
    assert 0 < report["operator_applications"] < dim


@pytest.mark.parametrize("name, repeats", [("free1d", 100), ("tiny3d", 2)])
def test_audit_is_deterministic(name, repeats, request):
    # free1d has B = 0, so A = I: a Krylov method breaks down at once there
    ctx = request.getfixturevalue(f"ctx_{name}")
    reports = {json.dumps(audit_a4(ctx), sort_keys=True) for _ in range(repeats)}
    assert len(reports) == 1


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_lanczos_stops_when_its_ritz_value_converges(name, request):
    # one product per Lanczos step; a fixed 40-vector factorisation takes 41
    ctx = request.getfixturevalue(f"ctx_{name}")
    before = ctx.applications
    lambda_min = ctx.lowest_eigenvalue()
    steps = ctx.applications - before
    assert steps <= 20
    report = audit_a4(ctx)
    assert report["lanczos_steps"] == steps
    assert report["lambda_min"] == lambda_min
    assert report["operator_applications"] > steps


def test_lowest_ritz_pair_is_bitwise_the_wrapper():
    # the two LAPACK calls eigh_tridiagonal(select="i") makes, without it
    rng = np.random.default_rng(62)
    for k in range(1, 41):
        d = rng.standard_normal(k)
        e = rng.uniform(0.1, 2.0, k - 1)
        w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        theta, s_k = _lowest_ritz_pair(list(d), list(e))
        assert theta == w[0] and s_k == v[-1, 0], k


def test_lanczos_step_cap_fails_with_one_line(ctx_si1d, monkeypatch, tmp_path,
                                              capsys):
    monkeypatch.setattr("mks.response.LANCZOS_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match=r"\(2 steps, residual estimate") as info:
        ctx_si1d.lowest_eigenvalue()
    assert "\n" not in str(info.value)
    assert main(["response", "--config", "si1d", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: Lanczos") and err.count("\n") == 1
    assert not (tmp_path / "response_audit.json").exists()


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_audit_counts_only_its_own_products(name):
    state = converged_state(name)
    fresh = audit_a4(ResponseContext(state))
    used = ResponseContext(state)
    solve_jacobian(used, random_hermitian(used.n_states, seed=57), 0.1)
    assert used.applications > 0
    assert audit_a4(used) == fresh
    assert fresh["operator_applications"] > 0


def test_solve_jacobian_matches_dense_lu_oracle(ctx_si1d):
    m = ctx_si1d.n_states
    dim = m * m
    g = hermitian_to_coords(np.diag(ctx_si1d.g_diag).astype(complex))
    block = np.zeros((dim + 1, dim + 1))
    block[:dim, :dim] = dense_chi_matrix(ctx_si1d) - np.eye(dim)
    block[:dim, dim] = g
    block[dim, :m] = 1.0
    phi = random_hermitian(m, seed=53)
    t = 0.41
    rhs = np.append(hermitian_to_coords(phi), t)
    oracle = scipy.linalg.lu_solve(scipy.linalg.lu_factor(block), rhs)
    out = solve_jacobian(ctx_si1d, phi, t)
    np.testing.assert_allclose(hermitian_to_coords(out.matrix), oracle[:dim],
                               rtol=0, atol=1e-10)
    assert out.scalar == pytest.approx(oracle[dim], abs=1e-10)


def test_audit_and_solve_on_one_plane_wave():
    # below the first nonzero shell the basis is G = 0 alone: one state,
    # tangent dimension 1, where one Lanczos step is exact
    text = bundled_config_path("rhf1d").read_text()
    text = text.replace("cutoff = 20.0", "cutoff = 0.1").replace(
        "n_electrons = 4", "n_electrons = 0.5"
    )
    state = run_single(RunConfig.from_text(text, origin="one-plane-wave"))
    ctx = ResponseContext(state)
    report = audit_a4(ctx)
    assert report["tangent_dim"] == 1
    assert report["lambda_min"] == pytest.approx(1.0, abs=1e-12)
    out = solve_jacobian(ctx, np.eye(1), 0.2)
    back = apply_jacobian(ctx, out.matrix, out.scalar)
    assert np.abs(back.matrix - np.eye(1)).max() <= 1e-8
    assert back.scalar == pytest.approx(0.2, abs=1e-8)


def test_matrix_free_audit_beyond_dense_reach():
    # tiny3d at beta 2 keeps all 81 plane waves as states: a dense
    # (m^2)^2 matrix would hold 6561^2 doubles (344 MB)
    cfg = RunConfig.from_file("tiny3d")
    state = run_single(cfg, beta=2.0)
    ctx = ResponseContext(state)
    assert state.basis.size == 81 and ctx.n_states == 81
    report = audit_a4(ctx)
    assert report["tangent_dim"] == 6561
    assert report["lambda_min"] == pytest.approx(0.892939006604, rel=1e-7)
    phi = random_hermitian(ctx.n_states, seed=54)
    out = solve_jacobian(ctx, phi, 0.3)
    back = apply_jacobian(ctx, out.matrix, out.scalar)
    assert np.abs(back.matrix - phi).max() <= 1e-8
    assert back.scalar == pytest.approx(0.3, abs=1e-8)


def test_audit_lambda_min_stable_under_refinement(ctx_si1d):
    # the audit value is a property of the model, not of the basis size
    cfg = RunConfig.from_file("si1d")
    fine = run_single(cfg, cutoff=2.0 * cfg.cutoff, tighten=0.1)
    coarse_report = audit_a4(ctx_si1d)
    fine_report = audit_a4(ResponseContext(fine))
    assert fine_report["lambda_min"] == pytest.approx(
        coarse_report["lambda_min"], rel=0.05
    )


def test_audit_g_convention_flips_denominator(ctx_free1d):
    state = converged_state("free1d")
    paper = audit_a4(ResponseContext(state, g_sign="paper"))
    analytic = audit_a4(ResponseContext(state, g_sign="analytic"))
    assert analytic["denominator_s"] == pytest.approx(
        -paper["denominator_s"], rel=1e-12
    )
    assert analytic["g_sign"] == "analytic"
    np.testing.assert_allclose(
        ResponseContext(state, g_sign="analytic").g_diag,
        fermi_dirac_dmu(state.gamma.eigenvalues, state.mu, state.smearing,
                        convention="analytic"),
    )


@pytest.mark.parametrize("name", ["si1d", "rhf1d", "tiny3d"])
def test_audit_denominator_negative_under_analytic_sign(name):
    state = converged_state(name)
    report = audit_a4(ResponseContext(state, g_sign="analytic"))
    assert report["denominator_s"] < 0.0


def test_response_context_validation():
    state = converged_state("free1d")
    with pytest.raises(ValueError):
        ResponseContext(state, g_sign="mystery")
    stripped = DensityMatrix(
        state.basis, state.gamma.orbitals, state.gamma.occupations
    )

    class Shim:
        gamma = stripped
        mu = state.mu
        smearing = state.smearing
        hartree_on = state.hartree_on
        xc = state.xc
        rho = state.rho

    with pytest.raises(ValueError, match="eigenvalues"):
        ResponseContext(Shim())
    # a constant phase leaves Gamma as it is, but its orbitals are no
    # longer real functions
    turned = copy.copy(state)
    turned.gamma = DensityMatrix(state.basis, state.gamma.orbitals * np.exp(0.3j),
                                 state.gamma.occupations, state.gamma.eigenvalues)
    with pytest.raises(ValueError, match="real orbitals"):
        ResponseContext(turned)
