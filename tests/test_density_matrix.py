"""Density matrices, trace-norm bookkeeping, and free-energy assembly.

Dense oracles build Gamma as an explicit sum of projectors and take
eigendecompositions of the resulting matrices, bypassing the package's
vectorized formulas.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import converged_state, perturb, random_density_matrix, rotate, s11_norm
from mks import density_matrix, scf
from mks.cell import Cell, build_basis, l2_norm
from mks.density_matrix import (
    DensityMatrix,
    _difference_core,
    density,
    embed_dm,
    free_energy,
    gamma_overlap_distance,
    mode_positions,
    project_dm,
    s11_distance,
)
from mks.potentials import ExternalPotential, gaussian_wells, null_xc
from mks.response import ResponseContext
from mks.smearing import Smearing, entropy


def dense_from_projectors(gamma):
    """Gamma = sum_i f_i |phi_i><phi_i| accumulated one projector at a time."""
    out = np.zeros((gamma.basis.size, gamma.basis.size), dtype=complex)
    for i in range(gamma.n_states):
        phi = gamma.orbitals[:, i]
        out += gamma.occupations[i] * np.outer(phi, np.conj(phi))
    return out


def s11_of_dense(matrix, basis):
    """Tr|A| + Tr(| |grad| A |grad| |) via two Hermitian eigensolves."""
    herm = 0.5 * (matrix + matrix.conj().T)
    first = float(np.abs(np.linalg.eigvalsh(herm)).sum())
    d = np.sqrt(basis.g_norm2)
    weighted = d[:, None] * herm * d[None, :]
    second = float(np.abs(np.linalg.eigvalsh(weighted)).sum())
    return first + second


@pytest.fixture(scope="module")
def small_basis():
    return build_basis(Cell(10.0), 5.0)


def test_density_matches_orbital_loop(small_basis):
    gamma = random_density_matrix(small_basis, 4, seed=0)
    rho = density(gamma)
    oracle = np.zeros(small_basis.fft_shape)
    for i in range(gamma.n_states):
        phi = small_basis.to_grid(gamma.orbitals[:, i])
        oracle += gamma.occupations[i] * np.abs(phi) ** 2
    np.testing.assert_allclose(rho.values, oracle, atol=1e-13)
    # the block synthesis is bitwise the per-orbital loop
    loop = np.stack([
        small_basis.to_grid(gamma.orbitals[:, i])
        for i in range(gamma.n_states)
    ])
    assert np.array_equal(gamma.orbitals_on_grid(), loop)
    assert rho.integral() == pytest.approx(gamma.trace(), rel=1e-12)
    assert rho.values.min() >= -1e-12


def test_density_is_made_once_per_state(small_basis):
    gamma = random_density_matrix(small_basis, 4, seed=1)
    rho = density(gamma)
    assert density(gamma) is rho
    assert not rho.values.flags.writeable
    twin = DensityMatrix(small_basis, gamma.orbitals, gamma.occupations)
    assert np.array_equal(density(twin).values, rho.values)


def complex_formula_density(gamma):
    """sum_i f_i |phi_i|^2 from the complex transform of every orbital."""
    grid = gamma.basis.to_grid(gamma.orbitals.T)
    return np.einsum("i,i...->...", gamma.occupations, np.abs(grid) ** 2)


@pytest.mark.parametrize("name", ["si1d", "tiny3d"])
def test_real_function_density_matches_the_complex_formula(name):
    gamma = converged_state(name).gamma
    twin = DensityMatrix(gamma.basis, gamma.orbitals, gamma.occupations,
                         gamma.eigenvalues)
    assert twin.real_functions
    grid = twin.orbitals_on_grid()
    assert grid.dtype == np.float64 and grid.shape == (twin.n_states, twin.basis.n_grid)
    assert not grid.flags.writeable
    assert twin.orbitals_on_grid() is grid
    oracle = complex_formula_density(twin)
    rho = density(twin).values
    assert np.abs(rho - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_constant_phase_state_takes_the_complex_path():
    # the same Gamma, but its orbitals are no longer real functions
    state = converged_state("si1d")
    gamma = state.gamma
    turned = DensityMatrix(gamma.basis, gamma.orbitals * np.exp(0.3j),
                           gamma.occupations, gamma.eigenvalues)
    assert not turned.real_functions
    grid = turned.orbitals_on_grid()
    assert np.iscomplexobj(grid) and turned.orbitals_on_grid() is not grid
    rho = density(turned).values
    assert np.array_equal(rho, complex_formula_density(turned))
    assert np.abs(rho - state.rho.values).max() <= 1e-14 * np.abs(rho).max()
    with pytest.raises(ValueError, match="real orbitals"):
        ResponseContext(scf._Iterate(turned, state.mu, state.rho, state.xc,
                                     state.smearing, state.hartree_on))


def test_s11_norm_matches_dense_eigensolve(small_basis):
    gamma = random_density_matrix(small_basis, 5, seed=2)
    oracle = s11_of_dense(dense_from_projectors(gamma), small_basis)
    assert s11_norm(gamma) == pytest.approx(oracle, rel=1e-12)


def test_s11_distance_matches_oracle(small_basis):
    a = random_density_matrix(small_basis, 4, seed=3)
    b = random_density_matrix(small_basis, 3, seed=4)
    diff = dense_from_projectors(a) - dense_from_projectors(b)
    oracle = s11_of_dense(diff, small_basis)
    assert s11_distance(a, b) == pytest.approx(oracle, rel=1e-12)
    # metric axioms on this pair
    assert s11_distance(a, a) <= 1e-12
    assert s11_distance(a, b) == pytest.approx(
        s11_distance(b, a), rel=1e-12
    )


def test_s11_distance_across_bases(small_basis):
    fine = build_basis(small_basis.cell, 20.0)
    a = random_density_matrix(small_basis, 3, seed=5)
    a_up = embed_dm(a, fine)
    # embedding is isometric, so the cross-basis distance to a fine state
    # equals the distance computed wholly on the fine basis
    b = random_density_matrix(fine, 3, seed=6)
    direct = s11_distance(a, b)
    lifted = s11_distance(a_up, b)
    assert direct == pytest.approx(lifted, rel=1e-12)
    assert s11_distance(a, a_up) <= 1e-12


# (config, swept cutoff, reference cutoff, beta); tiny3d at beta 2 uses up
# both bases, so the stacked orbitals outnumber the reference plane waves
SWEPT_PAIRS = [
    ("si1d", 12.0, 40.0, None),
    ("tiny3d", 2.0, 4.0, 20.0),
    ("tiny3d", 2.0, 4.0, 2.0),
]


@pytest.mark.parametrize("name, cutoff, reference, beta", SWEPT_PAIRS)
def test_s11_distance_matches_oracle_on_swept_states(name, cutoff, reference,
                                                     beta):
    swept = converged_state(name, cutoff=cutoff, beta=beta).gamma
    ref = converged_state(name, cutoff=reference, beta=beta).gamma
    proj = project_dm(ref, swept.basis)
    if beta == 2.0:
        assert swept.n_states + ref.n_states > ref.basis.size
    target = dense_from_projectors(ref)
    for state in (swept, proj):
        lifted = dense_from_projectors(embed_dm(state, ref.basis))
        oracle = s11_of_dense(lifted - target, ref.basis)
        assert s11_distance(state, ref) == pytest.approx(oracle, rel=1e-12)


def test_embed_preserves_density_and_norm(small_basis):
    fine = build_basis(small_basis.cell, 20.0)
    gamma = random_density_matrix(small_basis, 3, seed=9)
    lifted = embed_dm(gamma, fine)
    assert lifted.trace() == pytest.approx(gamma.trace(), rel=1e-14)
    assert s11_norm(lifted) == pytest.approx(s11_norm(gamma), rel=1e-13)
    rho_c = density(gamma)
    rho_f = density(lifted)
    assert rho_f.integral() == pytest.approx(rho_c.integral(), rel=1e-12)


def test_mode_positions_identifies_submodes(small_basis):
    fine = build_basis(small_basis.cell, 20.0)
    pos = mode_positions(small_basis, fine)
    np.testing.assert_array_equal(fine.g_int[pos], small_basis.g_int)
    with pytest.raises(ValueError):
        mode_positions(fine, small_basis)
    other_cell = build_basis(Cell(9.0), 20.0)
    with pytest.raises(ValueError):
        mode_positions(small_basis, other_cell)


def test_project_dm_truncates_coefficients(small_basis):
    fine = build_basis(small_basis.cell, 20.0)
    gamma = random_density_matrix(fine, 3, seed=10)
    proj = project_dm(gamma, small_basis)
    pos = mode_positions(small_basis, fine)
    np.testing.assert_allclose(proj.orbitals, gamma.orbitals[pos], atol=1e-14)
    np.testing.assert_allclose(proj.occupations, gamma.occupations)
    with pytest.raises(ValueError):
        project_dm(proj, fine)


def test_project_dm_annihilated_orbital(small_basis):
    fine = build_basis(small_basis.cell, 20.0)
    # occupied orbital supported only on modes outside the coarse ball
    outside = np.flatnonzero(fine.g_norm2 > 2.0 * small_basis.cutoff * 1.01)
    coeff = np.zeros((fine.size, 1), dtype=complex)
    coeff[outside[0], 0] = 1.0
    gamma = DensityMatrix(fine, coeff, np.array([1.0]))
    # the truncation drops the dead orbital: Pi Gamma Pi loses that rank
    # and the occupation weight becomes projection error
    proj = project_dm(gamma, small_basis)
    assert proj.n_states == 0
    assert proj.trace() == pytest.approx(0.0, abs=1e-15)


def test_perturb_two_by_two_closed_form(small_basis):
    gamma = random_density_matrix(
        small_basis, 2, seed=11, occupations=[0.7, 0.3]
    )
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eps = 0.1
    out = perturb(gamma, sigma_x, eps)
    expected = np.sort(0.5 + np.array([-1.0, 1.0]) * np.sqrt(0.04 + eps**2))
    np.testing.assert_allclose(np.sort(out.occupations), expected, atol=1e-13)
    assert out.trace() == pytest.approx(1.0, abs=1e-13)
    # the dense operators agree: Gamma + eps Psi in the orbital frame
    target = gamma.orbitals @ (
        np.diag([0.7, 0.3]).astype(complex) + eps * sigma_x
    ) @ gamma.orbitals.conj().T
    np.testing.assert_allclose(dense_from_projectors(out), target, atol=1e-12)


def test_perturb_validates_tangent_shape(small_basis):
    gamma = random_density_matrix(small_basis, 3, seed=12)
    with pytest.raises(ValueError):
        perturb(gamma, np.eye(2), 0.1)


def test_rotate_preserves_spectrum(small_basis):
    gamma = random_density_matrix(small_basis, 3, seed=13)
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = raw - raw.conj().T
    rotated = rotate(gamma, a, 0.4)
    np.testing.assert_array_equal(rotated.occupations, gamma.occupations)
    eigs = np.linalg.eigvalsh(dense_from_projectors(rotated))
    keep = eigs[np.argsort(-np.abs(eigs))[:3]]
    np.testing.assert_allclose(
        np.sort(keep), np.sort(gamma.occupations), atol=1e-12
    )


def test_density_matrix_validation(small_basis):
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((small_basis.size, 2)) + 0j
    with pytest.raises(ValueError, match="orthonormal"):
        DensityMatrix(small_basis, raw, np.array([0.5, 0.5]))
    q, _ = np.linalg.qr(raw)
    with pytest.raises(ValueError):
        DensityMatrix(small_basis, q, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        DensityMatrix(small_basis, q, np.array([0.5]))


def orthonormal_columns(n, seed):
    """All n eigenvectors of a random Hermitian matrix, Fortran-ordered as
    scipy's eigh returns them in the SCF."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scipy.linalg.eigh(raw + raw.conj().T)[1]


def test_orthonormality_check_threshold(small_basis):
    q = orthonormal_columns(small_basis.size, seed=16)[:, :3]
    occ = np.full(3, 0.5)
    for drift in (0.99e-10, 1.01e-10):
        stretched = q.copy()
        stretched[:, 1] *= np.sqrt(1.0 + drift)
        tilted = q.copy()
        tilted[:, 2] += drift * q[:, 0]
        for orbitals in (stretched, tilted):
            if drift < 1e-10:
                DensityMatrix(small_basis, orbitals, occ)
            else:
                with pytest.raises(ValueError, match="drift 1.010e-10"):
                    DensityMatrix(small_basis, orbitals, occ)


@pytest.mark.parametrize("layout", [
    "c_order", "fortran_order", "leading_columns", "strided_columns",
    "single_column",
])
def test_orthonormality_check_any_layout(small_basis, layout):
    full = orthonormal_columns(small_basis.size, seed=17)
    # the SCF passes the leading-column view vecs[:, :keep] of eigh's output
    views = {
        "c_order": lambda q: np.ascontiguousarray(q[:, :4]),
        "fortran_order": lambda q: np.asfortranarray(q[:, :4]),
        "leading_columns": lambda q: q[:, :4],
        "strided_columns": lambda q: np.ascontiguousarray(q)[:, 1:9:2],
        "single_column": lambda q: q[:, :1],
    }
    orbitals = views[layout](full)
    occ = np.full(orbitals.shape[1], 0.5)
    gamma = DensityMatrix(small_basis, orbitals, occ)
    assert gamma.orbitals.shape == orbitals.shape
    bent = full.copy(order="K")
    bent[:, :2] *= 1.0 + 1e-8
    bent = views[layout](bent)
    drift = np.abs(bent.conj().T @ bent - np.eye(bent.shape[1])).max()
    with pytest.raises(ValueError, match=f"drift {drift:.3e}"):
        DensityMatrix(small_basis, bent, occ)


def difference_core_numpy(a_orbitals, a_occupations, b_orbitals, b_occupations):
    """The core R D R* of A - B from numpy's QR and matmul."""
    stacked = np.concatenate([a_orbitals, b_orbitals], axis=1)
    r = np.linalg.qr(stacked, mode="r")
    d = np.concatenate([a_occupations, -b_occupations])
    return (r * d) @ r.conj().T


@pytest.mark.parametrize("ma, mb", [(3, 4), (5, 6), (7, 8)],
                         ids=["tall", "square", "wide"])
def test_difference_core_matches_numpy_oracle(small_basis, ma, mb):
    assert ma + mb - small_basis.size in (-4, 0, 4)
    a = random_density_matrix(small_basis, ma, seed=18)
    b = random_density_matrix(small_basis, mb, seed=19)
    scale = np.sqrt(small_basis.g_norm2)[:, None]
    for left, right in ((a.orbitals, b.orbitals),
                        (scale * a.orbitals, scale * b.orbitals)):
        core = _difference_core(left, a.occupations, right, b.occupations)
        oracle = difference_core_numpy(left, a.occupations,
                                       right, b.occupations)
        assert core.shape == oracle.shape == (min(small_basis.size, ma + mb),) * 2
        np.testing.assert_allclose(core, core.conj().T, rtol=0, atol=1e-14)
        got, want = np.linalg.eigvalsh(core), np.linalg.eigvalsh(oracle)
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def test_basis_filling_core_matches_qr_core(monkeypatch):
    # at beta 2 the reference keeps every plane wave, so the swept state
    # and the embedded reference together outnumber the reference basis
    swept = converged_state("tiny3d", cutoff=4.0, beta=2.0).gamma
    ref = converged_state("tiny3d", cutoff=8.0, beta=2.0).gamma
    lifted = embed_dm(swept, ref.basis)
    assert swept.n_states + ref.n_states >= ref.basis.size

    def distances():
        return [s11_distance(swept, ref),
                s11_distance(project_dm(ref, swept.basis), ref),
                gamma_overlap_distance(lifted, ref)]

    direct = distances()
    monkeypatch.setattr(density_matrix, "_difference_core",
                        difference_core_numpy)
    np.testing.assert_allclose(direct, distances(), rtol=1e-12, atol=0)


def test_free_energy_breakdown_terms(small_basis):
    gamma = random_density_matrix(small_basis, 3, seed=16)
    sm = Smearing(12.0)
    external = gaussian_wells([[4.0]], [-1.3], [0.8])
    fe = free_energy(gamma, external, null_xc(), sm, hartree_on=True)
    assert fe.total == pytest.approx(
        fe.kinetic + fe.external + fe.hartree + fe.xc + fe.entropy, abs=1e-14
    )
    # kinetic oracle: explicit orbital loop over |G|^2/2 weights
    kin = 0.0
    for i in range(gamma.n_states):
        kin += gamma.occupations[i] * float(
            np.sum(0.5 * small_basis.g_norm2 * np.abs(gamma.orbitals[:, i]) ** 2)
        )
    assert fe.kinetic == pytest.approx(kin, rel=1e-13)
    rho = density(gamma)
    v = external.evaluate(small_basis)
    assert fe.external == pytest.approx((v * rho).integral(), rel=1e-12)
    assert fe.entropy == pytest.approx(entropy(gamma.occupations, sm), rel=1e-14)
    assert fe.xc == 0.0
    off = free_energy(gamma, external, null_xc(), sm, hartree_on=False)
    assert off.hartree == 0.0
    assert fe.hartree > 0.0


def test_free_energy_gauge_invariant_under_orbital_phases(small_basis):
    gamma = random_density_matrix(small_basis, 3, seed=17)
    sm = Smearing(9.0)
    phases = np.exp(1j * np.array([0.4, -1.2, 2.6]))
    twin = DensityMatrix(small_basis, gamma.orbitals * phases, gamma.occupations)
    f1 = free_energy(gamma, ExternalPotential.zero(), null_xc(), sm)
    f2 = free_energy(twin, ExternalPotential.zero(), null_xc(), sm)
    assert f1.total == pytest.approx(f2.total, abs=1e-13)
    assert l2_norm(density(gamma) - density(twin)) <= 1e-12
