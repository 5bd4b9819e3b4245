"""External potentials, the Hartree term, and local xc functionals.

The oracles here avoid the package's FFT paths: periodized Gaussians are
summed over images in real space, and Hartree quantities are rebuilt from
plain Fourier coefficients obtained by direct quadrature sums.
"""

import numpy as np
import pytest

from conftest import grid_points
from mks.cell import Cell, GridFunction, build_basis
from mks.potentials import (
    DIRAC_COEFF,
    ExternalPotential,
    XcFunctional,
    assemble_effective,
    audit_xc,
    cosine_series,
    dirac_corr,
    dirac_exchange,
    gaussian_wells,
    interaction_energies,
    null_xc,
    power_law_xc,
)
from mks.scf import Hamiltonian


def hartree_terms(rho):
    """(v_H, e_H) alone: no external potential and no xc."""
    zero, none = ExternalPotential.zero(), null_xc()
    return (assemble_effective(rho, zero, none),
            interaction_energies(rho, zero, none)[1])


def xc_terms(rho, xc):
    """(e_xc'(rho), int e_xc(rho)) alone: no external potential, no Hartree."""
    zero = ExternalPotential.zero()
    return (assemble_effective(rho, zero, xc, hartree_on=False),
            interaction_energies(rho, zero, xc, hartree_on=False)[2])


def gaussian_image_sum(points, centers, depths, widths, length, reps=4):
    """Periodized Gaussian wells in 1d by direct summation over images."""
    total = np.zeros_like(points, dtype=float)
    for c, d, w in zip(centers, depths, widths):
        for r in range(-reps, reps + 1):
            total += d * np.exp(-((points - c - r * length) ** 2) / (2.0 * w * w))
    return total


def direct_plain_coefficients(values, basis):
    """Plain Fourier coefficients by explicit quadrature sums, no FFT."""
    pts = grid_points(basis).reshape(-1, basis.cell.dimension)
    modes = basis.grid_modes.reshape(-1, basis.cell.dimension)
    cart = modes @ basis.cell.reciprocal
    flat = np.asarray(values).reshape(-1)
    coeffs = np.empty(len(cart), dtype=complex)
    for k, g in enumerate(cart):
        coeffs[k] = np.sum(flat * np.exp(-1j * (pts @ g))) / flat.size
    return cart, coeffs


def test_gaussian_wells_match_image_sum():
    length = 10.0
    basis = build_basis(Cell(length), 12.0)
    pot = gaussian_wells([[1.7], [4.9]], [-2.4, -1.1], [1.0, 0.9])
    values = pot.evaluate(basis).values
    x = grid_points(basis)[..., 0]
    oracle = gaussian_image_sum(x, [1.7, 4.9], [-2.4, -1.1], [1.0, 0.9], length)
    np.testing.assert_allclose(values, oracle, atol=1e-10)


def test_gaussian_fourier_coefficients_against_quadrature():
    length = 10.0
    basis = build_basis(Cell(length), 12.0)
    pot = gaussian_wells([[3.3]], [-2.0], [1.0])
    x = grid_points(basis)[..., 0]
    oracle_values = gaussian_image_sum(x, [3.3], [-2.0], [1.0], length)
    _, coeffs = direct_plain_coefficients(oracle_values, basis)
    analytic = pot.spectrum(basis).reshape(-1)
    np.testing.assert_allclose(analytic, coeffs, atol=1e-10)


def test_cosine_series_evaluates_pointwise():
    basis = build_basis(Cell([7.0, 9.0]), 6.0)
    pot = cosine_series([[1, 0], [2, 1]], [0.4, -0.15])
    pts = grid_points(basis)
    b = basis.cell.reciprocal
    oracle = 0.4 * np.cos(pts @ (np.array([1, 0]) @ b)) - 0.15 * np.cos(
        pts @ (np.array([2, 1]) @ b)
    )
    np.testing.assert_allclose(pot.evaluate(basis).values, oracle, atol=1e-12)


@pytest.mark.parametrize("mode", [3, 9])
def test_cosine_series_hamiltonian_is_the_galerkin_matrix(mode):
    # 2 pi cell at ec 2: G in {-2, ..., 2} on a 9-point grid.  cos(9x) does
    # not fit on the grid, where wrapping would alias it onto the constant 1
    basis = build_basis(Cell(2.0 * np.pi), 2.0)
    assert basis.fft_shape == (9,)
    amp = 0.7
    ham = Hamiltonian(basis, cosine_series([[mode]], [amp]).evaluate(basis))
    g = basis.g_int[:, 0]
    coupled = np.abs(g[:, None] - g[None, :]) == mode
    oracle = np.diag(0.5 * basis.g_norm2) + 0.5 * amp * coupled
    np.testing.assert_allclose(ham.dense(), oracle, atol=1e-14)


def test_zero_potential():
    basis = build_basis(Cell(5.0), 4.0)
    zero = ExternalPotential.zero()
    assert np.all(zero.evaluate(basis).values == 0.0)
    assert np.all(zero.spectrum(basis) == 0.0)


def test_external_potential_validation():
    with pytest.raises(ValueError):
        gaussian_wells([[0.0]], [-1.0, -2.0], [0.5])
    with pytest.raises(ValueError):
        gaussian_wells([[0.0]], [-1.0], [0.0])


def test_hartree_matches_direct_summation():
    basis = build_basis(Cell(10.0), 6.0)
    x = grid_points(basis)[..., 0]
    b1 = 2.0 * np.pi / 10.0
    rho = GridFunction(basis, 0.4 + 0.25 * np.cos(b1 * x) + 0.1 * np.sin(2 * b1 * x))
    v_h, e_h = hartree_terms(rho)

    cart, coeffs = direct_plain_coefficients(rho.values, basis)
    g2 = np.einsum("ij,ij->i", cart, cart)
    mult = np.where(g2 > 1e-14, 4.0 * np.pi / np.maximum(g2, 1e-14), 0.0)
    pts = grid_points(basis).reshape(-1, 1)
    v_oracle = np.zeros(len(pts), dtype=complex)
    for g, c, m in zip(cart, coeffs, mult):
        v_oracle += m * c * np.exp(1j * (pts @ g))
    np.testing.assert_allclose(
        v_h.values.reshape(-1), v_oracle.real, atol=1e-11
    )
    e_oracle = 0.5 * basis.cell.volume * float(np.sum(mult * np.abs(coeffs) ** 2))
    assert e_h == pytest.approx(e_oracle, rel=1e-12)


def test_hartree_cosine_closed_form():
    # rho = A cos(Gx): E_H = pi V A^2 / G^2 and v_H = (4 pi A / G^2) cos(Gx)
    length = 10.0
    basis = build_basis(Cell(length), 6.0)
    x = grid_points(basis)[..., 0]
    g1 = 2.0 * np.pi / length
    amp = 0.3
    rho = GridFunction(basis, amp * np.cos(g1 * x))
    v_h, e_h = hartree_terms(rho)
    assert e_h == pytest.approx(np.pi * length * amp**2 / g1**2, rel=1e-12)
    np.testing.assert_allclose(
        v_h.values, (4.0 * np.pi * amp / g1**2) * np.cos(g1 * x), atol=1e-11
    )
    # neutralizing background removes the mean
    assert abs(v_h.integral()) < 1e-10
    assert e_h >= 0.0


def test_power_law_xc_unit_density_closed_form():
    # e(t) = -0.75 t^(4/3) on a cell of volume 2 pi with rho = 1
    basis = build_basis(Cell(2.0 * np.pi), 6.0)
    rho = GridFunction(basis, np.ones(basis.fft_shape))
    xc = power_law_xc(0.75)
    v, e = xc_terms(rho, xc)
    assert e == pytest.approx(-0.75 * 2.0 * np.pi, rel=1e-13)
    np.testing.assert_allclose(v.values, -1.0, atol=1e-13)


def test_dirac_coefficient_value():
    assert DIRAC_COEFF == pytest.approx(0.75 * (3.0 / np.pi) ** (1.0 / 3.0), abs=1e-9)


@pytest.mark.parametrize("make_xc", [dirac_exchange, dirac_corr])
def test_xc_energy_directional_derivative(make_xc):
    basis = build_basis(Cell(10.0), 6.0)
    x = grid_points(basis)[..., 0]
    b1 = 2.0 * np.pi / 10.0
    rho = GridFunction(basis, 0.8 + 0.3 * np.cos(b1 * x))
    eta = GridFunction(basis, np.sin(2 * b1 * x) + 0.2)
    xc = make_xc()
    eps = 1e-6
    _, e_plus = xc_terms(rho + eps * eta, xc)
    _, e_minus = xc_terms(rho + (-eps) * eta, xc)
    fd = (e_plus - e_minus) / (2.0 * eps)
    v, _ = xc_terms(rho, xc)
    exact = (v * eta).integral()
    assert fd == pytest.approx(exact, rel=1e-5)


def test_xc_derivative_chain_consistency():
    # d2 and d3 are the stored derivatives of d1 and d2
    t = 0.7
    h = 1e-6
    for xc in (dirac_exchange(), dirac_corr()):
        fd2 = (xc.d1(t + h) - xc.d1(t - h)) / (2.0 * h)
        assert float(fd2) == pytest.approx(float(xc.d2(t)), rel=1e-6)
        fd3 = (xc.d2(t + h) - xc.d2(t - h)) / (2.0 * h)
        assert float(fd3) == pytest.approx(float(xc.d3(t)), rel=1e-5)


def test_xc_clamps_vanishing_density():
    xc = dirac_exchange()
    assert np.isfinite(float(xc.d2(0.0)))
    basis = build_basis(Cell(5.0), 4.0)
    rho = GridFunction(basis, np.zeros(basis.fft_shape))
    v, e = xc_terms(rho, xc)
    assert np.all(np.isfinite(v.values))
    assert np.isfinite(e)


def test_null_xc_is_inert():
    basis = build_basis(Cell(5.0), 4.0)
    rho = GridFunction(basis, np.full(basis.fft_shape, 0.7))
    v, e = xc_terms(rho, null_xc())
    assert e == 0.0
    assert np.all(v.values == 0.0)


def test_audit_xc_passes_shipped_functionals():
    for xc in (dirac_exchange(), dirac_corr(), null_xc()):
        report = audit_xc(xc)
        assert report["passed"], report
        assert report["d1_fd_max_rel_err"] <= 1e-6


def dirac_with(name, **constants):
    """Dirac exchange's e and derivatives under other growth constants."""
    base = dirac_exchange()
    stated = dict(c0=base.c0, c1=base.c1, c2=base.c2, p1=base.p1, p2=base.p2)
    stated.update(constants)
    return XcFunctional(name, base._e, base._d1, base._d2, base._d3, **stated)


def test_audit_xc_flags_understated_constant():
    report = audit_xc(dirac_with("understated", c0=0.1 * dirac_exchange().c0))
    assert not report["passed"]
    assert report["a2_max_ratio"] > 1.0


def test_audit_xc_flags_zero_constant_of_nonzero_derivatives():
    # c1 = 0 claims e' and t e'' vanish; Dirac's do not, so the ratio is inf
    report = audit_xc(dirac_with("zero-c1", c1=0.0))
    assert not report["passed"]
    assert report["a3_first_max_ratio"] == float("inf")
    assert report["a2_max_ratio"] <= 1.0 + 1e-9


def test_power_law_xc_validation():
    with pytest.raises(ValueError):
        power_law_xc(0.75, power=1.5)
    with pytest.raises(ValueError):
        power_law_xc(0.75, power=1.0)
    with pytest.raises(ValueError):
        power_law_xc(-0.5)


def test_assemble_effective_sums_terms():
    basis = build_basis(Cell(10.0), 6.0)
    x = grid_points(basis)[..., 0]
    rho = GridFunction(basis, 0.5 + 0.2 * np.cos(2.0 * np.pi * x / 10.0))
    external = gaussian_wells([[5.0]], [-1.5], [0.9])
    xc = dirac_exchange()
    v_ext = external.evaluate(basis)
    v_h, e_h = hartree_terms(rho)
    v_xc, e_xc = xc_terms(rho, xc)
    v_eff = assemble_effective(rho, external, xc, hartree_on=True)
    np.testing.assert_allclose(
        v_eff.values, v_ext.values + v_h.values + v_xc.values, atol=1e-13
    )
    e_ext, e_hartree, e_xc_all = interaction_energies(rho, external, xc)
    e_ext_oracle = (v_ext * rho).integral()
    assert e_ext == pytest.approx(e_ext_oracle, rel=1e-12)
    assert (e_hartree, e_xc_all) == (e_h, e_xc)

    off = assemble_effective(rho, external, xc, hartree_on=False)
    assert interaction_energies(rho, external, xc, hartree_on=False)[1] == 0.0
    np.testing.assert_array_equal(off.values, v_ext.values + v_xc.values)
