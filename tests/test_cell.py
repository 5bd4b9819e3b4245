"""Cells, plane-wave bases, grid transforms, and grid functions."""

import numpy as np
import pytest
from scipy.fft import fftn, ifftn

from conftest import converged_state, grid_points
from mks.cell import (
    Cell,
    GridFunction,
    PlaneWaveBasis,
    build_basis,
    resample,
)


def test_cell_promotes_scalar_and_vector_lattices():
    c1 = Cell(6.0)
    assert c1.dimension == 1
    assert c1.volume == pytest.approx(6.0)
    c2 = Cell([4.0, 5.0])
    assert c2.dimension == 2
    assert c2.volume == pytest.approx(20.0)
    np.testing.assert_allclose(c2.lattice, np.diag([4.0, 5.0]))


def test_cell_reciprocal_is_dual():
    # a_i . b_j = 2 pi delta_ij must hold for a skew lattice too
    cell = Cell([[10.0, 0.0], [2.0, 9.0]])
    gram = cell.lattice @ cell.reciprocal.T
    np.testing.assert_allclose(gram, 2.0 * np.pi * np.eye(2), atol=1e-12)


def test_cell_rejects_bad_lattices():
    with pytest.raises(ValueError):
        Cell(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Cell(np.eye(4))
    with pytest.raises(ValueError):
        Cell(np.ones((2, 3)))


def test_basis_mode_count_1d():
    # L = 2 pi makes b = 1, so |G|^2/2 <= 8 keeps exactly n in [-4, 4]
    basis = build_basis(Cell(2.0 * np.pi), 8.0)
    assert basis.size == 9
    np.testing.assert_array_equal(basis.g_int[:, 0], np.arange(-4, 5))
    np.testing.assert_allclose(basis.g_norm2, np.arange(-4, 5).astype(float) ** 2)


def test_basis_mode_count_3d():
    basis = build_basis(Cell([6.0, 6.0, 6.0]), 4.0)
    b = 2.0 * np.pi / 6.0
    inside = basis.g_norm2 <= 8.0 * (1 + 1e-12)
    assert inside.all()
    assert basis.size == 81
    # lexicographic enumeration is the pinned coefficient layout
    order = np.lexsort((basis.g_int[:, 2], basis.g_int[:, 1], basis.g_int[:, 0]))
    np.testing.assert_array_equal(order, np.arange(basis.size))
    np.testing.assert_allclose(
        basis.g_norm2, b * b * np.sum(basis.g_int.astype(float) ** 2, axis=1)
    )


def test_grid_holds_all_pair_products():
    for basis in (
        build_basis(Cell(10.0), 20.0),
        build_basis(Cell([6.0, 6.0, 6.0]), 4.0),
    ):
        maxcoord = np.abs(basis.g_int).max(axis=0)
        assert all(n >= 4 * m + 1 for n, m in zip(basis.fft_shape, maxcoord))


def grid_norm(basis, samples):
    """L2 norm of grid samples by the grid quadrature."""
    return np.sqrt(basis.quadrature_weight * np.vdot(samples, samples).real)


def test_to_grid_round_trip_and_parseval():
    basis = build_basis(Cell(10.0), 12.0)
    rng = np.random.default_rng(11)
    coeff = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    u = basis.to_grid(coeff)
    assert u.shape == basis.fft_shape and np.iscomplexobj(u)
    np.testing.assert_allclose(basis.from_grid(u), coeff, atol=1e-13)
    assert grid_norm(basis, u) == pytest.approx(np.linalg.norm(coeff), abs=1e-13)


def real_function_coefficients(basis, m, seed):
    """(m, size) random coefficients with c(-G) = conj c(G) in every row."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, basis.size)) + 1j * rng.standard_normal((m, basis.size))
    return 0.5 * (c + c[:, ::-1].conj())


@pytest.mark.parametrize("m", [1, 4, 7])
@pytest.mark.parametrize("lattice, cutoff", [
    (10.0, 12.0),
    ([[6.0, 0.0], [1.5, 7.0]], 4.0),
    ([5.0, 6.0, 7.0], 6.0),
])
def test_real_to_grid_matches_the_complex_transform(lattice, cutoff, m):
    # two real functions per complex FFT, an odd m padded with a zero row
    basis = build_basis(Cell(lattice), cutoff)
    coeff = real_function_coefficients(basis, m, seed=m)
    samples = basis.real_to_grid(coeff)
    assert samples.shape == (m, basis.n_grid) and samples.dtype == np.float64
    assert samples.flags.c_contiguous
    oracle = basis.to_grid(coeff).real.reshape(m, -1)
    assert np.abs(samples - oracle).max() <= 1e-15 * np.abs(oracle).max()


@pytest.mark.parametrize("cutoff", [5.0, 7.25, 12.75, 19.75, 28.5, 38.75])
def test_1d_transforms_are_bitwise_fftn_and_ifftn(cutoff):
    # a 1d basis binds scipy.fft's fft/ifft; the oracles are the n-d
    # transforms on the one grid axis, grids of 21 to 60 points
    basis = build_basis(Cell(10.0), cutoff)
    n = basis.fft_shape[0]
    assert 21 <= n <= 60
    scale = basis.n_grid / np.sqrt(basis.cell.volume)
    index = (Ellipsis,) + basis.grid_index(basis.g_int)
    rng = np.random.default_rng(n)
    for m in (1, 4, 7):
        coeff = real_function_coefficients(basis, m, seed=m)
        spec = np.zeros((m, n), dtype=complex)
        spec[index] = coeff
        want = ifftn(spec, axes=(-1,)) * scale
        assert np.array_equal(basis.to_grid(coeff), want)
        packed = coeff[0::2].copy()
        packed[: m // 2] += 1j * coeff[1::2]
        spec = np.zeros(((m + 1) // 2, n), dtype=complex)
        spec[index] = packed
        pairs = ifftn(spec, axes=(-1,))
        want = np.empty((2 * len(pairs), n))
        want[0::2], want[1::2] = pairs.real * scale, pairs.imag * scale
        assert np.array_equal(basis.real_to_grid(coeff), want[:m])
    for shape in ((n,), (3, n)):
        values = rng.standard_normal(shape)
        vhat = fftn(values, axes=(-1,)) / n
        assert np.array_equal(basis.fourier_coefficients(values), vhat)
        assert np.array_equal(basis.fourier_values(vhat),
                              ifftn(vhat, axes=(-1,)).real * n)


def test_real_to_grid_validates_shape():
    basis = build_basis(Cell(10.0), 4.0)
    with pytest.raises(ValueError, match="coefficients"):
        basis.real_to_grid(np.zeros(basis.size))
    with pytest.raises(ValueError, match="coefficients"):
        basis.real_to_grid(np.zeros((2, basis.size + 1)))


def test_single_mode_norms_and_integral():
    basis = build_basis(Cell(10.0), 12.0)
    k = 7
    coeff = np.zeros(basis.size, dtype=complex)
    coeff[k] = 1.0
    u = basis.to_grid(coeff)
    assert grid_norm(basis, u) == pytest.approx(1.0, abs=1e-13)
    # e_G has zero mean unless G = 0; e_0 integrates to sqrt(V)
    zero = int(np.flatnonzero((basis.g_int == 0).all(axis=1))[0])
    expected = np.sqrt(basis.cell.volume) if k == zero else 0.0
    assert abs(u.sum() * basis.quadrature_weight - expected) < 1e-12
    ones = GridFunction(basis, np.ones(basis.fft_shape))
    assert isinstance(ones.integral(), float)
    assert ones.integral() == pytest.approx(basis.cell.volume)


def test_kinetic_diagonal():
    basis = build_basis(Cell(10.0), 8.0)
    np.testing.assert_allclose(basis.kinetic(), 0.5 * basis.g_norm2)


@pytest.mark.parametrize("name, cutoffs", [("si1d", (6.0, 40.0)),
                                           ("tiny3d", (2.0, 8.0))])
def test_resample_keeps_the_shared_symmetric_modes(name, cutoffs):
    state = converged_state(name)
    rho, src = state.rho, state.basis
    n = state.n_electrons
    spec = src.fourier_coefficients(rho.values)
    # the source holds N to solve_mu's tolerance; the resample keeps it
    assert abs(rho.integral() - n) <= 1e-12 * n
    for cutoff in cutoffs:
        target = build_basis(src.cell, cutoff)
        out = resample(rho, target)
        assert out.basis is target
        assert not np.iscomplexobj(out.values)
        assert abs(out.integral() - rho.integral()) <= 1e-13 * n
        half = [(min(a, b) - 1) // 2 for a, b in zip(src.fft_shape, target.fft_shape)]
        shared = np.all(np.abs(target.grid_modes) <= half, axis=-1)
        modes = target.grid_modes[shared]
        got = target.fourier_coefficients(out.values)
        scale = np.abs(spec).max()
        np.testing.assert_allclose(got[shared], spec[src.grid_index(modes)],
                                   rtol=0, atol=1e-14 * scale)
        assert np.abs(got[~shared]).max(initial=0.0) <= 1e-14 * scale
    with pytest.raises(ValueError, match="identical cells"):
        resample(rho, build_basis(Cell(2.0 * src.cell.lattice), cutoffs[0]))


def test_grid_mode_bookkeeping_consistent():
    basis = build_basis(Cell([[10.0, 0.0], [2.0, 9.0]]), 6.0)
    cart = basis.grid_modes @ basis.cell.reciprocal
    np.testing.assert_allclose(
        basis.grid_g2, np.einsum("...i,...i->...", cart, cart), atol=1e-12
    )
    pts = grid_points(basis)
    assert pts.shape == basis.fft_shape + (2,)
    # grid points start at the origin corner
    np.testing.assert_allclose(pts[0, 0], 0.0)


def test_grid_function_shape_and_basis_checks():
    basis = build_basis(Cell(10.0), 5.0)
    other = build_basis(Cell(10.0), 20.0)
    with pytest.raises(ValueError):
        GridFunction(basis, np.ones(7))
    with pytest.raises(ValueError, match="real field"):
        GridFunction(basis, np.full(basis.fft_shape, 1.0 + 0.5j))
    u = GridFunction(basis, np.ones(basis.fft_shape))
    v = GridFunction(other, np.ones(other.fft_shape))
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError, match="real field"):
        u * 1j
    with pytest.raises(ValueError, match="expected grid shape"):
        basis.from_grid(v.values)


def test_invalid_cutoff_rejected():
    # an infinite cutoff would overflow into one plane wave on a one-point grid
    for cutoff in (0.0, -1.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            PlaneWaveBasis(Cell(6.28), cutoff)
