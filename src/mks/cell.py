"""Periodic cells, plane-wave bases, and FFT-grid transforms.

Conventions used throughout the package:

* lattice vectors are the rows of ``Cell.lattice``; reciprocal vectors are
  the rows of ``Cell.reciprocal`` and satisfy a_i . b_j = 2 pi delta_ij,
* real-space samples live on the uniform FFT grid r_j = sum_k (j_k/N_k) a_k
  and integrals are FFT-grid trapezoid sums, exact for represented modes,
* orbitals use orthonormal coefficients of e_G(r) = |Omega|^(-1/2)
  exp(i G.r), so Parseval holds without volume factors (``to_grid``,
  ``from_grid``, ``grid_spectrum``); potentials and densities use plain
  Fourier series v(r) = sum_G vhat(G) exp(i G.r) (``fourier_coefficients``,
  ``fourier_values``).

Every transform in the package goes through ``PlaneWaveBasis``, on the
trailing axes of its input, so a block of orbitals is one call.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.fft import fftn, ifftn, next_fast_len

__all__ = [
    "Cell",
    "PlaneWaveBasis",
    "GridFunction",
    "build_basis",
    "l2_norm",
    "h1_norm",
    "l2_inner",
    "transfer",
    "project",
    "resample",
]


class Cell:
    """Periodic simulation cell in 1, 2, or 3 dimensions.

    Args:
        lattice: (d, d) array whose rows are the lattice vectors (bohr).
            A scalar or length-d sequence is promoted to a diagonal lattice.
    """

    def __init__(self, lattice):
        lattice = np.asarray(lattice, dtype=float)
        if lattice.ndim == 0:
            lattice = lattice.reshape(1, 1)
        elif lattice.ndim == 1:
            lattice = np.diag(lattice)
        if lattice.ndim != 2 or lattice.shape[0] != lattice.shape[1]:
            raise ValueError(f"lattice must be square, got shape {lattice.shape}")
        d = lattice.shape[0]
        if d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {d}")
        det = np.linalg.det(lattice)
        if abs(det) < 1e-14:
            raise ValueError("lattice vectors are linearly dependent")
        self.lattice = lattice
        self.dimension = d
        self.volume = abs(det)
        # rows b_i with a_i . b_j = 2 pi delta_ij
        self.reciprocal = 2.0 * np.pi * np.linalg.inv(lattice).T

    def __eq__(self, other):
        return (
            isinstance(other, Cell)
            and self.dimension == other.dimension
            and np.array_equal(self.lattice, other.lattice)
        )

    def __hash__(self):
        return hash((self.dimension, self.lattice.tobytes()))

    def __repr__(self):
        return f"Cell(dimension={self.dimension}, volume={self.volume:.6g})"


class PlaneWaveBasis:
    """Plane-wave set {e_G : |G|^2 <= 2 E_c} with its aliasing-free FFT grid.

    G-vectors are enumerated in lexicographic order of their integer
    coordinates, which fixes a deterministic coefficient layout.  The FFT
    grid has at least 4*max|n_k|+1 points per dimension (rounded up to a
    fast transform length) so products of two basis functions are exactly
    representable on the grid.

    Attributes:
        cell: the periodic cell.
        cutoff: kinetic-energy cutoff E_c (hartree).
        g_int: (npw, d) integer coordinates of the retained G-vectors.
        g_cart: (npw, d) Cartesian G-vectors.
        g_norm2: (npw,) squared norms |G|^2.
        fft_shape: per-dimension FFT grid sizes.
    """

    def __init__(self, cell: Cell, cutoff: float):
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        self.cell = cell
        self.cutoff = float(cutoff)
        d = cell.dimension

        radius2 = 2.0 * self.cutoff
        # |n_k| <= |G| ||a_k|| / (2 pi) for any lattice, so this box is safe
        a_norms = np.linalg.norm(cell.lattice, axis=1)
        nmax = np.floor(np.sqrt(radius2) * a_norms / (2.0 * np.pi) + 1e-12).astype(int)
        ranges = [np.arange(-m, m + 1) for m in nmax]
        grids = np.meshgrid(*ranges, indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
        cart = candidates @ cell.reciprocal
        norm2 = np.einsum("ij,ij->i", cart, cart)
        keep = norm2 <= radius2 * (1.0 + 1e-12)
        g_int = candidates[keep]
        order = np.lexsort(tuple(g_int[:, k] for k in range(d - 1, -1, -1)))
        self.g_int = np.ascontiguousarray(g_int[order])
        self.g_cart = self.g_int @ cell.reciprocal
        self.g_norm2 = np.einsum("ij,ij->i", self.g_cart, self.g_cart)
        self.size = self.g_int.shape[0]

        maxcoord = np.abs(self.g_int).max(axis=0)
        # Orbital products (densities) carry modes out to twice the basis
        # radius; the grid holds all of them injectively, which keeps the
        # Hartree and external operators exactly Galerkin and the free
        # energy variational across nested cutoffs.
        self.fft_shape = tuple(int(next_fast_len(int(4 * m + 1))) for m in maxcoord)
        self.n_grid = int(np.prod(self.fft_shape))
        self._grid_axes = tuple(range(-d, 0))
        self._grid_index = self.grid_index(self.g_int)
        self.quadrature_weight = cell.volume / self.n_grid

    # -- full-grid mode bookkeeping -------------------------------------

    @cached_property
    def grid_modes(self):
        """Signed integer coordinates of every FFT-grid mode, shape (*fft_shape, d)."""
        axes = [np.rint(np.fft.fftfreq(n) * n).astype(int) for n in self.fft_shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def grid_g2(self):
        """|G|^2 for every FFT-grid mode, shape fft_shape."""
        cart = self.grid_modes @ self.cell.reciprocal
        return np.einsum("...i,...i->...", cart, cart)

    @cached_property
    def coulomb_multiplier(self):
        """4 pi / |G|^2 for every FFT-grid mode, 0 at G = 0, shape fft_shape."""
        g2 = self.grid_g2
        mult = np.zeros_like(g2)
        np.divide(4.0 * np.pi, g2, out=mult, where=g2 > 1e-14)
        return mult

    @cached_property
    def difference_index(self):
        """Flat FFT-grid position of every G - G' (int32, shape (size, size)).

        ``fourier_coefficients(v).ravel()[difference_index]`` is the dense
        matrix of the multiplication by v.  It takes 4 size^2 bytes, so
        callers bound ``size`` before touching it (``Hamiltonian.dense``
        refuses bases above ``scf.DENSE_MAX_PLANE_WAVES``).
        """
        g = self.g_int.astype(np.int32)
        flat = np.zeros((self.size, self.size), dtype=np.int32)
        for k, n in enumerate(self.fft_shape):
            flat *= n
            flat += np.mod(g[:, None, k] - g[None, :, k], n)
        return flat

    def grid_index(self, modes):
        """Grid position of integer modes (..., d), wrapped onto the FFT grid."""
        return tuple(np.mod(modes[..., k], n) for k, n in enumerate(self.fft_shape))

    def grid_points(self):
        """Cartesian coordinates of the FFT grid, shape (*fft_shape, d)."""
        fractions = [np.arange(n) / n for n in self.fft_shape]
        mesh = np.meshgrid(*fractions, indexing="ij")
        frac = np.stack(mesh, axis=-1)
        return frac @ self.cell.lattice

    # -- transforms ------------------------------------------------------

    def to_grid(self, coefficients):
        """Synthesize ``sum_G c_G e_G`` on the FFT grid.

        One coefficient vector gives a GridFunction; a block of shape
        (k, size) gives the sample array (k, *fft_shape).  The transform is
        unitary with respect to the coefficient l2 norm and the grid
        quadrature.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.shape[-1:] != (self.size,):
            raise ValueError(
                f"expected {self.size} coefficients, got shape {coefficients.shape}"
            )
        batch = coefficients.shape[:-1]
        spec = np.zeros(batch + self.fft_shape, dtype=complex)
        spec[(Ellipsis,) + self._grid_index] = coefficients
        values = ifftn(spec, axes=self._grid_axes)
        values *= self.n_grid / np.sqrt(self.cell.volume)
        return values if batch else GridFunction(self, values)

    def from_grid(self, values) -> np.ndarray:
        """Extract basis coefficients from grid samples (inverse of to_grid
        on the represented subspace); leading axes are kept."""
        if isinstance(values, GridFunction):
            if values.basis is not self and values.basis != self:
                raise ValueError("grid function belongs to a different basis")
            values = values.values
        values = np.asarray(values)
        if values.shape[-len(self.fft_shape):] != self.fft_shape:
            raise ValueError(
                f"expected grid shape {self.fft_shape}, got {values.shape}"
            )
        return self.grid_spectrum(values)[(Ellipsis,) + self._grid_index]

    def grid_spectrum(self, values) -> np.ndarray:
        """Orthonormal-convention coefficients of every FFT-grid mode."""
        values = np.asarray(values)
        spec = fftn(values, axes=self._grid_axes)
        return spec * (np.sqrt(self.cell.volume) / self.n_grid)

    def fourier_coefficients(self, values) -> np.ndarray:
        """Plain Fourier-series coefficients vhat(G) of grid samples."""
        return fftn(values, axes=self._grid_axes) / self.n_grid

    def fourier_values(self, coefficients) -> np.ndarray:
        """Grid samples of sum_G vhat(G) exp(i G.r) (complex)."""
        return ifftn(coefficients, axes=self._grid_axes) * self.n_grid

    def kinetic(self) -> np.ndarray:
        """Diagonal of -Laplacian/2 in the basis, i.e. |G|^2 / 2."""
        return 0.5 * self.g_norm2

    def __eq__(self, other):
        return (
            isinstance(other, PlaneWaveBasis)
            and self.cell == other.cell
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self.cell, self.cutoff))

    def __repr__(self):
        return (
            f"PlaneWaveBasis(cutoff={self.cutoff:.6g}, size={self.size}, "
            f"fft_shape={self.fft_shape})"
        )


def build_basis(cell: Cell, cutoff: float) -> PlaneWaveBasis:
    """Construct the plane-wave basis with |G|^2/2 <= cutoff."""
    return PlaneWaveBasis(cell, cutoff)


class GridFunction:
    """Samples of a periodic function on a basis' FFT grid."""

    __slots__ = ("basis", "values")

    def __init__(self, basis: PlaneWaveBasis, values):
        values = np.asarray(values)
        if values.shape != basis.fft_shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {basis.fft_shape}"
            )
        self.basis = basis
        self.values = values

    def integral(self) -> complex:
        """Trapezoid integral over the cell."""
        total = self.values.sum() * self.basis.quadrature_weight
        return total

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.basis, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.basis, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check(other)
            return GridFunction(self.basis, self.values * other.values)
        return GridFunction(self.basis, self.values * other)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, GridFunction) or other.basis != self.basis:
            raise ValueError("operands live on different grids")

    def __repr__(self):
        return f"GridFunction(shape={self.values.shape}, basis={self.basis!r})"


def l2_norm(u: GridFunction) -> float:
    """L2 norm over the cell (grid quadrature, = Parseval over grid modes)."""
    w = u.basis.quadrature_weight
    return float(np.sqrt(w * np.vdot(u.values, u.values).real))


def l2_inner(u: GridFunction, v: GridFunction) -> complex:
    """L2 inner product <u, v> with the conjugate on the first slot."""
    u._check(v)
    return complex(u.basis.quadrature_weight * np.vdot(u.values, v.values))


def h1_norm(u: GridFunction) -> float:
    """H1 norm: sum over grid modes of (1 + |G|^2) |u_G|^2, square-rooted."""
    spec = u.basis.grid_spectrum(u.values)
    total = np.sum((1.0 + u.basis.grid_g2) * np.abs(spec) ** 2)
    return float(np.sqrt(total))


def _resample(u: GridFunction, target: PlaneWaveBasis, modes) -> GridFunction:
    """Carry the plain Fourier coefficients of ``u`` at the integer
    ``modes`` onto the target grid; every other target mode is zero."""
    spec = u.basis.fourier_coefficients(u.values)
    out = np.zeros(target.fft_shape, dtype=complex)
    out[target.grid_index(modes)] = spec[u.basis.grid_index(modes)]
    return GridFunction(target, target.fourier_values(out))


def transfer(u: GridFunction, target: PlaneWaveBasis) -> GridFunction:
    """Re-express ``u`` on a finer basis' grid, preserving every mode.

    The target grid must contain the source grid modes (componentwise
    fft_shape >= source), which holds whenever target.cutoff >= source cutoff
    on the same cell.
    """
    src = u.basis
    if target.cell != src.cell:
        raise ValueError("transfer requires identical cells")
    if any(nt < ns for nt, ns in zip(target.fft_shape, src.fft_shape)):
        raise ValueError("target grid cannot represent all source modes")
    if target.fft_shape == src.fft_shape:
        return GridFunction(target, u.values.copy())
    return _resample(u, target, src.grid_modes.reshape(-1, src.cell.dimension))


def project(u: GridFunction, target: PlaneWaveBasis) -> GridFunction:
    """Fourier truncation onto the target basis ball.

    Zeroes every coefficient with |G|^2 > 2 E_c(target) and returns the
    result on the target grid.  This is simultaneously the L2- and the
    H1-orthogonal projection onto the target space.
    """
    src = u.basis
    if target.cell != src.cell:
        raise ValueError("projection requires identical cells")
    if target.cutoff > src.cutoff:
        raise ValueError(
            f"target cutoff {target.cutoff} exceeds source cutoff {src.cutoff}"
        )
    return _resample(u, target, target.g_int)


def resample(u: GridFunction, target: PlaneWaveBasis) -> GridFunction:
    """Real part of ``u`` carried onto the target grid, in either direction.

    Keeps every plain Fourier mode that both grids hold symmetrically,
    |n_k| <= (N_k - 1) // 2 for the smaller N_k of each axis, so the
    G = 0 mode (and with it the integral) survives and real input stays
    real; every other target mode is zero.  Used to start an SCF on one
    grid from a density converged on another.
    """
    src = u.basis
    if target.cell != src.cell:
        raise ValueError("resampling requires identical cells")
    half = [(min(ns, nt) - 1) // 2 for ns, nt in zip(src.fft_shape, target.fft_shape)]
    mesh = np.meshgrid(*(np.arange(-h, h + 1) for h in half), indexing="ij")
    modes = np.stack(mesh, axis=-1).reshape(-1, src.cell.dimension)
    return GridFunction(target, _resample(u, target, modes).values.real)
