"""Periodic cells, plane-wave bases, and FFT-grid transforms.

Conventions used throughout the package:

* lattice vectors are the rows of ``Cell.lattice``; reciprocal vectors are
  the rows of ``Cell.reciprocal`` and satisfy a_i . b_j = 2 pi delta_ij,
* real-space samples live on the uniform FFT grid r_j = sum_k (j_k/N_k) a_k
  and integrals are FFT-grid trapezoid sums, exact for represented modes,
* orbitals use orthonormal coefficients of e_G(r) = |Omega|^(-1/2)
  exp(i G.r), so Parseval holds without volume factors (``to_grid``,
  ``from_grid``); potentials and densities use plain Fourier series
  v(r) = sum_G vhat(G) exp(i G.r) (``fourier_coefficients``,
  ``fourier_values``),
* a ``GridFunction`` holds a real field (a density or a potential) and
  refuses complex samples; orbitals on the grid are plain arrays, float64
  from ``real_to_grid`` for real functions (c(-G) = conj c(G)), two to a
  complex FFT, and complex from ``to_grid`` otherwise,
* ``resample`` is the one way a field moves to another basis' grid.

Every transform in the package goes through ``PlaneWaveBasis``, on the
trailing axes of its input, so a block of orbitals is one call.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np
from scipy.fft import fft, fftn, ifft, ifftn, next_fast_len

__all__ = [
    "Cell",
    "PlaneWaveBasis",
    "GridFunction",
    "build_basis",
    "l2_norm",
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
        if not np.isfinite(lattice).all():
            raise ValueError("lattice vectors must be finite")
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
        if not 0 < cutoff < np.inf:
            raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
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
        if d == 1:
            # fft and ifft give fftn's and ifftn's results on the last axis
            # bitwise, with about half their fixed cost a call
            self._fft, self._ifft = fft, ifft
        else:
            axes = tuple(range(-d, 0))
            self._fft, self._ifft = partial(fftn, axes=axes), partial(ifftn, axes=axes)
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

    # -- transforms ------------------------------------------------------

    def to_grid(self, coefficients) -> np.ndarray:
        """Synthesize ``sum_G c_G e_G`` on the FFT grid.

        Coefficients of shape (..., size) give complex samples of shape
        (..., *fft_shape).  The transform is unitary with respect to the
        coefficient l2 norm and the grid quadrature.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.shape[-1:] != (self.size,):
            raise ValueError(
                f"expected {self.size} coefficients, got shape {coefficients.shape}"
            )
        spec = np.zeros(coefficients.shape[:-1] + self.fft_shape, dtype=complex)
        spec[(Ellipsis,) + self._grid_index] = coefficients
        values = self._ifft(spec)
        values *= self.n_grid / np.sqrt(self.cell.volume)
        return values

    def real_to_grid(self, coefficients) -> np.ndarray:
        """Synthesize real functions ``sum_G c_G e_G``, two per complex FFT.

        Each row of the (m, size) block must satisfy c(-G) = conj c(G),
        where the partner of index i is size - 1 - i; the caller checks
        that.  Rows a and b are packed as c_a + i c_b, whose synthesis is
        phi_a + i phi_b, and an odd m is padded with one zero row.  Returns
        C-contiguous float64 samples of shape (m, n_grid), each row a
        flattened grid, scaled as ``to_grid``.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.ndim != 2 or coefficients.shape[1] != self.size:
            raise ValueError(
                f"expected (m, {self.size}) coefficients, got shape {coefficients.shape}"
            )
        m = coefficients.shape[0]
        pairs = (m + 1) // 2
        packed = coefficients[0::2].astype(complex)
        packed[: m // 2] += 1j * coefficients[1::2]
        spec = np.zeros((pairs,) + self.fft_shape, dtype=complex)
        spec[(Ellipsis,) + self._grid_index] = packed
        values = self._ifft(spec, overwrite_x=True)
        values = values.reshape(pairs, self.n_grid)
        scale = self.n_grid / np.sqrt(self.cell.volume)
        samples = np.empty((2 * pairs, self.n_grid))
        np.multiply(values.real, scale, out=samples[0::2])
        np.multiply(values.imag, scale, out=samples[1::2])
        return samples[:m]

    def from_grid(self, values) -> np.ndarray:
        """Extract basis coefficients from grid samples (inverse of to_grid
        on the represented subspace); leading axes are kept."""
        values = np.asarray(values)
        if values.shape[-len(self.fft_shape):] != self.fft_shape:
            raise ValueError(
                f"expected grid shape {self.fft_shape}, got {values.shape}"
            )
        spec = self._fft(values)
        spec *= np.sqrt(self.cell.volume) / self.n_grid
        return spec[(Ellipsis,) + self._grid_index]

    def fourier_coefficients(self, values) -> np.ndarray:
        """Plain Fourier-series coefficients vhat(G) of grid samples."""
        return self._fft(values) / self.n_grid

    def fourier_values(self, coefficients) -> np.ndarray:
        """Real grid samples of sum_G vhat(G) exp(i G.r); the imaginary
        part, roundoff for the Hermitian vhat of a real field, is dropped."""
        return self._ifft(coefficients).real * self.n_grid

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
    """Samples of a real periodic field on a basis' FFT grid."""

    __slots__ = ("basis", "values")

    def __init__(self, basis: PlaneWaveBasis, values):
        values = np.asarray(values)
        if values.shape != basis.fft_shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {basis.fft_shape}"
            )
        if np.iscomplexobj(values):
            raise ValueError("a grid function holds a real field, got complex values")
        self.basis = basis
        self.values = values

    def integral(self) -> float:
        """Trapezoid integral over the cell."""
        return float(self.values.sum() * self.basis.quadrature_weight)

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
    return float(np.sqrt(w * np.vdot(u.values, u.values)))


def resample(u: GridFunction, target: PlaneWaveBasis) -> GridFunction:
    """``u`` carried onto the target grid, in either direction.

    Keeps every plain Fourier mode that both grids hold symmetrically,
    |n_k| <= (N_k - 1) // 2 for the smaller N_k of each axis, so the
    G = 0 mode (and with it the integral) survives and the field stays
    real; every other target mode is zero.  A density of a basis has
    modes up to 2 max|n_k| on a grid of at least 4 max|n_k| + 1 points,
    so moving it to a grid at least as fine keeps all of it.
    """
    src = u.basis
    if target.cell != src.cell:
        raise ValueError("resampling requires identical cells")
    half = [(min(ns, nt) - 1) // 2 for ns, nt in zip(src.fft_shape, target.fft_shape)]
    mesh = np.meshgrid(*(np.arange(-h, h + 1) for h in half), indexing="ij")
    modes = np.stack(mesh, axis=-1).reshape(-1, src.cell.dimension)
    spec = src.fourier_coefficients(u.values)
    out = np.zeros(target.fft_shape, dtype=complex)
    out[target.grid_index(modes)] = spec[src.grid_index(modes)]
    return GridFunction(target, target.fourier_values(out))
