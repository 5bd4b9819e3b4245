"""External potentials, exchange-correlation models, and the Hartree term.

The Hartree kernel is the periodic Coulomb multiplier 4 pi / |G|^2 with the
G = 0 component removed (neutralizing background), used in every dimension
as a model choice.  Exchange-correlation enters through a local functional
t -> e_xc(t) with three derivatives and explicit growth constants, so the
assumptions on the energy can be audited numerically.

The SCF needs these terms in two forms, at two densities: the potential of
H(rho_in) and the energies of F(Gamma_out).  ``assemble_effective`` makes
the first, v_eff = v_ext + v_H + e_xc'(rho), and ``interaction_energies``
the second, (e_ext, e_hartree, e_xc), from one forward FFT and e_xc.
"""

from __future__ import annotations

import numpy as np

from .cell import GridFunction, PlaneWaveBasis

__all__ = [
    "ExternalPotential",
    "gaussian_wells",
    "cosine_series",
    "XcFunctional",
    "dirac_exchange",
    "dirac_corr",
    "power_law_xc",
    "null_xc",
    "audit_xc",
    "assemble_effective",
    "interaction_energies",
]

DIRAC_COEFF = 0.738558766  # (3/4) (3/pi)^(1/3)
DENSITY_FLOOR = 1e-12
XC_AUDIT_SAMPLES = 513
XC_AUDIT_FD_RTOL = 1e-6


class ExternalPotential:
    """Smooth periodic external potential, synthesized spectrally.

    It holds one function: ``spectrum(basis)`` returns the plain
    Fourier-series coefficients vhat(G) of the potential,
    v(r) = sum_G vhat(G) exp(i G . r), on every mode of the basis' FFT
    grid, in FFT layout (shape ``basis.fft_shape``).  The factories
    ``gaussian_wells`` and ``cosine_series`` build it from model
    parameters; the zero potential is ``ExternalPotential.zero()``.
    """

    def __init__(self, spectrum):
        self.spectrum = spectrum
        self._cache = {}

    @classmethod
    def zero(cls):
        return cls(lambda basis: np.zeros(basis.fft_shape))

    def evaluate(self, basis: PlaneWaveBasis) -> GridFunction:
        """Sample the potential on the basis' FFT grid."""
        cached = self._cache.get(basis)
        if cached is None:
            cached = GridFunction(basis, basis.fourier_values(self.spectrum(basis)))
            self._cache[basis] = cached
        return cached


def gaussian_wells(centers, depths, widths) -> ExternalPotential:
    """Periodized Gaussians sum_c depth_c exp(-|r - c|^2 / (2 w_c^2)), with
    analytically known Fourier coefficients; the tail beyond the FFT grid
    is dropped."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    depths = np.atleast_1d(np.asarray(depths, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    if not (len(centers) == len(depths) == len(widths)):
        raise ValueError("centers, depths, widths must have equal length")
    if np.any(widths <= 0):
        raise ValueError("gaussian widths must be positive")

    def spectrum(basis):
        cell, d = basis.cell, basis.cell.dimension
        g_cart = basis.grid_modes @ cell.reciprocal
        g2 = np.einsum("...i,...i->...", g_cart, g_cart)
        out = np.zeros(g_cart.shape[:-1], dtype=complex)
        for center, depth, width in zip(centers, depths, widths):
            amp = depth * (2.0 * np.pi * width**2) ** (d / 2.0) / cell.volume
            phase = np.exp(-1j * (g_cart @ center))
            out += amp * np.exp(-0.5 * g2 * width**2) * phase
        return out

    return ExternalPotential(spectrum)


def cosine_series(modes, amplitudes) -> ExternalPotential:
    """sum_j amp_j cos(G_j . r) for integer modes n_j; a mode outside the
    FFT grid (|n_k| > (N_k - 1)//2 on some axis) is dropped, as the
    Gaussian tail is, instead of aliasing."""
    modes = np.atleast_2d(np.asarray(modes, dtype=int))
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if len(modes) != len(amplitudes):
        raise ValueError("modes and amplitudes must have equal length")

    def spectrum(basis):
        spec = np.zeros(basis.fft_shape, dtype=complex)
        largest = (np.asarray(basis.fft_shape) - 1) // 2
        fits = np.all(np.abs(modes) <= largest, axis=1)
        for mode, amp in zip(modes[fits], amplitudes[fits]):
            for sign in (1, -1):
                spec[basis.grid_index(sign * mode)] += 0.5 * amp
        return spec

    return ExternalPotential(spectrum)


class XcFunctional:
    """Local density functional with three derivatives and growth constants.

    The stored constants assert
        |e(t)|            <= c0 (1 + t^(4/3)),
        |e'(t)| + |t e''(t)|   <= c1 (1 + t^p1),
        |e''(t)| + |t e'''(t)| <= c2 (1 + t^(p2-1)),
    for t >= 0, with p1 in [0, 2] and p2 in (0, 1].  Densities are clamped
    at DENSITY_FLOOR before fractional powers are taken.
    """

    def __init__(self, name, e, d1, d2, d3, c0, c1, c2, p1, p2):
        self.name = name
        self._e, self._d1, self._d2, self._d3 = e, d1, d2, d3
        self.c0, self.c1, self.c2 = float(c0), float(c1), float(c2)
        self.p1, self.p2 = float(p1), float(p2)
        if not 0.0 <= self.p1 <= 2.0:
            raise ValueError(f"p1 must lie in [0, 2], got {self.p1}")
        if not 0.0 < self.p2 <= 1.0:
            raise ValueError(f"p2 must lie in (0, 1], got {self.p2}")

    def _clamp(self, t):
        return np.maximum(np.asarray(t, dtype=float), DENSITY_FLOOR)

    def e(self, t):
        return self._e(self._clamp(t))

    def d1(self, t):
        return self._d1(self._clamp(t))

    def d2(self, t):
        return self._d2(self._clamp(t))

    def d3(self, t):
        return self._d3(self._clamp(t))

    def __repr__(self):
        return f"XcFunctional({self.name!r})"


def power_law_xc(coefficient, power=4.0 / 3.0, name=None) -> XcFunctional:
    """e(t) = -c t^p with 1 < p <= 4/3 and c > 0."""
    c, p = float(coefficient), float(power)
    if not 1.0 < p <= 4.0 / 3.0:
        raise ValueError(f"power must lie in (1, 4/3], got {p}")
    if c <= 0:
        raise ValueError("coefficient must be positive")
    return XcFunctional(
        name or f"power_law({c:g},{p:g})",
        e=lambda t: -c * t**p,
        d1=lambda t: -c * p * t ** (p - 1.0),
        d2=lambda t: -c * p * (p - 1.0) * t ** (p - 2.0),
        d3=lambda t: -c * p * (p - 1.0) * (p - 2.0) * t ** (p - 3.0),
        c0=c,
        c1=c * p * p,
        c2=c * p * (p - 1.0) * (1.0 + abs(p - 2.0)),
        p1=p - 1.0,
        p2=p - 1.0,
    )


def dirac_exchange() -> XcFunctional:
    """Exchange-only model e(t) = -c_D t^(4/3)."""
    xc = power_law_xc(DIRAC_COEFF, 4.0 / 3.0, name="dirac")
    return xc


# parameters of the optional smooth correlation-like term -a t^2 / (1 + b t)
_CORR_A = 0.05
_CORR_B = 1.0


def dirac_corr() -> XcFunctional:
    """Dirac exchange plus a smooth correlation-like term -a t^2/(1+b t)."""
    base = dirac_exchange()
    a, b = _CORR_A, _CORR_B

    def ec(t):
        return -a * t**2 / (1.0 + b * t)

    def ec1(t):
        return -a * t * (2.0 + b * t) / (1.0 + b * t) ** 2

    def ec2(t):
        return -2.0 * a / (1.0 + b * t) ** 3

    def ec3(t):
        return 6.0 * a * b / (1.0 + b * t) ** 4

    return XcFunctional(
        "dirac+corr",
        e=lambda t: base._e(t) + ec(t),
        d1=lambda t: base._d1(t) + ec1(t),
        d2=lambda t: base._d2(t) + ec2(t),
        d3=lambda t: base._d3(t) + ec3(t),
        # sup_t |ec'| <= a/b and sup_t |t ec''| <= 8a/(27 b); |ec''| <= 2a
        # and |t ec'''| <= 6a max u/(1+u)^4 <= 0.64 a
        c0=base.c0 + a / b,
        c1=base.c1 + a / b * 1.3,
        c2=base.c2 + 2.7 * a,
        p1=base.p1,
        p2=base.p2,
    )


def null_xc() -> XcFunctional:
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return XcFunctional("none", zero, zero, zero, zero, 0.0, 0.0, 0.0, 0.0, 1.0)


def audit_xc(xc: XcFunctional):
    """Check the stored growth constants and the first derivative numerically.

    Samples a log grid t in [1e-4, 1e4] for the three growth bounds and
    compares d1 against centered finite differences of e on [0.01, 10].
    Returns a report dict; ``passed`` is False on any violation.
    """
    t = np.logspace(-4, 4, XC_AUDIT_SAMPLES)
    slack = 1.0 + 1e-9  # roundoff allowance for bounds that are tight at infinity

    def max_ratio(value, bound):
        # a zero bound holds only a zero value: 0/0 reads 0, x/0 reads inf
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.max(np.where(value == 0.0, 0.0, value / bound)))

    ratios = {
        "a2_max_ratio": max_ratio(
            np.abs(xc.e(t)), xc.c0 * (1.0 + t ** (4.0 / 3.0))
        ),
        "a3_first_max_ratio": max_ratio(
            np.abs(xc.d1(t)) + np.abs(t * xc.d2(t)), xc.c1 * (1.0 + t**xc.p1)
        ),
        "a3_second_max_ratio": max_ratio(
            np.abs(xc.d2(t)) + np.abs(t * xc.d3(t)),
            xc.c2 * (1.0 + t ** (xc.p2 - 1.0)),
        ),
    }

    tf = np.logspace(np.log10(0.01), 1.0, 101)
    h = 3e-5 * tf
    fd = (xc.e(tf + h) - xc.e(tf - h)) / (2.0 * h)
    d1 = xc.d1(tf)
    denom = np.maximum(np.abs(d1), 1e-30)
    fd_err = float(np.max(np.abs(fd - d1) / denom))

    passed = all(v <= slack for v in ratios.values()) and fd_err <= XC_AUDIT_FD_RTOL
    return {
        "name": xc.name,
        "constants": {
            "c0": xc.c0,
            "c1": xc.c1,
            "c2": xc.c2,
            "p1": xc.p1,
            "p2": xc.p2,
        },
        **ratios,
        "d1_fd_max_rel_err": fd_err,
        "passed": bool(passed),
    }


def coulomb_solve(basis: PlaneWaveBasis, values) -> np.ndarray:
    """Grid values of the Coulomb potential sum_{G != 0} 4 pi rhohat(G) /
    |G|^2 exp(i G.r) of real grid samples with plain Fourier coefficients
    rhohat.  Shared by ``assemble_effective`` and the response kernel; not
    a model term, so not in ``__all__``."""
    plain = basis.fourier_coefficients(values)
    return basis.fourier_values(basis.coulomb_multiplier * plain)


def assemble_effective(rho: GridFunction, external: ExternalPotential,
                       xc: XcFunctional, hartree_on=True) -> GridFunction:
    """v_eff = v_ext + v_H(rho) + e_xc'(rho), the potential of H(rho).

    vhat_H(G) = 4 pi rhohat(G) / |G|^2 with the G = 0 component dropped;
    with ``hartree_on`` False the Hartree term is zero.
    """
    basis = rho.basis
    v_h = coulomb_solve(basis, rho.values) if hartree_on else 0.0
    return GridFunction(basis, external.evaluate(basis).values + v_h
                        + xc.d1(rho.values))


def interaction_energies(rho: GridFunction, external: ExternalPotential,
                         xc: XcFunctional, hartree_on=True):
    """(e_ext, e_hartree, e_xc) of a real density.

    e_ext = int v_ext rho, e_hartree = (1/2) sum_G khat(G) |rhohat(G)|^2
    >= 0 in the orthonormal-coefficient convention (zero with
    ``hartree_on`` False), and e_xc = int e(rho).
    """
    basis = rho.basis
    weight = basis.quadrature_weight
    e_ext = float(np.sum(external.evaluate(basis).values * rho.values) * weight)
    e_h = 0.0
    if hartree_on:
        plain = basis.fourier_coefficients(rho.values)
        e_h = 0.5 * basis.cell.volume * float(
            np.sum(basis.coulomb_multiplier * np.abs(plain) ** 2))
    e_xc = float(np.sum(xc.e(rho.values)) * weight)
    return e_ext, e_h, e_xc
