"""Fermi-Dirac occupations, chemical-potential solves, and entropy."""

from __future__ import annotations

import numpy as np
from scipy.special import expit, xlogy

__all__ = [
    "Smearing",
    "fermi_dirac",
    "fermi_dirac_dmu",
    "solve_mu",
    "entropy",
]

MU_TOL_REL = 1e-12
_EPS = float(np.finfo(float).eps)


class Smearing:
    """Finite-temperature occupation model, beta in inverse hartree."""

    def __init__(self, beta: float):
        beta = float(beta)
        if not np.isfinite(beta) or beta <= 0:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        self.beta = beta

    def __repr__(self):
        return f"Smearing(beta={self.beta:.6g})"


def fermi_dirac(eigenvalues, mu, smearing: Smearing):
    """f_i = 1 / (1 + exp(beta (eps_i - mu))), overflow safe for any argument."""
    x = smearing.beta * (np.asarray(eigenvalues, dtype=float) - mu)
    return expit(-x)


def fermi_dirac_dmu(eigenvalues, mu, smearing: Smearing, convention: str = "paper"):
    """Occupation response to the chemical potential.

    ``convention="paper"`` reproduces the printed expression
    g_mu(x) = (-beta e^{beta(x-mu)}) (1 + e^{beta(x-mu)})^{-2} = -beta f (1-f);
    ``convention="analytic"`` returns the calculus derivative d f / d mu,
    which is +beta f (1-f).  Both are exposed because downstream solves are
    validated under either sign.
    """
    x = smearing.beta * (np.asarray(eigenvalues, dtype=float) - mu)
    magnitude = smearing.beta * expit(-x) * expit(x)
    if convention == "paper":
        return -magnitude
    if convention == "analytic":
        return magnitude
    raise ValueError(f"unknown convention {convention!r}")


def solve_mu(eigenvalues, n_electrons, smearing: Smearing) -> float:
    """Find mu with S(mu) = sum_i f_i(mu) = N to roundoff.

    For m states the root lies in a closed-form bracket:
    lo = min lambda - (ln(m/N) + 1)/beta gives S(lo) <= m/(1 + e m/N) < N,
    and hi = max lambda + (|ln(N/(m-N))| + 1)/beta gives
    S(hi) >= m/(1 + (m-N)/(e N)) > N.  Newton steps on S start at the
    midpoint; each iterate replaces one end of the bracket, and a step that
    leaves the bracket becomes a bisection.  The iteration stops when a
    Newton step no longer moves mu (mu is then the nearest double to the
    root of the linearised sum) or the bracket has collapsed to a few ulps.
    It returns the iterate with the smallest |S - N|, and raises if that is
    above MU_TOL_REL N unless the next double towards the root gives S - N
    of the other sign (at large beta one ulp of mu can move S by more).
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.ndim != 1 or eigenvalues.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1d array")
    n_electrons = float(n_electrons)
    m = eigenvalues.size
    if not 0.0 < n_electrons < m:
        raise ValueError(
            f"electron count {n_electrons} not strictly between 0 and {m} states"
        )
    beta = smearing.beta
    lo = float(eigenvalues.min() - (np.log(m / n_electrons) + 1.0) / beta)
    hi = float(eigenvalues.max()
               + (abs(np.log(n_electrons / (m - n_electrons))) + 1.0) / beta)

    mu = best_mu = 0.5 * (lo + hi)
    best = np.inf
    for _ in range(200):
        f = expit(-(beta * (eigenvalues - mu)))   # fermi_dirac, inlined
        resid = float(f.sum()) - n_electrons
        if abs(resid) < abs(best):
            best_mu, best = mu, resid
        if resid < 0.0:
            lo = mu
        else:
            hi = mu
        slope = float(beta * (f * (1.0 - f)).sum())
        step = mu - resid / slope if slope > 0.0 else 0.5 * (lo + hi)
        if step == mu or hi - lo <= 4.0 * _EPS * max(1.0, abs(mu)):
            break
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    if abs(best) > MU_TOL_REL * n_electrons:
        across = np.nextafter(best_mu, -np.sign(best) * np.inf)
        if (fermi_dirac(eigenvalues, across, smearing).sum() - n_electrons) * best > 0.0:
            raise RuntimeError(
                f"chemical potential iteration stalled, |residual| = {abs(best):.3e}"
            )
    return best_mu


def entropy(occupations, smearing: Smearing) -> float:
    """S = beta^-1 sum_i [f ln f + (1-f) ln(1-f)], always <= 0.

    0 ln 0 counts as zero; occupations may stray from [0, 1] by at most
    1e-12 (they are clipped before evaluation).
    """
    f = np.asarray(occupations, dtype=float)
    if f.size and (f.min() < -1e-12 or f.max() > 1.0 + 1e-12):
        raise ValueError("occupations outside [0, 1] beyond 1e-12 tolerance")
    f = np.clip(f, 0.0, 1.0)
    s = xlogy(f, f) + xlogy(1.0 - f, 1.0 - f)
    return float(s.sum() / smearing.beta)
