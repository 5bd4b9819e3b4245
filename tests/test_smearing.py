"""Occupations, chemical-potential solves, and the entropy term."""

import warnings

import numpy as np
import pytest

from mks.smearing import (
    MU_TOL_REL,
    Smearing,
    entropy,
    fermi_dirac,
    fermi_dirac_dmu,
    solve_mu,
)

# f ln f + (1-f) ln(1-f) at f = 1/4, i.e. entropy * beta for one state
ENTROPY_QUARTER = 0.25 * np.log(0.25) + 0.75 * np.log(0.75)


def _solve_mu_oracle(eigenvalues, n_electrons, beta, tol=1e-13):
    """Plain bisection, independent of the package's Newton refinement."""
    lo = eigenvalues.min() - 50.0 / beta
    hi = eigenvalues.max() + 50.0 / beta

    def count(mu):
        with np.errstate(over="ignore"):
            return np.sum(1.0 / (1.0 + np.exp(beta * (eigenvalues - mu))))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if count(mid) < n_electrons:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_fermi_dirac_pinned_values():
    sm = Smearing(7.0)
    mu = 0.3
    assert fermi_dirac(np.array([mu]), mu, sm)[0] == pytest.approx(0.5, abs=1e-15)
    eps = mu + np.log(3.0) / sm.beta
    assert fermi_dirac(np.array([eps]), mu, sm)[0] == pytest.approx(0.25, abs=1e-14)


def test_fermi_dirac_extreme_arguments_do_not_overflow():
    sm = Smearing(13.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = fermi_dirac(np.array([1e4 / sm.beta, -1e4 / sm.beta]), 0.0, sm)
    assert f[0] == 0.0
    assert f[1] == 1.0


def test_fermi_dirac_dmu_conventions():
    sm = Smearing(6.0)
    mu = -0.2
    paper = fermi_dirac_dmu(np.array([mu]), mu, sm, convention="paper")[0]
    assert paper == pytest.approx(-sm.beta / 4.0, abs=1e-14)
    # the analytic convention is the calculus derivative d f / d mu
    eps = np.array([-0.9, -0.1, 0.4])
    h = 1e-6
    fd = (fermi_dirac(eps, mu + h, sm) - fermi_dirac(eps, mu - h, sm)) / (2.0 * h)
    analytic = fermi_dirac_dmu(eps, mu, sm, convention="analytic")
    np.testing.assert_allclose(analytic, fd, rtol=1e-7)
    np.testing.assert_allclose(
        fermi_dirac_dmu(eps, mu, sm, convention="paper"), -analytic
    )
    with pytest.raises(ValueError):
        fermi_dirac_dmu(eps, mu, sm, convention="signless")


def test_solve_mu_two_levels_symmetric():
    # one electron in {0, delta} puts mu exactly at the midpoint
    sm = Smearing(11.0)
    mu = solve_mu(np.array([0.0, 0.7]), 1.0, sm)
    assert mu == pytest.approx(0.35, abs=1e-12)


def test_solve_mu_equal_levels_closed_form():
    sm = Smearing(9.0)
    lam = np.full(5, -0.3)
    mu = solve_mu(lam, 2.0, sm)
    # m f(lam0) = N gives mu = lam0 - beta^-1 ln(m/N - 1)
    assert mu == pytest.approx(-0.3 - np.log(1.5) / sm.beta, abs=1e-12)


@pytest.mark.parametrize("beta", [2.0, 40.0, 400.0])
def test_solve_mu_matches_bisection_oracle(beta):
    rng = np.random.default_rng(3)
    lam = np.sort(rng.normal(size=12))
    sm = Smearing(beta)
    mu = solve_mu(lam, 3.0, sm)
    # exact to the roundoff of the occupation sum
    roundoff = lam.size * np.finfo(float).eps * 3.0
    assert abs(float(fermi_dirac(lam, mu, sm).sum()) - 3.0) <= roundoff
    # independent occupation formula at the returned mu
    with np.errstate(over="ignore"):
        count = float(np.sum(1.0 / (1.0 + np.exp(beta * (lam - mu)))))
    assert count == pytest.approx(3.0, abs=1e-11)
    if beta <= 40.0:
        # the root is unique at these temperatures; at beta = 400 the
        # occupation sum is flat across the gap and any mu inside works
        assert mu == pytest.approx(_solve_mu_oracle(lam, 3.0, beta), abs=1e-9)


def stress_grid(betas, seed):
    """Electron counts next to 0 and next to m, equal and spread spectra."""
    rng = np.random.default_rng(seed)
    for beta in betas:
        sm = Smearing(beta)
        for m in range(1, 41):
            for lam in (np.sort(rng.normal(size=m)), np.full(m, 0.37)):
                for n in (1e-9, 0.3, m / 2, m - 0.3, m - 1e-9):
                    yield lam, n, sm


def test_solve_mu_stress_grid():
    # from nearly infinite temperature up to beta = 1e3; above that adjacent
    # doubles of mu can move the sum by more than MU_TOL_REL N
    for lam, n, sm in stress_grid(10.0 ** np.arange(-3, 4), seed=0):
        mu = solve_mu(lam, n, sm)
        resid = float(fermi_dirac(lam, mu, sm).sum()) - n
        assert abs(resid) <= MU_TOL_REL * n, (sm.beta, lam.size, n)


def straddles_at_nearest_double(lam, n, mu, sm):
    """True when S(mu) - N and S at the next double towards the root have
    opposite signs, and no neighbouring double has a smaller |S - N|."""
    def resid(x):
        return float(fermi_dirac(lam, x, sm).sum()) - n

    r = resid(mu)
    below, above = (resid(np.nextafter(mu, d)) for d in (-np.inf, np.inf))
    across = above if r < 0.0 else below
    return r * across <= 0.0 and abs(r) <= min(abs(below), abs(above))


def test_solve_mu_returns_the_nearest_double_past_the_tolerance():
    # one ulp of mu moves S by 4.7e-11 here, so no double meets
    # MU_TOL_REL N = 3e-13: the closest one is returned, not a stall
    lam = np.linspace(-1.0, 1.0, 12)
    sm = Smearing(1e6)
    mu = solve_mu(lam, 0.3, sm)
    assert mu == -1.0000008472978603
    resid = float(fermi_dirac(lam, mu, sm).sum()) - 0.3
    assert MU_TOL_REL * 0.3 < abs(resid) < 2e-11
    assert straddles_at_nearest_double(lam, 0.3, mu, sm)


def test_solve_mu_stress_grid_at_low_temperature():
    # each solve meets MU_TOL_REL N or returns the double nearest the root
    for lam, n, sm in stress_grid((1e4, 1e5, 1e6), seed=1):
        mu = solve_mu(lam, n, sm)
        resid = float(fermi_dirac(lam, mu, sm).sum()) - n
        assert (abs(resid) <= MU_TOL_REL * n
                or straddles_at_nearest_double(lam, n, mu, sm)), (sm.beta, lam.size, n)


def newton_mu_oracle(eigenvalues, n_electrons, smearing):
    """solve_mu's safeguarded Newton iteration as first written, through
    fermi_dirac and np.finfo on every step (the stall check left out)."""
    m = eigenvalues.size
    beta = smearing.beta
    lo = float(eigenvalues.min() - (np.log(m / n_electrons) + 1.0) / beta)
    hi = float(eigenvalues.max()
               + (abs(np.log(n_electrons / (m - n_electrons))) + 1.0) / beta)
    mu = best_mu = 0.5 * (lo + hi)
    best = np.inf
    for _ in range(200):
        f = fermi_dirac(eigenvalues, mu, smearing)
        resid = float(f.sum()) - n_electrons
        if abs(resid) < abs(best):
            best_mu, best = mu, resid
        if resid < 0.0:
            lo = mu
        else:
            hi = mu
        slope = float(beta * (f * (1.0 - f)).sum())
        step = mu - resid / slope if slope > 0.0 else 0.5 * (lo + hi)
        if step == mu or hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(mu)):
            break
        mu = step if lo < step < hi else 0.5 * (lo + hi)
    return best_mu


def test_solve_mu_is_bitwise_the_newton_oracle():
    grids = (stress_grid(10.0 ** np.arange(-3, 4), seed=0),
             stress_grid((1e4, 1e5, 1e6), seed=1))
    for grid in grids:
        for lam, n, sm in grid:
            assert solve_mu(lam, n, sm) == newton_mu_oracle(lam, n, sm), (
                sm.beta, lam.size, n)


def test_solve_mu_input_validation():
    sm = Smearing(5.0)
    with pytest.raises(ValueError):
        solve_mu(np.array([0.0, 1.0]), 2.0, sm)
    with pytest.raises(ValueError):
        solve_mu(np.array([0.0, 1.0]), 0.0, sm)
    with pytest.raises(ValueError):
        solve_mu(np.array([]), 1.0, sm)


def test_entropy_pinned_value():
    for beta in (1.0, 2.0, 50.0):
        s = entropy(np.array([0.25]), Smearing(beta))
        assert s == pytest.approx(ENTROPY_QUARTER / beta, rel=1e-14)


def test_entropy_endpoints_are_zero():
    sm = Smearing(4.0)
    assert entropy(np.array([0.0, 1.0]), sm) == 0.0
    s = entropy(np.array([0.0, 1.0, 0.5]), sm)
    assert s == pytest.approx(np.log(0.5) / sm.beta, rel=1e-14)
    assert s < 0.0


def test_entropy_rejects_out_of_range():
    sm = Smearing(4.0)
    with pytest.raises(ValueError):
        entropy(np.array([1.1]), sm)
    with pytest.raises(ValueError):
        entropy(np.array([-0.2]), sm)
    # 1e-12 drift is clipped, not rejected
    assert np.isfinite(entropy(np.array([1.0 + 0.5e-12]), sm))


def test_entropy_summand_midpoint_inequality():
    # f ln f + (1-f) ln(1-f) is convex, so the midpoint lies below the mean
    rng = np.random.default_rng(8)
    sm = Smearing(3.0)
    for _ in range(25):
        f1 = rng.uniform(0.001, 0.999, size=6)
        f2 = rng.uniform(0.001, 0.999, size=6)
        mid = entropy(0.5 * (f1 + f2), sm)
        mean = 0.5 * (entropy(f1, sm) + entropy(f2, sm))
        assert mid <= mean + 1e-14


def test_smearing_rejects_bad_beta():
    for beta in (0.0, -3.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            Smearing(beta)
