"""Cutoff sweeps, decay fits, and quasi-optimality ratios.

The noninteracting benchmark admits a closed smeared-sum free energy at
every cutoff, which pins each sweep row independently of the SCF loop.
"""

import copy

import numpy as np
import pytest
from scipy.special import xlogy

from conftest import converged_state, spy_on_run_scf
from mks import harness
from mks.cell import l2_norm
from mks.config import ConfigError, RunConfig, bundled_config_path
from mks.density_matrix import DensityMatrix, s11_distance
from mks.harness import (
    CSV_COLUMNS,
    SweepResult,
    _point_errors,
    fit_decay,
    quasi_optimality,
    run_single,
    run_sweep,
)
from mks.scf import ScfError

MINIMAL_CFG = """
[cell]
dimension = 1
lattice = 6.283185307179586

[system]
n_electrons = 2
beta = 10.0
cutoff = 8.0
"""


def test_run_single_solves_the_model_built_at_load():
    cfg = RunConfig.from_file("si1d")
    state = run_single(cfg)
    assert state.external is cfg.external and state.xc is cfg.xc
    assert state.basis.cell is cfg.cell


def free_particle_free_energy(cutoff, beta, n_electrons=2.0):
    """Smeared free energy of free 1d electrons on a 2 pi cell, by direct
    enumeration of the modes |n|^2 / 2 <= cutoff and bisection on mu."""
    nmax = int(np.floor(np.sqrt(2.0 * cutoff)))
    lam = 0.5 * np.arange(-nmax, nmax + 1, dtype=float) ** 2

    def count(mu):
        return float(np.sum(1.0 / (1.0 + np.exp(np.clip(beta * (lam - mu), -700, 700)))))

    lo, hi = lam.min() - 100.0, lam.max() + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if count(mid) < n_electrons:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    f = 1.0 / (1.0 + np.exp(np.clip(beta * (lam - mu), -700, 700)))
    entropy = float(np.sum(xlogy(f, f) + xlogy(1.0 - f, 1.0 - f)))
    return float(np.sum(f * lam)) + entropy / beta


# -- decay fits --------------------------------------------------------------


def test_fit_decay_recovers_exponential_model():
    cutoffs = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    errors = 3.0 * np.exp(-0.8 * cutoffs)
    fit = fit_decay(cutoffs, errors)
    assert fit["model"] == "exponential"
    assert fit["slope"] == pytest.approx(-0.8, rel=1e-10)
    assert fit["intercept"] == pytest.approx(np.log(3.0), rel=1e-10)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
    assert fit["n_points"] == 5
    assert fit["exponential"]["r2"] >= fit["algebraic"]["r2"]


def test_fit_decay_recovers_algebraic_model():
    cutoffs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    errors = 5.0 * cutoffs**-3.0
    fit = fit_decay(cutoffs, errors)
    assert fit["model"] == "algebraic"
    assert fit["slope"] == pytest.approx(-3.0, rel=1e-10)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_masks_points_at_the_floor():
    cutoffs = np.arange(1.0, 8.0)
    errors = np.exp(-1.1 * cutoffs)
    errors[-2:] = 1e-14
    fit = fit_decay(cutoffs, errors, floor=1e-12)
    assert fit["n_points"] == 5
    assert fit["floor"] == 1e-12
    assert fit["model"] == "exponential"
    assert fit["slope"] == pytest.approx(-1.1, rel=1e-9)


def test_fit_decay_needs_four_points():
    with pytest.raises(ValueError, match="at least 4 points"):
        fit_decay([1.0, 2.0, 3.0], [0.1, 0.01, 0.001])
    with pytest.raises(ValueError, match="at least 4 points"):
        fit_decay(np.arange(1.0, 7.0), np.full(6, 1e-15), floor=1e-12)


# -- single runs -------------------------------------------------------------


def test_run_single_tighten_scales_tolerances():
    cfg = RunConfig.from_file("si1d")
    state = run_single(cfg, tighten=0.1)
    assert state.converged
    assert state.residual_density <= 0.1 * cfg.tol_rho


def test_run_single_cutoff_and_beta_overrides():
    cfg = RunConfig.from_file("free1d")
    state = run_single(cfg, cutoff=12.0, beta=2.0)
    assert state.smearing.beta == 2.0
    assert state.basis.size == 2 * int(np.sqrt(24.0)) + 1
    expected = free_particle_free_energy(12.0, 2.0)
    assert state.free_energy.total == pytest.approx(expected, abs=1e-11)


def test_run_single_refuses_a_zero_cutoff():
    # only None means the configured cutoff; a zero reaches the basis
    with pytest.raises(ValueError, match="cutoff must be positive and finite"):
        run_single(RunConfig.from_file("free1d"), cutoff=0.0)


# -- sweeps ------------------------------------------------------------------


@pytest.fixture(scope="module")
def free1d_sweep():
    return run_sweep(RunConfig.from_file("free1d"))


def test_sweep_rows_match_closed_form(free1d_sweep):
    cfg = RunConfig.from_file("free1d")
    assert [row["ec"] for row in free1d_sweep.rows] == sorted(cfg.sweep_cutoffs)
    f_ref = free_particle_free_energy(cfg.sweep_reference, cfg.beta)
    assert free1d_sweep.reference_f == pytest.approx(f_ref, abs=1e-12)
    for row in free1d_sweep.rows:
        exact = free_particle_free_energy(row["ec"], cfg.beta)
        assert row["f_total"] == pytest.approx(exact, abs=1e-12)
        assert row["f_err"] == pytest.approx(abs(exact - f_ref), abs=1e-12)
        assert row["rho_l2_err"] <= 1e-10
        assert np.isfinite(row["gamma_s11_err"])
        assert row["scf_iters"] <= 3


@pytest.mark.parametrize("beta", [20.0, 200.0])
def test_free1d_sweep_ratios_are_one(beta):
    # every swept free-particle state is the projection of the reference
    # state, so its S^{1,1} error is the projection error unless the two
    # solves put mu on different doubles
    sweep = run_sweep(RunConfig.from_file("free1d"), beta=beta)
    for row in sweep.rows:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-9), row["ec"]


def test_sweep_fit_presence_follows_the_floor(free1d_sweep):
    # every truncation error of this model sits below 10x the energy
    # tolerance at beta = 10, so no decay fit is possible
    cfg = RunConfig.from_file("free1d")
    f_ref = free_particle_free_energy(cfg.sweep_reference, cfg.beta)
    errs = [
        abs(free_particle_free_energy(ec, cfg.beta) - f_ref)
        for ec in sorted(cfg.sweep_cutoffs)
    ]
    usable = sum(e > 10.0 * cfg.tol_f for e in errs)
    assert usable < 4
    assert free1d_sweep.energy_fit is None
    assert free1d_sweep.density_fit is None


def test_sweep_monotone_flags_and_audit(free1d_sweep):
    assert free1d_sweep.errors_monotone("f_err", 10.0 * free1d_sweep.tol_f)
    assert free1d_sweep.free_energy_monotone()
    assert free1d_sweep.a4["lambda_min"] == pytest.approx(1.0, abs=1e-12)
    assert not free1d_sweep.a4["violated"]


def test_sweep_summary_schema_fields(free1d_sweep):
    summary = free1d_sweep.summary()
    assert len(summary["config_hash"]) == 16
    assert int(summary["config_hash"], 16) >= 0
    assert summary["model"] is None
    assert summary["beta"] == 10.0
    assert summary["reference_cutoff"] == 24.0
    assert summary["f_err_monotone"] is True
    assert summary["free_energy_monotone"] is True
    assert len(summary["rows"]) == 5
    assert set(CSV_COLUMNS) <= set(summary["rows"][0])


def test_sweep_csv_writer(free1d_sweep, tmp_path):
    path = tmp_path / "rows.csv"
    free1d_sweep.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(free1d_sweep.rows)
    first = lines[1].split(",")
    assert float(first[0]) == 2.0
    assert int(first[7]) == free1d_sweep.rows[0]["scf_iters"]


def test_sweep_csv_timing_off_zeroes_wall_clock(tmp_path):
    cfg = RunConfig.from_file("free1d")
    cfg.timing = False
    sweep = run_sweep(cfg, cutoffs=[2.0, 4.0], reference=8.0)
    path = tmp_path / "rows.csv"
    sweep.write_csv(path)
    wall = [line.split(",")[-1] for line in path.read_text().strip().split("\n")[1:]]
    assert all(float(w) == 0.0 for w in wall)


def test_sweep_validation_errors():
    cfg = RunConfig.from_text(MINIMAL_CFG)
    with pytest.raises(ConfigError, match="cutoff list"):
        run_sweep(cfg)
    with pytest.raises(ConfigError, match="reference"):
        run_sweep(cfg, cutoffs=[2.0, 4.0])
    with pytest.raises(ConfigError, match="at least twice"):
        run_sweep(cfg, cutoffs=[2.0, 4.0], reference=6.0)


@pytest.mark.parametrize("driver", [run_sweep, quasi_optimality])
def test_an_empty_cutoff_list_is_refused(monkeypatch, driver):
    # only cutoffs=None means the configured list (2, 4, 6, 8, 12 here)
    calls = spy_on_run_scf(monkeypatch)
    with pytest.raises(ConfigError, match="sweep requires a cutoff list"):
        driver(RunConfig.from_file("free1d"), cutoffs=[])
    assert calls == []


def test_si1d_sweep_iterations_stay_low():
    # swept SCFs start from the reference density: 61 iterations over the
    # five cutoffs with the dielectric preconditioner (131 with plain
    # Anderson; cold starts from the uniform density took 266); the bound
    # leaves a margin of 9
    sweep = run_sweep(RunConfig.from_file("si1d"), beta=400.0)
    assert sum(row["scf_iters"] for row in sweep.rows) <= 70


@pytest.mark.parametrize("driver", [run_sweep, quasi_optimality])
def test_swept_solves_start_from_the_reference_density(monkeypatch, driver):
    # both drivers share the swept solves; only the sweep audits A4
    cfg = RunConfig.from_file("si1d")
    calls = spy_on_run_scf(monkeypatch)
    audits = []
    audit = harness.audit_a4
    monkeypatch.setattr(harness, "audit_a4",
                        lambda ctx: audits.append(ctx) or audit(ctx))
    driver(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0)
    (ref_basis, ref_start), *swept = calls
    assert ref_basis.cutoff == 8.0 and ref_start is None
    assert [basis.cutoff for basis, _ in swept] == [2.0, 3.0, 4.0]
    for basis, start in swept:
        assert start is not None and start.basis == basis
    assert len(audits) == (1 if driver is run_sweep else 0)


def test_swept_solves_are_kept_for_the_same_inputs(monkeypatch):
    # the states are shared, not copied, whichever driver solved them
    cfg = RunConfig.from_file("si1d")
    calls = spy_on_run_scf(monkeypatch)
    report = quasi_optimality(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0)
    assert len(calls) == 4
    first = harness._swept_solves(cfg, [4.0, 2.0, 3.0], 8.0, cfg.beta)
    sweep = run_sweep(RunConfig.from_file("si1d"), cutoffs=[2.0, 3.0, 4.0],
                      reference=8.0)
    assert len(calls) == 4
    assert harness._swept_solves(cfg, [2.0, 3.0, 4.0], 8.0, cfg.beta) is first
    assert report["ratios"] == [row["ratio"] for row in sweep.rows]
    # another beta, cutoff list or reference is another set of solves
    run_sweep(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0, beta=4.0)
    run_sweep(cfg, cutoffs=[2.0, 4.0], reference=8.0)
    run_sweep(cfg, cutoffs=[2.0, 3.0, 4.0], reference=9.0)
    assert len(calls) == 4 + 4 + 3 + 4
    assert len(harness._SWEPT) == 4


def test_a_different_config_empties_the_memo(monkeypatch):
    si1d, rhf1d = RunConfig.from_file("si1d"), RunConfig.from_file("rhf1d")
    run_sweep(si1d, cutoffs=[2.0, 3.0], reference=8.0)
    run_sweep(rhf1d, cutoffs=[2.0, 3.0], reference=8.0)
    items = tuple(rhf1d.effective_items())
    assert [key[0] == items for key in harness._SWEPT] == [True]
    calls = spy_on_run_scf(monkeypatch)
    quasi_optimality(si1d, cutoffs=[2.0, 3.0], reference=8.0)
    assert len(calls) == 3


def test_a_failed_reference_solve_stores_nothing():
    # two SCF iterations cannot converge the tightened reference
    run_sweep(RunConfig.from_file("si1d"), cutoffs=[2.0, 3.0], reference=8.0)
    text = bundled_config_path("si1d").read_text()
    assert "max_iter = 200" in text
    cfg = RunConfig.from_text(text.replace("max_iter = 200", "max_iter = 1"))
    with pytest.raises(ScfError, match="no convergence in 2 iterations"):
        run_sweep(cfg, cutoffs=[2.0, 3.0], reference=8.0)
    assert harness._SWEPT == {}


@pytest.fixture(scope="module", params=[("si1d", 400.0), ("rhf1d", 4.0)],
                ids=["si1d-beta400", "rhf1d-beta4"])
def warm_and_cold(request):
    name, beta = request.param
    cfg = RunConfig.from_file(name)
    ref = run_single(cfg, cutoff=cfg.sweep_reference, beta=beta, tighten=0.1)
    pairs = [
        (run_single(cfg, cutoff=ec, beta=beta, initial_rho=ref.rho),
         run_single(cfg, cutoff=ec, beta=beta))
        for ec in cfg.sweep_cutoffs
    ]
    return cfg, pairs


def test_warm_and_cold_starts_reach_the_same_fixed_point(warm_and_cold):
    cfg, pairs = warm_and_cold
    for warm, cold in pairs:
        assert warm.converged and cold.converged
        assert warm.basis == cold.basis
        gap = abs(warm.free_energy.total - cold.free_energy.total)
        assert gap <= 10.0 * cfg.tol_f
        assert l2_norm(warm.rho - cold.rho) <= 10.0 * cfg.tol_rho
        assert s11_distance(warm.gamma, cold.gamma) <= 1e-9


# -- quasi-optimality --------------------------------------------------------


def test_quasi_optimality_small_interacting_chain():
    cfg = RunConfig.from_file("si1d")
    report = quasi_optimality(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0)
    assert report["cutoffs"] == [2.0, 3.0, 4.0]
    assert len(report["ratios"]) == 3
    assert all(np.isfinite(r) and r > 0 for r in report["ratios"])
    assert report["max_ratio"] == max(report["ratios"])
    assert report["max_ratio"] <= cfg.quasi_opt_bound
    assert report["orbital_constant"] == max(report["orbital_constants"])
    assert all(np.isfinite(c) for c in report["orbital_constants"])
    assert isinstance(report["trend_ok"], bool)
    assert report["passed"] == (report["within_bound"] and report["trend_ok"])


def test_quasi_optimality_free1d_orbital_constants_are_zero():
    # free particles: the occupied orbitals lie in every swept basis, so the
    # orbital error and the projection tail are both exactly 0, read as 0
    report = quasi_optimality(RunConfig.from_file("free1d"))
    assert report["orbital_constants"] == [0.0] * len(report["cutoffs"])
    assert report["orbital_constant"] == 0.0


def test_quasi_optimality_matches_sweep_ratios():
    # emptying the memo makes the sweep solve its states again, so the
    # ratios of two independent solves are compared
    cfg = RunConfig.from_file("si1d")
    report = quasi_optimality(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0)
    harness._SWEPT.clear()
    sweep = run_sweep(cfg, cutoffs=[2.0, 3.0, 4.0], reference=8.0, beta=cfg.beta)
    assert report["ratios"] == [row["ratio"] for row in sweep.rows]


def rotate_triplet(state, seed):
    """Copy of a tiny3d state with its degenerate triplet, orbitals 2-4 of
    the cubic well, mixed by a seeded random unitary: the same Gamma."""
    gamma = state.gamma
    assert np.ptp(gamma.eigenvalues[2:5]) <= 1e-12
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    unitary, _ = np.linalg.qr(raw)
    orbitals = gamma.orbitals.copy()
    orbitals[:, 2:5] = orbitals[:, 2:5] @ unitary
    rotated = copy.copy(state)
    rotated.gamma = DensityMatrix(gamma.basis, orbitals, gamma.occupations,
                                  gamma.eigenvalues)
    return rotated


def test_point_errors_ignore_the_basis_of_a_degenerate_eigenspace():
    # an error that matches orbitals by index moves under such a rotation
    ref = converged_state("tiny3d")
    swept = converged_state("tiny3d", cutoff=2.0)
    assert ref.gamma.n_states == 27
    assert ref.gamma.occupations[2] == pytest.approx(0.0334, abs=1e-4)
    expected = _point_errors(swept, ref)
    for pair in ((rotate_triplet(swept, 0), ref),
                 (swept, rotate_triplet(ref, 1))):
        errors = _point_errors(*pair)
        assert errors.keys() == expected.keys()
        for key, value in expected.items():
            np.testing.assert_allclose(errors[key], value, rtol=1e-12, atol=0,
                                       err_msg=key)
    for state in (swept, ref):
        rotated = rotate_triplet(state, 2).gamma
        assert s11_distance(rotated, state.gamma) <= 1e-12


@pytest.mark.parametrize("cutoff", [6.0, 20.0])
def test_rho_l2_err_is_the_parseval_distance_on_the_reference_grid(cutoff):
    cfg = RunConfig.from_file("si1d")
    ref = converged_state("si1d", cutoff=cfg.sweep_reference)
    state = converged_state("si1d", cutoff=cutoff)
    src, dst = state.basis, ref.basis
    # a density of the swept basis holds the modes |n_k| <= 2 max|n_k|
    reach = 2 * np.abs(src.g_int).max(axis=0)
    modes = dst.grid_modes.reshape(-1, dst.cell.dimension)
    held = np.all(np.abs(modes) <= reach, axis=1)
    swept = np.zeros(len(modes), dtype=complex)
    swept[held] = src.fourier_coefficients(state.rho.values)[
        src.grid_index(modes[held])
    ]
    diff = swept - dst.fourier_coefficients(ref.rho.values)[dst.grid_index(modes)]
    oracle = np.sqrt(dst.cell.volume * np.sum(np.abs(diff) ** 2))
    err = _point_errors(state, ref)["rho_l2_err"]
    assert err > 1e-9
    assert err == pytest.approx(oracle, rel=1e-13, abs=0)


def test_quasi_optimality_validates_reference():
    cfg = RunConfig.from_text(MINIMAL_CFG)
    with pytest.raises(ConfigError, match="cutoff list"):
        quasi_optimality(cfg)
    with pytest.raises(ConfigError, match="at least twice"):
        quasi_optimality(cfg, cutoffs=[3.0], reference=4.0)
