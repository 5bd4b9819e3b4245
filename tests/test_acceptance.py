"""Acceptance gate: the ten solver-and-harness criteria, one test each.

Every test prints one bracketed pass/fail line (visible under ``pytest -s``)
and enforces a wall-clock budget on top of its numerical tolerances.  The
criteria reuse the independent oracles from the module test files.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    converged_state,
    coords_to_hermitian,
    dense_chi_matrix,
    grid_points,
    perturb,
    rhf_quadratic_form,
    s11_norm,
)
from test_density_matrix import dense_from_projectors, s11_of_dense
from test_harness import free_particle_free_energy
from test_response import (
    UNIFORM_GAS_CFG,
    chi_finite_difference,
    degenerate_pair_rotation,
    random_hermitian,
)
from test_scf import admissible_tangent

from mks.cli import main
from mks.config import RunConfig, bundled_config_path
from mks.density_matrix import free_energy
from mks.harness import quasi_optimality, run_single, run_sweep
from mks.potentials import assemble_effective
from mks.response import (
    ResponseContext,
    apply_chi,
    apply_jacobian,
    audit_a4,
    hermitian_to_coords,
    solve_jacobian,
)
from mks.scf import Hamiltonian, free_energy_gradient, lowest_eigenpairs

BENCHMARKS = ["free1d", "si1d", "rhf1d", "tiny3d"]


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    wall = time.perf_counter() - start
    assert wall <= budget_s, (
        f"criterion {num:02d} exceeded its {budget_s:g}s budget ({wall:.1f}s)"
    )
    print(f"[criterion {num:02d}] {label}: PASS ({wall:.2f}s)")


def test_criterion_01_free_particle_exactness():
    with criterion(1, "free-particle solve is exact", 1.0):
        state = converged_state("free1d")
        assert state.converged
        assert state.iterations <= 2
        basis = state.basis
        exact_levels = np.sort(0.5 * basis.g_norm2)[: state.gamma.n_states]
        assert np.abs(np.sort(state.gamma.eigenvalues) - exact_levels).max() <= 1e-10
        cfg = RunConfig.from_file("free1d")
        f_exact = free_particle_free_energy(cfg.cutoff, cfg.beta, cfg.n_electrons)
        assert abs(state.free_energy.total - f_exact) <= 1e-10
        uniform = cfg.n_electrons / basis.cell.volume
        assert np.abs(state.rho.values - uniform).max() <= 1e-12
        assert state.residual_fixedpoint <= 1e-12


def test_criterion_02_constraints_at_convergence():
    with criterion(2, "trace and orthonormality constraints", 10.0):
        for name in BENCHMARKS:
            state = converged_state(name)
            gamma = state.gamma
            n = state.n_electrons
            assert abs(gamma.trace() - n) <= 1e-12 * n, name
            overlap = gamma.orbitals.conj().T @ gamma.orbitals
            assert np.abs(overlap - np.eye(gamma.n_states)).max() <= 1e-10, name
            assert gamma.occupations.min() >= -1e-12, name
            assert gamma.occupations.max() <= 1.0 + 1e-12, name
            assert np.all(np.diff(gamma.eigenvalues) >= -1e-12), name
            assert np.all(np.diff(gamma.occupations) <= 1e-12), name


def test_criterion_03_fixed_point_residual():
    with criterion(3, "self-consistency residual below 1e-8", 10.0):
        for name in BENCHMARKS:
            state = converged_state(name)
            assert state.converged, name
            assert state.residual_fixedpoint <= 1e-8, name


def test_criterion_04_gradient_matches_finite_differences():
    with criterion(4, "free-energy gradient vs centered differences", 30.0):
        eps = 1e-5
        for name in BENCHMARKS:
            state = converged_state(name)
            grad = free_energy_gradient(
                state.gamma, state.external, state.xc, state.smearing,
                state.hartree_on,
            )
            rng = np.random.default_rng(4)
            for _ in range(10):
                psi = admissible_tangent(state, rng)
                f_plus = free_energy(
                    perturb(state.gamma, psi, eps), state.external, state.xc,
                    state.smearing, state.hartree_on,
                ).total
                f_minus = free_energy(
                    perturb(state.gamma, psi, -eps), state.external, state.xc,
                    state.smearing, state.hartree_on,
                ).total
                fd = (f_plus - f_minus) / (2.0 * eps)
                exact = float(np.trace(grad @ psi).real)
                assert abs(fd - exact) <= 1e-5 * max(abs(exact), 1e-7), name


def test_criterion_05_response_operator_and_jacobian():
    with criterion(5, "response operator, Jacobian solve, sign checks", 60.0):
        # linearization against an independent finite-difference oracle
        for name in ["si1d", "rhf1d", "tiny3d"]:
            state = converged_state(name)
            ctx = ResponseContext(state)
            psi = random_hermitian(ctx.n_states, seed=5)
            fd = chi_finite_difference(state, psi)
            lin = apply_chi(ctx, psi)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(lin - fd).max() <= 1e-5 * scale, name

        # constrained Jacobian solve round-trips through its own apply
        for name in BENCHMARKS:
            ctx = ResponseContext(converged_state(name))
            phi = random_hermitian(ctx.n_states, seed=6)
            out = solve_jacobian(ctx, phi, 0.25)
            back = apply_jacobian(ctx, out.matrix, out.scalar)
            assert np.abs(back.matrix - phi).max() <= 1e-8, name
            assert abs(back.scalar - 0.25) <= 1e-8, name

        # Coulomb-paired quadratic form never goes positive
        ctx = ResponseContext(converged_state("rhf1d"))
        for seed in range(20):
            psi = random_hermitian(ctx.n_states, seed=200 + seed)
            assert rhf_quadratic_form(ctx, psi) <= 1e-10

        # a tangent with zero pair density is annihilated exactly
        gas = RunConfig.from_text(UNIFORM_GAS_CFG, origin="uniform-gas")
        state = run_single(gas)
        ctx = ResponseContext(state)
        psi = degenerate_pair_rotation(state)
        rho = ctx.pair_density(psi)
        assert np.sqrt(ctx.weight * np.sum(np.abs(rho) ** 2)) <= 1e-10
        assert np.abs(apply_chi(ctx, psi)).max() <= 1e-10
        assert abs(rhf_quadratic_form(ctx, psi)) <= 1e-10


def test_criterion_06_jacobian_positivity_audit():
    with criterion(6, "I - chi positivity audit (A4)", 60.0):
        expected = {
            "free1d": (1.0, 1e-12),
            "si1d": (0.189659018467, 2e-7),
            "rhf1d": (1.0, 1e-9),
            "tiny3d": (0.840808517254, 2e-7),
        }
        for name in BENCHMARKS:
            report = audit_a4(ResponseContext(converged_state(name)))
            assert report["lambda_min"] > 0.0, name
            assert not report["violated"], name
            assert np.isfinite(report["kappa"]), name
            assert report["kappa"] == pytest.approx(
                1.0 / report["lambda_min"], rel=1e-12
            ), name
            value, tol = expected[name]
            assert report["lambda_min"] == pytest.approx(value, abs=5 * tol,
                                                         rel=tol), name
            assert np.isfinite(report["denominator_s"]), name
            assert report["denominator_s"] > 0.0, name


def test_criterion_07_cutoff_sweep_decay_fits():
    with criterion(7, "cutoff sweep with exponential decay fits", 300.0):
        cfg = RunConfig.from_file("si1d")
        for beta in cfg.sweep_betas:
            sweep = run_sweep(cfg, beta=beta)
            assert len(sweep.rows) == 5
            for fit in (sweep.energy_fit, sweep.density_fit):
                assert fit is not None, beta
                assert fit["model"] == "exponential", beta
                assert fit["r2"] >= 0.95, beta
                assert fit["slope"] < 0.0, beta
            assert sweep.errors_monotone("f_err", 10.0 * cfg.tol_f), beta
            assert sweep.errors_monotone("rho_l2_err", 10.0 * cfg.tol_rho), beta
            assert sweep.free_energy_monotone(), beta
            assert np.isfinite(sweep.a4["lambda_min"]), beta


def test_criterion_08_quasi_optimality():
    with criterion(8, "Galerkin quasi-optimality ratios", 300.0):
        for name in ("si1d", "tiny3d"):
            cfg = RunConfig.from_file(name)
            report = quasi_optimality(cfg)
            assert report["passed"], name
            assert report["max_ratio"] <= 50.0, name
            assert report["trend_ok"], name
            assert np.isfinite(report["orbital_constant"]), name
            assert report["orbital_constant"] > 0.0, name


def test_criterion_09_small_case_oracle_equivalence():
    with criterion(9, "dense-oracle equivalence on a 21-mode case", 60.0):
        state = converged_state("si1d")
        basis = state.basis
        assert basis.size <= 32

        # Hamiltonian assembly against explicit mode-pair quadrature
        terms = assemble_effective(state.rho, state.external, state.xc,
                                   hartree_on=state.hartree_on)
        ham = Hamiltonian(basis, terms.v_eff)
        dense = ham.dense()
        pts = grid_points(basis).reshape(-1, 1)
        v = terms.v_eff.values.reshape(-1)
        explicit = np.empty_like(dense)
        for a in range(basis.size):
            for b in range(basis.size):
                dg = basis.g_cart[a] - basis.g_cart[b]
                explicit[a, b] = np.sum(v * np.exp(-1j * (pts @ dg))) / len(pts)
        explicit[np.diag_indices(basis.size)] += 0.5 * basis.g_norm2
        assert np.abs(dense - explicit).max() <= 1e-8

        # the eigensolver against a full eigh of the explicit matrix
        vals, vecs = lowest_eigenpairs(ham, 8)
        exact = np.linalg.eigvalsh(explicit)
        assert np.abs(vals - exact[:8]).max() <= 1e-8
        for k in range(8):
            resid = explicit @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.linalg.norm(resid) <= 1e-8

        # S^{1,1} norm against the two-eigensolve oracle
        oracle = s11_of_dense(dense_from_projectors(state.gamma), basis)
        assert s11_norm(state.gamma) == pytest.approx(oracle, rel=1e-8)

        # Jacobian apply against the explicit block matrix
        ctx = ResponseContext(state)
        m = ctx.n_states
        dim = m * m
        block = dense_chi_matrix(ctx) - np.eye(dim)
        g = hermitian_to_coords(np.diag(ctx.g_diag).astype(complex))
        psi = random_hermitian(m, seed=9)
        s = -0.4
        out = apply_jacobian(ctx, psi, s)
        x = hermitian_to_coords(psi)
        assert np.abs(
            out.matrix - coords_to_hermitian(block @ x + s * g, m)
        ).max() <= 1e-8
        assert abs(out.scalar - x[:m].sum()) <= 1e-8


def test_criterion_10_deterministic_artifacts(tmp_path):
    with criterion(10, "bitwise-identical sweep artifacts", 120.0):
        cfg_path = tmp_path / "notiming.cfg"
        text = bundled_config_path("si1d").read_text().replace(
            "[sweep]", "[sweep]\ntiming = off"
        )
        cfg_path.write_text(text)

        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            outputs.append(out)

        for beta_tag in ("4", "40", "400"):
            name = f"sweep_beta{beta_tag}.csv"
            first = (outputs[0] / name).read_bytes()
            assert first == (outputs[1] / name).read_bytes(), name
            rows = first.decode().strip().split("\n")
            assert len(rows) == 6
        summary = json.loads((outputs[0] / "sweep_beta40.json").read_text())
        assert summary["model"] == "exponential"
