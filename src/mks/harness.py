"""Discretization-convergence harness.

Runs a cutoff sweep against a tightened reference solution, reports per-point
errors (free energy, density L2, exact density-matrix S^{1,1}, projection
tail), fits exponential/algebraic decay models to the error curves, and
checks the quasi-optimality ratio of the Galerkin solutions.  Both the
sweep and the quasi-optimality check take their states from one engine,
``_swept_solves``, so the quasi-optimality ratios are the sweep's
``ratio`` column.

The engine solves each set of swept states once per process: it keeps
what it solved, keyed by the config's effective items, the cutoffs, the
reference cutoff and beta, and hands the same states to every later
caller.  So a ``quasi_optimality`` after a ``run_sweep`` at the configured
beta (or the reverse) makes no SCF solve.  Only the most recent config's
solves are kept: a different config empties the memo before it solves.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .cell import l2_norm, resample
from .config import ConfigError, RunConfig
from .density_matrix import embed_dm, mode_positions, project_dm, s11_distance
from .response import ResponseContext, audit_a4
from .scf import ScfState, run_scf

__all__ = [
    "CSV_COLUMNS",
    "run_single",
    "run_sweep",
    "SweepResult",
    "fit_decay",
    "quasi_optimality",
]

CSV_COLUMNS = [
    "ec",
    "f_total",
    "f_err",
    "rho_l2_err",
    "gamma_s11_err",
    "proj_err",
    "ratio",
    "scf_iters",
    "wall_s",
]


def run_single(config: RunConfig, cutoff=None, beta=None,
               tighten: float = 1.0, initial_rho=None) -> ScfState:
    """One SCF solve for the configured model at the given cutoff and beta.

    ``tighten`` scales the convergence tolerances (0.1 for reference runs,
    which also get a doubled iteration budget).  ``initial_rho``, a density
    on any basis of the same cell, is resampled onto this cutoff's grid and
    starts the SCF; without it the start is the uniform density.
    """
    basis = config.build_basis(cutoff)
    max_iter = config.max_iter if tighten >= 1.0 else 2 * config.max_iter
    if initial_rho is not None:
        initial_rho = resample(initial_rho, basis)
    return run_scf(
        basis,
        config.external,
        config.xc,
        config.build_smearing(beta),
        config.n_electrons,
        hartree_on=config.hartree_on,
        tol_rho=config.tol_rho * tighten,
        tol_f=config.tol_f * tighten,
        max_iter=max_iter,
        initial_rho=initial_rho,
    )


def _sweep_inputs(config, cutoffs, reference):
    """Sorted swept cutoffs, as a tuple, and a reference cutoff at least
    twice the largest; only ``cutoffs=None`` means the configured list."""
    if cutoffs is None:
        cutoffs = config.sweep_cutoffs
    cutoffs = tuple(sorted(float(c) for c in cutoffs))
    if not cutoffs:
        raise ConfigError("sweep requires a cutoff list")
    reference = config.sweep_reference if reference is None else float(reference)
    if reference is None:
        raise ConfigError("sweep requires a reference cutoff")
    for value in (*cutoffs, reference):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"cutoffs must be positive and finite, got {value:g}")
    if reference < 2.0 * max(cutoffs):
        raise ConfigError(
            f"reference cutoff {reference:g} must be at least twice the "
            f"largest swept cutoff {max(cutoffs):g}"
        )
    return cutoffs, reference


def _point_errors(state, ref):
    """Error measures of one swept state against the reference state; the
    S^{1,1} errors are exact distances on the reference basis."""
    rho_err = l2_norm(resample(state.rho, ref.basis) - ref.rho)
    gamma_err = s11_distance(state.gamma, ref.gamma)
    proj = project_dm(ref.gamma, state.basis)
    proj_err = s11_distance(proj, ref.gamma)
    ratio = gamma_err / proj_err if proj_err > 0 else float("inf")
    return {
        "f_total": state.free_energy.total,
        "f_err": abs(state.free_energy.total - ref.free_energy.total),
        "rho_l2_err": rho_err,
        "gamma_s11_err": gamma_err,
        "proj_err": proj_err,
        "ratio": ratio,
        "scf_iters": state.iterations,
    }


def fit_decay(cutoffs, errors, floor: float = 0.0) -> dict:
    """Least-squares decay fit of errors against the cutoff.

    Fits log(err) both against E_c (exponential model) and against
    log(E_c) (algebraic model) on the points above ``floor`` and selects
    the model with the higher R^2.  Fewer than 4 usable points is an error.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > floor
    if np.count_nonzero(mask) < 4:
        raise ValueError(
            f"decay fit needs at least 4 points above the floor {floor:g}, "
            f"got {int(np.count_nonzero(mask))}"
        )
    x = cutoffs[mask]
    y = np.log(errors[mask])

    def straight_line(abscissa):
        design = np.stack([np.ones_like(abscissa), abscissa], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
        return {"intercept": float(coef[0]), "slope": float(coef[1]), "r2": float(r2)}

    expo = straight_line(x)
    alge = straight_line(np.log(x))
    selected = "exponential" if expo["r2"] >= alge["r2"] else "algebraic"
    chosen = expo if selected == "exponential" else alge
    return {
        "model": selected,
        "slope": chosen["slope"],
        "intercept": chosen["intercept"],
        "r2": chosen["r2"],
        "n_points": int(np.count_nonzero(mask)),
        "floor": float(floor),
        "exponential": expo,
        "algebraic": alge,
    }


class SweepResult:
    """Rows, fits, and the A4 audit of one cutoff sweep at a fixed beta."""

    def __init__(self, config, beta, reference_cutoff, reference_state,
                 rows, energy_fit, density_fit, a4):
        self.config_hash = config.config_hash()
        self.beta = beta
        self.reference_cutoff = reference_cutoff
        self.reference_f = reference_state.free_energy.total
        self.rows = rows
        self.energy_fit = energy_fit
        self.density_fit = density_fit
        self.a4 = a4
        self.tol_rho = config.tol_rho
        self.tol_f = config.tol_f

    # -- monotonicity flags --------------------------------------------------

    def errors_monotone(self, key, floor) -> bool:
        values = [row[key] for row in self.rows]
        return all(
            later <= earlier + floor
            for earlier, later in zip(values, values[1:])
        )

    def free_energy_monotone(self) -> bool:
        f = [row["f_total"] for row in self.rows]
        decreasing = all(b <= a + 1e-10 for a, b in zip(f, f[1:]))
        from_above = all(v >= self.reference_f - 10.0 * self.tol_f for v in f)
        return decreasing and from_above

    # -- writers ---------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in self.rows:
                cells = []
                for col in CSV_COLUMNS:
                    value = row[col]
                    if col == "scf_iters":
                        cells.append(str(int(value)))
                    else:
                        cells.append(f"{float(value):.17g}")
                fh.write(",".join(cells) + "\n")

    def summary(self) -> dict:
        fit = self.energy_fit or {}
        return {
            "config_hash": self.config_hash,
            "model": fit.get("model"),
            "slope": fit.get("slope"),
            "intercept": fit.get("intercept"),
            "r2": fit.get("r2"),
            "max_ratio": max((row["ratio"] for row in self.rows), default=None),
            "a4": {
                "lambda_min": self.a4["lambda_min"],
                "kappa": self.a4["kappa"],
            },
            "beta": self.beta,
            "reference_cutoff": self.reference_cutoff,
            "reference_f": self.reference_f,
            "energy_fit": self.energy_fit,
            "density_fit": self.density_fit,
            "f_err_monotone": self.errors_monotone("f_err", 10.0 * self.tol_f),
            "rho_err_monotone": self.errors_monotone("rho_l2_err", 10.0 * self.tol_rho),
            "free_energy_monotone": self.free_energy_monotone(),
            "rows": [
                {k: (v if not isinstance(v, float) else float(v)) for k, v in row.items()}
                for row in self.rows
            ],
        }


# (effective items, cutoffs, reference, beta) -> what _swept_solves returned,
# for the most recent config only
_SWEPT = {}


def _swept_solves(config, cutoffs, reference, beta):
    """Validated cutoffs and reference, the tightened reference state, and a
    (state, wall_s) pair per swept cutoff.  Every swept SCF starts from the
    reference density, which lies within the discretisation error of each
    swept ground state.

    The result is kept in ``_SWEPT`` and returned as is to a later call with
    the same inputs: callers share the states and must not write into them.
    A different config empties ``_SWEPT`` first; a failed solve stores
    nothing."""
    cutoffs, reference = _sweep_inputs(config, cutoffs, reference)
    items = tuple(config.effective_items())
    key = (items, cutoffs, reference, beta)
    if key in _SWEPT:
        return _SWEPT[key]
    if any(other[0] != items for other in _SWEPT):
        _SWEPT.clear()
    ref = run_single(config, cutoff=reference, beta=beta, tighten=0.1)
    swept = []
    for ec in cutoffs:
        start = time.perf_counter()
        state = run_single(config, cutoff=ec, beta=beta, initial_rho=ref.rho)
        swept.append((state, time.perf_counter() - start))
    _SWEPT[key] = (cutoffs, reference, ref, tuple(swept))
    return _SWEPT[key]


def run_sweep(config: RunConfig, cutoffs=None, reference=None,
              beta=None) -> SweepResult:
    """Cutoff sweep against a tightened reference solve.

    The reference cutoff must be at least twice the largest swept cutoff;
    rows come out in cutoff order.
    """
    beta = float(beta if beta is not None else config.beta)
    cutoffs, reference, ref, swept = _swept_solves(config, cutoffs, reference, beta)
    rows = []
    for ec, (state, wall) in zip(cutoffs, swept):
        row = {"ec": ec, "wall_s": wall if config.timing else 0.0}
        row.update(_point_errors(state, ref))
        rows.append(row)

    def try_fit(key, floor):
        try:
            return fit_decay(cutoffs, [row[key] for row in rows], floor)
        except ValueError:
            return None

    energy_fit = try_fit("f_err", 10.0 * config.tol_f)
    density_fit = try_fit("rho_l2_err", 10.0 * config.tol_rho)
    a4 = audit_a4(ResponseContext(ref, g_sign=config.g_sign))
    return SweepResult(config, beta, reference, ref, rows, energy_fit, density_fit, a4)


def _h1_coeff_norm(basis, coeffs) -> float:
    return float(np.sqrt(np.sum((1.0 + basis.g_norm2) * np.abs(coeffs) ** 2)))


def quasi_optimality(config: RunConfig, cutoffs=None, reference=None) -> dict:
    """Quasi-optimality of the Galerkin states against projection error.

    For each swept cutoff: ratio = ||Gamma_n - Gamma_ref||_S11 /
    ||Pi_n Gamma_ref - Gamma_ref||_S11 (the sweep's ``_point_errors``), plus
    the occupied orbital-error constant with phases aligned by overlap.
    The states are the sweep's own swept solves at the configured beta, so
    the ratios are its ``ratio`` column; no A4 audit or decay fit is run.
    After a ``run_sweep`` of the same config, cutoffs and reference at that
    beta in this process, the states are the sweep's and no SCF is solved.
    The ratio must stay below the configured bound and must not trend
    upward: its maximum over the finer half must not exceed 1.25x the
    maximum over the coarser half.
    """
    cutoffs, reference, ref, swept = _swept_solves(
        config, cutoffs, reference, config.beta
    )
    ref_basis = ref.basis
    n_occ = int(round(config.n_electrons))

    ratios, constants = [], []
    for state, _ in swept:
        ratios.append(_point_errors(state, ref)["ratio"])

        pos = mode_positions(state.basis, ref_basis)
        embedded = embed_dm(state.gamma, ref_basis).orbitals
        num = den = 0.0
        for i in range(min(n_occ, state.gamma.n_states, ref.gamma.n_states)):
            phi_ref = ref.gamma.orbitals[:, i]
            phi_n = embedded[:, i]
            overlap = np.vdot(phi_ref, phi_n)
            if abs(overlap) > 1e-14:
                phi_n = phi_n * (np.conj(overlap) / abs(overlap))
            num = max(num, _h1_coeff_norm(ref_basis, phi_ref - phi_n))
            tail = phi_ref.copy()
            tail[pos] = 0.0
            den = max(den, _h1_coeff_norm(ref_basis, tail))
        # a zero tail holds only a zero error: 0/0 reads 0, x/0 reads inf
        constants.append(
            num / den if den > 0 else (0.0 if num == 0.0 else float("inf"))
        )

    half = max(1, len(ratios) // 2)
    coarse_max = max(ratios[:half])
    fine_max = max(ratios[half:]) if ratios[half:] else coarse_max
    trend_ok = fine_max <= 1.25 * coarse_max + 1e-9
    max_ratio = max(ratios)
    slope = float(np.polyfit(cutoffs, ratios, 1)[0]) if len(ratios) > 1 else 0.0
    return {
        "cutoffs": list(cutoffs),
        "ratios": ratios,
        "max_ratio": max_ratio,
        "bound": config.quasi_opt_bound,
        "within_bound": max_ratio <= config.quasi_opt_bound,
        "trend_ok": bool(trend_ok),
        "ratio_slope": slope,
        "orbital_constants": constants,
        "orbital_constant": max(constants),
        "reference_cutoff": reference,
        "passed": bool(max_ratio <= config.quasi_opt_bound and trend_ok),
    }
