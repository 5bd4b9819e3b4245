"""Command-line interface: mks {scf, sweep, response, audit-xc, quasi-opt}.

Exit codes: 0 on success, 1 on physics or convergence failures (including
audit violations) and on running out of memory, 2 on configuration errors;
a non-zero exit prints its reason as one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .config import ConfigError, RunConfig
from .harness import quasi_optimality, run_single, run_sweep
from .io import save_state
from .potentials import audit_xc
from .response import ResponseContext, audit_a4

__all__ = ["main"]

# failures of a run that exit 1 with one line on stderr
_RUN_ERRORS = (RuntimeError, ValueError, MemoryError)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mks",
        description="Finite-temperature Kohn-Sham solver and convergence harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="config file path or bundled name (free1d, si1d, rhf1d, tiny3d)")
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable summary to stdout")
        p.add_argument("--out", default=None, help="output directory")

    def add_sweep(p):
        add_common(p)
        p.add_argument("--cutoffs", default=None,
                       help="comma-separated cutoff list, overrides the config")
        p.add_argument("--reference", type=float, default=None,
                       help="reference cutoff, overrides the config")

    p_scf = sub.add_parser("scf", help="one self-consistent solve")
    add_common(p_scf)

    p_sweep = sub.add_parser("sweep", help="cutoff-convergence sweep")
    add_sweep(p_sweep)

    p_resp = sub.add_parser("response", help="Jacobian positivity (A4) audit")
    add_common(p_resp)

    p_xc = sub.add_parser("audit-xc", help="exchange-correlation growth-bound audit")
    add_common(p_xc)

    p_qo = sub.add_parser("quasi-opt", help="quasi-optimality ratio sweep")
    add_sweep(p_qo)

    return parser


def _out_dir(args, config) -> str:
    """The output directory, made on the way to the first file written."""
    out = args.out or config.out_dir
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cutoff_list(args):
    try:
        return [float(c) for c in args.cutoffs.split(",")] if args.cutoffs else None
    except ValueError:
        raise ConfigError(f"--cutoffs {args.cutoffs!r}: expected numbers") from None


def _beta_tag(beta: float) -> str:
    return f"{beta:g}".replace(".", "p").replace("-", "m")


def _cmd_scf(args, config) -> int:
    state = run_single(config)
    summary = {
        "config_hash": config.config_hash(),
        "basis_size": state.basis.size,
        "free_energy": state.free_energy.as_dict(),
        "mu": state.mu,
        "iterations": state.iterations,
        "converged": state.converged,
        "residual_density": state.residual_density,
        "residual_fixedpoint": state.residual_fixedpoint,
        "trace": state.gamma.trace(),
        "n_states": state.gamma.n_states,
        "basis_exhausted": state.gamma.n_states == state.basis.size,
        "precond_products": sum(row["precond_products"] for row in state.history),
        "eig_residual_max": max(row["eig_residual"] for row in state.history),
    }
    out = _out_dir(args, config)
    log_path = os.path.join(out, "scf_iterations.csv")
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(state.history[0].keys())
        for row in state.history:
            writer.writerow(f"{v:.17g}" if isinstance(v, float) else v
                            for v in row.values())
    chk_path = os.path.join(out, "checkpoint.json")
    save_state(state, chk_path)
    _write_json(os.path.join(out, "scf_summary.json"), summary)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"converged in {state.iterations} iterations "
            f"({state.basis.size} plane waves, {state.gamma.n_states} states)"
        )
        print(f"F = {state.free_energy.total:.12f}  mu = {state.mu:.8f}")
        print(
            f"residuals: density {state.residual_density:.3e}, "
            f"fixed point {state.residual_fixedpoint:.3e}"
        )
        print(f"wrote {chk_path}")
    return 0


def _cmd_sweep(args, config) -> int:
    cutoffs = _cutoff_list(args)
    summaries = []
    failure = None
    for beta in config.sweep_betas:
        try:
            result = run_sweep(config, cutoffs=cutoffs, reference=args.reference,
                               beta=beta)
        except _RUN_ERRORS as exc:
            failure = failure or exc
            continue
        out = _out_dir(args, config)
        tag = _beta_tag(beta)
        result.write_csv(os.path.join(out, f"sweep_beta{tag}.csv"))
        summary = result.summary()
        _write_json(os.path.join(out, f"sweep_beta{tag}.json"), summary)
        summaries.append(summary)
        if not args.json:
            fit = result.energy_fit
            fit_text = (
                f"{fit['model']} fit slope {fit['slope']:.4f} (R2 {fit['r2']:.4f})"
                if fit
                else "fit unavailable (errors at tolerance floor)"
            )
            print(
                f"beta {beta:g}: reference F = {result.reference_f:.12f}, {fit_text}"
            )
    if failure is not None:
        raise failure
    if args.json:
        print(json.dumps({"sweeps": summaries}, sort_keys=True))
    return 0


def _cmd_response(args, config) -> int:
    state = run_single(config)
    report = audit_a4(ResponseContext(state, g_sign=config.g_sign))
    report["config_hash"] = config.config_hash()
    _write_json(os.path.join(_out_dir(args, config), "response_audit.json"), report)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"lambda_min = {report['lambda_min']:.6g}, kappa = {report['kappa']:.6g}, "
            f"denominator_s = {report['denominator_s']:.6g} "
            f"({report['g_sign']} sign, tangent dim {report['tangent_dim']})"
        )
    if report["violated"]:
        raise RuntimeError(f"A4 fails: lambda_min = {report['lambda_min']:.6g} <= 0")
    return 0


def _cmd_audit_xc(args, config) -> int:
    report = audit_xc(config.xc)
    _write_json(os.path.join(_out_dir(args, config), "xc_audit.json"), report)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        status = "pass" if report["passed"] else "FAIL"
        print(
            f"{report['name']}: growth-bound ratios "
            f"{report['a2_max_ratio']:.4f} / {report['a3_first_max_ratio']:.4f} / "
            f"{report['a3_second_max_ratio']:.4f}, d1 FD err "
            f"{report['d1_fd_max_rel_err']:.2e} [{status}]"
        )
    if not report["passed"]:
        raise RuntimeError(f"{report['name']} fails its growth-bound audit")
    return 0


def _cmd_quasi_opt(args, config) -> int:
    cutoffs = _cutoff_list(args)
    result = quasi_optimality(config, cutoffs=cutoffs, reference=args.reference)
    _write_json(os.path.join(_out_dir(args, config), "quasi_opt.json"), result)
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(
            f"max ratio {result['max_ratio']:.4f} (bound {result['bound']:g}), "
            f"orbital constant {result['orbital_constant']:.4f}, "
            f"trend {'ok' if result['trend_ok'] else 'RISING'}"
        )
    if not result["passed"]:
        raise RuntimeError(
            f"quasi-optimality fails: max ratio {result['max_ratio']:.4g} "
            f"(bound {result['bound']:g}), trend {'ok' if result['trend_ok'] else 'rising'}"
        )
    return 0


_COMMANDS = {
    "scf": _cmd_scf,
    "sweep": _cmd_sweep,
    "response": _cmd_response,
    "audit-xc": _cmd_audit_xc,
    "quasi-opt": _cmd_quasi_opt,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
