"""The benchmark's workloads: seeded inputs, timed operations, output checks.

An operation is one seeded model taken through every run the workload makes
of it, so that operation times come from one population:

* ``scf3d``: ``mks scf`` on one tiny3d model at beta 20, then at beta 200.
* ``sweep1d``: ``mks sweep`` then ``mks quasi-opt`` on one three-well chain.
* ``audit3d``: gradient, response context, A4 audit and Jacobian solve on
  one converged tiny3d model at beta 20 and at beta 200.

Models are drawn from ``numpy.random.default_rng([seed, stream, index])``,
so a seed fixes every input whatever the run length.  CLI operations call
``mks.cli.main`` in-process; library operations call the public functions.
Every name is looked up at call time, so a traced run sees its wrappers.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import jsonschema
import numpy as np

import mks
import mks.cli
import mks.config
import mks.harness
import mks.io
import mks.response
import mks.scf

TINY3D_CUTOFF = 8.0
TINY3D_BETAS = (20.0, 200.0)


def _template(root, name):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(Path(root) / "src" / "mks" / "configs" / f"{name}.cfg") as fh:
        parser.read_file(fh)
    return parser


def _write(parser, path):
    with open(path, "w") as fh:
        parser.write(fh)


def _csv(values):
    return ", ".join(repr(float(v)) for v in values)


def tiny3d_config(root, seed, index, beta, path):
    """tiny3d cell and functional at ec 8; the well's centre, depth and width
    are drawn from the seed.  A centre shift is nearly a symmetry of the
    periodic cell, and depth and width move by a few percent, so every
    model keeps the same number of states and SCF iterations."""
    rng = np.random.default_rng([seed, 3, index])
    parser = _template(root, "tiny3d")
    lattice = float(parser["cell"]["lattice"])
    parser["system"]["beta"] = repr(float(beta))
    parser["system"]["cutoff"] = repr(TINY3D_CUTOFF)
    parser["potential"]["centers"] = _csv(rng.uniform(0.0, lattice, 3))
    parser["potential"]["depths"] = _csv([-4.0 * rng.uniform(0.98, 1.02)])
    parser["potential"]["widths"] = _csv([0.8 * rng.uniform(0.98, 1.02)])
    _write(parser, path)


def chain1d_config(root, seed, index, path):
    """si1d chain and sweep settings with seed-drawn wells; even models use
    Dirac exchange (si1d), odd ones are Hartree-only (rhf1d)."""
    rng = np.random.default_rng([seed, 1, index])
    parser = _template(root, "si1d")
    pot = parser["potential"]
    centers = [float(c) for c in pot["centers"].split(";")]
    depths = [float(d) for d in pot["depths"].split(",")]
    widths = [float(w) for w in pot["widths"].split(",")]
    pot["centers"] = "; ".join(repr(c + rng.uniform(-0.2, 0.2)) for c in centers)
    pot["depths"] = _csv(np.array(depths) * rng.uniform(0.97, 1.03, len(depths)))
    pot["widths"] = _csv(np.array(widths) * rng.uniform(0.97, 1.03, len(widths)))
    parser["xc"]["functional"] = "dirac" if index % 2 == 0 else "none"
    _write(parser, path)


def _cli(argv):
    """Run one subcommand in-process; returns (seconds, exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = mks.cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, err.getvalue().strip()


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Inputs in ``setup``, one timed operation in ``run``, its checks in
    ``check`` (a list of problems, empty when the output is correct)."""

    name = ""
    pool = 64          # models whose inputs one set-up writes
    setup_reps = 3     # set-ups per benchmark run; set-up time is their median

    def __init__(self, root, seed, workdir):
        self.root = Path(root)
        self.seed = seed
        self.workdir = Path(workdir)
        self.config_hashes = {}
        self.sizes = {}

    def config_path(self, index, tag=""):
        return self.workdir / "inputs" / f"model{index:03d}{tag}.cfg"

    def record(self, key, config, **sizes):
        """Store a config's hash and problem sizes, once per config."""
        if key not in self.config_hashes:
            self.config_hashes[key] = config.config_hash()
            self.sizes[key] = sizes


class Scf3d(Workload):
    name = "scf3d"

    def setup(self, rep):
        (self.workdir / "inputs").mkdir(parents=True, exist_ok=True)
        for index in range(self.pool):
            for beta in TINY3D_BETAS:
                tiny3d_config(self.root, self.seed, index, beta,
                              self.config_path(index, f"_b{beta:g}"))

    def run(self, index):
        index %= self.pool
        elapsed, results = 0.0, []
        for beta in TINY3D_BETAS:
            cfg = self.config_path(index, f"_b{beta:g}")
            out = _fresh(self.workdir / "out" / f"b{beta:g}")
            seconds, code, err = _cli(["scf", "--config", str(cfg), "--out", str(out)])
            elapsed += seconds
            results.append((cfg, out, code, err))
        return elapsed, results

    def check(self, results):
        problems = []
        for cfg, out, code, err in results:
            if code != 0:
                problems.append(f"{cfg.name}: exit {code}: {err}")
                continue
            config = mks.config.RunConfig.from_file(str(cfg))
            with open(out / "scf_summary.json") as fh:
                summary = json.load(fh)
            if not summary["converged"]:
                problems.append(f"{cfg.name}: not converged")
            trace_err = abs(summary["trace"] - config.n_electrons)
            if not trace_err <= config.tol_rho:
                problems.append(f"{cfg.name}: |trace - N| = {trace_err:.3e}")
            if not summary["residual_fixedpoint"] <= config.tol_rho:
                problems.append(
                    f"{cfg.name}: fixed-point residual {summary['residual_fixedpoint']:.3e}"
                )
            gamma, _ = mks.io.load_density_matrix(out / "checkpoint.json")
            if (gamma.basis.size, gamma.n_states) != (
                summary["basis_size"], summary["n_states"]
            ):
                problems.append(f"{cfg.name}: checkpoint does not match the summary")
            self.record(cfg.name, config, npw=gamma.basis.size,
                        fft_shape=list(gamma.basis.fft_shape),
                        n_states=gamma.n_states)
        return problems


class Sweep1d(Workload):
    name = "sweep1d"

    def setup(self, rep):
        (self.workdir / "inputs").mkdir(parents=True, exist_ok=True)
        for index in range(self.pool):
            chain1d_config(self.root, self.seed, index, self.config_path(index))

    def run(self, index):
        cfg = self.config_path(index % self.pool)
        out = _fresh(self.workdir / "out" / "sweep")
        sweep = _cli(["sweep", "--config", str(cfg), "--out", str(out)])
        quasi = _cli(["quasi-opt", "--config", str(cfg), "--out", str(out)])
        return sweep[0] + quasi[0], (cfg, out, sweep, quasi)

    def check(self, results):
        cfg, out, sweep, quasi = results
        problems = []
        for label, (_, code, err) in (("sweep", sweep), ("quasi-opt", quasi)):
            if code != 0:
                problems.append(f"{cfg.name} {label}: exit {code}: {err}")
        if problems:
            return problems
        config = mks.config.RunConfig.from_file(str(cfg))
        schema_path = self.root / "src" / "mks" / "schemas" / "summary.schema.json"
        with open(schema_path) as fh:
            schema = json.load(fh)
        summaries = sorted(out.glob("sweep_beta*.json"))
        if len(summaries) != len(config.sweep_betas):
            problems.append(f"{cfg.name}: {len(summaries)} sweep summaries")
        for path in summaries:
            with open(path) as fh:
                summary = json.load(fh)
            try:
                jsonschema.validate(summary, schema)
            except jsonschema.ValidationError as exc:
                problems.append(f"{cfg.name} {path.name}: {exc.message}")
            if not summary["free_energy_monotone"]:
                problems.append(f"{cfg.name} {path.name}: free energy not monotone")
        with open(out / "quasi_opt.json") as fh:
            if not json.load(fh)["passed"]:
                problems.append(f"{cfg.name}: quasi-optimality failed")
        basis = config.build_basis(config.sweep_reference)
        self.record(cfg.name, config, reference_npw=basis.size,
                    reference_fft_shape=list(basis.fft_shape),
                    cutoffs=config.sweep_cutoffs, betas=config.sweep_betas)
        return problems


class Audit3d(Workload):
    name = "audit3d"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.states = []

    def setup(self, rep):
        """Converge one tiny3d model at both betas; operations cycle over
        the pairs of every set-up."""
        (self.workdir / "inputs").mkdir(parents=True, exist_ok=True)
        pair = []
        for beta in TINY3D_BETAS:
            cfg = self.config_path(rep, f"_b{beta:g}")
            tiny3d_config(self.root, self.seed, rep, beta, cfg)
            config = mks.config.RunConfig.from_file(str(cfg))
            pair.append((cfg, config, mks.harness.run_single(config)))
        self.states.append(pair)

    def run(self, index):
        rng = np.random.default_rng([self.seed, 2, index])
        elapsed, results = 0.0, []
        for cfg, config, state in self.states[index % len(self.states)]:
            m = state.gamma.n_states
            phi = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            phi = 0.5 * (phi + phi.conj().T)
            t = float(rng.standard_normal())
            start = time.perf_counter()
            mks.scf.free_energy_gradient(
                state.gamma, state.external, state.xc, state.smearing,
                hartree_on=state.hartree_on,
            )
            ctx = mks.response.ResponseContext(state, g_sign=config.g_sign)
            report = mks.response.audit_a4(ctx)
            solution = mks.response.solve_jacobian(ctx, phi, t)
            elapsed += time.perf_counter() - start
            results.append((cfg, config, state, ctx, phi, t, report, solution))
        return elapsed, results

    def check(self, results):
        problems = []
        for cfg, config, state, ctx, phi, t, report, solution in results:
            coords = mks.response.hermitian_to_coords
            out = mks.response.apply_jacobian(ctx, solution.matrix, solution.scalar)
            residual = np.linalg.norm(coords(phi - out.matrix)) + abs(t - out.scalar)
            # the refinement tolerance of mks.response.solve_jacobian
            tolerance = 1e-10 * max(1.0, np.linalg.norm(coords(phi)) + abs(t))
            if not residual <= tolerance:
                problems.append(f"{cfg.name}: Jacobian residual {residual:.3e}")
            if not np.isfinite(report["lambda_min"]):
                problems.append(f"{cfg.name}: lambda_min {report['lambda_min']}")
            basis = state.basis
            self.record(cfg.name, config, npw=basis.size, fft_shape=list(basis.fft_shape),
                        n_states=ctx.n_states, tangent_dim=report["tangent_dim"])
        return problems


WORKLOADS = {cls.name: cls for cls in (Scf3d, Sweep1d, Audit3d)}

# Which layer should hold most self time, from profiles taken when the
# workloads were chosen; None means no layer above half.
PREDICTED_DOMINANT = {"scf3d": "scf", "sweep1d": None, "audit3d": "response"}
