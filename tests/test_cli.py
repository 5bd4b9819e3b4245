"""End-to-end command-line runs, in-process via main() plus the console script
in a subprocess."""

import configparser
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.linalg

from conftest import converged_state, spy_on_run_scf

import mks
from mks.cli import main
from mks.config import ConfigError, RunConfig, bundled_config_path
from mks.io import load_density_matrix


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def free1d_text(**overrides):
    text = bundled_config_path("free1d").read_text()
    for key, value in overrides.items():
        text = text.replace(f"[{key}]", f"[{key}]\n{value}")
    return text


def test_scf_json_mode(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["scf", "--config", "free1d", "--json", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert summary["basis_size"] == 9
    assert len(summary["config_hash"]) == 16
    assert summary["trace"] == pytest.approx(2.0, abs=1e-12)
    # two electrons at the bundled beta occupy all nine plane waves
    assert summary["n_states"] == 9
    assert summary["basis_exhausted"] is True
    assert read_json(out / "scf_summary.json") == summary

    # "\n" line ends, as in sweep_beta*.csv, so the last field has no "\r"
    assert b"\r" not in (out / "scf_iterations.csv").read_bytes()
    lines = (out / "scf_iterations.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "iteration,free_energy,density_residual,mu,n_states,precond_products,"
        "eigensolver,eig_residual"
    )
    # the columns are the history record's keys
    assert lines[0].split(",") == list(converged_state("free1d").history[0])
    assert len(lines) == 1 + summary["iterations"]
    last = lines[-1].split(",")
    assert float(last[1]) == summary["free_energy"]["total"]
    assert int(last[4]) == summary["n_states"]
    # the converged iteration takes no step, so it makes no product
    assert int(last[5]) == 0
    assert sum(int(line.split(",")[5]) for line in lines[1:]) == summary["precond_products"]
    # nine plane waves: every eigensolve takes the full spectrum
    assert {line.split(",")[6] for line in lines[1:]} == {"evd"}
    assert max(float(line.split(",")[7]) for line in lines[1:]) == summary["eig_residual_max"]

    gamma, meta = load_density_matrix(out / "checkpoint.json")
    assert gamma.trace() == pytest.approx(2.0, abs=1e-12)
    assert meta["mu"] == summary["mu"]


@pytest.mark.parametrize("beta, exhausted", [(2.0, True), (20.0, False)])
def test_scf_reports_exhausted_basis(tmp_path, capsys, beta, exhausted):
    cfg = tmp_path / "tiny3d.cfg"
    text = bundled_config_path("tiny3d").read_text()
    cfg.write_text(text.replace("beta = 20.0", f"beta = {beta}"))
    code = main(["scf", "--config", str(cfg), "--json",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["basis_size"] == 81
    assert summary["basis_exhausted"] is exhausted
    assert (summary["n_states"] == 81) is exhausted


def test_scf_human_mode(tmp_path, capsys):
    code = main(["scf", "--config", "free1d", "--out", str(tmp_path / "h")])
    assert code == 0
    text = capsys.readouterr().out
    assert "converged in" in text
    assert "F = " in text
    assert "wrote" in text


def test_scf_is_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["scf", "--config", "si1d", "--json", "--out", str(out)]) == 0
        paths.append(out)
    for name in ("scf_summary.json", "scf_iterations.csv", "checkpoint.json"):
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


def test_failing_fixed_point_residual_exits_1_without_output(tmp_path, capsys,
                                                              monkeypatch):
    def failing(state):
        raise mks.scf.ScfError("residual map failed")

    monkeypatch.setattr(mks.scf, "fixed_point_residual", failing)
    code = main(["scf", "--config", "free1d", "--out", str(tmp_path / "x")])
    assert code == 1
    assert capsys.readouterr().err == "error: residual map failed\n"
    assert not (tmp_path / "x").exists()


def test_response_audit_json(tmp_path, capsys):
    out = tmp_path / "resp"
    code = main(["response", "--config", "free1d", "--json", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violated"] is False
    assert report["lambda_min"] == pytest.approx(1.0, abs=1e-12)
    assert report["g_sign"] == "paper"
    assert len(report["config_hash"]) == 16
    assert read_json(out / "response_audit.json") == report


def test_response_human_mode(tmp_path, capsys):
    code = main(["response", "--config", "free1d", "--out", str(tmp_path / "r")])
    assert code == 0
    assert "lambda_min" in capsys.readouterr().out


def test_audit_xc_passes_for_bundled_functional(tmp_path, capsys):
    out = tmp_path / "xc"
    code = main(["audit-xc", "--config", "si1d", "--json", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["name"] == "dirac"
    assert (out / "xc_audit.json").is_file()


def test_sweep_writes_tagged_files_per_beta(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--config", "free1d", "--json", "--out", str(out),
        "--cutoffs", "2,4", "--reference", "8",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["sweeps"]) == 3

    schema = json.loads(
        resources.files("mks").joinpath("schemas/summary.schema.json").read_text()
    )
    for beta, tag in ((2.0, "2"), (20.0, "20"), (200.0, "200")):
        summary = read_json(out / f"sweep_beta{tag}.json")
        jsonschema.validate(summary, schema)
        assert summary["beta"] == beta
        assert b"\r" not in (out / f"sweep_beta{tag}.csv").read_bytes()
        lines = (out / f"sweep_beta{tag}.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("ec,")


def test_sweep_beta_tags_handle_decimal_points(tmp_path):
    cfg = tmp_path / "halfbeta.cfg"
    cfg.write_text(
        bundled_config_path("free1d").read_text().replace(
            "betas = 2, 20, 200", "betas = 0.5"
        )
    )
    out = tmp_path / "out"
    code = main([
        "sweep", "--config", str(cfg), "--json", "--out", str(out),
        "--cutoffs", "2,4", "--reference", "8",
    ])
    assert code == 0
    assert (out / "sweep_beta0p5.csv").is_file()
    assert (out / "sweep_beta0p5.json").is_file()


def test_sweep_human_mode_reports_floor(tmp_path, capsys):
    # the noninteracting model converges past the tolerance floor at every
    # bundled beta, so no decay fit is possible and the CLI must say so
    out = tmp_path / "floor"
    code = main(["sweep", "--config", "free1d", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "fit unavailable (errors at tolerance floor)" in text
    assert text.count("beta") == 3


def test_sweep_is_deterministic_with_timing_off(tmp_path):
    cfg = tmp_path / "notiming.cfg"
    cfg.write_text(free1d_text(sweep="timing = off"))
    outputs = []
    for tag in ("a", "b"):
        # the second run solves again rather than reuse the first one's states
        mks.harness._SWEPT.clear()
        out = tmp_path / tag
        code = main([
            "sweep", "--config", str(cfg), "--json", "--out", str(out),
            "--cutoffs", "2,4,6", "--reference", "12",
        ])
        assert code == 0
        outputs.append(out)
    for tag in ("2", "20", "200"):
        for name in (f"sweep_beta{tag}.csv", f"sweep_beta{tag}.json"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def test_quasi_opt_json(tmp_path, capsys):
    out = tmp_path / "qo"
    code = main([
        "quasi-opt", "--config", "si1d", "--json", "--out", str(out),
        "--cutoffs", "2,3,4", "--reference", "8",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["max_ratio"] <= report["bound"]
    assert len(report["ratios"]) == 3
    assert np.isfinite(report["orbital_constant"])
    assert read_json(out / "quasi_opt.json") == report


def si1d_without_timing(tmp_path):
    cfg = tmp_path / "si1d.cfg"
    cfg.write_text(bundled_config_path("si1d").read_text().replace(
        "[sweep]", "[sweep]\ntiming = off"))
    return str(cfg)


@pytest.mark.parametrize("first, second, solves", [
    ("sweep", "quasi-opt", (18, 0)),
    ("quasi-opt", "sweep", (6, 12)),
])
def test_quasi_opt_and_sweep_share_solves_in_one_process(
        tmp_path, monkeypatch, first, second, solves):
    # three betas of a reference and five cutoffs each; quasi-opt takes
    # the configured beta 40, which the sweep also covers
    cfg = si1d_without_timing(tmp_path)
    calls = spy_on_run_scf(monkeypatch)
    counts = []
    for command in (first, second):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        counts.append(len(calls))
        calls.clear()
    assert tuple(counts) == solves


def test_back_to_back_outputs_match_cold_ones(tmp_path):
    cfg = si1d_without_timing(tmp_path)
    runs = {}
    for mode in ("cold", "warm"):
        out = tmp_path / mode
        for command in ("sweep", "quasi-opt"):
            if mode == "cold":
                mks.harness._SWEPT.clear()
            assert main([command, "--config", cfg, "--json", "--out", str(out)]) == 0
        runs[mode] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(runs["cold"]) == [
        "quasi_opt.json", "sweep_beta4.csv", "sweep_beta4.json",
        "sweep_beta40.csv", "sweep_beta40.json",
        "sweep_beta400.csv", "sweep_beta400.json",
    ]
    assert runs["warm"] == runs["cold"]


def test_a_quasi_opt_after_a_sweep_measures_no_error(tmp_path, monkeypatch):
    # the sweep measured each swept state's errors against the reference
    # (two S^{1,1} distances and a projection), and quasi-opt reads them;
    # test_back_to_back_outputs_match_cold_ones checks that its
    # quasi_opt.json is the cold one, byte for byte
    cfg = si1d_without_timing(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    calls = []
    for name in ("s11_distance", "project_dm"):
        measure = getattr(mks.harness, name)
        monkeypatch.setattr(mks.harness, name,
                            lambda *a, f=measure, n=name: calls.append(n) or f(*a))
    assert main(["quasi-opt", "--config", cfg, "--out", str(tmp_path / "warm")]) == 0
    assert calls == []
    mks.harness._SWEPT.clear()
    assert main(["quasi-opt", "--config", cfg, "--out", str(tmp_path / "cold")]) == 0
    assert calls == ["s11_distance", "project_dm", "s11_distance"] * 5


def test_a_sweep_of_another_config_evicts_the_solves(tmp_path, monkeypatch):
    cfg = si1d_without_timing(tmp_path)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--config", "rhf1d", "--out", str(tmp_path / "b")]) == 0
    calls = spy_on_run_scf(monkeypatch)
    assert main(["quasi-opt", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert len(calls) == 6


def test_missing_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[cell]\ndimension = 1\nlattice = 5.0\n[system]\nbeta = 1.0\ncutoff = 4.0\n")
    code = main(["scf", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "missing [system] n_electrons" in err


@pytest.mark.parametrize("section, line, key", [
    ("scf", "seed = 3", "scf.seed"),
    ("sweep", "dense_cap = 100", "sweep.dense_cap"),
    ("scf", "alpah = 0.9", "scf.alpah"),
    ("scf", "alpha = 0.5", "scf.alpha"),
    ("scf", "mixing = damping", "scf.mixing"),
    ("mixer", "kind = broyden", "mixer.kind"),
    # read only for gaussian_wells, and free1d's potential is zero
    ("potential", "centers = 1.0", "potential.centers"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, section, line, key):
    text = bundled_config_path("free1d").read_text()
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]", f"[{section}]\n{line}")
    else:
        text += f"\n[{section}]\n{line}\n"
    cfg = tmp_path / "unknown.cfg"
    cfg.write_text(text)
    out = tmp_path / "never"
    code = main(["scf", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"unknown keys {key}\n" in err
    assert not out.exists()


def test_retired_mixing_key_is_a_config_error(tmp_path):
    cfg = tmp_path / "damped.cfg"
    cfg.write_text(free1d_text(scf="mixing = damping"))
    with pytest.raises(ConfigError, match="unknown keys scf.mixing$"):
        RunConfig.from_file(cfg)


def positive_reason(key, value):
    return f"{key} must be positive and finite, got {float(value):g}"


# (key, value, the reason printed): every numeric value is checked at load
BAD_SCALARS = [
    *((key, value, positive_reason(key, value))
      for key in ("n_electrons", "beta", "cutoff")
      for value in ("nan", "inf", "-inf", "-1")),
    *((key, value, positive_reason(key, value))
      for key in ("tol_rho", "tol_f", "quasi_opt_bound")
      for value in ("nan", "inf", "0", "-1")),
    ("max_iter", "0", "max_iter must be at least 1, got 0"),
    ("max_iter", "-3", "max_iter must be at least 1, got -3"),
    ("betas", "2,-1", positive_reason("betas", "-1")),
    ("betas", "nan,20", positive_reason("betas", "nan")),
    ("betas", "0", positive_reason("betas", "0")),
]


@pytest.mark.parametrize("key, value, reason", BAD_SCALARS,
                         ids=[f"{value}-{key}" for key, value, _ in BAD_SCALARS])
def test_bad_system_scalar_exits_2(tmp_path, capsys, key, value, reason):
    lines = bundled_config_path("free1d").read_text().splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in lines]
    if f"{key} = {value}" not in lines:  # free1d leaves it at its default
        lines.insert(lines.index("[sweep]") + 1, f"{key} = {value}")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "never"
    code = main(["scf", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"{reason}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "quasi-opt"])
@pytest.mark.parametrize("args, fragment", [
    (["--cutoffs", "abc"], "'abc'"),
    (["--cutoffs", "0,-2,4"], "got -2"),
    (["--cutoffs", "2,nan"], "got nan"),
    (["--reference", "-5"], "got -5"),
    (["--reference", "inf"], "got inf"),
    (["--cutoffs", ""], "sweep requires a cutoff list"),
])
def test_bad_sweep_input_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                  command, args, fragment):
    calls = []
    monkeypatch.setattr("mks.harness.run_single",
                        lambda *a, **kw: calls.append(a))
    code = main([command, "--config", "free1d", "--out", str(tmp_path / "w"),
                 *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert fragment in err
    assert calls == []
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("command", ["sweep", "quasi-opt"])
@pytest.mark.parametrize("old, new, fragment", [
    ("cutoffs = 2, 4, 6, 8, 12", "cutoffs = 0, 2", "got 0"),
    ("reference = 24", "reference = 5",
     "reference cutoff 5 must be at least twice the largest swept cutoff 12"),
], ids=["zero-cutoff", "low-reference"])
def test_bad_sweep_config_exits_2_without_output(tmp_path, capsys, monkeypatch,
                                                 command, old, new, fragment):
    # the sweep values are checked after load, and still before any solve
    # or output directory
    calls = []
    monkeypatch.setattr("mks.harness.run_single",
                        lambda *a, **kw: calls.append(a))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bundled_config_path("free1d").read_text().replace(old, new))
    out = tmp_path / "w"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert fragment in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("name, old, new, fragment", [
    ("tiny3d", "widths = 0.8", "widths = -0.8", "gaussian widths must be positive"),
    ("si1d", "depths = -2.4, -2.1, -2.7", "depths = -2.4, -2.1",
     "centers, depths, widths must have equal length"),
    ("tiny3d", "centers = 3.0, 3.0, 3.0", "centers = 3.0, 3.0",
     "potential centers row [3.0, 3.0] has 2 coordinates in dimension 3"),
    ("free1d", "dimension = 1\nlattice = 6.283185307179586",
     "dimension = 2\nlattice = 1, 2; 2, 4", "lattice vectors are linearly dependent"),
    ("free1d", "kind = zero", "kind = cosine_series\nmodes = 1, 2\namplitudes = 0.5",
     "potential modes row [1, 2] has 2 coordinates in dimension 1"),
    ("free1d", "lattice = 6.283185307179586", "lattice = nan",
     "lattice vectors must be finite"),
    ("free1d", "lattice = 6.283185307179586", "lattice = inf",
     "lattice vectors must be finite"),
    ("free1d", "kind = zero", "kind = wells", "unknown potential kind 'wells'"),
], ids=["negative-width", "short-depths", "2d-centre-in-3d", "singular-lattice",
        "2d-mode-in-1d", "nan-lattice", "inf-lattice", "unknown-kind"])
def test_bad_model_value_exits_2(tmp_path, capsys, name, old, new, fragment):
    text = bundled_config_path(name).read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    out = tmp_path / "never"
    code = main(["scf", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["free1d", "si1d", "rhf1d", "tiny3d"])
def test_bundled_config_has_no_dead_keys(name):
    # every key a shipped file sets reaches the run's identity, except the
    # two that change where and how results are written, not what they are
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(bundled_config_path(name).read_text())
    written = {f"{section}.{key}" for section in parser.sections()
               for key in parser[section]}
    used = {key for key, _ in RunConfig.from_file(name).effective_items()}
    assert written - used <= {"sweep.timing", "output.out_dir"}


def test_unreadable_config_exits_2(tmp_path, capsys):
    code = main(["scf", "--config", str(tmp_path / "absent" / "no.cfg")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, fragment", [
    ("max_iter = 200", "max_iter = 1", ""),
    # 4899 plane waves, above the dense eigensolver's limit
    ("cutoff = 8.0", "cutoff = 3000000.0", "dense limit of 4096"),
], ids=["max-iter", "above-dense-limit"])
def test_scf_failure_exits_1(tmp_path, capsys, old, new, fragment):
    cfg = tmp_path / "hopeless.cfg"
    cfg.write_text(bundled_config_path("free1d").read_text().replace(old, new))
    code = main(["scf", "--config", str(cfg), "--out", str(tmp_path / "y")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and fragment in errors[0]
    assert not (tmp_path / "y").exists()


def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError(
            "Unable to allocate 29.6 GiB for an array with shape (63001, 63001) "
            "and data type float64"
        )

    monkeypatch.setattr("mks.cli.run_sweep", exhausted)
    code = main(["sweep", "--config", "free1d", "--out", str(tmp_path / "z")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_linalg_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # free1d's 9 plane waves take the full spectrum (dsyevd); tiny3d at
    # ec 8, 251 plane waves, takes the wanted pairs only (dsyevr)
    tiny3d_ec8 = tmp_path / "tiny3d_ec8.cfg"
    text = bundled_config_path("tiny3d").read_text()
    tiny3d_ec8.write_text(text.replace("cutoff = 4.0", "cutoff = 8.0"))
    for routine, config in (("dsyevd", "free1d"), ("dsyevr", str(tiny3d_ec8))):
        called = []

        def broken(*args, _routine=routine, **kwargs):
            called.append(_routine)
            raise scipy.linalg.LinAlgError("eigenvalue algorithm did not converge")

        with monkeypatch.context() as patch:
            patch.setattr(mks.scf.lapack, routine, broken)
            code = main(["scf", "--config", config, "--out", str(tmp_path / routine)])
        assert code == 1
        assert called == [routine]
        err = capsys.readouterr().err
        assert err == "error: eigenvalue algorithm did not converge\n"


def test_sweep_failure_keeps_later_betas(tmp_path, capsys, monkeypatch):
    from mks.cli import run_sweep as real_run_sweep

    def first_beta_fails(config, **kwargs):
        if kwargs["beta"] == config.sweep_betas[0]:
            raise MemoryError("Unable to allocate the first beta")
        return real_run_sweep(config, **kwargs)

    monkeypatch.setattr("mks.cli.run_sweep", first_beta_fails)
    out = tmp_path / "partial"
    code = main([
        "sweep", "--config", "si1d", "--out", str(out),
        "--cutoffs", "6,9", "--reference", "18",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate the first beta\n"
    assert not (out / "sweep_beta4.csv").exists()
    for tag in ("40", "400"):
        assert (out / f"sweep_beta{tag}.csv").is_file()
        assert (out / f"sweep_beta{tag}.json").is_file()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SMOKE_ARGS = ["scf", "--config", "free1d", "--json", "--out"]


def declared_console_script(name):
    """The `[project.scripts]` value declared for `name` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def assert_scf_smoke(proc, out):
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["converged"] is True
    assert (out / "checkpoint.json").is_file()


def test_console_script_smoke(tmp_path):
    # Start the declared entry point the way the pip-generated `mks` script
    # does, so the check needs no installed package; the child imports the
    # same `mks` as this process.
    value = declared_console_script("mks")
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'mks'\n"
        f"func = EntryPoint('mks', {value!r}, 'console_scripts').load()\n"
        "sys.exit(func())\n"
    )
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *SMOKE_ARGS, str(out)],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert_scf_smoke(proc, out)


def child_env():
    """Environment in which a child Python imports the same `mks`."""
    package_root = str(Path(mks.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]
    ))


@pytest.mark.skipif(shutil.which("mks") is None, reason="no mks executable on PATH")
def test_installed_console_script_smoke(tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        ["mks", *SMOKE_ARGS, str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert_scf_smoke(proc, out)


# every subcommand on every bundled config exits 0, except free1d quasi-opt,
# whose ratios (at most 5.7) stay within the bound but rise with the cutoff
COMMAND_OUTPUTS = {
    "scf": "scf_summary.json",
    "sweep": "sweep_beta*.json",
    "response": "response_audit.json",
    "audit-xc": "xc_audit.json",
    "quasi-opt": "quasi_opt.json",
}


@pytest.mark.parametrize("command", sorted(COMMAND_OUTPUTS))
@pytest.mark.parametrize("name", ["free1d", "si1d", "rhf1d", "tiny3d"])
def test_every_subcommand_on_every_bundled_config(tmp_path, capsys, name, command):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(bundled_config_path(name).read_text().replace(
        "[sweep]", "[sweep]\ntiming = off"))
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if (name, command) == ("free1d", "quasi-opt"):
        assert code == 1
        assert err.startswith("error: quasi-optimality fails") and err.count("\n") == 1
    else:
        assert code == 0
        assert err == ""
    # each bundled config sweeps three betas
    assert len(list(out.glob(COMMAND_OUTPUTS[command]))) == (3 if command == "sweep" else 1)


# the public scipy subpackages a full si1d run loads; importing
# scipy.optimize as well adds about 12 MiB to the peak RSS of a process that
# has imported mks
SCIPY_SUBPACKAGES = {"fft", "linalg", "sparse", "special", "version"}


def test_subcommands_load_only_the_needed_scipy_subpackages(tmp_path):
    script = (
        "import sys\n"
        "from mks.cli import main\n"
        "for command in ('scf', 'sweep', 'response', 'audit-xc', 'quasi-opt'):\n"
        f"    out = {str(tmp_path)!r} + '/' + command\n"
        "    assert main([command, '--config', 'si1d', '--out', out]) == 0\n"
        "print(' '.join(sorted({name.split('.')[1] for name in sys.modules\n"
        "                       if name.startswith('scipy.')})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    public = {name for name in loaded if not name.startswith("_")}
    assert public <= SCIPY_SUBPACKAGES, sorted(public - SCIPY_SUBPACKAGES)
