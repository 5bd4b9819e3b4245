"""Checkpoint files round-trip bit-exactly and validate their format."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from conftest import converged_state
from mks.config import RunConfig
from mks.density_matrix import DensityMatrix
from mks.harness import run_sweep
from mks.io import FORMAT_TAG, _pack, load_density_matrix, load_state, save_state


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    state = converged_state("si1d")
    path = tmp_path / "state.json"
    save_state(state, path)
    gamma, meta = load_density_matrix(path)
    assert np.array_equal(gamma.orbitals, state.gamma.orbitals)
    assert np.array_equal(gamma.occupations, state.gamma.occupations)
    assert np.array_equal(gamma.eigenvalues, state.gamma.eigenvalues)
    assert gamma.basis.size == state.basis.size
    assert gamma.basis.cell.dimension == 1
    assert meta["format"] == FORMAT_TAG
    assert meta["mu"] == state.mu
    assert meta["beta"] == state.smearing.beta
    assert meta["xc"] == state.xc.name
    assert meta["converged"] is True
    assert meta["iterations"] == state.iterations
    assert meta["free_energy"]["total"] == state.free_energy.total


def test_checkpoint_is_plain_json(tmp_path):
    state = converged_state("free1d")
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == FORMAT_TAG
    assert doc["arrays"]["orbitals"]["dtype"] == "c16"
    raw = load_state(path)
    assert isinstance(raw["basis"]["lattice"], np.ndarray)
    assert raw["basis"]["lattice"].shape == (1, 1)


def test_missing_eigenvalues_round_trip_to_none(tmp_path):
    base = converged_state("free1d")
    stripped = DensityMatrix(
        base.gamma.basis, base.gamma.orbitals, base.gamma.occupations
    )

    class Shim:
        gamma = stripped
        n_electrons = base.n_electrons
        smearing = base.smearing
        hartree_on = base.hartree_on
        xc = base.xc
        mu = base.mu
        iterations = base.iterations
        converged = base.converged
        residual_density = base.residual_density
        residual_fixedpoint = base.residual_fixedpoint
        free_energy = base.free_energy

    path = tmp_path / "noeig.json"
    save_state(Shim(), path)
    gamma, _ = load_density_matrix(path)
    assert gamma.eigenvalues is None
    assert np.array_equal(gamma.occupations, base.gamma.occupations)


def test_wrong_format_tag_rejected(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "somebody-elses-file"}))
    with pytest.raises(ValueError, match=FORMAT_TAG):
        load_state(path)


def test_basis_size_mismatch_rejected(tmp_path):
    state = converged_state("free1d")
    path = tmp_path / "state.json"
    save_state(state, path)
    doc = json.loads(path.read_text())
    doc["basis"]["size"] += 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="does not match"):
        load_density_matrix(path)


@pytest.mark.parametrize("key, message", [("orbitals", "orthonormal"),
                                          ("occupations", "not finite"),
                                          ("eigenvalues", "eigenvalues not finite")])
def test_checkpoint_with_nan_rejected(tmp_path, key, message):
    # one entry only: an all-NaN eigenvalue array is the "no eigenvalues" mark
    path = tmp_path / "state.json"
    save_state(converged_state("si1d"), path)
    doc = json.loads(path.read_text())
    poisoned = load_state(path)["arrays"][key]
    poisoned[2] = np.nan
    doc["arrays"][key] = _pack(poisoned)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_density_matrix(path)


def test_checkpoint_with_wrong_length_eigenvalues_rejected(tmp_path):
    path = tmp_path / "state.json"
    save_state(converged_state("si1d"), path)
    doc = json.loads(path.read_text())
    eigenvalues = load_state(path)["arrays"]["eigenvalues"]
    doc["arrays"]["eigenvalues"] = _pack(eigenvalues[:-1])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not one per orbital"):
        load_density_matrix(path)


# -- sweep summary schema ------------------------------------------------


def load_summary_schema():
    ref = resources.files("mks").joinpath("schemas/summary.schema.json")
    return json.loads(ref.read_text())


def test_sweep_summary_validates_against_schema():
    schema = load_summary_schema()
    sweep = run_sweep(RunConfig.from_file("free1d"), cutoffs=[2.0, 4.0],
                      reference=8.0)
    summary = sweep.summary()
    jsonschema.validate(json.loads(json.dumps(summary)), schema)


def test_schema_rejects_malformed_summaries():
    schema = load_summary_schema()
    sweep = run_sweep(RunConfig.from_file("free1d"), cutoffs=[2.0, 4.0],
                      reference=8.0)
    good = json.loads(json.dumps(sweep.summary()))
    jsonschema.validate(good, schema)

    bad_hash = dict(good, config_hash="not-hex!")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad_hash, schema)

    bad_model = dict(good, model="parabolic")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad_model, schema)

    missing = {k: v for k, v in good.items() if k != "a4"}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(missing, schema)
