"""Run configuration: flat key-value text with sections.

A config file is INI-style; every physical and numerical choice of a run
lives here so that runs are reproducible from the file alone.  Bundled
benchmark configurations (free1d, si1d, rhf1d, tiny3d) resolve by bare
name.  See the shipped .cfg files for the full key reference; a key the
loader does not read is an error.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from importlib import resources

import numpy as np

from .cell import Cell, PlaneWaveBasis
from .potentials import (
    ExternalPotential,
    cosine_series,
    dirac_corr,
    dirac_exchange,
    gaussian_wells,
    null_xc,
)
from .smearing import Smearing

__all__ = ["ConfigError", "RunConfig", "bundled_config_path"]


# [xc] functional -> factory of the exchange-correlation model
_XC = {"dirac": dirac_exchange, "dirac+corr": dirac_corr, "none": null_xc}


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _floats(text):
    items = [t for t in text.replace(";", ",").split(",") if t.strip()]
    return [float(t) for t in items]


def _vectors(text):
    rows = [r for r in text.split(";") if r.strip()]
    return [[float(t) for t in r.split(",") if t.strip()] for r in rows]


def _bool(text, key):
    t = text.strip().lower()
    if t in ("on", "true", "yes", "1"):
        return True
    if t in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected on/off, got {text!r}")


def bundled_config_path(name: str):
    """Path of a shipped benchmark config, or None if not bundled."""
    if "/" in name or "\\" in name:
        return None
    stem = name[:-4] if name.endswith(".cfg") else name
    ref = resources.files("mks").joinpath(f"configs/{stem}.cfg")
    return ref if ref.is_file() else None


class RunConfig:
    """Parsed and validated run configuration, with the model it describes
    (``cell``, ``external``, ``xc``) built at load: a value the model's
    constructors reject is a ConfigError before any solve."""

    def __init__(self, parser: configparser.ConfigParser, origin="<memory>"):
        self.origin = str(origin)
        self._read = set()
        try:
            self._load(parser)
        except ConfigError:
            raise
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{origin}: {exc}") from exc
        unknown = [
            f"{section}.{key}"
            for section in parser.sections()
            for key in parser.options(section)
            if (section, key) not in self._read
        ]
        if unknown:
            raise ConfigError(f"{origin}: unknown keys {', '.join(unknown)}")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        bundled = bundled_config_path(str(path))
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            if bundled is not None:
                parser.read_string(bundled.read_text(), source=str(path))
            else:
                with open(path) as fh:
                    parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        return cls(parser, origin=path)

    @classmethod
    def from_text(cls, text, origin="<memory>") -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        return cls(parser, origin=origin)

    def _get(self, parser, section, key, fallback=None):
        """[section] key, required when there is no fallback; every key
        asked for is recorded, and whatever else a file holds is unknown."""
        self._read.add((section, key))
        if fallback is None and not parser.has_option(section, key):
            raise ConfigError(f"{self.origin}: missing [{section}] {key}")
        return parser.get(section, key, fallback=fallback)

    def _positive(self, key, value):
        """``value``, or a ConfigError unless it is positive and finite."""
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(
                f"{self.origin}: {key} must be positive and finite, got {value:g}"
            )
        return value

    def _rows(self, parser, key, kind):
        """[potential] key as rows of ``dimension`` coordinates each."""
        rows = [[kind(c) for c in row]
                for row in _vectors(self._get(parser, "potential", key))]
        for row in rows:
            if len(row) != self.dimension:
                raise ConfigError(
                    f"{self.origin}: potential {key} row {row} has {len(row)} "
                    f"coordinates in dimension {self.dimension}"
                )
        return rows

    def _load(self, p: configparser.ConfigParser):
        dim = int(self._get(p, "cell", "dimension"))
        if dim not in (1, 2, 3):
            raise ConfigError(f"{self.origin}: dimension must be 1, 2 or 3")
        lattice_text = self._get(p, "cell", "lattice")
        if ";" in lattice_text:
            lattice = np.array(_vectors(lattice_text))
        else:
            diag = _floats(lattice_text)
            if len(diag) == 1:
                diag = diag * dim
            lattice = np.diag(diag)
        if lattice.shape != (dim, dim):
            raise ConfigError(
                f"{self.origin}: lattice shape {lattice.shape} does not match "
                f"dimension {dim}"
            )
        self.dimension = dim
        self.lattice = lattice
        self.cell = Cell(lattice)

        for key in ("n_electrons", "beta", "cutoff"):
            value = float(self._get(p, "system", key))
            setattr(self, key, self._positive(key, value))

        kind = self._get(p, "potential", "kind", "zero").strip()
        if kind == "zero":
            self.potential_params = {"kind": "zero"}
            self.external = ExternalPotential.zero()
        elif kind == "gaussian_wells":
            centers = self._rows(p, "centers", float)
            depths = _floats(self._get(p, "potential", "depths"))
            widths = _floats(self._get(p, "potential", "widths"))
            self.potential_params = {
                "kind": kind, "centers": centers, "depths": depths, "widths": widths,
            }
            self.external = gaussian_wells(centers, depths, widths)
        elif kind == "cosine_series":
            modes = self._rows(p, "modes", int)
            amplitudes = _floats(self._get(p, "potential", "amplitudes"))
            self.potential_params = {
                "kind": kind, "modes": modes, "amplitudes": amplitudes,
            }
            self.external = cosine_series(modes, amplitudes)
        else:
            raise ConfigError(f"{self.origin}: unknown potential kind {kind!r}")

        self.xc_name = self._get(p, "xc", "functional", "dirac").strip()
        if self.xc_name not in _XC:
            raise ConfigError(f"{self.origin}: unknown xc functional {self.xc_name!r}")
        self.xc = _XC[self.xc_name]()
        self.hartree_on = _bool(self._get(p, "xc", "hartree", "on"), "hartree")

        for key, fallback in (("tol_rho", "1e-8"), ("tol_f", "1e-10")):
            value = float(self._get(p, "scf", key, fallback))
            setattr(self, key, self._positive(key, value))
        self.max_iter = int(self._get(p, "scf", "max_iter", "200"))
        if self.max_iter < 1:
            raise ConfigError(
                f"{self.origin}: max_iter must be at least 1, got {self.max_iter}"
            )

        self.g_sign = self._get(p, "response", "g_sign", "paper").strip()
        if self.g_sign not in ("paper", "analytic"):
            raise ConfigError(f"{self.origin}: g_sign must be paper or analytic")

        cut_text = self._get(p, "sweep", "cutoffs", "")
        self.sweep_cutoffs = _floats(cut_text) if cut_text.strip() else []
        ref_text = self._get(p, "sweep", "reference", "")
        self.sweep_reference = float(ref_text) if ref_text.strip() else None
        betas_text = self._get(p, "sweep", "betas", "")
        self.sweep_betas = _floats(betas_text) if betas_text.strip() else [self.beta]
        for beta in self.sweep_betas:
            self._positive("betas", beta)
        self.quasi_opt_bound = self._positive(
            "quasi_opt_bound", float(self._get(p, "sweep", "quasi_opt_bound", "50"))
        )
        self.timing = _bool(self._get(p, "sweep", "timing", "on"), "timing")

        self.out_dir = self._get(p, "output", "out_dir", "runs").strip()

    # -- factories ----------------------------------------------------------

    def build_basis(self, cutoff=None) -> PlaneWaveBasis:
        return PlaneWaveBasis(self.cell, cutoff if cutoff is not None else self.cutoff)

    def build_smearing(self, beta=None) -> Smearing:
        return Smearing(beta if beta is not None else self.beta)

    # -- identity ------------------------------------------------------------

    def effective_items(self):
        """Canonical (key, value-string) pairs describing the resolved run."""
        items = {
            "cell.dimension": self.dimension,
            "cell.lattice": np.array2string(
                self.lattice, precision=17, separator=","
            ),
            "system.n_electrons": repr(self.n_electrons),
            "system.beta": repr(self.beta),
            "system.cutoff": repr(self.cutoff),
            "xc.functional": self.xc_name,
            "xc.hartree": self.hartree_on,
            "scf.tol_rho": repr(self.tol_rho),
            "scf.tol_f": repr(self.tol_f),
            "scf.max_iter": self.max_iter,
            "response.g_sign": self.g_sign,
            "sweep.cutoffs": repr(self.sweep_cutoffs),
            "sweep.reference": repr(self.sweep_reference),
            "sweep.betas": repr(self.sweep_betas),
            "sweep.quasi_opt_bound": repr(self.quasi_opt_bound),
        }
        for key, value in sorted(self.potential_params.items()):
            items[f"potential.{key}"] = repr(value)
        return sorted((k, str(v)) for k, v in items.items())

    def config_hash(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in self.effective_items())
        return hashlib.sha256(text.encode()).hexdigest()[:16]
