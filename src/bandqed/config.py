"""JSON run-configuration: schema validation, unit conversion, canonical form.

One JSON document drives every CLI command.  Frequencies are written as
ordinary frequencies (Hz) when units = "si" and converted to angular
frequencies internally; in "dimensionless" mode numbers pass through
unchanged (the natural choice is omega_b = 1, a = 1, k0 = pi).  Lengths are
meters in "si"; atom positions and separations given in the per-command
parameters are in units of the lattice constant in both modes.

Every key is declared once, with its kind and default, in `SCHEMA` (the
sections) or `PARAMS` (each command's params), and one reader, `_section`,
applies the same checks to all of them.  Validation is strict: unknown
keys anywhere in the document are rejected, and every embedded physical
record enforces its own invariants at load time.  `canonical_dumps` defines the byte-stable serialization used for
round-trip and determinism guarantees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .bound_state import (TWOPI, AtomCoupling, BandEdge, _mixing_theta,
                          atom_coupling, bound_state_depth)
from .disorder import DielectricStack
from .dynamics import LossModel
from .interactions import AtomArray, DriveField, atom_array


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# units -> multiplier from config frequency numbers to internal rad/s
_FREQ_SCALES = {"si": TWOPI, "dimensionless": 1.0}

# Value kinds.  A frequency is a number multiplied by 2*pi under units "si".
NUMBER, FREQUENCY, INTEGER, BOOLEAN, NUMBERS, PAIRS = (
    "number", "frequency", "integer", "boolean", "list of numbers",
    "list of [re, im] pairs")
REQUIRED = "required"

# name -> a document in config units (Hz) that a config is layered over and
# nothing writes to; apcw is the alligator photonic-crystal waveguide
# operating point (k0 = pi/a, and beta from g_cell, at load time)
PRESETS = {
    "apcw": {
        "units": "si",
        "band": {"omega_b": 333.0e12, "alpha": 10.6, "a": 371.0e-9},
        "coupling": {"g_cell": 12.2e9, "gamma": 5.0e6},
    },
}

# section -> key -> (kind, default).  A REQUIRED key must be given; an
# optional key whose default is None is left out when absent, so the record
# built from the section applies its own default.  load_config fills in
# band.k0 = pi/a and losses.theta from the coupling; the atoms take
# coupling.gamma, and "drives" is a list of Lambda-scheme legs (Omega' = 0).
SCHEMA = {
    "band": {"omega_b": (FREQUENCY, REQUIRED), "alpha": (NUMBER, REQUIRED),
             "a": (NUMBER, REQUIRED), "k0": (NUMBER, None)},
    "coupling": {"Delta": (FREQUENCY, 0.0), "gamma": (FREQUENCY, REQUIRED),
                 "beta": (FREQUENCY, None), "g_cell": (FREQUENCY, None)},
    "atoms": {"positions": (NUMBERS, REQUIRED), "bloch_values": (PAIRS, None)},
    "drives": {"Omega": (FREQUENCY, REQUIRED), "delta_L": (FREQUENCY, REQUIRED),
               "Delta_L": (FREQUENCY, REQUIRED)},
    "losses": {"kappa_p": (FREQUENCY, 0.0), "gamma": (FREQUENCY, REQUIRED),
               "theta": (NUMBER, None)},
    "disorder": {"r": (NUMBER, REQUIRED), "phi_b": (NUMBER, None),
                 "epsilon": (NUMBER, None), "n_cells": (INTEGER, None),
                 "seed": (INTEGER, None)},
}
# command -> params key -> (kind, default); params are never unit-scaled
PARAMS = {
    "bound-state": {"grid_min": (NUMBER, -10.0), "grid_max": (NUMBER, 10.0),
                    "grid_points": (INTEGER, 401)},
    "interactions": {"Delta_values": (NUMBERS, None), "sep_max": (NUMBER, 55.0),
                     "sep_points": (INTEGER, 56)},
    "design-powerlaw": {"eta": (NUMBER, REQUIRED), "z_min": (NUMBER, 1.0),
                        "z_max": (NUMBER, 50.0), "n_drives": (INTEGER, 2),
                        "tolerance": (NUMBER, None)},
    "exchange": {"separation": (NUMBER, 1.0), "optimize": (BOOLEAN, True)},
    "evolve": {"t_max": (NUMBER, REQUIRED), "n_times": (INTEGER, 201),
               "initial_site": (INTEGER, 0)},
    "disorder": {"epsilon_values": (NUMBERS, None), "n_trials": (INTEGER, 200)},
}


def _number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        x = float(v)
    except OverflowError:   # a JSON integer beyond the float range
        raise ConfigError(f"{name} is beyond the float range") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {v!r}")
    return x


def _value(v, kind: str, name: str, scale: float):
    """One checked, converted value of the given kind."""
    if kind == BOOLEAN:
        if not isinstance(v, bool):
            raise ConfigError(f"{name} must be a boolean")
        return v
    if kind == INTEGER:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{name} must be an integer")
        _number(v, name)
        return v
    if kind == NUMBERS:
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{name} must be a non-empty {kind}")
        return [_number(x, f"{name}[{i}]") for i, x in enumerate(v)]
    if kind == PAIRS:
        if not isinstance(v, list) or not v or not all(
                isinstance(p, list) and len(p) == 2 for p in v):
            raise ConfigError(f"{name} must be a non-empty {kind}")
        arr = np.array([[_number(x, f"{name}[{i}]") for x in p]
                        for i, p in enumerate(v)])
        return arr[:, 0] + 1j * arr[:, 1]
    x = _number(v, name)
    return x * scale if kind == FREQUENCY else x


def _section(doc, table: dict, path: str, scale: float = 1.0) -> dict:
    """Check one JSON object against its table; return its converted values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be a JSON object")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {path}: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        if key in doc:
            out[key] = _value(doc[key], kind, f"{path}.{key}", scale)
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {path}.{key}")
        elif default is not None:
            out[key] = default
    return out


@dataclass
class RunConfig:
    """Validated, unit-converted run configuration for one command."""

    units: str
    band: Optional[BandEdge]
    coupling: Optional[AtomCoupling]
    atoms: Optional[AtomArray]
    drives: list[DriveField]
    losses: Optional[LossModel]
    disorder: Optional[DielectricStack]
    params: dict = field(default_factory=dict)

    @property
    def freq_scale(self) -> float:
        """Multiplier from config frequency numbers to internal rad/s."""
        return _FREQ_SCALES[self.units]

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise ConfigError(f"this command needs a {name!r} section")
        return value

    def loss_model(self) -> LossModel:
        """The losses section, or a zero-photon-loss default from coupling."""
        return self.losses or _loss_model(self.coupling, gamma=self.coupling.gamma)


def _loss_model(coupling: AtomCoupling, gamma: float, kappa_p: float = 0.0,
                theta: Optional[float] = None) -> LossModel:
    """A LossModel whose theta defaults to the mixing angle at the coupling's detuning."""
    if theta is None:
        theta = _mixing_theta(bound_state_depth(coupling.beta, coupling.Delta), coupling.beta)
    return LossModel(kappa_p=kappa_p, gamma=gamma, theta=theta)


def load_config(raw: dict, command: str) -> RunConfig:
    """Validate and convert a parsed JSON document into live records.

    Any invariant violation inside the embedded physical records surfaces
    as ConfigError.
    """
    unknown = set(raw) - {"units", "params", *SCHEMA}
    if unknown:
        raise ConfigError(f"unknown keys in config: {sorted(unknown)}")
    units = raw.get("units", "si")
    if not isinstance(units, str) or units not in _FREQ_SCALES:
        raise ConfigError('units must be "si" or "dimensionless"')
    if not isinstance(raw.get("drives", []), list):
        raise ConfigError("drives must be a list")
    scale = _FREQ_SCALES[units]
    sec = {name: _section(raw[name], SCHEMA[name], name, scale)
           for name in SCHEMA if name != "drives" and name in raw}
    params = _section(raw.get("params", {}), PARAMS[command], "params")
    for name, needed in (("coupling", "band"), ("atoms", "band"),
                         ("atoms", "coupling"), ("losses", "coupling")):
        if name in sec and needed not in sec:
            raise ConfigError(f"{name} section needs a {needed} section")

    try:
        band = coupling = atoms = losses = stack = None
        if "band" in sec:
            if "k0" not in sec["band"]:
                sec["band"]["k0"] = math.pi / sec["band"]["a"]
            band = BandEdge(**sec["band"])
        if "coupling" in sec:
            coupling = atom_coupling(band, **sec["coupling"])
        if "atoms" in sec:
            atoms = atom_array(band=band, gamma=coupling.gamma, **sec["atoms"])
        drives = [DriveField(Omega_prime=0.0, **_section(
                      d, SCHEMA["drives"], f"drives[{i}]", scale))
                  for i, d in enumerate(raw.get("drives", []))]
        if "losses" in sec:
            losses = _loss_model(coupling, **sec["losses"])
        if "disorder" in sec:
            stack = DielectricStack(**sec["disorder"])
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(units=units, band=band, coupling=coupling, atoms=atoms,
                     drives=drives, losses=losses, disorder=stack, params=params)


def canonical_dumps(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, minimal separators, trailing newline.

    Strict RFC 8259 output: a non-finite float is written as null, since
    JSON has no token for it (and the config reader refuses one on input).
    A float array is written as a list; only one that holds a non-finite
    value is walked element by element.
    """
    return json.dumps(_finite_or_null(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False) + "\n"


def _finite_or_null(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        values = obj.tolist()
        return values if np.isfinite(obj).all() else _finite_or_null(values)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj
