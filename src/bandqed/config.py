"""JSON run-configuration: schema validation, unit conversion, canonical form.

One JSON document drives every CLI command.  Frequencies are written as
ordinary frequencies (Hz) when units = "si" and converted to angular
frequencies internally; in "dimensionless" mode numbers pass through
unchanged (the natural choice is omega_b = 1, a = 1, k0 = pi).  Lengths are
meters in "si"; atom positions and separations given in the per-command
parameters are in units of the lattice constant in both modes.

Validation is strict: unknown keys anywhere in the document are rejected,
and every embedded physical record enforces its own invariants at load
time.  `canonical_dumps` defines the byte-stable serialization used for
round-trip and determinism guarantees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .bound_state import (TWOPI, AtomCoupling, BandEdge, atom_coupling,
                          bound_state_depth, mixing_angles)
from .disorder import DielectricStack
from .dynamics import LossModel
from .interactions import AtomArray, DriveField, atom_array


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


TOP_KEYS = {"units", "seed", "band", "coupling", "atoms", "drives", "losses",
            "disorder", "params"}
BAND_KEYS = {"omega_b", "alpha", "a", "k0"}
COUPLING_KEYS = {"Delta", "gamma", "beta", "g_cell", "bloch_amplitude"}
ATOMS_KEYS = {"positions", "bloch_values", "gamma"}
DRIVE_KEYS = {"Omega", "Omega_prime", "delta_L", "Delta_L", "phi"}
LOSSES_KEYS = {"kappa_p", "gamma", "theta"}
DISORDER_KEYS = {"r", "phi_b", "epsilon", "n_cells", "seed"}
PARAMS_KEYS = {
    "bound-state": {"grid_min", "grid_max", "grid_points"},
    "interactions": {"Delta_values", "sep_max", "sep_points"},
    "design-powerlaw": {"eta", "z_min", "z_max", "n_drives", "tolerance"},
    "exchange": {"separation", "optimize"},
    "evolve": {"t_max", "n_times", "initial_site"},
    "disorder": {"epsilon_values", "n_trials"},
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _num(section: dict, key: str, where: str, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {where}.{key}")
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    try:
        x = float(v)
    except OverflowError:   # a JSON integer beyond the float range
        raise ConfigError(f"{where}.{key} is beyond the float range") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where}.{key} must be finite, got {v!r}")
    return x


@dataclass
class RunConfig:
    """Validated, unit-converted run configuration for one command."""

    units: str
    band: Optional[BandEdge]
    coupling: Optional[AtomCoupling]
    atoms: Optional[AtomArray]
    drives: list[DriveField]
    losses: Optional[LossModel]
    stack: Optional[DielectricStack]
    params: dict = field(default_factory=dict)

    @property
    def freq_scale(self) -> float:
        """Multiplier from config frequency numbers to internal rad/s."""
        return TWOPI if self.units == "si" else 1.0

    def require(self, name: str):
        value = getattr(self, name if name != "disorder" else "stack")
        if value is None:
            raise ConfigError(f"this command needs a {name!r} section")
        return value

    def loss_model(self) -> LossModel:
        """The losses section, or a zero-photon-loss default from coupling."""
        if self.losses is not None:
            return self.losses
        gamma = self.coupling.gamma if self.coupling is not None else 0.0
        return LossModel(kappa_p=0.0, gamma=gamma,
                         theta=default_mixing_theta(self.coupling))


def _build_band(section: dict, scale: float) -> BandEdge:
    _reject_unknown(section, BAND_KEYS, "band")
    omega_b = _num(section, "omega_b", "band", required=True) * scale
    alpha = _num(section, "alpha", "band", required=True)
    a = _num(section, "a", "band", required=True)
    k0 = _num(section, "k0", "band")
    if k0 is None:
        k0 = math.pi / a
    return BandEdge(omega_b=omega_b, alpha=alpha, k0=k0, a=a)


def _build_coupling(section: dict, band: BandEdge, scale: float) -> AtomCoupling:
    _reject_unknown(section, COUPLING_KEYS, "coupling")
    Delta = _num(section, "Delta", "coupling", default=0.0) * scale
    gamma = _num(section, "gamma", "coupling", required=True) * scale
    beta = _num(section, "beta", "coupling")
    g_cell = _num(section, "g_cell", "coupling")
    u = _num(section, "bloch_amplitude", "coupling", default=1.0)
    if beta is not None:
        beta *= scale
    if g_cell is not None:
        g_cell *= scale
    return atom_coupling(band, Delta=Delta, gamma=gamma, beta=beta,
                         g_cell=g_cell, bloch_amplitude=u)


def _build_atoms(section: dict, band: BandEdge, coupling: Optional[AtomCoupling],
                 scale: float) -> AtomArray:
    _reject_unknown(section, ATOMS_KEYS, "atoms")
    if "positions" not in section:
        raise ConfigError("missing required key atoms.positions")
    positions = np.asarray(section["positions"], dtype=float)
    gamma = _num(section, "gamma", "atoms")
    if gamma is None:
        if coupling is None:
            raise ConfigError("atoms.gamma required without a coupling section")
        gamma = coupling.gamma
    else:
        gamma *= scale
    bloch = section.get("bloch_values")
    if bloch is not None:
        arr = np.asarray(bloch, dtype=float)
        if arr.ndim != 2 or arr.shape[-1] != 2 or len(arr) != len(positions):
            raise ConfigError(
                "atoms.bloch_values must be [[re, im], ...] matching positions")
        bloch = arr[:, 0] + 1j * arr[:, 1]
    return atom_array(positions, band, gamma, bloch_values=bloch)


def _build_drive(section: dict, index: int, scale: float) -> DriveField:
    _reject_unknown(section, DRIVE_KEYS, f"drives[{index}]")
    return DriveField(
        Omega=_num(section, "Omega", f"drives[{index}]", required=True) * scale,
        Omega_prime=_num(section, "Omega_prime", f"drives[{index}]",
                         default=0.0) * scale,
        delta_L=_num(section, "delta_L", f"drives[{index}]", required=True) * scale,
        Delta_L=_num(section, "Delta_L", f"drives[{index}]", required=True) * scale,
        phi=_num(section, "phi", f"drives[{index}]", default=0.0))


def default_mixing_theta(coupling: Optional[AtomCoupling]) -> float:
    """Bound-state mixing angle at the coupling's detuning; 0 without one."""
    if coupling is None:
        return 0.0
    delta = float(bound_state_depth(coupling.beta, np.asarray(coupling.Delta)))
    cos_t, sin_t = mixing_angles(delta, coupling.beta)
    return math.atan2(sin_t, cos_t)


def _build_losses(section: dict, scale: float,
                  coupling: Optional[AtomCoupling]) -> LossModel:
    _reject_unknown(section, LOSSES_KEYS, "losses")
    theta = _num(section, "theta", "losses")
    if theta is None:
        theta = default_mixing_theta(coupling)
    return LossModel(
        kappa_p=_num(section, "kappa_p", "losses", default=0.0) * scale,
        gamma=_num(section, "gamma", "losses", required=True) * scale,
        theta=theta)


def _build_stack(section: dict, seed: int,
                 seed_override: Optional[int]) -> DielectricStack:
    _reject_unknown(section, DISORDER_KEYS, "disorder")
    kwargs = dict(r=_num(section, "r", "disorder", required=True))
    if "phi_b" in section:
        kwargs["phi_b"] = _num(section, "phi_b", "disorder")
    if "epsilon" in section:
        kwargs["epsilon"] = _num(section, "epsilon", "disorder")
    if "n_cells" in section:
        n = section["n_cells"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError("disorder.n_cells must be an integer")
        kwargs["n_cells"] = n
    if seed_override is not None:
        kwargs["seed"] = seed_override
    else:
        kwargs["seed"] = section.get("seed", seed)
    if isinstance(kwargs["seed"], bool) or not isinstance(kwargs["seed"], int):
        raise ConfigError("disorder.seed must be an integer")
    return DielectricStack(**kwargs)


def validate_raw(raw: dict, command: str) -> dict:
    """Schema-check a parsed config document without unit conversion."""
    _reject_unknown(raw, TOP_KEYS, "config")
    units = raw.get("units", "si")
    if units not in ("si", "dimensionless"):
        raise ConfigError('units must be "si" or "dimensionless"')
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    if "params" in raw:
        _reject_unknown(raw["params"], PARAMS_KEYS[command], "params")
    if "drives" in raw and not isinstance(raw["drives"], list):
        raise ConfigError("drives must be a list")
    return raw


def load_config(raw: dict, command: str,
                seed_override: Optional[int] = None) -> RunConfig:
    """Validate and convert a parsed JSON document into live records.

    Any invariant violation inside the embedded physical records surfaces
    as ConfigError.
    """
    validate_raw(raw, command)
    units = raw.get("units", "si")
    scale = TWOPI if units == "si" else 1.0

    try:
        band = _build_band(raw["band"], scale) if "band" in raw else None
        coupling = None
        if "coupling" in raw:
            if band is None:
                raise ConfigError("coupling section needs a band section")
            coupling = _build_coupling(raw["coupling"], band, scale)
        atoms = None
        if "atoms" in raw:
            if band is None:
                raise ConfigError("atoms section needs a band section")
            atoms = _build_atoms(raw["atoms"], band, coupling, scale)
        drives = [_build_drive(d, i, scale)
                  for i, d in enumerate(raw.get("drives", []))]
        losses = (_build_losses(raw["losses"], scale, coupling)
                  if "losses" in raw else None)
        stack = (_build_stack(raw["disorder"], raw.get("seed", 0), seed_override)
                 if "disorder" in raw else None)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(units=units, band=band, coupling=coupling,
                     atoms=atoms, drives=drives, losses=losses, stack=stack,
                     params=dict(raw.get("params", {})))


def canonical_dumps(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True) + "\n"
