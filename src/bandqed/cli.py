"""Command-line surface: figure-data reproduction with machine output.

Every command reads one JSON config (optionally layered over a named
preset), writes machine-readable output to stdout or --out, and a short
human summary to stderr.  CSV is comma-separated, LF-terminated, with a
header row and 17-significant-digit floats; JSON is canonical (sorted keys,
minimal separators).  Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 fit failure or tolerance not met (on a fit failure only
{"error": ...} is written; a missed tolerance still writes the result).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import config as config_mod
from .bound_state import effective_cavity, mixing_angles
from .config import ConfigError, RunConfig, _num, canonical_dumps
from .design import FitError, power_law_designer
from .disorder import lyapunov_mc
from .dynamics import (LossModel, check_atom_count, evolve_single_excitation,
                       exchange_simulate, optimize_exchange)
from .interactions import (_pair_kernel, atom_array, coupling_matrix_1d,
                           multi_drive_sum)
from .presets import PRESETS, get_preset

INTERACTIONS_DEFAULT_DELTAS_HZ = (400e9, 800e9, 1300e9, 2800e9)


def _f(x) -> str:
    return format(float(x), ".17g")


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_f(v) for v in row))
    return "\n".join(lines) + "\n"


def _columns_json(header, rows) -> str:
    cols = {name: [float(row[i]) for row in rows]
            for i, name in enumerate(header)}
    return canonical_dumps({"columns": cols})


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _load_cfg(args, command: str) -> RunConfig:
    raw: dict = {}
    if args.preset:
        raw = get_preset(args.preset)
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            user = json.loads(text)
        except ValueError as exc:   # JSONDecodeError, or an integer past the digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        raw = _merge(raw, user)
    if not raw:
        raise ConfigError("provide --config and/or --preset")
    return config_mod.load_config(raw, command, args.seed)


def _num_list(cfg: RunConfig, key: str) -> list:
    values = cfg.params[key]
    if (not isinstance(values, list) or not values
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in values)):
        raise ConfigError(f"params.{key} must be a list of numbers")
    return values


def cmd_bound_state(args) -> int:
    cfg = _load_cfg(args, "bound-state")
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    lo = _num(cfg.params, "grid_min", "params", -10.0)
    hi = _num(cfg.params, "grid_max", "params", 10.0)
    n = int(_num(cfg.params, "grid_points", "params", 401))
    if not (lo < hi) or n < 2:
        raise ConfigError("grid_min < grid_max and grid_points >= 2 required")
    beta = coupling.beta
    x = np.linspace(lo, hi, n)
    try:
        state = effective_cavity(band, replace(coupling, Delta=x * beta))
    except ValueError as exc:   # e.g. an upper band edge: no in-gap bound state
        raise ConfigError(str(exc)) from exc
    cos_t, sin_t = mixing_angles(state.delta, beta)
    gbar_name = "gbar_c_Hz" if cfg.units == "si" else "gbar_c"
    header = ["Delta_over_beta", "delta_over_beta", "P_e", "P_p", "L_over_a",
              gbar_name, "validity"]
    rows = np.column_stack([x, state.delta / beta, cos_t**2, sin_t**2,
                            state.L / band.a, state.gbar_c / cfg.freq_scale,
                            state.validity])
    text = _csv(header, rows) if args.format != "json" else _columns_json(header, rows)
    _emit(text, args)
    _say(f"bound-state: {n} rows, Delta/beta in [{lo:g}, {hi:g}]")
    return 0


def cmd_interactions(args) -> int:
    cfg = _load_cfg(args, "interactions")
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    if coupling.gamma <= 0:
        raise ConfigError("interactions needs gamma > 0")
    if "Delta_values" in cfg.params:
        raw_deltas = _num_list(cfg, "Delta_values")
    elif cfg.units == "si":
        raw_deltas = list(INTERACTIONS_DEFAULT_DELTAS_HZ)
    else:
        raise ConfigError("params.Delta_values required in dimensionless mode")
    sep_max = _num(cfg.params, "sep_max", "params", 55.0)
    sep_points = int(_num(cfg.params, "sep_points", "params", 56))
    if sep_max <= 0 or sep_points < 2:
        raise ConfigError("sep_max > 0 and sep_points >= 2 required")
    sep = np.linspace(0.0, sep_max, sep_points)

    header = ["separation_over_a"]
    cols = [sep]
    for d_raw in raw_deltas:
        u = _pair_kernel(band, coupling, float(d_raw) * cfg.freq_scale,
                         sep * band.a)
        cols.append(np.abs(u) / coupling.gamma)
        if cfg.units == "si":
            header.append(f"U_over_gamma_Delta{float(d_raw) / 1e9:g}GHz")
        else:
            header.append(f"U_over_gamma_Delta{float(d_raw):g}")
    rows = np.column_stack(cols)
    text = _csv(header, rows) if args.format != "json" else _columns_json(header, rows)
    _emit(text, args)
    _say(f"interactions: {len(raw_deltas)} detuning curves, "
         f"separations 0..{sep_max:g} a")
    return 0


def cmd_design_powerlaw(args) -> int:
    cfg = _load_cfg(args, "design-powerlaw")
    band = cfg.require("band")
    eta = _num(cfg.params, "eta", "params", required=True)
    z_min = _num(cfg.params, "z_min", "params", 1.0)
    z_max = _num(cfg.params, "z_max", "params", 50.0)
    n_drives = int(_num(cfg.params, "n_drives", "params", 2))
    tol = _num(cfg.params, "tolerance", "params")
    beta = cfg.coupling.beta if cfg.coupling is not None else None

    try:
        design = power_law_designer(eta, (z_min, z_max), n_drives, band, beta=beta)
    except FitError as exc:
        _emit(canonical_dumps({"error": str(exc)}), args)
        _say(f"design-powerlaw: fit failed ({exc})")
        return 4

    if args.format == "csv":
        header = ["z", "target", "fit", "residual"]
        rows = np.column_stack([design.z_grid, design.target, design.fit,
                                design.fit - design.target])
        _emit(_csv(header, rows), args)
    else:
        _emit(canonical_dumps(_design_payload(design, band)), args)
    _say(f"design-powerlaw: eta={eta:g}, {n_drives} drives, "
         f"max|resid|={design.max_error:.4g}, rms={design.rms_error:.4g}")
    if tol is not None and design.max_error > tol:
        _say(f"design-powerlaw: max error {design.max_error:.4g} exceeds "
             f"tolerance {tol:g}")
        return 4
    return 0


def _design_payload(design, band) -> dict:
    return {
        "weights": [float(w) for w in design.weights],
        "rates": [float(s) for s in design.rates],
        "detunings": [float(d / band.omega_b) for d in design.detunings],
        "max_error": float(design.max_error),
        "rms_error": float(design.rms_error),
    }


def cmd_exchange(args) -> int:
    cfg = _load_cfg(args, "exchange")
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    losses = cfg.loss_model()
    separation = _num(cfg.params, "separation", "params", 1.0) * band.a
    optimize = cfg.params.get("optimize", True)
    if not isinstance(optimize, bool):
        raise ConfigError("params.optimize must be a boolean")

    if optimize:
        res = optimize_exchange(band, coupling, losses, separation)
        u12 = math.pi / (2.0 * res.tau)
        traj = exchange_simulate(u12, LossModel(kappa_p=0.0, gamma=res.gamma_eff,
                                                theta=0.0))
        traj = replace(traj, result=res)
    else:
        atoms = atom_array([0.0, separation], band, coupling.gamma)
        u = coupling_matrix_1d(atoms, band, coupling)
        traj = exchange_simulate(u.values[0, 1], losses)
        res = traj.result

    s = 1.0 / cfg.freq_scale
    if args.format == "csv":
        header = ["t", "P_1", "P_2", "norm"]
        rows = np.column_stack([traj.times, traj.populations, traj.norm])
        _emit(_csv(header, rows), args)
    else:
        payload = {
            "tau": float(res.tau),
            "error": float(res.error),
            "gamma_eff": float(res.gamma_eff * s),
            "optimal_Delta": (None if res.optimal_Delta is None
                              else float(res.optimal_Delta * s)),
            "cooperativity": (None if res.cooperativity is None
                              else float(res.cooperativity)),
        }
        _emit(canonical_dumps(payload), args)
    _say(f"exchange: tau={res.tau:.6g}, error={res.error:.6g}")
    return 0


def cmd_evolve(args) -> int:
    cfg = _load_cfg(args, "evolve")
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    atoms = cfg.require("atoms")
    t_max = _num(cfg.params, "t_max", "params", required=True)
    n_times = int(_num(cfg.params, "n_times", "params", 201))
    site = int(_num(cfg.params, "initial_site", "params", 0))
    if t_max <= 0 or n_times < 2:
        raise ConfigError("t_max > 0 and n_times >= 2 required")
    if not 0 <= site < len(atoms):
        raise ConfigError("initial_site out of range")
    check_atom_count(len(atoms))   # before the dense U is built

    if cfg.drives:
        u = multi_drive_sum(atoms, band, coupling, cfg.drives)
        # ground-state exchange decays at the Raman-narrowed linewidth
        losses = cfg.losses or LossModel(kappa_p=0.0, gamma=u.gamma_narrowed)
    else:
        u = coupling_matrix_1d(atoms, band, coupling)
        losses = cfg.loss_model()
    psi0 = np.zeros(len(atoms), dtype=complex)
    psi0[site] = 1.0
    result = evolve_single_excitation(u, losses, psi0,
                                      np.linspace(0.0, t_max, n_times))

    header = ["t"] + [f"P_{i + 1}" for i in range(len(atoms))] + ["norm"]
    rows = np.column_stack([result.times, result.populations, result.norm])
    text = _csv(header, rows) if args.format != "json" else _columns_json(header, rows)
    _emit(text, args)
    _say(f"evolve: {len(atoms)} atoms, {n_times} times, "
         f"final norm {result.norm[-1]:.6g}")
    return 0


def cmd_disorder(args) -> int:
    cfg = _load_cfg(args, "disorder")
    stack = cfg.require("disorder")
    n_trials = int(_num(cfg.params, "n_trials", "params", 200))
    sweep = cfg.params.get("epsilon_values") is not None
    stacks = ([replace(stack, epsilon=float(eps))
               for eps in _num_list(cfg, "epsilon_values")] if sweep else [stack])
    results = [lyapunov_mc(sub, n_trials) for sub in stacks]

    header = ["epsilon", "sigma", "xi_analytic", "xi_mc", "stderr"]
    rows = [[sub.epsilon, res.sigma, res.xi_pred, res.xi_mc, res.xi_stderr]
            for sub, res in zip(stacks, results)]
    res = results[0]
    if sweep or args.format == "csv":
        text = _csv(header, rows) if args.format != "json" else _columns_json(header, rows)
    else:
        text = canonical_dumps({
            "xi_mc": res.xi_mc, "xi_stderr": res.xi_stderr,
            "sigma": res.sigma, "xi_analytic": res.xi_pred,
            "unbounded": res.unbounded, "n_cells": res.n_cells,
            "n_trials": res.n_trials, "convention": res.convention,
        })
    _emit(text, args)
    if sweep:
        _say(f"disorder: swept {len(stacks)} epsilon values, "
             f"{n_trials} trials each")
    else:
        _say(f"disorder: epsilon={stack.epsilon:g}, xi_mc={res.xi_mc:.6g}, "
             f"analytic={res.xi_pred:.6g}")
    return 0


def cmd_preset(args) -> int:
    if args.action == "list":
        _emit(canonical_dumps({"presets": sorted(PRESETS)}), args)
        _say(f"{len(PRESETS)} preset(s) available")
        return 0
    raise ConfigError(f"unknown preset action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandqed",
        description="Band-edge atom-photon toolkit: bound states, exchange "
                    "matrices, power-law design, excitation dynamics, "
                    "disorder localization.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="PATH",
                        help="write machine output here instead of stdout")
    common.add_argument("--preset", choices=sorted(PRESETS),
                        help="layer the config over a named preset")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="machine output format")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bound-state", parents=[common]).set_defaults(
        func=cmd_bound_state)
    sub.add_parser("interactions", parents=[common]).set_defaults(
        func=cmd_interactions)
    sub.add_parser("design-powerlaw", parents=[common]).set_defaults(
        func=cmd_design_powerlaw)
    sub.add_parser("exchange", parents=[common]).set_defaults(func=cmd_exchange)
    sub.add_parser("evolve", parents=[common]).set_defaults(func=cmd_evolve)
    sub.add_parser("disorder", parents=[common]).set_defaults(func=cmd_disorder)
    preset = sub.add_parser("preset", parents=[common])
    preset.add_argument("action", choices=("list",))
    preset.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 2
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        _say(f"numerical failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
