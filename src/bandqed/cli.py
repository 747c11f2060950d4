"""Command-line surface: figure-data reproduction with machine output.

Every command reads one JSON config (optionally layered over a named
preset) and only computes: it returns an `Output` holding a table, a JSON
payload or both, a short human summary and an exit code.  `main` writes
the machine output to stdout or --out and the summary to stderr, and
returns the exit code; `run`, the console entry, ends the process with it
as soon as both streams are flushed.  One format rule: a payload is the
default output and --format csv selects the table; a table alone is CSV
unless --format json asks for its columns.  CSV is comma-separated,
LF-terminated, with a header row and 17-significant-digit floats (inf for
an unbounded value); JSON is canonical (sorted keys, minimal separators)
and strict, so an unbounded value is null.  Exit codes: 0 ok, 2 config
error or output that cannot be written, 3 numerical failure, 4 fit failure
or tolerance not met (on a fit failure only {"error": ...} is written; a
missed tolerance still writes the result).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import config as config_mod
from .bound_state import effective_cavity, mixing_angles
from .config import PRESETS, ConfigError, RunConfig, canonical_dumps
from .design import FitError, power_law_designer
from .disorder import lyapunov_mc
from .dynamics import (LossModel, check_atom_count, evolve_single_excitation,
                       exchange_simulate, optimize_exchange)
from .interactions import (_pair_kernel, _warn_small_detuning, coupling_matrix_1d,
                           multi_drive_sum)

INTERACTIONS_DEFAULT_DELTAS_HZ = (400e9, 800e9, 1300e9, 2800e9)
MAX_TABLE_CELLS = 5_000_000   # rows x columns of one table; ~80-100 B each to render


@dataclass
class Output:
    """What one command computed: machine output, stderr summary, exit code.

    `table` is (header, rows); with a `payload` too, the payload is the
    default output and --format csv selects the table.
    """

    summary: str
    table: Optional[tuple] = None
    payload: Optional[dict] = None
    code: int = 0


def _render(out: Output, fmt: Optional[str]) -> str:
    if out.payload is not None and (fmt != "csv" or out.table is None):
        return canonical_dumps(out.payload)
    header, rows = out.table
    if fmt == "json":
        columns = np.asarray(rows, dtype=float).T   # one float64 array each
        return canonical_dumps({"columns": dict(zip(header, columns))})
    template = ",".join(["%.17g"] * len(header))   # one row, bytes as format(v, ".17g")
    lines = [",".join(header)]
    lines += [template % tuple(row.tolist()) for row in np.asarray(rows, dtype=float)]
    return "\n".join(lines) + "\n"


def _check_table_size(rows: int, columns: int) -> None:
    """Refuse a table over MAX_TABLE_CELLS before anything is computed."""
    if rows * columns > MAX_TABLE_CELLS:
        raise ConfigError(f"{rows} rows x {columns} columns exceeds the "
                          f"{MAX_TABLE_CELLS}-cell output limit")


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


def _load_cfg(args) -> RunConfig:
    """Layer --preset, then --config, then --seed into one document and load it."""
    raw = PRESETS[args.preset] if args.preset else {}
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
    seed = getattr(args, "seed", None)
    if seed is not None and isinstance(raw.get("disorder"), dict):
        raw = _merge(raw, {"disorder": {"seed": seed}})   # checked as disorder.seed
    return config_mod.load_config(raw, args.command)


def cmd_bound_state(cfg: RunConfig) -> Output:
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    p = cfg.params
    lo, hi, n = p["grid_min"], p["grid_max"], p["grid_points"]
    if not (lo < hi) or n < 2:
        raise ConfigError("grid_min < grid_max and grid_points >= 2 required")
    _check_table_size(n, 7)
    beta = coupling.beta
    with np.errstate(over="ignore", invalid="ignore"):   # refused as not finite
        x = np.linspace(lo, hi, n)
        Delta = x * beta
    try:
        state = effective_cavity(band, replace(coupling, Delta=Delta))
    except ValueError as exc:   # e.g. an upper band edge: no in-gap bound state
        raise ConfigError(str(exc)) from exc
    cos_t, sin_t = mixing_angles(state.delta, beta)
    gbar_name = "gbar_c_Hz" if cfg.units == "si" else "gbar_c"
    header = ["Delta_over_beta", "delta_over_beta", "P_e", "P_p", "L_over_a",
              gbar_name, "validity"]
    rows = np.column_stack([x, state.delta / beta, cos_t**2, sin_t**2,
                            state.L / band.a, state.gbar_c / cfg.freq_scale,
                            state.validity])
    return Output(f"bound-state: {n} rows, Delta/beta in [{lo:g}, {hi:g}]",
                  table=(header, rows))


def cmd_interactions(cfg: RunConfig) -> Output:
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    if coupling.gamma <= 0:
        raise ConfigError("interactions needs gamma > 0")
    raw_deltas = cfg.params.get("Delta_values")
    if raw_deltas is None:
        if cfg.units != "si":
            raise ConfigError("params.Delta_values required in dimensionless mode")
        raw_deltas = INTERACTIONS_DEFAULT_DELTAS_HZ
    sep_max, sep_points = cfg.params["sep_max"], cfg.params["sep_points"]
    if sep_max <= 0 or sep_points < 2:
        raise ConfigError("sep_max > 0 and sep_points >= 2 required")
    _check_table_size(sep_points, 1 + len(raw_deltas))
    sep = np.linspace(0.0, sep_max, sep_points)

    u = _pair_kernel(band, coupling, np.asarray(raw_deltas) * cfg.freq_scale,
                     sep[:, None] * band.a)
    scale, unit = (1e9, "GHz") if cfg.units == "si" else (1.0, "")
    header = ["separation_over_a"] + [f"U_over_gamma_Delta{d_raw / scale:g}{unit}"
                                      for d_raw in raw_deltas]
    return Output(f"interactions: {len(raw_deltas)} detuning curves, "
                  f"separations 0..{sep_max:g} a",
                  table=(header, np.column_stack([sep, np.abs(u) / coupling.gamma])))


def cmd_design_powerlaw(cfg: RunConfig) -> Output:
    band = cfg.require("band")
    p = cfg.params
    eta, n_drives, tol = p["eta"], p["n_drives"], p.get("tolerance")
    _check_table_size(math.floor(p["z_max"]) - math.ceil(p["z_min"]) + 1, 4)
    beta = cfg.coupling.beta if cfg.coupling is not None else None
    try:
        design = power_law_designer(eta, (p["z_min"], p["z_max"]), n_drives, band,
                                    beta=beta)
    except np.linalg.LinAlgError:   # a ValueError, but numerical: exit 3
        raise
    except ValueError as exc:       # eta, z range or drive count refused before the fit
        raise ConfigError(str(exc)) from exc
    summary = (f"design-powerlaw: eta={eta:g}, {n_drives} drives, "
               f"max|resid|={design.max_error:.4g}, rms={design.rms_error:.4g}")
    missed = tol is not None and design.max_error > tol
    if missed:
        summary += (f"\ndesign-powerlaw: max error {design.max_error:.4g} "
                    f"exceeds tolerance {tol:g}")
    table = (["z", "target", "fit", "residual"],
             np.column_stack([design.z_grid, design.target, design.fit,
                              design.fit - design.target]))
    payload = {
        "weights": design.weights,
        "rates": design.rates,
        "detunings": design.detunings / band.omega_b,
        "max_error": design.max_error,
        "rms_error": design.rms_error,
    }
    return Output(summary, table, payload, code=4 if missed else 0)


def cmd_exchange(cfg: RunConfig) -> Output:
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    losses = cfg.loss_model()
    if cfg.params["separation"] < 0:
        raise ConfigError("params.separation must be nonnegative")
    separation = cfg.params["separation"] * band.a

    if cfg.params["optimize"]:
        traj = optimize_exchange(band, coupling, losses, separation)
    else:
        u12 = _pair_kernel(band, coupling, coupling.Delta, separation)
        _warn_small_detuning(coupling.Delta, coupling.beta)
        traj = exchange_simulate(u12, losses)

    s = 1.0 / cfg.freq_scale
    payload = {
        "tau": traj.tau,
        "error": traj.error,
        "gamma_eff": traj.gamma_eff * s,
        "optimal_Delta": None if traj.optimal_Delta is None else traj.optimal_Delta * s,
        "cooperativity": traj.cooperativity,
    }
    table = (["t", "P_1", "P_2", "norm"],
             np.column_stack([traj.times, traj.populations, traj.norm]))
    return Output(f"exchange: tau={traj.tau:.6g}, error={traj.error:.6g}",
                  table, payload)


def cmd_evolve(cfg: RunConfig) -> Output:
    band = cfg.require("band")
    coupling = cfg.require("coupling")
    atoms = cfg.require("atoms")
    t_max, n_times = cfg.params["t_max"], cfg.params["n_times"]
    site = cfg.params["initial_site"]
    if t_max <= 0 or n_times < 2:
        raise ConfigError("t_max > 0 and n_times >= 2 required")
    if not 0 <= site < len(atoms):
        raise ConfigError("initial_site out of range")
    _check_table_size(n_times, len(atoms) + 2)
    # MAX_ATOMS bounds the dense U build and its eigh (~40 B N^2; expm's
    # ~144 B N^2 is for per-atom loss, which no config asks for): refuse first
    check_atom_count(len(atoms))

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
    return Output(f"evolve: {len(atoms)} atoms, {n_times} times, "
                  f"final norm {result.norm[-1]:.6g}", table=(header, rows))


def cmd_disorder(cfg: RunConfig) -> Output:
    stack = cfg.require("disorder")
    n_trials = cfg.params["n_trials"]
    sweep = cfg.params.get("epsilon_values")
    stacks = ([replace(stack, epsilon=eps) for eps in sweep] if sweep
              else [stack])
    results = [lyapunov_mc(sub, n_trials) for sub in stacks]

    header = ["epsilon", "sigma", "xi_analytic", "xi_mc", "stderr"]
    rows = [[sub.epsilon, res.sigma, res.xi_pred, res.xi_mc, res.xi_stderr]
            for sub, res in zip(stacks, results)]
    if sweep:
        return Output(f"disorder: swept {len(stacks)} epsilon values, "
                      f"{n_trials} trials each", table=(header, rows))
    res = results[0]
    payload = {
        "xi_mc": res.xi_mc, "xi_stderr": res.xi_stderr,
        "sigma": res.sigma, "xi_analytic": res.xi_pred,
        "unbounded": res.unbounded, "n_cells": res.n_cells,
        "n_trials": res.n_trials, "convention": res.convention,
    }
    return Output(f"disorder: epsilon={stack.epsilon:g}, xi_mc={res.xi_mc:.6g}, "
                  f"analytic={res.xi_pred:.6g}", (header, rows), payload)


def cmd_preset(_cfg: None) -> Output:
    return Output(f"{len(PRESETS)} preset(s) available",
                  payload={"presets": sorted(PRESETS)})


COMMANDS = {
    "bound-state": cmd_bound_state,
    "interactions": cmd_interactions,
    "design-powerlaw": cmd_design_powerlaw,
    "exchange": cmd_exchange,
    "evolve": cmd_evolve,
    "disorder": cmd_disorder,
    "preset": cmd_preset,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandqed",
        description="Band-edge atom-photon toolkit: bound states, exchange "
                    "matrices, power-law design, excitation dynamics, "
                    "disorder localization.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH",
                        help="write machine output here instead of stdout")
    output.add_argument("--format", choices=("csv", "json"), default=None,
                        help="machine output format")
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", metavar="PATH", help="JSON config file")
    configured.add_argument("--preset", choices=sorted(PRESETS),
                            help="layer the config over a named preset")

    sub = parser.add_subparsers(dest="command", required=True)
    for name in config_mod.PARAMS:
        sub.add_parser(name, parents=[configured, output])
    sub.choices["disorder"].add_argument("--seed", type=int, default=None,
                                         help="override disorder.seed")
    sub.add_parser("preset", parents=[output]).add_argument("action", choices=("list",))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command but `preset list` reads a config
        cfg = _load_cfg(args) if args.command in config_mod.PARAMS else None
        out = COMMANDS[args.command](cfg)
    except FitError as exc:
        out = Output(f"{args.command}: fit failed ({exc})",
                     payload={"error": str(exc)}, code=4)
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 2
    except (ValueError, RuntimeError, FloatingPointError, MemoryError) as exc:
        _say(f"numerical failure: {exc}")
        return 3
    text = _render(out, args.format)
    try:
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:   # run flushes no stdout after this
        _say(f"config error: cannot write output: {exc}")
        return 2
    _say(out.summary)
    return out.code


def run() -> None:
    """Console entry: `main`, which flushes its stdout, then end the process at once.

    `os._exit` skips interpreter finalization and the join of the BLAS
    worker threads, which would otherwise follow every command's output.
    An exception or argparse's SystemExit leaves `main` the usual way.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
