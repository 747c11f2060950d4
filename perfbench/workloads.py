"""Seeded inputs of every workload, as plain numbers.

`in_process_ops(name, seed, bq)` turns a workload into a list of Op records
that call bandqed's public functions; `cli_ops(seed)` lists the cold
`python -m bandqed.cli` invocations.  The seed moves positions, detunings,
exponents, separations, loss rates and the disorder strength inside fixed
bands; the operation list and the problem sizes stay the same for every
seed, so each run does the same amount of work.  An evolution's detuning,
which sets its DOP853 step count, moves least.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import checks

TWOPI = 2.0 * math.pi
A = 371e-9
# apcw operating point of the bandqed README, in rad/s and meters
BAND = {"omega_b": TWOPI * 333e12, "alpha": 10.6, "a": A, "k0": math.pi / A}
G_CELL = TWOPI * 12.2e9
GAMMA = TWOPI * 5e6
BETA = checks.beta_from_g_cell(BAND, G_CELL)

IN_PROCESS = ("array",)
WORKLOADS = ("cli-cold",) + IN_PROCESS


@dataclass
class Op:
    """One timed call of a public bandqed function plus its output check."""

    name: str
    layer: str                      # bandqed module the function lives in
    func: str                       # attribute of the bandqed package
    args: tuple
    check: Callable[[Any, dict], None]      # (result, cache); raises CheckError
    kwargs: dict = field(default_factory=dict)


def _chain(rng, n: int) -> np.ndarray:
    """n atoms near lattice sites, each displaced by up to +-0.1 a."""
    return (np.arange(n) + rng.uniform(-0.1, 0.1, n)) * A


def _sites(n: int) -> np.ndarray:
    """n atoms on lattice sites; evolutions use these, since the DOP853 step
    count follows the spectrum, which displaced atoms would move."""
    return np.arange(n) * A


def _drives(rng, count: int) -> list[dict]:
    """Raman drives with |Omega/delta_L| ~ 0.05-0.1 and distinct delta_L."""
    out = []
    for i in range(count):
        out.append({"Omega": TWOPI * 1e9 * rng.uniform(0.9, 1.1),
                    "delta_L": TWOPI * 1e9 * (12.0 + 4.0 * i + rng.uniform(0, 1)),
                    "Delta_L": TWOPI * 1e9 * 300.0 * (i + 1) * rng.uniform(0.9, 1.1)})
    return out


def _drive_terms(drives) -> list[tuple[float, float]]:
    return [(d["Delta_L"], (d["Omega"] / d["delta_L"]) ** 2 / (2.0 * d["Delta_L"]))
            for d in drives]


def _hop_time(terms) -> float:
    """1/|U_12| of the nominal lattice (unit spacing) for the given kernels."""
    u12 = sum(abs(complex(checks.kernel_1d(BAND, G_CELL, det, pre, A, 0.0)))
              for det, pre in terms)
    return 1.0 / u12


class _OpFactory:
    """Collects Ops for one workload; bq is the imported bandqed package."""

    def __init__(self, bq, rng):
        self.bq = bq
        self.rng = rng
        self.band = bq.BandEdge(**BAND)
        self.ops: list[Op] = []

    def coupling(self, Delta):
        return self.bq.atom_coupling(self.band, Delta=Delta, gamma=GAMMA,
                                     g_cell=G_CELL)

    def drive_fields(self, drives):
        return [self.bq.DriveField(Omega=d["Omega"], Omega_prime=0.0,
                                   delta_L=d["delta_L"], Delta_L=d["Delta_L"])
                for d in drives]

    def kernel_op(self, name, func, z, terms, *extra):
        """coupling_matrix_1d / driven / multi-drive / mechanical on positions z."""
        atoms = self.bq.atom_array(z, self.band, gamma=GAMMA)
        seed = int(self.rng.integers(2**31))

        def check(res, _cache):
            checks.check_kernel_1d(res.values, z, BAND, G_CELL, terms, seed)

        self.ops.append(Op(name, "interactions", func, (atoms, self.band) + extra,
                           check=check))

    def two_level(self, name, z, Delta):
        self.kernel_op(name, "coupling_matrix_1d", z, [(Delta, 1.0 / (2.0 * Delta))],
                       self.coupling(Delta))

    def multi(self, name, z, drives):
        fields = self.drive_fields(drives)
        func, extra = "multi_drive_sum", (fields,)
        if len(fields) == 1:
            func, extra = "driven_coupling_matrix", (fields[0],)
        self.kernel_op(name, func, z, _drive_terms(drives),
                       self.coupling(TWOPI * 400e9), *extra)

    def mechanical(self, name, z, Delta, laser_detuning, Omega):
        omega_L = BAND["omega_b"] + laser_detuning
        pre = Omega**2 / (2.0 * laser_detuning * (laser_detuning - Delta) ** 2)
        self.kernel_op(name, "mechanical_potential", z, [(laser_detuning, pre)],
                       self.coupling(Delta), omega_L, Omega)

    def evolve(self, name, z, hops, n_times, Delta):
        """Excitation on the middle atom over `hops` hop times, uniform loss."""
        atoms = self.bq.atom_array(z, self.band, gamma=GAMMA)
        terms = [(Delta, 1.0 / (2.0 * Delta))]
        u = self.bq.coupling_matrix_1d(atoms, self.band, self.coupling(Delta))
        p_e = float(checks.atomic_weight(checks.depth(BETA, Delta), BETA))
        gamma_eff = GAMMA * p_e
        loss = self.bq.LossModel(kappa_p=0.0, gamma=GAMMA, theta=math.acos(math.sqrt(p_e)))
        psi0 = np.zeros(len(z), dtype=complex)
        psi0[len(z) // 2] = 1.0
        times = np.linspace(0.0, hops * _hop_time(terms), n_times)
        h = np.asarray(u.values)

        def check(res, cache):
            cache["ref"] = checks.check_evolution(
                res.times, res.amplitudes, res.norm, h, gamma_eff, psi0,
                reference=cache.get("ref"))

        self.ops.append(Op(name, "dynamics", "evolve_single_excitation",
                           (u, loss, psi0, times), check=check))

def _array_ops(b: _OpFactory, warmup: bool) -> None:
    r = b.rng
    n1, n2, n3, side, n_ev = (3000, 2000, 2500, 40, 1000)
    if warmup:
        n1 = n2 = n3 = n_ev = 8
        side = 3
    b.two_level(f"coupling_N{n1}", _chain(r, n1), TWOPI * 400e9 * r.uniform(0.8, 1.2))
    b.multi(f"driven_N{n2}", _chain(r, n2), _drives(r, 1))
    b.multi(f"multi_drive_N{n_ev}_r3", _chain(r, n_ev), _drives(r, 3))
    b.mechanical(f"mechanical_N{n3}", _chain(r, n3), TWOPI * 400e9,
                 TWOPI * 500e9 * r.uniform(0.9, 1.1), TWOPI * 1e9)
    Delta2d = TWOPI * 400e9 * r.uniform(0.8, 1.2)
    xy = (np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
          + r.uniform(-0.1, 0.1, (side * side, 2))) * A
    atoms2d = b.bq.atom_array(xy, b.band, gamma=GAMMA)
    seed2d = int(r.integers(2**31))

    def check2d(res, _cache):
        checks.check_kernel_2d(res.values, xy, BAND, G_CELL, Delta2d, seed2d)

    b.ops.append(Op(f"coupling_2d_{side}x{side}", "interactions", "coupling_matrix_2d",
                    (atoms2d, b.band, b.coupling(Delta2d)), check=check2d))
    b.evolve(f"evolve_N{n_ev}", _sites(n_ev), 2, 21, TWOPI * 400e9 * r.uniform(0.95, 1.05))


def in_process_ops(workload: str, seed: int, bq, warmup: bool = False) -> list[Op]:
    """The operations of one round of an in-process workload (or its warm-up set)."""
    factory = _OpFactory(bq, np.random.default_rng([seed, IN_PROCESS.index(workload)]))
    _array_ops(factory, warmup)
    return factory.ops


# ------------------------------------------------------------------ cli-cold

@dataclass
class CliOp:
    """One cold `python -m bandqed.cli` invocation and the check of its stdout."""

    name: str
    argv: list
    config: Optional[dict]
    check: Callable[[str], None]
    expect_failure: bool = False


def _csv(text: str):
    lines = text.split("\n")
    checks.require(len(lines) > 2 and lines[-1] == "", "CSV must end in one LF")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    return lines[0].split(","), rows


def _json(text: str):
    return json.loads(text)


def _hz(x):
    return x / TWOPI


def cli_ops(seed: int) -> list[CliOp]:
    """The commands of one cli-cold round, all at the apcw preset but the last.

    The last is the driven `evolve` of bandqed's own CLI test: its norm
    should decay at the narrowed linewidth |Omega/delta_L|^2 gamma.
    """
    r = np.random.default_rng([seed, len(IN_PROCESS)])
    ops = []

    lo, hi, n = -10.0 + r.uniform(0, 1), 10.0 - r.uniform(0, 1), 401

    def bound_state(text):
        header, rows = _csv(text)
        checks.require(header[:4] == ["Delta_over_beta", "delta_over_beta", "P_e", "P_p"],
                       f"unexpected header {header}")
        x, d = rows[:, 0], rows[:, 1]
        checks.require(len(x) == n and checks.rel_dev(x, np.linspace(lo, hi, n)) <= 1e-12,
                       "Delta/beta grid differs from the request")
        checks.check_depth(1.0, x, d)
        checks.check_weights(d, 1.0, rows[:, 2], rows[:, 3])
        delta = d * BETA
        L = checks.length(BAND, delta)
        want = np.column_stack([L / A, _hz(np.sqrt(G_CELL**2 * A / L)),
                                np.sqrt(delta / (BAND["alpha"] * BAND["omega_b"]))])
        dev = checks.rel_dev(rows[:, 4:7], want)
        checks.require(dev <= 1e-9, f"L, gbar_c or validity off by {dev:.3e}")

    ops.append(CliOp("bound-state", ["bound-state", "--preset", "apcw"],
                     {"params": {"grid_min": lo, "grid_max": hi, "grid_points": n}},
                     bound_state))

    deltas_hz = [d * r.uniform(0.95, 1.05) for d in (400e9, 800e9, 1300e9, 2800e9)]

    def interactions(text):
        header, rows = _csv(text)
        checks.require(len(header) == 1 + len(deltas_hz), f"unexpected header {header}")
        sep = rows[:, 0]
        for col, d_hz in enumerate(deltas_hz, start=1):
            Delta = TWOPI * d_hz
            L = float(checks.length(BAND, Delta))
            want = G_CELL**2 * A / L * np.exp(-sep * A / L) / (2.0 * Delta) / GAMMA
            dev = checks.rel_dev(rows[:, col], want)
            checks.require(dev <= 1e-9, f"|U|/gamma at {d_hz:.4g} Hz off by {dev:.3e}")

    ops.append(CliOp("interactions", ["interactions", "--preset", "apcw"],
                     {"params": {"Delta_values": deltas_hz}}, interactions))

    eta = 1.0 + r.uniform(0.0, 1.0)

    def design(text):
        p = _json(text)
        checks.check_design(p["weights"], p["rates"],
                            np.asarray(p["detunings"]) * BAND["omega_b"],
                            p["max_error"], eta, 1.0, 50.0, BAND)

    ops.append(CliOp("design-powerlaw", ["design-powerlaw", "--preset", "apcw",
                                         "--format", "json"],
                     {"params": {"eta": eta, "n_drives": 3, "z_min": 1, "z_max": 50}},
                     design))

    kappa_hz, sep = 1.6e9 * r.uniform(0.8, 1.2), float(r.integers(1, 11))

    def exchange(text):
        p = _json(text)
        checks.check_exchange(p["error"], TWOPI * p["optimal_Delta"], p["cooperativity"],
                              BAND, G_CELL, BETA, TWOPI * kappa_hz, GAMMA, sep * A)

    ops.append(CliOp("exchange", ["exchange", "--preset", "apcw"],
                     {"losses": {"kappa_p": kappa_hz, "gamma": _hz(GAMMA)},
                      "params": {"separation": sep, "optimize": True}}, exchange))

    n_atoms, Delta_hz = 10, 400e9 * r.uniform(0.95, 1.05)
    z = _sites(n_atoms)
    Delta = TWOPI * Delta_hz
    terms = [(Delta, 1.0 / (2.0 * Delta))]
    t_max = 20 * _hop_time(terms)

    def evolve(text):
        header, rows = _csv(text)
        checks.require(header[0] == "t" and header[-1] == "norm" and
                       len(header) == n_atoms + 2, f"unexpected header {header}")
        h = sum(checks.kernel_1d(BAND, G_CELL, det, pre, z[:, None], z[None, :])
                for det, pre in terms)
        psi0 = np.zeros(n_atoms, dtype=complex)
        psi0[n_atoms // 2] = 1.0
        gamma_eff = GAMMA * float(checks.atomic_weight(checks.depth(BETA, Delta), BETA))
        checks.check_populations(rows[:, 0], rows[:, 1:-1], rows[:, -1], h,
                                 gamma_eff, psi0)

    ops.append(CliOp("evolve", ["evolve", "--preset", "apcw"],
                     {"coupling": {"Delta": Delta_hz},
                      "atoms": {"positions": z.tolist()},
                      "params": {"t_max": t_max, "n_times": 201,
                                 "initial_site": n_atoms // 2}}, evolve))

    epsilon, stack_seed = 10 ** r.uniform(math.log10(3e-4), math.log10(3e-3)), \
        int(r.integers(2**31))

    def disorder(text):
        p = _json(text)
        checks.require(p["n_trials"] == 200 and p["n_cells"] == 10_000,
                       "trial or cell count differs from the request")
        checks.check_localization(p["xi_mc"], 2.0, math.pi / 2.0, epsilon,
                                  sigma=p["sigma"], xi_pred=p["xi_analytic"])

    ops.append(CliOp("disorder", ["disorder", "--preset", "apcw"],
                     {"disorder": {"r": 2.0, "epsilon": epsilon, "n_cells": 10_000,
                                   "seed": stack_seed},
                      "params": {"n_trials": 200}}, disorder))

    def preset_list(text):
        checks.require(text == '{"presets":["apcw"]}\n',
                       f"preset list printed {text!r}")

    ops.append(CliOp("preset-list", ["preset", "list"], None, preset_list))
    ops.append(_driven_evolve())
    return ops


def _driven_evolve() -> CliOp:
    """Driven 3-atom evolve in dimensionless units (omega_b = a = 1, k0 = pi)."""
    band = {"omega_b": 1.0, "alpha": 1.0, "a": 1.0, "k0": math.pi}
    beta, gamma, Omega, delta_L, Delta_L = 1e-6, 1e-9, 1e-4, 1e-3, 1e-3
    g_cell = checks.g_cell_from_beta(band, beta)
    z = np.array([0.0, 1.0, 2.0])
    t_max, n_times = 2e8, 11
    doc = {"units": "dimensionless",
           "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
           "coupling": {"Delta": 1e-3, "gamma": gamma, "beta": beta},
           "atoms": {"positions": z.tolist()},
           "drives": [{"Omega": Omega, "delta_L": delta_L, "Delta_L": Delta_L}],
           "params": {"t_max": t_max, "n_times": n_times}}

    def check(text):
        header, rows = _csv(text)
        checks.require(len(header) == 5, f"unexpected header {header}")
        pre = (Omega / delta_L) ** 2 / (2.0 * Delta_L)
        h = checks.kernel_1d(band, g_cell, Delta_L, pre, z[:, None], z[None, :])
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        narrowed = (Omega / delta_L) ** 2 * gamma
        checks.check_populations(rows[:, 0], rows[:, 1:-1], rows[:, -1], h,
                                 narrowed, psi0)

    return CliOp("evolve-driven", ["evolve"], doc, check, expect_failure=True)
