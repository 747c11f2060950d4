"""Every output check of the benchmark passes a right output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py

The right outputs come from bandqed itself on small inputs (or, where the
program is known to be wrong, from the checks' own exact propagator); each
is then perturbed by far less than a user would notice and must be refused.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bandqed  # noqa: E402
from bandqed.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import BAND, BETA, G_CELL, GAMMA, TWOPI  # noqa: E402


def refuses(fn, *args, **kwargs):
    with pytest.raises(CheckError):
        fn(*args, **kwargs)


def scaled(x, factor):
    return np.asarray(x) * factor


@pytest.fixture(scope="module")
def band():
    return bandqed.BandEdge(**BAND)


def coupling(band, Delta=TWOPI * 400e9):
    return bandqed.atom_coupling(band, Delta=Delta, gamma=GAMMA, g_cell=G_CELL)


def test_depth_and_weights():
    Delta = np.linspace(-10, 10, 1001) * BETA
    delta = bandqed.bound_state_depth(BETA, Delta)
    checks.check_depth(BETA, Delta, delta)
    refuses(checks.check_depth, BETA, Delta, scaled(delta, 1 + 1e-9))
    cos_t, sin_t = bandqed.mixing_angles(delta, BETA)
    checks.check_weights(delta, BETA, cos_t**2, sin_t**2)
    refuses(checks.check_weights, delta, BETA, cos_t**2, sin_t**2 + 1e-9)
    refuses(checks.check_weights, delta * 1.001, BETA, cos_t**2, sin_t**2)


def test_kernel_1d_two_level_and_multi_drive(band):
    rng = np.random.default_rng(0)
    z = workloads._chain(rng, 50)
    atoms = bandqed.atom_array(z, band, gamma=GAMMA)
    Delta = TWOPI * 400e9
    u = bandqed.coupling_matrix_1d(atoms, band, coupling(band, Delta)).values
    terms = [(Delta, 1.0 / (2.0 * Delta))]
    checks.check_kernel_1d(u, z, BAND, G_CELL, terms, seed=1)
    refuses(checks.check_kernel_1d, u * (1 + 1e-8), z, BAND, G_CELL, terms, seed=1)
    lopsided = u.copy()
    lopsided[0, 1] += 1e-9 * abs(u[0, 0])
    refuses(checks.check_kernel_1d, lopsided, z, BAND, G_CELL, terms, seed=1)

    drives = workloads._drives(rng, 3)
    fields = [bandqed.DriveField(Omega=d["Omega"], Omega_prime=0.0,
                                 delta_L=d["delta_L"], Delta_L=d["Delta_L"])
              for d in drives]
    multi = bandqed.multi_drive_sum(atoms, band, coupling(band), fields).values
    terms = workloads._drive_terms(drives)
    checks.check_kernel_1d(multi, z, BAND, G_CELL, terms, seed=2)
    refuses(checks.check_kernel_1d, multi, z, BAND, G_CELL, terms[:2], seed=2)


def test_kernel_2d(band):
    xy = np.stack(np.meshgrid(np.arange(6), np.arange(6)), -1).reshape(-1, 2) * BAND["a"]
    Delta = TWOPI * 400e9
    atoms = bandqed.atom_array(xy, band, gamma=GAMMA)
    u = bandqed.coupling_matrix_2d(atoms, band, coupling(band, Delta)).values
    checks.check_kernel_2d(u, xy, BAND, G_CELL, Delta, seed=3)
    refuses(checks.check_kernel_2d, u * (1 + 1e-7), xy, BAND, G_CELL, Delta, seed=3)
    # a 1D exponential kernel in place of K0 is refused too
    z = xy[:, 0]
    exp_kernel = checks.kernel_1d(BAND, G_CELL, Delta, 1 / (2 * Delta), z[:, None], z[None, :])
    refuses(checks.check_kernel_2d, exp_kernel, xy, BAND, G_CELL, Delta, seed=3)


def test_bessel_k0_matches_series():
    # K0(x) = -(ln(x/2) + gamma_E) I0(x) + sum (x^2/4)^k / (k!)^2 H_k
    x = np.array([0.01, 0.3, 1.0, 2.5])
    terms = [(x * x / 4) ** k / math.factorial(k) ** 2 for k in range(40)]
    harmonic = [sum(1.0 / j for j in range(1, k + 1)) for k in range(40)]
    i0 = sum(terms)
    series = -(np.log(x / 2) + 0.5772156649015329) * i0 + sum(
        t * h for t, h in zip(terms, harmonic))
    assert np.max(np.abs(checks.bessel_k0(x) / series - 1)) < 1e-12


def test_evolution(band):
    rng = np.random.default_rng(4)
    z = workloads._chain(rng, 12)
    Delta = TWOPI * 400e9
    atoms = bandqed.atom_array(z, band, gamma=GAMMA)
    u = bandqed.coupling_matrix_1d(atoms, band, coupling(band, Delta))
    loss = bandqed.LossModel(kappa_p=0.0, gamma=GAMMA, theta=0.2)
    gamma_eff = GAMMA * math.cos(0.2) ** 2
    psi0 = np.zeros(12, dtype=complex)
    psi0[6] = 1.0
    t = np.linspace(0.0, 5e-7, 51)
    res = bandqed.evolve_single_excitation(u, loss, psi0, t)
    checks.check_evolution(res.times, res.amplitudes, res.norm, u.values, gamma_eff, psi0)
    refuses(checks.check_evolution, res.times, res.amplitudes + 1e-5, res.norm,
            u.values, gamma_eff, psi0)
    refuses(checks.check_evolution, res.times, res.amplitudes, res.norm,
            u.values, gamma_eff * 1.01, psi0)
    checks.check_populations(res.times, res.populations, res.norm, u.values,
                             gamma_eff, psi0)
    refuses(checks.check_populations, res.times, res.populations + 1e-5, res.norm,
            u.values, gamma_eff, psi0)


def test_exchange(band):
    sep, kappa = 4 * BAND["a"], TWOPI * 1.6e9
    loss = bandqed.LossModel(kappa_p=kappa, gamma=GAMMA)
    res = bandqed.optimize_exchange(band, coupling(band, 0.0), loss, sep)
    args = (BAND, G_CELL, BETA, kappa, GAMMA, sep)
    checks.check_exchange(res.error, res.optimal_Delta, res.cooperativity, *args)
    refuses(checks.check_exchange, res.error * 1.001, res.optimal_Delta,
            res.cooperativity, *args)
    # a detuning off the optimum, reported with its own (worse) error
    off = res.optimal_Delta * 1.5
    err_off = float(checks.exchange_error(*args, off))
    refuses(checks.check_exchange, err_off, off, None, *args)
    refuses(checks.check_exchange, res.error, res.optimal_Delta,
            res.cooperativity * 1.01, *args)


def test_design(band):
    d = bandqed.power_law_designer(1.5, (1.0, 30.0), 3, band, beta=BETA)
    checks.check_design(d.weights, d.rates, d.detunings, d.max_error, 1.5, 1, 30, BAND)
    refuses(checks.check_design, d.weights, d.rates, d.detunings, d.max_error * 1.001,
            1.5, 1, 30, BAND)
    refuses(checks.check_design, d.weights, d.rates, scaled(d.detunings, 1 + 1e-9),
            d.max_error, 1.5, 1, 30, BAND)
    refuses(checks.check_design, d.weights, d.rates, d.detunings, d.max_error,
            1.6, 1, 30, BAND)


def test_localization():
    stack = bandqed.DielectricStack(r=2.0, epsilon=1e-3, n_cells=10_000, seed=5)
    res = bandqed.lyapunov_mc(stack, 40)
    checks.check_localization(res.xi_mc, 2.0, stack.phi_b, 1e-3, res.sigma, res.xi_pred)
    refuses(checks.check_localization, res.xi_mc * 1.5, 2.0, stack.phi_b, 1e-3)
    refuses(checks.check_localization, res.xi_mc * 0.7, 2.0, stack.phi_b, 1e-3)
    refuses(checks.check_localization, res.xi_mc, 2.0, stack.phi_b, 1e-3,
            sigma=res.sigma * (1 + 1e-9))


def _perturb_csv(text, column, delta):
    lines = text.split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows:
        row[column] = repr(float(row[column]) + delta)
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _perturb_json(text, key, factor):
    doc = json.loads(text)
    doc[key] *= factor
    return json.dumps(doc)


PERTURB = {
    "bound-state": lambda t: _perturb_csv(t, 1, 1e-9),
    "interactions": lambda t: _perturb_csv(t, 2, 1e-6),
    "design-powerlaw": lambda t: _perturb_json(t, "max_error", 1.001),
    "exchange": lambda t: _perturb_json(t, "error", 1.001),
    "evolve": lambda t: _perturb_csv(t, 3, 1e-5),
    "disorder": lambda t: _perturb_json(t, "xi_mc", 1.5),
    "preset-list": lambda t: t.replace('"apcw"', '"apcw","x"'),
}


@pytest.mark.parametrize("op", [op for op in workloads.cli_ops(7) if not op.expect_failure],
                         ids=lambda op: op.name)
def test_cli_checks(op, tmp_path):
    argv = list(op.argv) + ["--out", str(tmp_path / "out")]
    if op.config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(op.config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert cli_main(argv) == 0
    text = (tmp_path / "out").read_text()
    op.check(text)
    refuses(op.check, PERTURB[op.name](text))


def test_driven_evolve_check_wants_the_narrowed_linewidth():
    op = workloads._driven_evolve()
    doc = op.config
    band = {"omega_b": 1.0, "alpha": 1.0, "a": 1.0, "k0": math.pi}
    drive = doc["drives"][0]
    ratio_sq = (drive["Omega"] / drive["delta_L"]) ** 2
    g_cell = checks.g_cell_from_beta(band, doc["coupling"]["beta"])
    z = np.asarray(doc["atoms"]["positions"])
    h = checks.kernel_1d(band, g_cell, drive["Delta_L"], ratio_sq / (2 * drive["Delta_L"]),
                         z[:, None], z[None, :])
    t = np.linspace(0.0, doc["params"]["t_max"], doc["params"]["n_times"])
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)

    def csv(gamma_eff):
        pops = np.abs(checks.propagate(h, gamma_eff, psi0, t)) ** 2
        rows = np.column_stack([t, pops, np.sqrt(pops.sum(axis=1))])
        return "t,P_1,P_2,P_3,norm\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)

    gamma = doc["coupling"]["gamma"]
    op.check(csv(ratio_sq * gamma))
    refuses(op.check, csv(gamma))          # the bare linewidth
