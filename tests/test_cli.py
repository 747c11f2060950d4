import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bandqed import cli, dynamics
from bandqed.cli import MAX_TABLE_CELLS, main
from bandqed.config import PARAMS, SCHEMA, canonical_dumps, load_config
from bandqed.disorder import MAX_TRIALS
from bandqed.dynamics import MAX_ATOMS
from bandqed.interactions import atom_array, coupling_matrix_1d
from bandqed.presets import get_preset

TWOPI = 2.0 * math.pi


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    lines = text.split("\n")
    assert lines[-1] == ""            # trailing LF
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:-1]])
    return header, rows


def dimensionless_exchange_cfg(C=1e4):
    kappa_p = 8.0 * math.sqrt(2.0) * (1e-6) ** 3 / ((1e-9) ** 2 * C ** 1.5)
    return {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 0.0, "gamma": 1e-9, "beta": 1e-6},
        "losses": {"kappa_p": kappa_p, "gamma": 1e-9},
        "params": {"separation": 0.0, "optimize": True},
    }


# ------------------------------------------------------------- basics

def test_preset_list_is_canonical(capsys):
    code, out, err = run(capsys, ["preset", "list"])
    assert code == 0
    assert out == '{"presets":["apcw"]}\n'
    assert out == canonical_dumps({"presets": ["apcw"]})


def test_missing_config_is_a_config_error(capsys):
    code, out, err = run(capsys, ["bound-state"])
    assert code == 2
    assert "config" in err


def test_unknown_key_is_rejected(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"bogus": 1})
    code, out, err = run(capsys, ["bound-state", "--config", cfg])
    assert code == 2
    assert "unknown keys" in err and "bogus" in err


def test_invalid_json_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["bound-state", "--config", str(path)])
    assert code == 2


# ------------------------------------------------------------- bound-state

def test_bound_state_anchor_rows(capsys):
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw"])
    assert code == 0
    assert "\r" not in out
    header, rows = parse_csv(out)
    assert header == ["Delta_over_beta", "delta_over_beta", "P_e", "P_p",
                      "L_over_a", "gbar_c_Hz", "validity"]
    assert rows.shape == (401, 7)
    x = rows[:, 0]
    assert x[0] == -10.0 and x[-1] == 10.0

    at = lambda v: rows[np.argmin(np.abs(x - v))]
    row = at(-1.0)
    assert row[1] == pytest.approx(1.0, abs=1e-12)       # delta = beta
    assert row[2] == pytest.approx(0.5, abs=1e-12)       # P_e = 1/2
    row0 = at(0.0)
    assert row0[1] == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    assert np.all(rows[:, 2] + rows[:, 3] - 1.0 < 1e-12)
    assert np.all(np.diff(rows[:, 1]) > 0)               # depth grows with Delta


def test_bound_state_rejects_upper_edge(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "upper.json", {"band": {"alpha": -1}})
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw",
                                  "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_unwritable_out_is_a_config_error(capsys, tmp_path):
    # a missing parent directory, and a directory in place of a file
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, ["preset", "list", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: cannot write output:")
        assert len(err.splitlines()) == 1


def test_zero_lattice_constant_is_a_config_error(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "a0.json", {"band": {"a": 0}})   # k0 = pi/a
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw",
                                  "--config", cfg])
    assert code == 2
    assert out == ""


def test_csv_floats_round_trip(capsys):
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw"])
    assert code == 0
    cell = out.split("\n")[1].split(",")[1]
    assert format(float(cell), ".17g") == cell


# ------------------------------------------------------------- interactions

def test_interactions_columns_and_range(capsys):
    code, out, err = run(capsys, ["interactions", "--preset", "apcw"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["separation_over_a", "U_over_gamma_Delta400GHz",
                      "U_over_gamma_Delta800GHz", "U_over_gamma_Delta1300GHz",
                      "U_over_gamma_Delta2800GHz"]
    assert rows.shape == (56, 5)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 55.0

    # each curve is a clean exponential with slope -a/L
    a = 371e-9
    band_scale = 10.6 * TWOPI * 333e12
    for col, delta_hz in ((1, 400e9), (2, 800e9), (3, 1300e9), (4, 2800e9)):
        L = math.sqrt(band_scale / (TWOPI * delta_hz)) * a / math.pi
        slope = np.diff(np.log(rows[:, col]))
        assert np.allclose(slope, -a / L, rtol=1e-10)
    # deeper detuning: shorter range and weaker at distance
    assert rows[-1, 1] > rows[-1, 4]


def test_interactions_columns_match_coupling_matrix(capsys):
    code, out, err = run(capsys, ["interactions", "--preset", "apcw"])
    assert code == 0
    header, rows = parse_csv(out)
    cfg = load_config(get_preset("apcw"), "interactions")
    band, coupling = cfg.band, cfg.coupling
    atoms = atom_array(rows[:, 0] * band.a, band, coupling.gamma)
    for col, delta_hz in enumerate((400e9, 800e9, 1300e9, 2800e9), start=1):
        u = coupling_matrix_1d(atoms, band,
                               replace(coupling, Delta=TWOPI * delta_hz))
        want = np.abs(u.values[0]) / coupling.gamma
        assert np.allclose(rows[:, col], want, rtol=1e-12, atol=0.0)


def test_interactions_rejects_in_band_detuning(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "inband.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"gamma": 1e-9, "beta": 1e-6},
        "params": {"Delta_values": [-1e-3]},
    })
    code, out, err = run(capsys, ["interactions", "--config", cfg])
    assert code == 3
    assert "inside the band" in err


@pytest.mark.parametrize("command, params", [
    ("interactions", {"sep_max": float("nan")}),
    ("evolve", {"t_max": float("inf")}),
], ids=["nan-sep_max", "inf-t_max"])
def test_non_finite_param_is_a_config_error(capsys, tmp_path, command, params):
    doc = {"params": params}
    if command == "evolve":
        doc["atoms"] = {"positions": [0.0, 371e-9, 742e-9]}
    cfg = write_cfg(tmp_path, "nonfinite.json", doc)   # JSON NaN / Infinity
    code, out, err = run(capsys, [command, "--preset", "apcw", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_huge_json_integer_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "huge.json"    # 401 digits: beyond the float range
    path.write_text('{"params": {"sep_max": 1' + "0" * 400 + "}}")
    code, out, err = run(capsys, ["interactions", "--preset", "apcw",
                                  "--config", str(path)])
    assert code == 2
    assert out == ""
    assert "sep_max is beyond the float range" in err


@pytest.mark.parametrize("command, doc", [
    ("evolve", {"atoms": {"positions": [0.0, "BAD"]},
                "params": {"t_max": 1e-9}}),
    ("evolve", {"atoms": {"positions": [0.0, 3.71e-7],
                          "bloch_values": [[1, 0], ["BAD", 0]]},
                "params": {"t_max": 1e-9}}),
    ("interactions", {"params": {"Delta_values": [400e9, "BAD"]}}),
    ("disorder", {"disorder": {"r": 2.0, "n_cells": 10},
                  "params": {"n_trials": 2, "epsilon_values": [1e-3, "BAD"]}}),
], ids=["positions", "bloch_values", "Delta_values", "epsilon_values"])
def test_list_entries_get_the_number_check(capsys, tmp_path, command, doc):
    for bad in ("1" + "0" * 400, "1e400"):   # beyond the float range, infinite
        path = tmp_path / "list.json"
        path.write_text(json.dumps(doc).replace('"BAD"', bad))
        code, out, err = run(capsys, [command, "--preset", "apcw",
                                      "--config", str(path)])
        assert code == 2, err
        assert out == ""
        assert "config error" in err


@pytest.mark.parametrize("command, key, value", [
    ("bound-state", "grid_points", 2.9),
    ("interactions", "sep_points", 6.0),
    ("evolve", "n_times", 3.5),
    ("evolve", "initial_site", 1.0),
    ("disorder", "n_trials", 2.5),
    ("design-powerlaw", "n_drives", 2.0),
], ids=str)
def test_integer_setting_must_be_a_json_integer(capsys, tmp_path, command,
                                                key, value):
    required = {"evolve": {"t_max": 1e-9}, "design-powerlaw": {"eta": 0.5}}
    doc = {"params": {**required.get(command, {}), key: value},
           "atoms": {"positions": [0.0, 3.71e-7]},
           "disorder": {"r": 2.0, "n_cells": 10}}
    cfg = write_cfg(tmp_path, "int.json", doc)
    code, out, err = run(capsys, [command, "--preset", "apcw", "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"params.{key} must be an integer" in err


def test_allocation_failure_is_a_numerical_failure(capsys, monkeypatch):
    # the solve asks numpy for 8 PB, which fails before any memory is touched
    monkeypatch.setattr(cli, "effective_cavity",
                        lambda *args: np.empty(10 ** 15))
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw"])
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ")


@pytest.mark.parametrize("command, params, columns", [
    ("bound-state", {"grid_points": MAX_TABLE_CELLS // 7 + 1}, 7),
    ("interactions", {"sep_points": MAX_TABLE_CELLS // 5 + 1}, 5),
    ("evolve", {"t_max": 1e-9, "n_times": MAX_TABLE_CELLS // 5 + 1}, 5),
    ("design-powerlaw", {"eta": 1.0, "z_max": MAX_TABLE_CELLS // 4 + 1}, 4),
], ids=["bound-state", "interactions", "evolve", "design-powerlaw"])
def test_output_over_the_cell_limit_is_refused_before_computing(
        capsys, tmp_path, command, params, columns):
    cfg = write_cfg(tmp_path, "big.json", {
        "coupling": {"Delta": 400e9},
        "atoms": {"positions": [0.0, 371e-9, 742e-9]}, "params": params})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, "--preset", "apcw", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"x {columns} columns exceeds the {MAX_TABLE_CELLS}-cell" in err
    assert peak < 50e6     # the table alone would be ~400 MB


# ------------------------------------------------------------- design

def test_design_payload_and_tolerance_gate(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "design.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
        "params": {"eta": 0.25, "z_min": 1, "z_max": 50, "n_drives": 2},
    })
    code, out, err = run(capsys, ["design-powerlaw", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"][0] == pytest.approx(0.5480, rel=0.05)
    assert payload["rates"][1] == pytest.approx(0.0089, rel=0.05)
    assert payload["detunings"][0] == pytest.approx(1.723e-3, rel=5e-4)
    assert payload["rms_error"] <= 0.01

    strict = write_cfg(tmp_path, "strict.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
        "params": {"eta": 0.25, "z_min": 1, "z_max": 50, "n_drives": 2,
                   "tolerance": 0.001},
    })
    code, out, err = run(capsys, ["design-powerlaw", "--config", strict])
    assert code == 4                       # gate failed, payload still written
    payload = json.loads(out)
    assert "weights" in payload and "max_error" in payload
    assert "exceeds" in err


def test_design_csv_residuals(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "design.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
        "params": {"eta": 1.0, "z_min": 1, "z_max": 30, "n_drives": 3},
    })
    code, out, err = run(capsys, ["design-powerlaw", "--config", cfg,
                                  "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["z", "target", "fit", "residual"]
    assert rows.shape == (30, 4)
    assert np.allclose(rows[:, 3], rows[:, 2] - rows[:, 1], atol=1e-15)
    assert np.max(np.abs(rows[:, 3])) <= 0.02


# ------------------------------------------------------------- exchange

def test_exchange_optimized_json(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "ex.json", dimensionless_exchange_cfg(1e4))
    code, out, err = run(capsys, ["exchange", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"tau", "error", "gamma_eff", "optimal_Delta",
                            "cooperativity"}
    assert payload["error"] == pytest.approx(0.03276972290009711, rel=1e-6)
    assert payload["cooperativity"] == pytest.approx(1e4, rel=2e-3)
    assert payload["optimal_Delta"] == pytest.approx(799.7e-6, rel=1e-3)


def test_exchange_trajectory_csv(capsys, tmp_path):
    doc = dimensionless_exchange_cfg(1e4)
    doc["params"]["optimize"] = False
    doc["coupling"]["Delta"] = 1e-3
    doc["params"]["separation"] = 1.0
    cfg = write_cfg(tmp_path, "ex2.json", doc)
    code, out, err = run(capsys, ["exchange", "--config", cfg,
                                  "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P_1", "P_2", "norm"]
    assert rows[0, 1] == pytest.approx(1.0) and rows[0, 2] == 0.0
    assert np.all(np.diff(rows[:, 3]) <= 0)


@pytest.mark.parametrize("optimize", [False, True])
def test_exchange_refuses_a_negative_separation(capsys, tmp_path, optimize):
    cfg = write_cfg(tmp_path, "neg.json", {
        "coupling": {"Delta": 400e9},
        "params": {"separation": -1.0, "optimize": optimize}})
    code, out, err = run(capsys, ["exchange", "--preset", "apcw", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "separation must be nonnegative" in err


# ------------------------------------------------------------- evolve

def test_evolve_csv_layout(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "ev.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6},
        "atoms": {"positions": [0.0, 1.0, 2.0, 3.0]},
        "params": {"t_max": 2e6, "n_times": 41, "initial_site": 1},
    })
    code, out, err = run(capsys, ["evolve", "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P_1", "P_2", "P_3", "P_4", "norm"]
    assert rows.shape == (41, 6)
    assert rows[0, 2] == pytest.approx(1.0)       # initial_site = 1
    assert np.all(np.diff(rows[:, 5]) <= 1e-12)   # norm never grows
    assert rows[-1, 5] < 1.0


def test_evolve_with_drive(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "evd.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6},
        "atoms": {"positions": [0.0, 1.0, 2.0]},
        "drives": [{"Omega": 1e-4, "delta_L": 1e-3, "Delta_L": 1e-3}],
        "params": {"t_max": 2e8, "n_times": 11},
    })
    code, out, err = run(capsys, ["evolve", "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "P_1", "P_2", "P_3", "norm"]
    assert rows[1, 2] > 0                          # excitation moved
    # no losses section: decay at the narrowed linewidth |Omega/delta_L|^2 gamma
    narrowed = (1e-4 / 1e-3) ** 2 * 1e-9
    assert rows[-1, 4] == pytest.approx(math.exp(-0.5 * narrowed * 2e8),
                                        abs=1e-6)


def test_evolve_long_chain_takes_the_structured_path(capsys, tmp_path,
                                                     monkeypatch):
    n = 400
    rng = np.random.default_rng(n)
    doc = {"coupling": {"Delta": 400e9},
           "atoms": {"positions": list((np.arange(n) + rng.uniform(-0.1, 0.1, n))
                                       * 371e-9)},
           "params": {"t_max": 1.0, "n_times": 21, "initial_site": n // 2}}
    c = load_config(cli._merge(get_preset("apcw"), doc), "evolve")
    u = coupling_matrix_1d(c.atoms, c.band, c.coupling)
    # two hop times (1/max off-diagonal |U_jl|): well inside the span rule
    doc["params"]["t_max"] = 2.0 / np.max(np.abs(u.values - np.diag(np.diag(u.values))))
    routes = []
    structured = dynamics._evolve_structured
    monkeypatch.setattr(dynamics, "_evolve_structured",
                        lambda *a: routes.append(a) or structured(*a))
    cfg = write_cfg(tmp_path, "chain.json", doc)
    code, out, err = run(capsys, ["evolve", "--preset", "apcw", "--config", cfg])
    assert code == 0 and len(routes) == 1
    header, rows = parse_csv(out)
    t = np.linspace(0.0, doc["params"]["t_max"], 21)
    assert np.array_equal(rows[:, 0], t)
    psi0 = np.zeros(n, dtype=complex)
    psi0[n // 2] = 1.0
    gamma_eff = np.full(n, c.loss_model().gamma_eff())
    dense = dynamics._evolve_dense(u.values, gamma_eff, psi0, t)
    assert np.max(np.abs(rows[:, 1:-1] - np.abs(dense) ** 2)) <= 1e-12
    assert rows[-1, n // 2 + 1] < 0.9   # the excitation moved


def test_evolve_resonant_drive_is_a_config_error(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "resonant.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6},
        "atoms": {"positions": [0.0, 1.0, 2.0]},
        "drives": [{"Omega": 1e-4, "delta_L": 0.0, "Delta_L": 1e-3}],
        "params": {"t_max": 2e8, "n_times": 11},
    })
    code, out, err = run(capsys, ["evolve", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "delta_L = 0" in err


def test_evolve_refuses_too_many_atoms_before_building_u(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "big.json", {
        "atoms": {"positions": [i * 371e-9 for i in range(MAX_ATOMS + 1)]},
        "params": {"t_max": 1e-9, "n_times": 3},
    })
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["evolve", "--preset", "apcw", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert f"N = {MAX_ATOMS + 1} exceeds the supported size {MAX_ATOMS}" in err
    assert peak < 50e6     # the dense U alone would be ~400 MB


# ------------------------------------------------------------- disorder

def disorder_cfg(tmp_path, **over):
    doc = {
        "units": "si",
        "disorder": {"r": 2.0, "epsilon": 1e-3, "n_cells": 4000},
        "params": {"n_trials": 8},
    }
    doc["disorder"].update(over)
    return write_cfg(tmp_path, "dis.json", doc)


def test_disorder_point_payload(capsys, tmp_path):
    cfg = disorder_cfg(tmp_path)
    code, out, err = run(capsys, ["disorder", "--config", cfg])
    assert code == 0
    payload = json.loads(out)
    assert payload["xi_analytic"] == pytest.approx(175.2215058322059, rel=1e-12)
    assert not payload["unbounded"]
    assert payload["n_trials"] == 8 and payload["n_cells"] == 4000
    assert "intensity decays twice as fast" in payload["convention"]
    assert payload["xi_mc"] == pytest.approx(175.0, rel=0.25)


def test_disorder_refuses_too_many_trials(capsys, tmp_path):
    doc = {"units": "si", "disorder": {"r": 2.0, "epsilon": 1e-3},
           "params": {"n_trials": MAX_TRIALS + 1}}
    cfg = write_cfg(tmp_path, "trials.json", doc)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["disorder", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert f"n_trials = {MAX_TRIALS + 1} exceeds the supported {MAX_TRIALS}" in err
    assert peak < 50e6


def test_disorder_seed_override(capsys, tmp_path):
    cfg = disorder_cfg(tmp_path)
    _, out_a, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "5"])
    _, out_b, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "5"])
    _, out_c, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "6"])
    assert out_a == out_b
    assert json.loads(out_a)["xi_mc"] != json.loads(out_c)["xi_mc"]


@pytest.mark.parametrize("argv, key", [(["--seed", "-1"], "seed"), ([], "seed")])
def test_disorder_refuses_a_negative_seed(capsys, tmp_path, argv, key):
    # from --seed, or from the config's top-level seed
    doc = {"units": "si", "seed": -1 if not argv else 0,
           "disorder": {"r": 2.0, "epsilon": 1e-3, "n_cells": 64},
           "params": {"n_trials": 2}}
    cfg = write_cfg(tmp_path, "seed.json", doc)
    code, out, err = run(capsys, ["disorder", "--config", cfg, *argv])
    assert code == 2
    assert out == ""
    assert f"config error: {key} must be nonnegative" in err


def test_disorder_sweep_csv(capsys, tmp_path):
    doc = {
        "units": "si",
        "disorder": {"r": 2.0, "n_cells": 4000},
        "params": {"n_trials": 6, "epsilon_values": [1e-3, 3e-3, 1e-2]},
    }
    cfg = write_cfg(tmp_path, "sweep.json", doc)
    code, out, err = run(capsys, ["disorder", "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["epsilon", "sigma", "xi_analytic", "xi_mc", "stderr"]
    assert rows.shape == (3, 5)
    assert np.all(np.diff(rows[:, 2]) < 0)         # analytic strictly falls


# ------------------------------------------------------------- plumbing

def test_out_writes_identical_bytes(capsys, tmp_path):
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw"])
    assert code == 0
    target = tmp_path / "table.csv"
    code2, out2, err2 = run(capsys, ["bound-state", "--preset", "apcw",
                                     "--out", str(target)])
    assert code2 == 0
    assert out2 == ""                               # machine output redirected
    assert target.read_bytes().decode() == out
    assert b"\r" not in target.read_bytes()


def test_repeat_runs_are_byte_identical(capsys, tmp_path):
    cfg = disorder_cfg(tmp_path)
    outs = set()
    for _ in range(2):
        code, out, err = run(capsys, ["disorder", "--config", cfg])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1

    for _ in range(2):
        code, out, err = run(capsys, ["design-powerlaw", "--preset", "apcw",
                                      "--config", write_cfg(tmp_path, "d.json", {
                                          "units": "si",
                                          "params": {"eta": 0.5}})])
        assert code == 0
        outs.add(out)
    assert len(outs) == 2


def test_config_overlays_preset(capsys, tmp_path):
    # overriding one coupling number must keep the preset's other sections
    cfg = write_cfg(tmp_path, "overlay.json",
                    {"coupling": {"Delta": 800e9}})
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw",
                                  "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert rows.shape == (401, 7)


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables = list(SCHEMA.values()) + list(PARAMS.values())
    missing = [key for table in tables for key, (kind, _) in table.items()
               if f"| `{key}` | {kind}" not in readme]
    assert missing == []


# ------------------------------------------------------------- output pins

def _pin_docs():
    dimless = {"units": "dimensionless",
               "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
               "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6}}
    fixed = dimensionless_exchange_cfg(1e4)
    fixed["coupling"]["Delta"] = 1e-3
    fixed["params"] = {"separation": 1.0, "optimize": False}
    stack = {"r": 2.0, "epsilon": 1e-2, "n_cells": 1000, "seed": 3}
    return {
        "bound-state": (["bound-state", "--preset", "apcw"],
                        {"params": {"grid_points": 9}}),
        "interactions": (["interactions", "--preset", "apcw"],
                         {"params": {"sep_max": 10, "sep_points": 6}}),
        "exchange-optimized": (["exchange"], dimensionless_exchange_cfg(1e4)),
        "exchange-fixed": (["exchange"], fixed),
        "evolve": (["evolve"], {**dimless,
                                "atoms": {"positions": [0.0, 1.0, 2.0]},
                                "params": {"t_max": 2e6, "n_times": 5}}),
        "evolve-driven": (["evolve"], {
            **dimless, "atoms": {"positions": [0.0, 1.0, 2.0]},
            "drives": [{"Omega": 1e-4, "delta_L": 1e-3, "Delta_L": 1e-3}],
            "params": {"t_max": 2e8, "n_times": 5, "initial_site": 2}}),
        "disorder-point": (["disorder"], {"disorder": stack,
                                          "params": {"n_trials": 4}}),
        "disorder-sweep": (["disorder"], {
            "disorder": stack,
            "params": {"n_trials": 4, "epsilon_values": [1e-2, 3e-2]}}),
        "preset-list": (["preset", "list"], None),
    }


def _pin_run(capsys, tmp_path, case, fmt):
    argv, doc = _pin_docs()[case]
    argv = list(argv)
    if doc is not None:
        argv += ["--config", write_cfg(tmp_path, "pin.json", doc)]
    if fmt is not None:
        argv += ["--format", fmt]
    return run(capsys, argv)


# (case, --format) -> (exit code, sha256 of stdout, stderr)
OUTPUT_PINS = {
    ('bound-state', None): (0, "d501f45e8b477d376807279cd17e343a0bbd153588896a6bc27a63a8092465b9",
        'bound-state: 9 rows, Delta/beta in [-10, 10]\n'),
    ('bound-state', 'csv'): (0, "d501f45e8b477d376807279cd17e343a0bbd153588896a6bc27a63a8092465b9",
        'bound-state: 9 rows, Delta/beta in [-10, 10]\n'),
    ('bound-state', 'json'): (0, "6d47810f3bcf1ea805ce7a652d864bcd8260772e0b3267a070b0d31461893ba0",
        'bound-state: 9 rows, Delta/beta in [-10, 10]\n'),
    ('interactions', None): (0, "f331627311ea972d6bda4182f1faaf98f3a235fa496b8e84406a92909333b88d",
        'interactions: 4 detuning curves, separations 0..10 a\n'),
    ('interactions', 'csv'): (0, "f331627311ea972d6bda4182f1faaf98f3a235fa496b8e84406a92909333b88d",
        'interactions: 4 detuning curves, separations 0..10 a\n'),
    ('interactions', 'json'): (0, "cde75478c5fa5764e9efbce36f2262b77d558e8d536f3fddb59381c057b4a04c",
        'interactions: 4 detuning curves, separations 0..10 a\n'),
    ('exchange-optimized', None): (0, "9db2535171b140189caa01bc0bea7418387e60fffd3a690465d54f4919d8a6d6",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-optimized', 'csv'): (0, "eae11d8f9bfe51dd7ef3ce247379cf2efbdc23f841ce90cbf5c6d057eafba373",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-optimized', 'json'): (0, "9db2535171b140189caa01bc0bea7418387e60fffd3a690465d54f4919d8a6d6",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-fixed', None): (0, "8b767ff55ae8f702ee202f3711153a86bb63155777626af5a20107639fccaa9f",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('exchange-fixed', 'csv'): (0, "657911871e60b2a478afbe16fd50788d934b744c951eeff1055b0060c9e1c799",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('exchange-fixed', 'json'): (0, "8b767ff55ae8f702ee202f3711153a86bb63155777626af5a20107639fccaa9f",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('evolve', None): (0, "a606b1bf51461f74ef8c5a5a81a1640d812eefb1f135376a9b6b687e3bbc2411",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve', 'csv'): (0, "a606b1bf51461f74ef8c5a5a81a1640d812eefb1f135376a9b6b687e3bbc2411",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve', 'json'): (0, "14109cb7a901938cf9c2a928a55abf9090ff15c4f955b0e49794beeea399282c",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve-driven', None): (0, "9a90b413760110026940274e20bec99e58e1cf7b5093389dc37bd54303380d5d",
        'evolve: 3 atoms, 5 times, final norm 0.999\n'),
    ('evolve-driven', 'csv'): (0, "9a90b413760110026940274e20bec99e58e1cf7b5093389dc37bd54303380d5d",
        'evolve: 3 atoms, 5 times, final norm 0.999\n'),
    ('evolve-driven', 'json'): (0, "7bc2f758015cb33ec018db98b40da2f85dc885749f835e4d6ef57ef5597f0b36",
        'evolve: 3 atoms, 5 times, final norm 0.999\n'),
    ('disorder-point', None): (0, "185cea5cba27c64ef5774eddba04e282a26f8f3a047dff408dca87636878238a",
        'disorder: epsilon=0.01, xi_mc=35.3596, analytic=37.7503\n'),
    ('disorder-point', 'csv'): (0, "a94317fe80173f6fcbb5da2f081119553e85a7fb00169df8e6dc8d8878c09dc9",
        'disorder: epsilon=0.01, xi_mc=35.3596, analytic=37.7503\n'),
    ('disorder-point', 'json'): (0, "185cea5cba27c64ef5774eddba04e282a26f8f3a047dff408dca87636878238a",
        'disorder: epsilon=0.01, xi_mc=35.3596, analytic=37.7503\n'),
    ('disorder-sweep', None): (0, "4250bccaa5f1775cc2096c2acba478879cd288cb1e832be0d1694919fc8fc253",
        'disorder: swept 2 epsilon values, 4 trials each\n'),
    ('disorder-sweep', 'csv'): (0, "4250bccaa5f1775cc2096c2acba478879cd288cb1e832be0d1694919fc8fc253",
        'disorder: swept 2 epsilon values, 4 trials each\n'),
    ('disorder-sweep', 'json'): (0, "d6bc19f3ef169182729754b09240da29ba93b38f8f3e1491de9597a7e71d3667",
        'disorder: swept 2 epsilon values, 4 trials each\n'),
    ('preset-list', None): (0, "006bc900d455f8b7f9363512f8df1227a129be326d54b389eabb5b0086a7e8a3",
        '1 preset(s) available\n'),
    ('preset-list', 'csv'): (0, "006bc900d455f8b7f9363512f8df1227a129be326d54b389eabb5b0086a7e8a3",
        '1 preset(s) available\n'),
    ('preset-list', 'json'): (0, "006bc900d455f8b7f9363512f8df1227a129be326d54b389eabb5b0086a7e8a3",
        '1 preset(s) available\n'),
}


@pytest.mark.parametrize("case, fmt", sorted(OUTPUT_PINS, key=str),
                         ids=str)
def test_output_pins(capsys, tmp_path, case, fmt):
    code, out, err = _pin_run(capsys, tmp_path, case, fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) \
        == OUTPUT_PINS[case, fmt]


@pytest.mark.parametrize("fmt", [None, "csv", "json"], ids=str)
def test_design_output_shape(capsys, tmp_path, fmt):
    # design-powerlaw digits may move with the optimizer: pin shape, not bytes
    doc = {"units": "dimensionless",
           "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
           "params": {"eta": 0.25, "z_min": 1, "z_max": 20, "n_drives": 2,
                      "tolerance": 1e-6}}
    argv = ["design-powerlaw", "--config", write_cfg(tmp_path, "d.json", doc)]
    code, out, err = run(capsys, argv + (["--format", fmt] if fmt else []))
    assert code == 4                        # tolerance missed, result written
    if fmt == "csv":
        assert out.split("\n", 1)[0] == "z,target,fit,residual"
        assert len(out.split("\n")) == 22   # header, 20 rows, trailing LF
    else:
        assert set(json.loads(out)) == {"weights", "rates", "detunings",
                                        "max_error", "rms_error"}
    assert err.startswith("design-powerlaw: eta=0.25, 2 drives, max|resid|=")
    assert "exceeds tolerance 1e-06" in err


def test_fit_failure_writes_only_the_error(capsys, tmp_path, monkeypatch):
    import bandqed.cli as cli

    def fail(*args, **kwargs):
        raise cli.FitError("no start converged")

    monkeypatch.setattr(cli, "power_law_designer", fail)
    cfg = write_cfg(tmp_path, "d.json", {"params": {"eta": 0.5}})
    for fmt in ([], ["--format", "csv"]):
        code, out, err = run(capsys, ["design-powerlaw", "--preset", "apcw",
                                      "--config", cfg] + fmt)
        assert code == 4
        assert out == '{"error":"no start converged"}\n'
        assert err == "design-powerlaw: fit failed (no start converged)\n"


def test_unrealizable_design_exits_4(capsys, tmp_path):
    # every start coalesces on the beta floor with cancelling weights
    cfg = write_cfg(tmp_path, "d.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
        "coupling": {"gamma": 1e-9, "beta": 0.05},
        "params": {"eta": 1.5, "z_min": 1, "z_max": 30, "n_drives": 3},
    })
    code, out, err = run(capsys, ["design-powerlaw", "--config", cfg])
    assert code == 4
    assert set(json.loads(out)) == {"error"}
    assert err.startswith("design-powerlaw: fit failed (")
