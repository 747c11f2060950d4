import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bandqed.cli import main
from bandqed.config import canonical_dumps, load_config
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


def test_disorder_seed_override(capsys, tmp_path):
    cfg = disorder_cfg(tmp_path)
    _, out_a, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "5"])
    _, out_b, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "5"])
    _, out_c, _ = run(capsys, ["disorder", "--config", cfg, "--seed", "6"])
    assert out_a == out_b
    assert json.loads(out_a)["xi_mc"] != json.loads(out_c)["xi_mc"]


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
