import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bandqed import cli, dynamics
from bandqed.bound_state import effective_cavity, interaction_length
from bandqed.cli import MAX_TABLE_CELLS, main
from bandqed.config import PARAMS, PRESETS, SCHEMA, canonical_dumps, load_config
from bandqed.disorder import MAX_TRIALS
from bandqed.dynamics import MAX_ATOMS, exchange_simulate
from bandqed.interactions import AtomArray, _pair_kernel, atom_array, coupling_matrix_1d

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


DIMLESS = {"units": "dimensionless",
           "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
           "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6}}
TWO_ATOMS = {"positions": [0.0, 3.71e-7]}


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


# Each value has one source: the atoms take coupling.gamma, --seed overrides
# disorder.seed, and a drive is a Lambda-scheme leg with no Omega' or phase.
@pytest.mark.parametrize("path, message", [
    (("drives", 0, "phi"), "unknown keys in drives[0]: ['phi']"),
    (("drives", 0, "Omega_prime"), "unknown keys in drives[0]: ['Omega_prime']"),
    (("atoms", "gamma"), "unknown keys in atoms: ['gamma']"),
    (("seed",), "unknown keys in config: ['seed']"),
], ids=["drive-phi", "drive-Omega_prime", "atoms-gamma", "top-level-seed"])
def test_second_sources_are_unknown_keys(capsys, tmp_path, path, message):
    doc = {**DIMLESS, "atoms": {"positions": [0.0, 1.0, 2.0]},
           "drives": [{"Omega": 1e-4, "delta_L": 1e-3, "Delta_L": 1e-3}],
           "params": {"t_max": 2e8, "n_times": 5}}
    *parents, key = path
    section = doc
    for part in parents:
        section = section[part]
    section[key] = 0   # even a value that would change nothing is refused
    code, out, err = run(capsys, ["evolve", "--config", write_cfg(tmp_path, "k.json", doc)])
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


# Each subcommand takes only the flags it reads: --seed is disorder's, and
# preset list reads no config.
@pytest.mark.parametrize("command", ["bound-state", "interactions", "design-powerlaw",
                                     "exchange", "evolve", "preset"])
def test_seed_is_refused_where_nothing_reads_it(capsys, command):
    target = ["list"] if command == "preset" else ["--preset", "apcw"]
    with pytest.raises(SystemExit) as exc:
        main([command, *target, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--preset"])
def test_preset_list_refuses_config_flags(capsys, tmp_path, flag):
    value = str(tmp_path / "missing.json") if flag == "--config" else "apcw"
    with pytest.raises(SystemExit) as exc:
        main(["preset", "list", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_build_parser_places_each_flag_where_it_is_read():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    flags = {name: sorted(opt for action in sub._actions for opt in action.option_strings
                          if opt.startswith("--") and opt != "--help")
             for name, sub in subparsers.items()}
    configured = ["--config", "--format", "--out", "--preset"]
    assert flags == {**{name: configured for name in PARAMS},
                     "disorder": sorted(configured + ["--seed"]),
                     "preset": ["--format", "--out"]}
    assert sum(map(len, flags.values())) == 27


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


def test_default_losses_take_the_effective_cavity_theta():
    # one function gives both; two separate atan2 calls differed in the last
    # bit on 81 of these 2000 pairs
    rng = np.random.default_rng(7)
    betas = 10.0 ** rng.uniform(-8.0, -2.0, 2000)
    ratios = rng.uniform(-10.0, 10.0, 2000)
    differ = []
    for beta, ratio in zip(betas, ratios):
        doc = {**DIMLESS, "coupling": {"Delta": ratio * beta, "gamma": 1e-9,
                                       "beta": beta}}
        cfg = load_config(doc, "exchange")
        with_losses = load_config({**doc, "losses": {"gamma": 1e-9}}, "exchange")
        theta = effective_cavity(cfg.band, cfg.coupling).theta
        if not theta == cfg.loss_model().theta == with_losses.losses.theta:
            differ.append((beta, ratio))
    assert differ == []

    # the default angle needs no decay length: an upper band edge, which
    # effective_cavity refuses, still loads its default losses
    upper = {**DIMLESS, "band": {**DIMLESS["band"], "alpha": -1.0},
             "losses": {"gamma": 1e-9}}
    cfg = load_config(upper, "exchange")
    with pytest.raises(ValueError, match="inside the band"):
        effective_cavity(cfg.band, cfg.coupling)
    assert cfg.losses.theta == load_config(DIMLESS, "exchange").loss_model().theta


@pytest.mark.parametrize("params", [{"grid_min": -1e100, "grid_max": 1e100},
                                    {"grid_max": 1.7e308}], ids=["cubes", "product"])
def test_bound_state_refuses_a_grid_past_the_float_range_unwarned(tmp_path, params):
    # Delta = x beta: its cube, or the product itself, passes the float range.
    # Warnings used to reach stderr ahead of the refusal: a fresh process shows them
    cfg = write_cfg(tmp_path, "huge.json", {"params": params})
    proc = cold_cli(["bound-state", "--preset", "apcw", "--config", cfg])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("config error:")
    assert "RuntimeWarning" not in proc.stderr


def test_bound_state_refuses_a_depth_below_the_float_range(capsys, tmp_path):
    # delta ~ 4 beta^3/Delta^2 = 4e-500 came back 0.0, and the refusal blamed
    # "detuning 0 lies inside the band"
    cfg = write_cfg(tmp_path, "deep.json", {
        **DIMLESS, "coupling": {"gamma": 1e-9, "beta": 1e-100},
        "params": {"grid_min": -1e200}})
    code, out, err = run(capsys, ["bound-state", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == ("config error: the bound-state depth ~4 beta^3/Delta^2 falls "
                   "below the smallest normal float\n")


def test_bound_state_deep_below_the_edge_writes_one_stderr_line(tmp_path):
    # (beta/delta)^1.5 overflows to inf and cos theta to its limit 0; the
    # overflow's RuntimeWarning used to reach stderr ahead of the summary
    cfg = write_cfg(tmp_path, "deep.json", {
        **DIMLESS, "coupling": {"gamma": 1e-9, "beta": 1e-60},
        "params": {"grid_min": -1e120}})
    proc = cold_cli(["bound-state", "--config", cfg])
    assert proc.returncode == 0
    assert proc.stderr == "bound-state: 401 rows, Delta/beta in [-1e+120, 10]\n"
    header, rows = parse_csv(proc.stdout)
    assert rows[0, 2] == 0.0 and rows[0, 3] == 1.0   # P_e and P_p


def test_a_non_finite_grid_is_refused_in_one_line(capsys, tmp_path):
    # the refusal names the first bad entry, not all 401 of them
    cfg = write_cfg(tmp_path, "huge.json", {"params": {"grid_max": 1.7e308}})
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw", "--config", cfg])
    assert (code, out) == (2, "")
    assert err == ("config error: Delta must be finite, got (inf at [1], "
                   "400 of 401 entries not finite)\n")


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


def test_csv_cells_are_written_as_format_17g():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
              1.7976931348623157e308, -1.0 / 3.0]
    rows = np.array([values, values[::-1]])
    text = cli._render(cli.Output("", table=(list("abcdefgh"), rows)), None)
    assert text == "a,b,c,d,e,f,g,h\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in (values, values[::-1]))


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
    cfg = load_config(PRESETS["apcw"], "interactions")
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


@pytest.mark.parametrize("command, doc", [
    ("interactions", {"params": {"Delta_values": [1e-300]}}),
    ("evolve", {"coupling": {"Delta": 1e-300},
                "atoms": {"positions": [0.0, 371e-9, 742e-9]},
                "params": {"t_max": 1e-9}}),
], ids=["interactions", "evolve"])
def test_a_detuning_whose_length_overflows_is_a_numerical_failure(
        capsys, tmp_path, command, doc):
    # L = inf made every U_jl 0: a column of zeros, or frozen populations, and exit 0
    cfg = write_cfg(tmp_path, "tiny.json", doc)
    code, out, err = run(capsys, [command, "--preset", "apcw", "--config", cfg])
    assert (code, out) == (3, "")
    assert "detuning 6.283e-300 gives an interaction length past the float range" in err


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


# (command, layered over the apcw preset, config document, message)
@pytest.mark.parametrize("command, preset, doc, message", [
    ("bound-state", True, [1, 2], "config root must be a JSON object"),
    ("bound-state", True, {"units": "imperial"},
     'units must be "si" or "dimensionless"'),
    ("bound-state", True, {"units": ["si"]},
     'units must be "si" or "dimensionless"'),
    ("evolve", True, {"drives": {"Omega": 1e9}}, "drives must be a list"),
    ("bound-state", True, {"losses": [1.0]}, "losses must be a JSON object"),
    ("bound-state", True, {"coupling": {"bogus": 1}},
     "unknown keys in coupling: ['bogus']"),
    ("bound-state", False, {"band": {"omega_b": 1.0, "alpha": 1.0}},
     "missing required key band.a"),
    ("bound-state", True, {"params": {"grid_min": True}},
     "params.grid_min must be a number"),
    ("exchange", True, {"params": {"optimize": 1}},
     "params.optimize must be a boolean"),
    ("interactions", True, {"params": {"Delta_values": []}},
     "params.Delta_values must be a non-empty list of numbers"),
    ("evolve", True, {"atoms": {**TWO_ATOMS, "bloch_values": [[1, 0, 0], [1, 0, 0]]},
                      "params": {"t_max": 1e-9}},
     "atoms.bloch_values must be a non-empty list of [re, im] pairs"),
    ("bound-state", False, {"coupling": {"gamma": 5e6, "g_cell": 12.2e9}},
     "coupling section needs a band section"),
    ("evolve", False, {"atoms": TWO_ATOMS, "params": {"t_max": 1e-9}},
     "atoms section needs a band section"),
    ("evolve", False, {"band": DIMLESS["band"], "atoms": {"positions": [0.0, 1.0]},
                       "params": {"t_max": 1.0}},
     "atoms section needs a coupling section"),
    ("exchange", False, {"units": "dimensionless", "band": DIMLESS["band"],
                         "losses": {"gamma": 1e-9}},
     "losses section needs a coupling section"),
    ("evolve", True, {"params": {"t_max": 1e-9}}, "this command needs a 'atoms' section"),
    ("bound-state", True, {"coupling": {"beta": 1e9}}, "give exactly one of beta and g_cell"),
    ("bound-state", False, {**DIMLESS, "coupling": {"gamma": 1e-9}},
     "give exactly one of beta and g_cell"),
    ("bound-state", True, {"coupling": {"bloch_amplitude": 1}},
     "unknown keys in coupling: ['bloch_amplitude']"),
    ("bound-state", False, {**DIMLESS, "coupling": {"gamma": 1e-9, "beta": 1e300}},
     "beta = 1e+300 is past the float range of g_cell"),
    ("bound-state", False, {**DIMLESS, "coupling": {"gamma": 1e-9, "g_cell": 1e200}},
     "g_cell = 1e+200 is past the float range of beta"),
    ("bound-state", True, {"params": {"grid_min": 1.0, "grid_max": 1.0}},
     "grid_min < grid_max and grid_points >= 2 required"),
    ("interactions", True, {"coupling": {"gamma": 0.0}}, "interactions needs gamma > 0"),
    ("interactions", True, {"params": {"sep_max": 0.0}},
     "sep_max > 0 and sep_points >= 2 required"),
    ("interactions", False, DIMLESS,
     "params.Delta_values required in dimensionless mode"),
    ("evolve", True, {"atoms": TWO_ATOMS, "params": {"t_max": 0.0}},
     "t_max > 0 and n_times >= 2 required"),
    ("evolve", True, {"atoms": TWO_ATOMS, "params": {"t_max": 1e-9, "initial_site": 2}},
     "initial_site out of range"),
    # beta = 1e-300 gave g_cell = 0.0, then a RuntimeWarning and "delta must
    # be finite, got nan"; g_cell = 1e-200 was named as "beta must be positive"
    ("bound-state", False, {**DIMLESS, "coupling": {"gamma": 1e-9, "beta": 1e-300}},
     "beta = 1e-300 is below the float range of g_cell"),
    ("bound-state", False, {**DIMLESS, "coupling": {"gamma": 1e-9, "g_cell": 1e-200}},
     "g_cell = 1e-200 is below the float range of beta"),
], ids=["root-not-object", "units", "units-not-a-string", "drives-not-list",
        "section-not-object", "unknown-section-key", "missing-required-key",
        "true-for-number", "one-for-boolean", "empty-Delta_values", "bloch_values-not-pairs",
        "coupling-without-band", "atoms-without-band", "atoms-without-coupling",
        "losses-without-coupling", "evolve-without-atoms", "beta-and-g_cell",
        "neither-beta-nor-g_cell", "bloch_amplitude", "beta-past-the-float-range",
        "g_cell-past-the-float-range", "grid_min-not-below-grid_max",
        "interactions-gamma-0", "interactions-sep_max-0",
        "dimensionless-interactions-without-Delta_values", "evolve-t_max-0",
        "evolve-initial_site-out-of-range", "beta-below-the-float-range",
        "g_cell-below-the-float-range"])
def test_config_refusals_are_config_errors(capsys, tmp_path, command, preset, doc,
                                           message):
    argv = [command, "--config", write_cfg(tmp_path, "refused.json", doc)]
    code, out, err = run(capsys, argv + (["--preset", "apcw"] if preset else []))
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


def test_evolve_with_bloch_value_pairs_matches_the_library(capsys, tmp_path):
    pairs = [[1.0, 0.0], [0.0, 0.5], [-0.6, 0.6], [0.3, -0.8]]
    e = np.array([complex(re, im) for re, im in pairs])
    doc = {**DIMLESS, "atoms": {"positions": [0.0, 1.0, 2.0, 3.0], "bloch_values": pairs},
           "params": {"t_max": 2e7, "n_times": 11, "initial_site": 1}}
    code, out, err = run(capsys, ["evolve", "--config", write_cfg(tmp_path, "e.json", doc)])
    assert code == 0
    header, rows = parse_csv(out)

    cfg = load_config(doc, "evolve")
    assert np.array_equal(cfg.atoms.bloch_values, e)
    atoms = AtomArray(positions=np.arange(4.0), bloch_values=e, gamma=1e-9)
    psi0 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    want = dynamics.evolve_single_excitation(
        coupling_matrix_1d(atoms, cfg.band, cfg.coupling), cfg.loss_model(), psi0,
        np.linspace(0.0, 2e7, 11))
    assert np.array_equal(rows[:, 1:-1], want.populations)
    assert np.array_equal(rows[:, -1], want.norm)
    assert np.max(rows[:, 1:-1] - rows[0, 1:-1]) > 0.01   # the excitation moved


def test_dimensionless_interactions_headers(capsys, tmp_path):
    doc = {**DIMLESS, "params": {"Delta_values": [1e-3, 2.5e-3], "sep_points": 3}}
    code, out, err = run(capsys, ["interactions", "--config",
                                  write_cfg(tmp_path, "i.json", doc)])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["separation_over_a", "U_over_gamma_Delta0.001",
                      "U_over_gamma_Delta0.0025"]
    assert rows.shape == (3, 3)


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


@pytest.mark.parametrize("params, message", [
    ({"z_min": 10, "z_max": 5}, "z_range must satisfy"),
    ({"n_drives": 0}, "at least one drive"),
    ({"eta": -1}, "eta must be nonnegative"),
    ({"z_min": 1, "z_max": 3, "n_drives": 2}, "too few lattice sites"),
], ids=["z-range", "no-drive", "negative-eta", "few-sites"])
def test_design_input_refusals_are_config_errors(capsys, tmp_path, params, message):
    cfg = write_cfg(tmp_path, "design.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 0.2, "a": 1.0},
        "params": {"eta": 0.5, **params},
    })
    code, out, err = run(capsys, ["design-powerlaw", "--config", cfg])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and message in err


def test_design_singular_solve_stays_a_numerical_failure(capsys, tmp_path,
                                                         monkeypatch):
    # LinAlgError is a ValueError too: it must not be read as a config error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "power_law_designer", singular)
    cfg = write_cfg(tmp_path, "d.json", {"params": {"eta": 0.5}})
    code, out, err = run(capsys, ["design-powerlaw", "--preset", "apcw", "--config", cfg])
    assert code == 3
    assert out == ""
    assert err == "numerical failure: Singular matrix\n"


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


def test_fixed_detuning_exchange_takes_the_interactions_pair_rate():
    # optimize false read U12 from a two-atom matrix, whose |E_0 E_1^*| rounds
    # off 1: tau or the error differed in the last bits on 332 of these pairs
    # (the payload's floats are written exactly, as the exchange pins show)
    rng = np.random.default_rng(3)
    n = 2000
    deltas_hz = 10.0 ** rng.uniform(11.0, 13.0, n)
    seps = np.where(np.arange(n) < n // 2, rng.integers(0, 60, n),
                    rng.uniform(0.0, 60.0, n))
    differ = []
    for delta_hz, sep in zip(deltas_hz, seps):
        doc = {"coupling": {"Delta": delta_hz},
               "params": {"separation": sep, "optimize": False}}
        cfg = load_config(cli._merge(PRESETS["apcw"], doc), "exchange")
        want = exchange_simulate(_pair_kernel(cfg.band, cfg.coupling, cfg.coupling.Delta,
                                              sep * cfg.band.a), cfg.loss_model())
        got = cli.cmd_exchange(cfg).payload
        if (got["tau"], got["error"]) != (want.tau, want.error):
            differ.append((delta_hz, sep))
    assert differ == []


@pytest.mark.parametrize("separation", [0.0, 2.0])
def test_fixed_detuning_at_the_optimum_reproduces_the_optimized_run(capsys, tmp_path,
                                                                    separation):
    # the optimizer's trajectory is exchange_simulate at Delta_opt with the
    # loss model there, so optimize false at the printed optimal_Delta gives
    # the same transfer and the same trace bytes
    doc = dimensionless_exchange_cfg(1e4)
    doc["params"]["separation"] = separation
    runs = []
    for _ in range(2):
        argv = ["exchange", "--config", write_cfg(tmp_path, "ex.json", doc)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        code, csv, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        runs.append((json.loads(out), csv))
        doc["coupling"]["Delta"] = runs[0][0]["optimal_Delta"]
        doc["params"]["optimize"] = False
    (best, best_csv), (fixed, fixed_csv) = runs
    assert fixed["optimal_Delta"] is None
    for key in ("tau", "error", "gamma_eff"):
        assert fixed[key] == best[key], key
    assert fixed_csv == best_csv


@pytest.mark.parametrize("C, separation", [(1e4, 30.0), (1e2, 4.0)])
def test_exchange_at_a_separation_meets_the_scaled_cooperativity_bound(
        capsys, tmp_path, C, separation):
    # at a fixed detuning U12 falls by e^{-d/L}, so tau and the error bound
    # grow by e^{d/L}: these errors pass 2 pi/sqrt(C), and were refused as
    # an inconsistent operating point
    doc = dimensionless_exchange_cfg(C)
    doc["params"]["separation"] = separation
    code, out, err = run(capsys, ["exchange", "--config", write_cfg(tmp_path, "d.json", doc)])
    assert code == 0, err
    payload = json.loads(out)
    bound = 2.0 * math.pi / math.sqrt(payload["cooperativity"])
    L = interaction_length(load_config(doc, "exchange").band, payload["optimal_Delta"])
    assert bound < payload["error"] <= bound * math.exp(separation / L)


@pytest.mark.parametrize("optimize", [False, True])
def test_exchange_refuses_a_negative_separation(capsys, tmp_path, optimize):
    cfg = write_cfg(tmp_path, "neg.json", {
        "coupling": {"Delta": 400e9},
        "params": {"separation": -1.0, "optimize": optimize}})
    code, out, err = run(capsys, ["exchange", "--preset", "apcw", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "separation must be nonnegative" in err


def test_exchange_refuses_a_separation_without_exchange(capsys, tmp_path):
    # |U12| ~ 1e-312: pi/(2 |U12|) overflows, and tau used to come out Infinity
    cfg = write_cfg(tmp_path, "far.json", {
        "coupling": {"Delta": 400e9},
        "params": {"separation": 22000, "optimize": False}})
    code, out, err = run(capsys, ["exchange", "--preset", "apcw", "--config", cfg])
    assert code == 3
    assert out == ""
    assert "transfer time diverges" in err


def test_exchange_refuses_a_cooperativity_outside_the_float_range(capsys, tmp_path):
    # kappa_p gamma = 1e-337 underflowed and C divided by zero: a traceback, exit 1
    cfg = write_cfg(tmp_path, "coop.json", {
        "units": "dimensionless", "band": {"omega_b": 1, "alpha": 1, "a": 1},
        "coupling": {"gamma": 1e-170, "beta": 1e-6},
        "losses": {"kappa_p": 1e-167, "gamma": 1e-170}})
    code, out, err = run(capsys, ["exchange", "--config", cfg])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "outside the float range" in err


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


def test_evolve_refuses_a_four_level_drive(capsys, tmp_path):
    # the single-excitation evolution models the Lambda scheme alone: a drive
    # takes no second leg, so one that names it is refused, not answered as Lambda
    doc = {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6},
        "atoms": {"positions": [0.0, 1.0, 2.0]},
        "drives": [{"Omega": 1e-4, "delta_L": 1e-3, "Delta_L": 1e-3,
                    "Omega_prime": 1e-4, "phi": 0.7}],
        "params": {"t_max": 2e8, "n_times": 11},
    }
    code, out, err = run(capsys, ["evolve", "--config", write_cfg(tmp_path, "4l.json", doc)])
    assert code == 2
    assert out == ""
    assert err == "config error: unknown keys in drives[0]: ['Omega_prime', 'phi']\n"


def test_evolve_long_chain_takes_the_structured_path(capsys, tmp_path,
                                                     monkeypatch):
    n = 400
    rng = np.random.default_rng(n)
    doc = {"coupling": {"Delta": 400e9},
           "atoms": {"positions": list((np.arange(n) + rng.uniform(-0.1, 0.1, n))
                                       * 371e-9)},
           "params": {"t_max": 1.0, "n_times": 21, "initial_site": n // 2}}
    c = load_config(cli._merge(PRESETS["apcw"], doc), "evolve")
    u = coupling_matrix_1d(c.atoms, c.band, c.coupling)
    # two hop times (1/max off-diagonal |U_jl|): the series costs less than one eigh
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


def test_evolve_span_past_the_float_range_is_a_numerical_failure(capsys, tmp_path):
    # lambda t overflows: the phases, and so the populations, would be NaN
    cfg = write_cfg(tmp_path, "span.json", {
        "coupling": {"Delta": 400e9},
        "atoms": {"positions": [i * 371e-9 for i in range(50)]},
        "params": {"t_max": 1e300, "n_times": 2},
    })
    code, out, err = run(capsys, ["evolve", "--preset", "apcw", "--config", cfg])
    assert code == 3
    assert out == ""
    assert "past the float range" in err


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
    # from --seed, or from the config's disorder.seed
    doc = {"units": "si",
           "disorder": {"r": 2.0, "epsilon": 1e-3, "n_cells": 64,
                        "seed": -1 if not argv else 0},
           "params": {"n_trials": 2}}
    cfg = write_cfg(tmp_path, "seed.json", doc)
    code, out, err = run(capsys, ["disorder", "--config", cfg, *argv])
    assert code == 2
    assert out == ""
    assert f"config error: {key} must be nonnegative" in err


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be nonnegative, got -1"),
    (10**400, "disorder.seed is beyond the float range"),
], ids=["negative", "huge"])
def test_seed_flag_is_checked_as_disorder_seed(capsys, tmp_path, seed, message):
    # --seed is the last config layer; 10**400 as a flag used to run with exit 0
    doc = {"units": "si", "disorder": {"r": 2.0, "epsilon": 1e-3, "n_cells": 64},
           "params": {"n_trials": 2}}
    flag = run(capsys, ["disorder", "--config", write_cfg(tmp_path, "flag.json", doc),
                        "--seed", str(seed)])
    doc["disorder"]["seed"] = seed
    in_file = run(capsys, ["disorder", "--config", write_cfg(tmp_path, "file.json", doc)])
    assert flag == in_file == (2, "", f"config error: {message}\n")


def test_seed_flag_adds_no_disorder_section(capsys):
    code, out, err = run(capsys, ["disorder", "--preset", "apcw", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "config error: this command needs a 'disorder' section\n"


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


def strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity token."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_unbounded_disorder_point_writes_null(capsys, tmp_path):
    code, out, err = run(capsys, ["disorder", "--config",
                                  disorder_cfg(tmp_path, epsilon=0.0)])
    assert code == 0
    payload = strict_json(out)
    assert payload["unbounded"] is True
    assert payload["xi_mc"] is None and payload["xi_stderr"] is None
    assert payload["xi_analytic"] is None and payload["sigma"] == 0.0


def test_unbounded_disorder_sweep_writes_null_in_json_and_inf_in_csv(capsys, tmp_path):
    doc = {"units": "si", "disorder": {"r": 2.0, "n_cells": 4000},
           "params": {"n_trials": 8, "epsilon_values": [0.0, 1e-3]}}
    argv = ["disorder", "--config", write_cfg(tmp_path, "sweep.json", doc)]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0
    columns = strict_json(out)["columns"]
    for name in ("xi_analytic", "xi_mc", "stderr"):
        assert columns[name][0] is None
        assert math.isfinite(columns[name][1])
    code, out, err = run(capsys, argv)
    assert code == 0
    header, rows = parse_csv(out)
    assert np.all(np.isinf(rows[0, 2:])) and np.all(np.isfinite(rows[1]))


# ------------------------------------------------------------- plumbing

class FullStream:
    """A stdout on a full device: every write and flush fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    flush = write


def test_failed_stdout_write_is_a_config_error(capsys, monkeypatch):
    # it used to leave main as an OSError traceback
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main(["preset", "list"])
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: cannot write output: [Errno 28] No space left on device\n"


SRC = Path(cli.__file__).resolve().parents[1]


def cold_cli(argv, stdout=subprocess.PIPE, unbuffered=False):
    """Run `python -m bandqed.cli` on this source tree in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "bandqed.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cold_write_to_a_full_device_is_a_config_error(unbuffered):
    # the write fails in main (unbuffered) or at its flush (buffered); either
    # way one message, where there used to be a traceback and exit 1
    with open("/dev/full", "w") as full:
        proc = cold_cli(["preset", "list"], stdout=full, unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr == \
        "config error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("case", ["preset-list", "disorder-unbounded", "missing-config",
                                  "too-many-trials"])
def test_cold_process_matches_main_byte_for_byte(capsys, tmp_path, case):
    argv = {
        "preset-list": ["preset", "list"],
        "disorder-unbounded": ["disorder", "--config",
                               disorder_cfg(tmp_path, epsilon=0.0)],
        "missing-config": ["evolve", "--config", str(tmp_path / "missing.json")],
        "too-many-trials": ["disorder", "--config", write_cfg(
            tmp_path, "trials.json", {"disorder": {"r": 2.0},
                                      "params": {"n_trials": MAX_TRIALS + 1}})],
    }[case]
    code, out, err = run(capsys, argv)
    assert code == {"preset-list": 0, "disorder-unbounded": 0,
                    "missing-config": 2, "too-many-trials": 3}[case]
    proc = cold_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_cold_output_is_complete_on_a_pipe_and_in_an_out_file(capsys, tmp_path):
    # ~2.8 MB, many times any stream buffer, written before the process ends
    cfg = write_cfg(tmp_path, "grid.json", {"params": {"grid_points": 20_000}})
    argv = ["bound-state", "--preset", "apcw", "--config", cfg]
    code, out, err = run(capsys, argv)
    assert code == 0
    proc = cold_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
    target = tmp_path / "table.csv"
    proc = cold_cli(argv + ["--out", str(target)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", err)
    assert target.read_text() == out


def test_main_returns_and_run_exits_with_its_code(capsys, monkeypatch, tmp_path):
    class Exit(Exception):
        pass

    def fake_exit(code):
        raise Exit(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    for argv, want in ((["preset", "list"], 0),
                       (["evolve", "--config", str(tmp_path / "missing.json")], 2)):
        assert main(argv) == want            # main never ends the interpreter
        monkeypatch.setattr(sys, "argv", ["bandqed", *argv])
        with pytest.raises(Exit) as exc:
            cli.run()
        assert exc.value.args == (want,)
    capsys.readouterr()


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
    # overriding one coupling number must keep the preset's other sections,
    # and leave the preset itself as it was
    before = copy.deepcopy(PRESETS)
    cfg = write_cfg(tmp_path, "overlay.json",
                    {"coupling": {"Delta": 800e9}, "disorder": {"r": 2.0}})
    code, out, err = run(capsys, ["bound-state", "--preset", "apcw",
                                  "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert rows.shape == (401, 7)
    code, out, err = run(capsys, ["disorder", "--preset", "apcw", "--config", cfg,
                                  "--seed", "4"])
    assert code == 0
    assert PRESETS == before


def test_unknown_preset_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound-state", "--preset", "nope"])
    assert exc.value.code == 2
    assert "argument --preset: invalid choice: 'nope'" in capsys.readouterr().err


def test_readme_config_docs_match_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = readme.split("## Configuration schema\n")[1].split("\n## ")[0]
    # the section table comes before the params table: {(name, key): type}
    sections, params = docs.split("| command |")
    for text, schema in ((sections, SCHEMA), (params, PARAMS)):
        documented = {(name.replace("[i]", ""), key): kind for name, key, kind in
                      re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| ([^|]+?) \|", text, re.M)}
        declared = {(name, key): kind for name, table in schema.items()
                    for key, (kind, _) in table.items()}
        assert documented.keys() == declared.keys()
        assert [k for k, kind in declared.items()
                if not documented[k].startswith(kind)] == []
    # the example loads, and it holds every top-level key the prose names
    example = json.loads(docs.split("```json\n")[1].split("```")[0])
    load_config(example, "bound-state")
    top = docs.split("The top level takes ")[1].split("\n\n")[0]
    assert set(re.findall(r"`(\w+)`", top)) <= set(example)


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
        "design-powerlaw": (["design-powerlaw", "--preset", "apcw"],
                            {"params": {"eta": 1.5, "n_drives": 3}}),
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
    ('design-powerlaw', None): (0, "7f902d88e22768db10992698206540c9392968f31bf9f015b2c10faa95eaea68",
        'design-powerlaw: eta=1.5, 3 drives, max|resid|=0.002424, rms=0.0008396\n'),
    ('design-powerlaw', 'csv'): (0, "9ebd67287d23c91b83da05494843f80204ffd0d411d468b928744f4312239a38",
        'design-powerlaw: eta=1.5, 3 drives, max|resid|=0.002424, rms=0.0008396\n'),
    ('design-powerlaw', 'json'): (0, "7f902d88e22768db10992698206540c9392968f31bf9f015b2c10faa95eaea68",
        'design-powerlaw: eta=1.5, 3 drives, max|resid|=0.002424, rms=0.0008396\n'),
    ('exchange-optimized', None): (0, "9b1f8d864d8f3898047393c6ff2f774c6332297e5c5e7124557ca35441cc5655",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-optimized', 'csv'): (0, "8a41d9cf6b4c939cb1f6fc88a7c6e5e7570abb2ece6ba1b7ac2728cfe654f4f8",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-optimized', 'json'): (0, "9b1f8d864d8f3898047393c6ff2f774c6332297e5c5e7124557ca35441cc5655",
        'exchange: tau=2.22105e+07, error=0.0327697\n'),
    ('exchange-fixed', None): (0, "8b767ff55ae8f702ee202f3711153a86bb63155777626af5a20107639fccaa9f",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('exchange-fixed', 'csv'): (0, "657911871e60b2a478afbe16fd50788d934b744c951eeff1055b0060c9e1c799",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('exchange-fixed', 'json'): (0, "8b767ff55ae8f702ee202f3711153a86bb63155777626af5a20107639fccaa9f",
        'exchange: tau=2.74306e+07, error=0.0365574\n'),
    ('evolve', None): (0, "ee05c3ccfeff4cfc8f65bb2700318fd0cefc3998f21cf7e7fa71d08b5c59c214",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve', 'csv'): (0, "ee05c3ccfeff4cfc8f65bb2700318fd0cefc3998f21cf7e7fa71d08b5c59c214",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve', 'json'): (0, "e7fc86e6221d28a696fd3b76bbd5a8ceb58694321c90f54c2b9808f610b4e2f2",
        'evolve: 3 atoms, 5 times, final norm 0.999001\n'),
    ('evolve-driven', None): (0, "64a36d411b41157a8c774ee7c8e1a4a0a2c6089132b3b841cc2aed610dfe98d0",
        'evolve: 3 atoms, 5 times, final norm 0.999\n'),
    ('evolve-driven', 'csv'): (0, "64a36d411b41157a8c774ee7c8e1a4a0a2c6089132b3b841cc2aed610dfe98d0",
        'evolve: 3 atoms, 5 times, final norm 0.999\n'),
    ('evolve-driven', 'json'): (0, "0a3a18c91fc28c49616f6be56030233efcacba572cf64d0f7d7fb4c889052fef",
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
    # a design that misses its tolerance still writes its result; the bytes
    # of a design are pinned in OUTPUT_PINS
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
