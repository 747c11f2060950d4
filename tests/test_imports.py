"""Cold-start guard: the package and the CLI import no scipy module, and
no CLI command loads one: `evolve` takes the numpy spectral path below the
Chebyshev crossover.  In the library, the Chebyshev series loads
`scipy.linalg` (its LAPACK solve) and no `scipy.special`, and per-atom
loss, the one `expm` user, loads `scipy.linalg`.  No path loads
`scipy.sparse`, and the 1D matrix builders load no scipy module and start
no thread.  The 2D builder loads `scipy.special` only for a pair farther
apart than 2L.  Idle OpenBLAS workers sleep instead of spinning on CPU."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import bandqed, bandqed.cli
report = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = bandqed.cli.main(argv)
    report[name] = [code, scipy_modules()]
print(json.dumps(report))
"""


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


LIBRARY_PROBE = r"""
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import bandqed
report = {"import": scipy_modules()}
band = bandqed.BandEdge(omega_b=1.0, alpha=1.0, a=1.0, k0=np.pi)
coupling = bandqed.atom_coupling(band, Delta=1e-3, gamma=1e-9, beta=1e-6)
n, theta = json.loads(sys.argv[1])
atoms = bandqed.atom_array(np.arange(float(n)), band, 1e-9)
u = bandqed.coupling_matrix_1d(atoms, band, coupling)
psi0 = np.zeros(len(atoms), dtype=complex)
psi0[0] = 1.0
bandqed.evolve_single_excitation(u, bandqed.LossModel(0.0, 1e-9, theta), psi0,
                                 np.linspace(0.0, 2e6, 5))
report["evolve"] = scipy_modules()
print(json.dumps(report))
"""


BUILD_PROBE = r"""
import json, sys, threading
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import bandqed
threads = threading.active_count()
band = bandqed.BandEdge(omega_b=1.0, alpha=1.0, a=1.0, k0=np.pi)
coupling = bandqed.atom_coupling(band, Delta=1e-3, gamma=1e-9, beta=1e-6)
drives = [bandqed.DriveField(Omega=1e-4 * (i + 1), Omega_prime=0.0,
                             delta_L=1e-2 * (i + 1), Delta_L=1e-3 * (i + 1))
          for i in range(3)]
for z in (np.arange(1000.0), np.arange(1000.0)[::-1]):     # sorted and unsorted
    atoms = bandqed.atom_array(z, band, 1e-9)
    bandqed.coupling_matrix_1d(atoms, band, coupling)
    bandqed.multi_drive_sum(atoms, band, coupling, drives)
print(json.dumps({"scipy": scipy_modules(),
                  "threads": [threads, threading.active_count()]}))
"""


LATTICE_PROBE = r"""
import json, math, sys
import numpy as np

import bandqed
twopi, a = 2.0 * math.pi, 371e-9
band = bandqed.BandEdge(omega_b=twopi * 333e12, alpha=10.6, k0=math.pi / a, a=a)
coupling = bandqed.atom_coupling(band, Delta=twopi * 400e9, gamma=twopi * 5e6,
                                 g_cell=twopi * 12.2e9)
positions = np.array(json.loads(sys.argv[1])) * a
bandqed.coupling_matrix_2d(bandqed.atom_array(positions, band, coupling.gamma),
                           band, coupling)
print(json.dumps({"L": bandqed.interaction_length(band, coupling.Delta) / a,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def probe(commands, script=PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_and_scipy_free_commands_load_no_scipy(tmp_path):
    kappa_p = 8.0 * math.sqrt(2.0) * (1e-6) ** 3 / ((1e-9) ** 2 * 1e4 ** 1.5)
    exchange = write_cfg(tmp_path, "exchange.json", {
        "units": "dimensionless",
        "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
        "coupling": {"Delta": 0.0, "gamma": 1e-9, "beta": 1e-6},
        "losses": {"kappa_p": kappa_p, "gamma": 1e-9},
        "params": {"separation": 0.0, "optimize": True},
    })
    disorder = write_cfg(tmp_path, "disorder.json", {
        "disorder": {"r": 2.0, "epsilon": 1e-3, "n_cells": 300},
        "params": {"n_trials": 4},
    })
    design = write_cfg(tmp_path, "design.json", {
        "params": {"eta": 1.5, "n_drives": 3},
    })
    report = probe([
        ["bound-state", ["bound-state", "--preset", "apcw"]],
        ["interactions", ["interactions", "--preset", "apcw"]],
        ["exchange", ["exchange", "--config", exchange]],
        ["disorder", ["disorder", "--preset", "apcw", "--config", disorder]],
        ["preset list", ["preset", "list"]],
        ["design-powerlaw", ["design-powerlaw", "--preset", "apcw", "--config", design]],
    ])
    assert report.pop("import") == []
    for name, (code, modules) in report.items():
        assert code == 0, name
        assert modules == [], f"{name} loaded {modules}"


def test_cli_evolve_loads_no_scipy(tmp_path):
    dimless = {"units": "dimensionless",
               "band": {"omega_b": 1.0, "alpha": 1.0, "a": 1.0},
               "coupling": {"Delta": 1e-3, "gamma": 1e-9, "beta": 1e-6},
               "atoms": {"positions": [0.0, 1.0, 2.0]}}
    evolve = write_cfg(tmp_path, "evolve.json", {
        **dimless, "params": {"t_max": 2e6, "n_times": 5}})
    driven = write_cfg(tmp_path, "driven.json", {
        **dimless,
        "drives": [{"Omega": 1e-4, "delta_L": 1e-3, "Delta_L": 1e-3}],
        "params": {"t_max": 2e8, "n_times": 5, "initial_site": 2}})
    # the benchmark's cold `evolve`: 10 apcw lattice atoms over 20 hop times
    # (1/|U_12| at one lattice constant), 201 samples
    import bandqed
    twopi, a = 2.0 * math.pi, 371e-9
    band = bandqed.BandEdge(omega_b=twopi * 333e12, alpha=10.6, k0=math.pi / a, a=a)
    coupling = bandqed.atom_coupling(band, Delta=twopi * 400e9, gamma=twopi * 5e6,
                                     g_cell=twopi * 12.2e9)
    pair = bandqed.coupling_matrix_1d(bandqed.atom_array([0.0, a], band, coupling.gamma),
                                      band, coupling)
    lattice = write_cfg(tmp_path, "lattice.json", {
        "coupling": {"Delta": 400e9},
        "atoms": {"positions": [j * a for j in range(10)]},
        "params": {"t_max": 20.0 / abs(pair.values[0, 1]), "n_times": 201,
                   "initial_site": 5}})
    report = probe([["evolve", ["evolve", "--config", evolve]],
                    ["evolve-driven", ["evolve", "--config", driven]],
                    ["evolve-lattice", ["evolve", "--preset", "apcw",
                                        "--config", lattice]]])
    assert report.pop("import") == []
    for name, (code, modules) in report.items():
        assert code == 0, name
        # three or ten atoms take the spectral path: one numpy eigh, no expm
        # and no chain operator, and the route needs no scipy either
        assert modules == [], f"{name} loaded {modules}"


def test_chain_past_the_crossover_loads_no_sparse():
    report = probe([400, 0.0], script=LIBRARY_PROBE)
    assert report["import"] == []
    # the chain operator's LAPACK solve shows that the structured path ran;
    # its Bessel coefficients come from numpy
    assert "scipy.linalg" in report["evolve"]
    assert "scipy.special" not in report["evolve"]
    assert not any(m == "scipy.sparse" or m.startswith("scipy.sparse.")
                   for m in report["evolve"])


def test_per_atom_loss_loads_linalg():
    # a vector theta makes h_eff non-Hermitian: expm is its only path
    report = probe([3, [0.1, 0.2, 0.3]], script=LIBRARY_PROBE)
    assert report["import"] == []
    assert "scipy.linalg" in report["evolve"]
    assert "scipy.special" not in report["evolve"]
    assert not any(m == "scipy.sparse" or m.startswith("scipy.sparse.")
                   for m in report["evolve"])


def test_chain_builders_are_numpy_only_and_single_threaded():
    # the 1D builders stay in numpy's own loops in the calling thread, so
    # cold commands import nothing new and the CPU time per build is its own
    report = probe([], script=BUILD_PROBE)
    assert report["scipy"] == []
    before, after = report["threads"]
    assert after == before


def test_2d_lattice_within_two_lengths_loads_no_scipy():
    # the apcw L is ~30 a: every pair of a 5 x 5 lattice is within 0.2 L,
    # where K0 comes from its power series
    lattice = [[x, y] for x in range(5) for y in range(5)]
    report = probe(lattice, script=LATTICE_PROBE)
    assert math.hypot(4, 4) < 2.0 * report["L"]
    assert report["scipy"] == []


def test_2d_pair_past_two_lengths_loads_special():
    report = probe([[0, 0], [70, 0]], script=LATTICE_PROBE)
    assert 70 > 2.0 * report["L"]
    assert "scipy.special" in report["scipy"]


IDLE_PROBE = r"""
import json, os, sys, time
import bandqed
import numpy as np
import scipy.linalg

scipy.linalg.expm(np.eye(3) * 0.1)   # loads scipy's own OpenBLAS and its pool
time.sleep(0.3)
ticks = {}
for tid in os.listdir("/proc/self/task"):
    with open(f"/proc/self/task/{tid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks[tid] = int(fields[11]) + int(fields[12])   # utime + stime
print(json.dumps({"main": str(os.getpid()), "ticks": ticks,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times from /proc")
def test_idle_blas_workers_sleep_instead_of_spinning(monkeypatch):
    # with OpenBLAS's own default an idle worker spins ~60 ms before it
    # sleeps: 6 clock ticks per pool, numpy's and scipy's, for no work
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    report = probe([], script=IDLE_PROBE)
    workers = {tid: t for tid, t in report["ticks"].items() if tid != report["main"]}
    assert all(t <= 1 for t in workers.values()), workers
    assert report["timeout"] == "24"


def test_a_preset_blas_thread_timeout_is_kept(monkeypatch):
    monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", "28")
    report = probe([], script="import os, json, bandqed; "
                              "print(json.dumps(os.environ['OPENBLAS_THREAD_TIMEOUT']))")
    assert report == "28"


PUBLIC_API = [
    "AtomArray", "AtomCoupling", "BandEdge", "BoundState", "CouplingMatrix",
    "DielectricStack", "DriveField", "EvolutionResult", "ExchangeTrajectory", "FitError", "KPMap", "LocalizationResult",
    "LossModel", "PowerLawDesign", "SpinRotation", "atom_array",
    "atom_coupling", "band_edge_phase", "beta_from_g_cell", "bound_state",
    "bound_state_depth", "bound_state_depth_bisect", "cell_matrix",
    "cooperativity", "cooperativity_at_length",
    "coupling_matrix_1d", "coupling_matrix_2d", "design",
    "detuning_for_rate", "disorder",
    "driven_coupling_matrix", "dynamics", "effective_cavity",
    "evolve_single_excitation", "exchange_simulate", "g_cell_from_beta",
    "interaction_length", "interactions", "interface_matrix", "kp_map",
    "lyapunov_mc", "mechanical_potential", "mixing_angles", "mode_weights",
    "multi_drive_sum", "optimize_exchange", "photon_mode_profile",
    "power_law_designer", "propagation_matrix", "rate_for_detuning",
    "sigma_of", "spin_rotation", "xi_analytic",
]


def test_public_api_is_pinned():
    # an addition or removal shows up here, so it is reviewed on purpose
    import bandqed
    assert sorted(bandqed.__all__) == PUBLIC_API
