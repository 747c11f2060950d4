"""bandqed benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bandqed checkout; see perfbench/README.md.  The
package is taken from ./src (compiled to bytecode first, as an install
would) and driven from outside: the cli-cold workload starts one
`python -m bandqed.cli` process per operation, the others start one worker
process that calls the library.  Either way a single closed loop runs one
operation at a time.  Each run does whole rounds of the same operations
until S seconds have passed; an operation's latency is its median over the
rounds (README.md says why not the fastest round).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MIN_ROUNDS = 2
SETUP_EVERY = 2     # in-process workloads: one fresh set-up process per two rounds


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an operation failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def reap(proc: subprocess.Popen):
    """Wait for proc and return its own resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def rss_mb(usage) -> float:
    return usage.ru_maxrss * 1024 / 1e6     # ru_maxrss is in KiB on Linux


class Loop:
    """Whole rounds: a new one starts while time is left, and at least MIN_ROUNDS run."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds
        self.rounds = 0

    def __iter__(self):
        while self.rounds < MIN_ROUNDS or time.perf_counter() < self.deadline:
            yield self.rounds
            self.rounds += 1


class Tally:
    """Samples of every operation, and the operations attempted and failed."""

    def __init__(self):
        self.wall: dict[str, list] = {}
        self.cpu: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, name: str, wall: float, cpu: float, error, expect_failure: bool):
        self.wall.setdefault(name, []).append(wall)
        self.cpu.setdefault(name, []).append(cpu)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if not expect_failure:
                self.unexpected.append(f"{name}: {error}")

    def metrics(self, setup: list[float], peak_rss: float) -> dict:
        """End-to-end metrics from each operation's median over the rounds."""
        walls = [statistics.median(v) for v in self.wall.values()]
        cpus = [statistics.median(v) for v in self.cpu.values()]
        return {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "cpu_per_op_s": {"value": sum(cpus) / len(walls), "unit": "s"},
        }


def stderr_tail(path: Path) -> str:
    try:
        return path.read_text()[-2000:]
    except OSError:
        return ""


def run_in_process(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    py = [sys.executable]
    worker = str(HERE / "worker.py")
    env = child_env()
    span_path = OUT / f"trace-{workload}-{seed}.json"
    err_path = work / "worker.err"

    def start(extra, stdin=None):
        """Start a worker (a set-up-only one without stdin); seconds until it is ready."""
        path = err_path if stdin is not None else work / "setup.err"
        with open(path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(py + extra + [worker, workload, str(seed)] + (
                ["--setup-only"] if stdin is None else []) + (
                ["--trace", str(span_path)] if trace and stdin is not None else []),
                stdin=stdin, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
        line = proc.stdout.readline()
        if line.strip() != "ready":
            proc.kill()
            reap(proc)
            raise BenchError(f"worker did not start:\n{stderr_tail(path)}")
        return proc, time.perf_counter() - t0

    main, first_setup = start(["-X", "importtime"] if trace else [], stdin=subprocess.PIPE)
    setup, peak, tally, loop = [first_setup], 0.0, Tally(), Loop(seconds)
    try:
        for _ in loop:
            main.stdin.write("round\n")
            main.stdin.flush()
            line = main.stdout.readline()
            if not line:
                raise BenchError(f"worker died:\n{stderr_tail(err_path)}")
            for r in json.loads(line):
                tally.add(r["name"], r["wall"], r["cpu"], r["error"], expect_failure=False)
            if not trace and loop.rounds % SETUP_EVERY == 0:
                proc, elapsed = start([])
                setup.append(elapsed)
                proc.stdout.close()
                peak = max(peak, rss_mb(reap(proc)))
    finally:
        main.stdin.close()          # end of input: the worker writes its spans and exits
        main.stdout.close()
        peak = max(peak, rss_mb(reap(main)))
    if main.returncode != 0:
        raise BenchError(f"worker exited with {main.returncode}:\n{stderr_tail(err_path)}")
    if trace:
        spans = json.loads(span_path.read_text())
        imports = tracing.parse_importtime(err_path.read_text())
        return tally, tracing.layer_metrics(spans, loop.rounds, imports)
    return tally, tally.metrics(setup, peak)


def run_cli_cold(seed: int, seconds: float, trace: bool, work: Path):
    env = child_env()
    py = [sys.executable]
    ops = workloads.cli_ops(seed)
    cfg_paths = {}
    for op in ops:
        if op.config is not None:
            cfg_paths[op.name] = work / f"{op.name}.json"
            cfg_paths[op.name].write_text(json.dumps(op.config))
    out_path, err_path = work / "stdout", work / "stderr"

    def spawn(argv):
        """Run one child to completion: wall seconds, resource usage, exit code."""
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            usage = reap(proc)
            return time.perf_counter() - t0, usage, proc.returncode

    setup, peak, tally, spans, import_samples = [], 0.0, Tally(), [], []
    for rnd in Loop(seconds):
        if trace:
            _, _, code = spawn(py + ["-X", "importtime", "-c", "import bandqed.cli"])
            import_samples.append(tracing.parse_importtime(err_path.read_text()))
        else:
            wall, usage, code = spawn(py + ["-c", "import bandqed.cli"])
            setup.append(wall)
            peak = max(peak, rss_mb(usage))
        if code != 0:
            raise BenchError(f"cannot import bandqed.cli:\n{stderr_tail(err_path)}")
        for i, op in enumerate(ops):
            argv = list(op.argv)
            if op.name in cfg_paths:
                argv += ["--config", str(cfg_paths[op.name])]
            span_path = work / f"spans-{rnd}-{i}.json"
            if trace:
                argv = py + [str(HERE / "cli_trace.py"), str(span_path), str(rnd)] + argv
            else:
                argv = py + ["-m", "bandqed.cli"] + argv
            wall, usage, code = spawn(argv)
            peak = max(peak, rss_mb(usage))
            error = None
            if code != 0:
                error = f"exit {code}: {stderr_tail(err_path).strip()[-300:]}"
            else:
                try:
                    op.check(out_path.read_text())
                except (checks.CheckError, ValueError, KeyError, IndexError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
            tally.add(op.name, wall, usage.ru_utime + usage.ru_stime, error,
                      op.expect_failure)
            if trace and span_path.exists():
                for s in json.loads(span_path.read_text()):
                    # keep span ids unique across processes
                    s["id"] = f"{rnd}.{i}.{s['id']}"
                    if s["parent"] is not None:
                        s["parent"] = f"{rnd}.{i}.{s['parent']}"
                    spans.append(s)
    if trace:
        (OUT / f"trace-cli-cold-{seed}.json").write_text(json.dumps(spans))
        imports = {k: statistics.median(s[k] for s in import_samples)
                   for k in import_samples[0]}
        return tally, tracing.layer_metrics(spans, len(import_samples), imports)
    return tally, tally.metrics(setup, peak)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bandqed" / "__init__.py").is_file():
        print(f"no bandqed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src" / "bandqed"), quiet=1):
        print("bandqed sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.workload == "cli-cold":
            tally, metrics = run_cli_cold(args.seed, args.seconds, bool(args.trace), work)
        else:
            tally, metrics = run_in_process(args.workload, args.seed, args.seconds,
                                            bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.unexpected:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
