"""Benchmark of the juliadim CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload scan|deep|survey|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. Every pass runs the workload's CLI argv in a
fresh interpreter (child.py) inside a temporary directory under
``.perfbench-tmp/``, with ``PYTHONPATH=src`` and BLAS/OpenMP threads pinned
to 1, and is checked for correctness (workloads.py). With ``--trace 0`` the
run repeats passes for about ``--seconds`` seconds and reports the median
``wall_s``, ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` it runs one
untraced and one cProfile-traced pass plus the fixed-size probes, and
reports per-module counts, self times, probe values and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import probes
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-tmp")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 7       # setup_s is a median over at least this many imports
TIME_LIMIT = 170.0      # every run ends within this many seconds

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


class Runner:
    """Starts child processes against a deadline and owns their directories."""

    def __init__(self, deadline: float, reference: dict):
        self.deadline = deadline
        os.makedirs(WORK, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK)
        # no bytecode is written: set-up always compiles the juliadim sources
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1")
        self.env.update({v: "1" for v in THREAD_VARS})
        self.versions: dict = {}
        self.reference = reference

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run_pass(self, workload: str, seed: int, trace: bool = False) -> dict:
        """One checked pass of the workload's commands."""
        def check(results, workdir):
            return workloads.check_pass(workload, results, workdir,
                                        self.reference)
        return self.child("pass", workloads.commands(workload, seed), trace,
                          check)

    def child(self, mode: str, commands=(), trace: bool = False,
              check=None) -> dict:
        """Run one child; ``check(command_results, workdir)`` sees its files."""
        workdir = tempfile.mkdtemp(prefix=mode + "-", dir=self.work)
        try:
            result_path = os.path.join(workdir, "result.json")
            spec = {"mode": mode, "commands": list(commands), "trace": trace,
                    "result": result_path}
            timeout = self.time_left()
            if timeout <= 0:
                raise BenchError("time limit reached")
            try:
                proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                                      cwd=workdir, env=self.env, timeout=timeout,
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} child exceeded the time limit") from exc
            if proc.returncode != 0:
                raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                                 + proc.stderr[-3000:])
            with open(result_path) as fh:
                result = json.load(fh)
            self.versions = result["versions"]
            if check is not None:
                result["check"] = check(result["commands"], workdir)
            return result
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def close(self) -> None:
        """Remove this run's directory, and WORK when no other run uses it."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _summary(values: list[float]) -> str:
    if len(values) == 1:
        return f"n=1 (value {values[0]:.4f})"
    return (f"median of n={len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def _cache_sizes() -> str:
    try:
        out = subprocess.run(["getconf", "-a"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE",
                                            "LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE"):
            sizes[parts[0].split("_")[0].replace("LEVEL", "L")] = \
                f"{int(parts[1]) // 1024}KiB"
    return " ".join(f"{k}={v}" for k, v in sorted(sizes.items())) or "unknown"


def _tally(passes) -> tuple[int, list[str]]:
    attempted = sum(p["check"][0] for p in passes)
    failures = [f for p in passes for f in p["check"][1]]
    return attempted, failures


def measure(runner: Runner, workload: str, seed: int, seconds: float):
    """Untraced passes for about ``seconds``; end-to-end metrics.

    Passes repeat while the next one is expected to end within ``seconds``;
    a workload longer than half of ``seconds`` gets one pass, which keeps
    every run near ``seconds`` on a slow machine too.
    """
    runner.child("import")                  # warm-up: fills the file cache
    t0 = time.monotonic()
    passes = []
    while True:
        passes.append(runner.run_pass(workload, seed))
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if (elapsed + per_pass > seconds
                or runner.time_left() < 1.5 * per_pass + 15.0):
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES and runner.time_left() > 10.0:
        setups.append(runner.child("import")["setup_s"])
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    attempted, failures = _tally(passes)
    metrics = {"wall_s": (statistics.median(walls), "s", walls),
               "setup_s": (statistics.median(setups), "s", setups),
               "peak_rss_mb": (statistics.median(rss), "MB", rss)}
    return metrics, attempted, failures


def trace(runner: Runner, workload: str, seed: int):
    """One untraced and one traced pass plus the probes; per-layer metrics."""
    runner.child("import")                  # warm-up: fills the file cache
    plain = runner.run_pass(workload, seed)
    traced = runner.run_pass(workload, seed, trace=True)
    probe_values = runner.child("probes")["probes"]
    attempted, failures = _tally([plain, traced])
    metrics = {}
    for mod in tracing.MODULES:
        metrics[f"{mod}.self_s"] = (traced["trace"]["self_s"][mod], "s", None)
    for name, value in traced["trace"]["counts"].items():
        metrics[name] = (value, "count", None)
    for name, unit in probes.UNITS.items():
        metrics[name] = (probe_values.get(name), unit, None)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"],
                                       "ratio", None)
    print(f"traced pass {traced['wall_s']:.3f} s against untraced "
          f"{plain['wall_s']:.3f} s; time outside the 8 modules "
          f"{traced['trace']['other_s']:.3f} s")
    return metrics, attempted, failures


def run_workload(runner, workload, seed, seconds, trace_on):
    if trace_on:
        metrics, attempted, failures = trace(runner, workload, seed)
    else:
        metrics, attempted, failures = measure(runner, workload, seed, seconds)
    print(f"workload {workload} seed {seed}: "
          + " | ".join(" ".join(c) for c in workloads.commands(workload, seed)))
    for name, (value, unit, samples) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        extra = f"  {_summary(samples)}" if samples else ""
        print(f"  {name:36s} {shown}{extra}")
    frac = len(failures) / attempted if attempted else 1.0
    print(f"  {'failed_frac':36s} {frac:.6g}  ({len(failures)} of {attempted} "
          f"operations failed)")
    for f in failures[:20]:
        print(f"    FAILED {f}")
    return metrics, attempted, len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "juliadim", "cli.py")):
        print(f"error: no juliadim sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(time.monotonic() + TIME_LIMIT * len(names),
                    workloads.load_reference())
    out_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, att, fail = run_workload(runner, name, args.seed,
                                              args.seconds, args.trace)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit, _samples) in metrics.items():
                out_metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += att
            failed += fail
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    v = runner.versions
    print(f"env: nproc={os.cpu_count()} python={v.get('python')} "
          f"numpy={v.get('numpy')} scipy={v.get('scipy')} {_cache_sizes()} "
          f"threads=1 (BLAS/OpenMP) seconds={args.seconds:g}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
