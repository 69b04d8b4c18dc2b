"""Closed-loop measurement of one workload, with correctness checks.

One caller, one process: the loop runs a warm, in-process
``cli.run_experiment`` on the generated config again and again until the
requested seconds are used up, so the load never exceeds one Python thread
plus the BLAS threads (capped at the usable cores).

``--trace 0`` prints the end-to-end metrics:

* ``run_s``: wall time of the fastest warm run, report files written.  The
  median and the tail percentile are printed with it.  The host's
  interference only ever adds time, and on a shared 2-vCPU VM it comes in
  phases that slow the same code by up to 2x for seconds at a time, so the
  median jumps between the fast and the slow mode from run to run while the
  minimum repeats (Chen & Revels, "Robust benchmarking in noisy
  environments", 2016);
* ``setup_s``: median wall time of a fresh interpreter that imports
  coherentlab and loads the config, which every CLI invocation pays;
* ``peak_rss_mb``: peak resident memory of this process after the timed runs;
* ``success_rate``: 1 - error_rate, the share of attempted runs that passed
  every check.  (A metric that can read 0 has no usable relative bound, so
  the JSON carries this instead of ``error_rate``, which is printed above it.)

``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics of ``layertrace`` (medians over the traced runs) plus
``trace.overhead_s``, the fastest traced minus the fastest untraced run.

A run fails if it raises, if its ``overall_pass`` or any named record differs
from the expected verdict (all PASS), if its report bytes differ from the
first run's, or if the report fails an oracle of ``oracles``.  The first run
is an untimed, traced warm-up: it supplies the reference bytes and the
counters the oracles need.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from coherentlab import cli

import layertrace
import oracles
from workloads import WORKLOADS

MIN_SETUPS = 5
REPORT_FILES = ("report.json", "rows.csv")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import coherentlab; "
              "coherentlab.load_config(sys.argv[2], sys.argv[3])")


def unit(metric: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_rate", "ratio")):
        if metric.endswith(suffix):
            return u
    return "count"


# -- machine facts ------------------------------------------------------------------


def _blas_threads() -> str:
    """Live OpenBLAS thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=%s)" % os.environ.get("OPENBLAS_NUM_THREADS")


def machine_facts() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={_blas_threads()}")


# -- one run ------------------------------------------------------------------------


def verdict_failures(w, params: dict, files: dict) -> list:
    """overall_pass and every named record against the expected all-PASS verdict."""
    report = json.loads(files["report.json"])
    named = [(r["name"], r["passed"]) for r in report["records"] if "passed" in r]
    failures = [] if report["overall_pass"] else ["overall_pass is false"]
    if [n for n, _ in named] != w.expected(params):
        failures.append(f"records {[n for n, _ in named]} != {w.expected(params)}")
    failures += [f"{n}: FAIL" for n, ok in named if not ok]
    return failures


def attempt(w, params: dict, ini: str, out: str, reference: dict | None,
            tracer: layertrace.LayerTracer | None = None) -> tuple:
    """One run: (wall seconds or None, report files, failure messages)."""
    try:
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            cli.run_experiment(w.kind, ini, out)
            wall = time.perf_counter() - t0
        files = {}
        for name in REPORT_FILES:
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        failures = verdict_failures(w, params, files)
    except Exception:
        return None, None, ["raised:\n" + traceback.format_exc()]
    if reference is not None and files != reference:
        failures.append("report bytes differ from the first run's")
    return wall, files, failures


def oracle_failures(w, params: dict, files: dict, tracer) -> list:
    observed = {**tracer.counts, **{m: tracer.leaves[n][0]
                                    for m, n in layertrace.LEAF_CALLS.items()}}
    report = json.loads(files["report.json"])
    return oracles.ORACLES[w.kind](params, report, files["rows.csv"].decode(), observed)


def setup_time(w, ini: str, src: str) -> float:
    """Wall time of a fresh interpreter that imports coherentlab and loads the config."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src, ini, w.kind],
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return wall


# -- the measured loop --------------------------------------------------------------


class Tally:
    """Attempted and failed runs; the failure messages go to the log."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def add(self, label: str, failures: list) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.log(f"FAILED {label}: " + "; ".join(failures))


def tail_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it, from p50 up."""
    n = len(samples)
    if n < 20:
        return f"none (n={n}; needs >= 20 samples)"
    return (f"p{100.0 * (n - 10) / n:.1f} = {sorted(samples)[n - 11]:.4f} s "
            f"(10 samples beyond, n={n})")


def measure(w, seed: int, seconds: float, trace: bool, work_dir: str, src: str,
            log=print) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    os.makedirs(work_dir, exist_ok=True)
    params = w.params(seed)
    ini = os.path.join(work_dir, "config.ini")
    with open(ini, "w") as fh:
        fh.write(w.config_text(seed))
    out = os.path.join(work_dir, "report")
    log(f"workload {w.name} (seed {seed}): {w.why}")
    log(f"machine: {machine_facts()}")
    tally = Tally(log)
    metrics = {}

    # untimed, traced warm-up: first-call stalls (BLAS thread start-up, lazy
    # imports) land here; its reports are the reference for byte identity and
    # its counters feed the oracles
    warm = layertrace.LayerTracer()
    _, reference, failures = attempt(w, params, ini, out, None, warm)
    tally.add("warm-up", failures)
    if reference is not None:
        log("sha256 " + " ".join(f"{n}={hashlib.sha256(reference[n]).hexdigest()}"
                                 for n in REPORT_FILES))

    walls, traced_walls, layer_runs, setups = [], [], [], []
    last_traced = warm
    t_end = time.perf_counter() + seconds
    n = 0
    while n < 1 + trace or time.perf_counter() < t_end:
        t = layertrace.LayerTracer() if trace and n % 2 else None
        wall, _, failures = attempt(w, params, ini, out, reference, t)
        tally.add(f"{'traced ' if t else ''}run {n}", failures)
        n += 1
        if wall is None:
            continue
        if t is None:
            walls.append(wall)
        else:
            traced_walls.append(wall)
            layer_runs.append(t.metrics())
            last_traced = t
        if not trace:  # set-up samples spread over the run, like the run samples
            setups.append(setup_time(w, ini, src))
    if not trace:
        while len(setups) < MIN_SETUPS:
            setups.append(setup_time(w, ini, src))
        metrics["setup_s"] = statistics.median(setups)
        log(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setups)}")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference is not None:
        failures = oracle_failures(w, params, reference, warm)
        if failures:  # every run produced these same bytes
            log("ORACLE: " + "; ".join(failures))
            tally.failed = tally.attempted
    last_traced.dump(os.path.join(work_dir, "spans.json"))

    if walls:
        run_s = min(walls)
        log(f"run_s samples: {' '.join(f'{t:.4f}' for t in walls)}")
        log(f"run_s fastest {run_s:.4f} s, median {statistics.median(walls):.4f} s "
            f"over n={len(walls)} runs; "
            f"tail: {tail_percentile(walls)}")
    log(f"error_rate = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:.4f} ratio")
    if trace:
        metrics = layertrace.median_metrics(layer_runs) if layer_runs else {}
        if walls and traced_walls:
            metrics["trace.overhead_s"] = min(traced_walls) - run_s
    else:
        if walls:
            metrics["run_s"] = run_s
        metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        log(f"metric {name} = {shown} {unit(name)}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def main(argv, root: str) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work_dir = os.path.join(root, ".bench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     work_dir, os.path.join(root, "src"))
    print(json.dumps(result))
    return 0
