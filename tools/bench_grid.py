#!/usr/bin/env python
"""End-to-end grid throughput benchmark: serial vs. pooled execution.

Where ``bench_hotpath.py`` times single cells inside one process, this
benchmark times what a user actually runs: a whole
``mitigations x trackers x trh`` grid over one recorded workload,
serial and on a process pool. The honest metric is end-to-end
cells/second on the full grid — including pool startup, workload
materialization through the plane's per-process caches, and result
plumbing.

Run from the repository root::

    PYTHONPATH=src python tools/bench_grid.py            # full matrix
    PYTHONPATH=src python tools/bench_grid.py --quick    # CI smoke
    PYTHONPATH=src python tools/bench_grid.py --append   # add a point

``--append`` accumulates runs into a ``{"runs": [...]}`` trajectory in
``BENCH_grid.json`` (one committed point per perf PR).

The workload is a freshly recorded single-file (rate-mode) trace:
every core of every cell replays the same recorded stream, which is the
workload plane's hardest-working case — its caches decode the file
once per process instead of once per core per cell. The benchmark
asserts both modes produced bit-identical result sets before reporting
any number, and prints the pooled run's ``workloads:`` accounting line.

A second, *analytical* section times a high-cardinality security grid
(hundreds of microsecond-scale closed-form cells) serially and under
chunked pool dispatch — the chunk scheduler's target case — printing
the greppable ``chunked cells/sec:`` line and asserting the chunked
run matches the serial reference bit-identically. Its with-store leg
runs the same grid serially into a fresh result store (``store-cold``)
and resumes it from the filled store (``store-warm``, which must
execute zero cells), against the serial no-store run as the baseline.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.sim.evaluations import SecurityParams  # noqa: E402
from repro.sim.experiment import (  # noqa: E402
    ExperimentSpec,
    resolve_workload,
    run_grid,
)
from repro.sim.pool import ProcessPool, SerialPool, available_cpu_count  # noqa: E402
from repro.sim.recorder import record_workload  # noqa: E402
from repro.sim.simulator import SimulationParams  # noqa: E402
from repro.workloads import plane  # noqa: E402

#: The grid matrix: the paper's swap designs under both cheap trackers,
#: across two thresholds — 13 cells over one workload (12 + 1 deduped
#: baseline), the shape a `repro grid` sweep actually runs.
MITIGATIONS = ("rrs", "srs", "scale-srs")
TRACKERS = ("misra-gries", "exact")


def build_spec(trace_dir: str, quick: bool) -> ExperimentSpec:
    """The benchmark grid over the recorded rate-mode trace."""
    if quick:
        params = SimulationParams(
            num_cores=2, requests_per_core=800, time_scale=32,
            engine="batched",
        )
        trhs = [1200]
    else:
        params = SimulationParams(
            num_cores=4, requests_per_core=4_000, time_scale=32,
            engine="batched",
        )
        trhs = [2400, 1200]
    return ExperimentSpec(
        workloads=[f"trace:{trace_dir}"],
        mitigations=list(MITIGATIONS),
        base_params=params,
        grid={"tracker": list(TRACKERS), "trh": trhs},
    )


def record_trace(out_dir: str, quick: bool) -> None:
    """Record the single-file gcc stream every benchmark cell replays."""
    requests = 12_000 if quick else 120_000
    record_workload(
        resolve_workload("gcc"),
        SimulationParams(num_cores=1, requests_per_core=requests),
        out_dir=out_dir,
    )


def build_analytical_spec(quick: bool) -> ExperimentSpec:
    """A high-cardinality security grid of microsecond-scale cells.

    The chunk scheduler's target case: each cell is one closed-form
    Juggernaut evaluation (fixed round budget, no Monte-Carlo), so the
    per-cell pool dispatch used to dwarf the cell itself. 2000 cells
    full (2 designs x 20 TRH x 50 swap rates), 200 quick.
    """
    if quick:
        trhs = [1200 + 200 * i for i in range(10)]
        rates = [2.0 + 0.5 * i for i in range(10)]
    else:
        trhs = [1200 + 100 * i for i in range(20)]
        rates = [2.0 + 0.1 * i for i in range(50)]
    return ExperimentSpec(
        kind="security",
        mitigations=["rrs", "srs"],
        base_params=SecurityParams(rounds=64, iterations=0),
        grid={"trh": trhs, "swap_rate": rates},
    )


def run_analytical_mode(
    spec: ExperimentSpec, mode: str, workers: int, repeats: int, scratch: str
) -> Dict[str, Any]:
    """Time the analytical grid in one mode, best of ``repeats``.

    Modes: ``serial`` (the in-process, no-store reference every other
    mode must match bit-identically), ``chunked`` (pooled,
    cost-budgeted chunks), ``store-cold`` (serial, into a fresh result
    store per repeat) and ``store-warm`` (serial resume from the store
    the first ``store-cold`` repeat filled).
    """
    best = float("inf")
    results = None
    for repeat in range(repeats):
        pool = ProcessPool(workers) if mode == "chunked" else SerialPool()
        store = None
        if mode == "store-cold":
            store = os.path.join(scratch, f"store-{repeat}")
        elif mode == "store-warm":
            store = os.path.join(scratch, "store-0")
        started = time.perf_counter()
        results = run_grid(spec, pool=pool, store=store)
        best = min(best, time.perf_counter() - started)
    stats = results.run_stats
    if mode == "store-warm" and stats.executed:
        raise AssertionError(f"warm resume executed {stats.executed} cells")
    return {
        "mode": mode,
        "seconds": round(best, 4),
        "cells": stats.planned,
        "executed": stats.executed,
        "chunks": stats.chunks,
        "cells_per_second": round(stats.planned / best, 3),
        "_json": results.to_json(),
    }


def run_analytical_benchmark(quick: bool, repeats: int) -> Dict[str, Any]:
    """The analytical section: serial vs chunked pooled dispatch, and
    the serial grid into a cold store and resumed from a warm one."""
    spec = build_analytical_spec(quick)
    spec.validate()
    workers = min(4, available_cpu_count())
    with tempfile.TemporaryDirectory(prefix="bench-grid-store-") as scratch:
        modes = [
            run_analytical_mode(spec, mode, workers, repeats, scratch)
            for mode in ("serial", "chunked", "store-cold", "store-warm")
        ]
    serial, chunked, cold, warm = modes
    reference = serial.pop("_json")
    for mode in modes[1:]:
        if mode.pop("_json") != reference:
            raise AssertionError(
                f"analytical {mode['mode']} run changed results — "
                "bit-identity violated"
            )
    speedup = round(
        chunked["cells_per_second"] / serial["cells_per_second"], 3
    )
    store_cost = {
        name: round(mode["seconds"] / serial["seconds"], 3)
        for name, mode in (("cold_over_no_store", cold),
                           ("warm_over_no_store", warm))
    }
    for mode in modes:
        chunk_note = (
            f"  ({mode['chunks']} chunks)" if mode["chunks"] is not None else ""
        )
        print(
            f"analytical {mode['mode']:<11s}{mode['cells']} cells in "
            f"{mode['seconds']:.3f}s  {mode['cells_per_second']:>10.2f} "
            f"cells/s{chunk_note}"
        )
    # Greppable by the CI grid-throughput-smoke job.
    print(f"chunked cells/sec: {chunked['cells_per_second']:.2f}")
    print(f"analytical chunked/serial speedup: {speedup:.2f}x")
    print(
        f"analytical store time / no-store time: cold "
        f"{store_cost['cold_over_no_store']:.2f}x, warm resume "
        f"{store_cost['warm_over_no_store']:.2f}x"
    )
    return {
        "cells": serial["cells"],
        "workers": workers,
        "modes": modes,
        "chunked_speedup": speedup,
        "store": store_cost,
    }


def run_mode(spec: ExperimentSpec, pooled: bool, repeats: int) -> Dict[str, Any]:
    """Time ``run_grid`` serially or pooled, best of ``repeats``.

    Every repeat starts from a cold plane (the fixed cost under test is
    exactly what the plane amortizes *within* one grid run); the numbers
    include pool startup. Returns seconds, cells/sec, the result JSON
    (for the bit-identity assertion), and the plane accounting of the
    final repeat.
    """
    best = float("inf")
    results = None
    for _ in range(repeats):
        plane.reset()
        pool = ProcessPool(max_workers=2) if pooled else SerialPool()
        started = time.perf_counter()
        results = run_grid(spec, pool=pool)
        best = min(best, time.perf_counter() - started)
    stats = results.run_stats
    workloads = stats.workloads
    return {
        "pooled": pooled,
        "seconds": round(best, 4),
        "cells": stats.planned,
        "cells_per_second": round(stats.planned / best, 3),
        "workloads": dataclasses.asdict(workloads),
        "_json": results.to_json(),
        "_line": workloads.line,
    }


def host_info() -> Dict[str, Any]:
    """Host fingerprint for comparing benchmark points over time."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_available": available_cpu_count(),
    }


def main(argv: List[str] = None) -> int:
    """Run both sections, assert bit-identity, write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced matrix for CI smoke (7 cells x 2 cores x 800 "
             "requests over a 12k-record trace, 1 repeat)",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_grid.json"),
        help="output JSON path (default: BENCH_grid.json in the repo root)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="append this run to the existing JSON (a {'runs': [...]} "
             "trajectory) instead of overwriting; a legacy single-run "
             "file becomes the trajectory's first point",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repetitions per mode, best-of (default: 1 quick, "
             "2 full; raise on noisy hosts)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats else (1 if args.quick else 2)

    with tempfile.TemporaryDirectory(prefix="bench-grid-") as scratch:
        # Setup (untimed): the recorded stream and a warm parsed-trace
        # cache, so every mode starts from identical on-disk state.
        os.environ["REPRO_TRACE_CACHE"] = os.path.join(scratch, "cache")
        trace_dir = os.path.join(scratch, "trace")
        record_trace(trace_dir, args.quick)
        spec = build_spec(trace_dir, args.quick)
        spec.validate()
        resolve_workload(f"trace:{trace_dir}").arrays_for_core(
            0, spec.base_params, spec.base_params.make_organization()
        )
        plane.reset()

        modes = [
            run_mode(spec, pooled=False, repeats=repeats),
            run_mode(spec, pooled=True, repeats=repeats),
        ]

    serial, pooled = modes
    if pooled.pop("_json") != serial.pop("_json"):
        raise AssertionError(
            "pooled grid run changed results — bit-identity violated"
        )
    lines = [mode.pop("_line") for mode in modes]
    pooled_speedup = round(
        pooled["cells_per_second"] / serial["cells_per_second"], 3
    )
    for mode in modes:
        label = "pooled" if mode["pooled"] else "serial"
        print(
            f"{label}  {mode['cells']} cells in {mode['seconds']:.3f}s  "
            f"{mode['cells_per_second']:>8.2f} cells/s"
        )
    # The pooled run's plane accounting, greppable by the CI smoke job.
    print(lines[1])

    analytical = run_analytical_benchmark(args.quick, repeats)

    report = {
        "benchmark": "grid",
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "params": {
            "num_cores": spec.base_params.num_cores,
            "requests_per_core": spec.base_params.requests_per_core,
            "engine": spec.base_params.engine,
            "mitigations": list(MITIGATIONS),
            "trackers": list(TRACKERS),
            "repeats": repeats,
        },
        "modes": modes,
        "analytical": analytical,
        "summary": {
            "pooled_over_serial": pooled_speedup,
            "analytical_chunked_over_serial": analytical["chunked_speedup"],
        },
    }
    payload: Dict[str, Any] = report
    if args.append:
        runs: List[Dict[str, Any]] = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                existing = json.load(handle)
            # A legacy single-run file becomes the first trajectory point.
            runs = existing.get("runs", [existing])
        runs.append(report)
        payload = {"benchmark": "grid", "runs": runs}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}"
          + (f" ({len(payload['runs'])} run(s))" if args.append else ""))
    # Greppable by the CI grid-throughput-smoke job.
    print(f"grid pooled/serial speedup: {pooled_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
