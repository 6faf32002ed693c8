#!/usr/bin/env python
"""Hot-path benchmark: scalar vs. batched engine over a fixed cell matrix.

This is the repo's perf baseline — the first point of its performance
trajectory, and the harness every later perf PR is measured against. It
runs a fixed matrix of (mitigation x workload) cells under both
simulation engines — the Misra-Gries-tracked designs plus the swap
designs under the Hydra tracker — times each cell, verifies the engines agreed on the
numbers (bit-identical ``sum_ipc``/swaps — a perf run that silently
changed results would be worthless), and writes ``BENCH_hotpath.json``
with requests/sec, per-cell speedups, and host information.

Run from the repository root::

    PYTHONPATH=src python tools/bench_hotpath.py            # full matrix
    PYTHONPATH=src python tools/bench_hotpath.py --quick    # CI smoke
    PYTHONPATH=src python tools/bench_hotpath.py --append   # add a point

``--append`` accumulates runs into a ``{"runs": [...]}`` trajectory
(one committed point per perf PR) instead of overwriting the file.

The full matrix uses the acceptance-sized baseline cell (4 cores x
60k requests, closed page); ``--quick`` shrinks every cell for the CI
``perf-smoke`` job, which uploads the JSON as an artifact (no threshold
gate — the numbers are for trend lines, not pass/fail).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.sim.experiment import resolve_workload  # noqa: E402
from repro.sim.pool import available_cpu_count  # noqa: E402
from repro.sim.simulator import (  # noqa: E402
    PerformanceSimulation,
    SimulationParams,
)

#: The fixed cell matrix: the designs the paper compares, on a cache-
#: friendly and a memory-bound workload.
MITIGATIONS = ("baseline", "rrs", "srs", "scale-srs")
WORKLOADS = ("gcc", "povray")
ENGINES = ("scalar", "batched")
#: Swap designs also timed under the Hydra tracker (Figure 16's cells).
HYDRA_MITIGATIONS = ("rrs", "srs", "scale-srs")


def bench_cell(
    workload: str, mitigation: str, params: SimulationParams, repeats: int
) -> Dict[str, Any]:
    """Time one (workload, mitigation) cell under both engines.

    Each engine runs ``repeats`` times, the engines alternating within
    each repeat so that host drift hits both alike; the best wall-clock
    per engine is reported (interference on shared CI hosts only ever
    slows a run down). Returns the cell record for the JSON report.
    """
    spec = resolve_workload(workload)
    requests = params.num_cores * params.requests_per_core
    cell: Dict[str, Any] = {
        "workload": workload,
        "mitigation": mitigation,
        "tracker": params.tracker,
        "num_cores": params.num_cores,
        "requests_per_core": params.requests_per_core,
        "policy": params.policy.value,
    }
    checks = {}
    best = {engine: float("inf") for engine in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            run_params = replace(params, engine=engine)
            simulation = PerformanceSimulation(spec, mitigation, run_params)
            started = time.perf_counter()
            result = simulation.run()
            best[engine] = min(best[engine], time.perf_counter() - started)
            checks[engine] = (result.sum_ipc, result.swaps, result.pins)
    for engine in ENGINES:
        seconds = best[engine]
        cell[engine] = {
            "seconds": round(seconds, 4),
            "requests_per_second": round(requests / seconds, 1),
        }
    if checks["scalar"] != checks["batched"]:
        raise AssertionError(
            f"engines disagree on {workload}/{mitigation}: {checks}"
        )
    cell["sum_ipc"] = checks["scalar"][0]
    cell["speedup"] = round(
        cell["scalar"]["seconds"] / cell["batched"]["seconds"], 3
    )
    return cell


def host_info() -> Dict[str, Any]:
    """Host fingerprint for comparing benchmark points over time.

    Records both the machine's CPU count and the count actually
    available to this process (``sched_getaffinity`` — smaller under
    cgroup/affinity limits, e.g. a 1-CPU CI container on a big host):
    trajectory points are only comparable when the *available* counts
    match.
    """
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_available": available_cpu_count(),
    }


def main(argv: List[str] = None) -> int:
    """Run the matrix and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced matrix for CI smoke (2 cores x 8k requests, 1 repeat)",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_hotpath.json"),
        help="output JSON path (default: BENCH_hotpath.json in the repo root)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="append this run to the existing JSON (a {'runs': [...]} "
             "trajectory) instead of overwriting; a legacy single-run "
             "file becomes the trajectory's first point",
    )
    args = parser.parse_args(argv)

    if args.quick:
        params = SimulationParams(num_cores=2, requests_per_core=8_000)
        repeats = 1
    else:
        # The acceptance cell: 4 cores x 60k requests, closed page.
        # Best-of-3 per engine: interference on a shared 1-CPU host only
        # ever slows a run down, so more repeats means less noise.
        params = SimulationParams(num_cores=4, requests_per_core=60_000)
        repeats = 3

    matrix = [(mitigation, params) for mitigation in MITIGATIONS] + [
        (mitigation, replace(params, tracker="hydra"))
        for mitigation in HYDRA_MITIGATIONS
    ]
    cells = []
    for workload in WORKLOADS:
        for mitigation, cell_params in matrix:
            cell = bench_cell(workload, mitigation, cell_params, repeats)
            print(
                f"{workload:<8s} {mitigation:<10s} {cell['tracker']:<12s} "
                f"scalar {cell['scalar']['requests_per_second']:>10,.0f} req/s   "
                f"batched {cell['batched']['requests_per_second']:>10,.0f} req/s   "
                f"speedup {cell['speedup']:.2f}x"
            )
            cells.append(cell)

    hydra_cells = [c for c in cells if c["tracker"] == "hydra"]
    default_cells = [c for c in cells if c["tracker"] != "hydra"]
    baseline_cells = [c for c in default_cells if c["mitigation"] == "baseline"]
    swap_cells = [c for c in default_cells if c["mitigation"] != "baseline"]
    by_mitigation = {
        mitigation: min(
            c["speedup"] for c in default_cells
            if c["mitigation"] == mitigation
        )
        for mitigation in MITIGATIONS
    }
    report = {
        "benchmark": "hotpath",
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "params": {
            "num_cores": params.num_cores,
            "requests_per_core": params.requests_per_core,
            "trh": params.trh,
            "time_scale": params.time_scale,
            "tracker": params.tracker,
            "policy": params.policy.value,
            "repeats": repeats,
        },
        "cells": cells,
        "summary": {
            "baseline_speedup_min": min(c["speedup"] for c in baseline_cells),
            "baseline_speedup_max": max(c["speedup"] for c in baseline_cells),
            # Worst swap-design cell: the number the batched swap path
            # is accountable for (target >= 2x on the full matrix).
            "swap_speedup_min": min(c["speedup"] for c in swap_cells),
            "swap_speedup_max": max(c["speedup"] for c in swap_cells),
            "speedup_by_mitigation": by_mitigation,
            # The same swap designs under the Hydra tracker (target
            # >= 2x on the full matrix).
            "hydra_speedup_min": min(c["speedup"] for c in hydra_cells),
            "hydra_speedup_max": max(c["speedup"] for c in hydra_cells),
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
        payload = {"benchmark": "hotpath", "runs": runs}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}"
          + (f" ({len(payload['runs'])} run(s))" if args.append else ""))
    print(
        "baseline-cell speedup: "
        f"{report['summary']['baseline_speedup_min']:.2f}x - "
        f"{report['summary']['baseline_speedup_max']:.2f}x"
    )
    # One greppable line per tier for the CI perf-smoke log.
    print(
        "swap-cell speedup: "
        f"{report['summary']['swap_speedup_min']:.2f}x - "
        f"{report['summary']['swap_speedup_max']:.2f}x"
    )
    print(
        "hydra-cell speedup: "
        f"{report['summary']['hydra_speedup_min']:.2f}x - "
        f"{report['summary']['hydra_speedup_max']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
