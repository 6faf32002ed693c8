"""The benchmark's four workloads: inputs from a seed, one run, digests.

Every function here that touches the program imports it lazily, so
``run.py`` can read the workload table without importing ``repro``. Sizes are scaled so that a run of every workload fits the
benchmark's time budget on a 2-CPU host; README.md gives the reasons.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, List, Tuple

#: Seed whose reference digests are committed in ``reference.json``.
DEFAULT_SEED = 1

WORKLOADS = ("paper-report", "perf-grid", "sweep-cold", "sweep-resume")

#: ``ReportConfig`` knobs of ``paper-report``.
REPORT_CORES = 2
REPORT_REQUESTS = 1000

#: ``perf-grid``: 2 workloads x 3 designs x 2 trackers x 2 TRH + 2 baselines.
GRID_WORKLOADS = ("gcc", "lbm")
GRID_MITIGATIONS = ("rrs", "srs", "scale-srs")
GRID_TRACKERS = ("misra-gries", "hydra")
GRID_TRH = (2400, 1200)
GRID_CORES = 2
GRID_REQUESTS = 10_000

#: Security sweep: 2 designs x 40 TRH values x 100 swap rates.
SWEEP_DESIGNS = ("rrs", "srs")
SWEEP_TRH_VALUES = 40
SWEEP_RATE_VALUES = 100


def reference_group(workload: str) -> str:
    """Workloads sharing one grid share one reference."""
    return "sweep" if workload.startswith("sweep-") else workload


# ----------------------------------------------------------------------
# inputs


def program_seed(seed: int) -> int:
    """The simulation seed generated from the benchmark's seed (the
    program rejects negative seeds)."""
    return seed % 2**32


def report_config(seed: int):
    from repro.report import ReportConfig

    return ReportConfig(cores=REPORT_CORES, requests=REPORT_REQUESTS,
                        seed=program_seed(seed))


def perf_grid_spec(seed: int, engine: str = "auto"):
    from repro.sim import ExperimentSpec, SimulationParams

    return ExperimentSpec(
        workloads=list(GRID_WORKLOADS),
        mitigations=list(GRID_MITIGATIONS),
        base_params=SimulationParams(
            num_cores=GRID_CORES,
            requests_per_core=GRID_REQUESTS,
            time_scale=32,
            engine=engine,
            seed=program_seed(seed),
        ),
        grid={"tracker": list(GRID_TRACKERS), "trh": list(GRID_TRH)},
    )


def sweep_axes(seed: int) -> Tuple[List[int], List[float]]:
    """TRH values in [512, 4800] and swap rates in [2, 12] drawn from
    ``seed`` (distinct, sorted)."""
    rng = random.Random(seed)
    trh = sorted(rng.sample(range(512, 4801), SWEEP_TRH_VALUES))
    rates: set = set()
    while len(rates) < SWEEP_RATE_VALUES:
        rates.add(round(rng.uniform(2.0, 12.0), 4))
    return trh, sorted(rates)


def sweep_spec(seed: int):
    from repro.sim import ExperimentSpec, SecurityParams

    trh, rates = sweep_axes(seed)
    return ExperimentSpec(
        kind="security",
        mitigations=list(SWEEP_DESIGNS),
        base_params=SecurityParams(rounds=64, iterations=0),
        grid={"trh": trh, "swap_rate": rates},
    )


# ----------------------------------------------------------------------
# digests


def results_digest(results) -> str:
    """Canonical digest of a result set, in plan order.

    Each record is serialized by its kind's registered hook. A ``perf``
    record drops its ``engine`` parameter: engines are bit-identical by
    contract, so the scalar oracle and the ``auto`` run must agree.
    """
    from repro.registry import EVALUATIONS

    records = []
    for result in results:
        kind = type(result).kind
        record = dict(EVALUATIONS.get(kind).result_to_dict(result))
        params = record.get("params")
        if kind == "perf" and isinstance(params, dict):
            record["params"] = {k: v for k, v in params.items() if k != "engine"}
        records.append({"kind": kind, **record})
    text = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digest(out_dir: str, name: str) -> str:
    """Digest of the markdown and CSV files ``write_artifact`` wrote for
    figure ``name``."""
    digest = hashlib.sha256()
    for file_name in sorted(os.listdir(out_dir)):
        if file_name.split(".")[0] != name or file_name.endswith(".png"):
            continue
        digest.update(file_name.encode() + b"\0")
        with open(os.path.join(out_dir, file_name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def is_seed_dependent(spec) -> bool:
    """Only ``perf`` cells read ``ReportConfig.seed``."""
    return any(experiment.kind == "perf" for experiment in spec.specs)


# ----------------------------------------------------------------------
# one run of each workload
#
# ``run_*`` does exactly the program's work (it is what the timer
# wraps) and returns the raw products; ``digest_*`` turns them into the
# record the correctness gate compares, after the timer has stopped.


def run_report(seed: int, store_dir: str, out_dir: str, jobs=None, names=None):
    """What ``repro report --all --store DIR --out DIR`` does."""
    from repro.report import (
        build_figure, figure_names, render_figure, resolve_figure,
        write_artifact,
    )

    config = report_config(seed)
    figures = []
    for name in names if names is not None else figure_names():
        info, spec = build_figure(name, config)
        data = resolve_figure(spec, store=store_dir, jobs=jobs, reuse=True)
        artifact = render_figure(info, spec, data)
        write_artifact(artifact, out_dir)
        figures.append((name, data, is_seed_dependent(spec)))
    return figures


def digest_report(figures, out_dir: str) -> Dict[str, Any]:
    out: Dict[str, Any] = {"planned": 0, "executed": 0, "reused": 0,
                           "returned": 0, "figures": {}}
    for name, data, seeded in figures:
        stats = data.stats
        out["planned"] += stats.planned
        out["executed"] += stats.executed
        out["reused"] += stats.reused
        out["returned"] += stats.executed + stats.reused
        out["figures"][name] = {
            "results": results_digest(data.results),
            "artifact": artifact_digest(out_dir, name),
            "seeded": seeded,
            "cells": stats.planned,
        }
    return out


def run_grid_workload(workload: str, seed: int, store_dir: str, oracle=False):
    """``perf-grid`` and the sweeps through ``run_grid``.

    ``oracle`` is the reference path: serial, and on the scalar engine
    for perf cells, without a store.
    """
    from repro.sim import run_grid

    if workload == "perf-grid":
        spec = perf_grid_spec(seed, engine="scalar" if oracle else "auto")
        store = None
    else:
        spec = sweep_spec(seed)
        store = None if oracle else store_dir
    return run_grid(spec, store=store, max_workers=1 if oracle else None)


def digest_grid(results) -> Dict[str, Any]:
    stats = results.run_stats
    return {
        "planned": stats.planned,
        "executed": stats.executed,
        "reused": stats.reused,
        "returned": len(results),
        "results": results_digest(results),
    }


def run_workload(workload: str, seed: int, store: str, work: str):
    """One timed run; returns the raw products for :func:`digest`."""
    if workload == "paper-report":
        return run_report(seed, store, os.path.join(work, "out"))
    return run_grid_workload(workload, seed, store)


def digest(workload: str, raw, work: str) -> Dict[str, Any]:
    if workload == "paper-report":
        return digest_report(raw, os.path.join(work, "out"))
    return digest_grid(raw)


def reference(workload: str, seed: int, work: str, committed=None) -> Dict[str, Any]:
    """The oracle's digests for ``workload`` at ``seed``.

    Grids run serially on the scalar engine with no store. The report
    resolves its seed-dependent (``perf``) figures serially; figures
    that do not read the seed come from ``committed`` (the default
    seed's reference), or are resolved serially too when it is None.
    """
    if workload != "paper-report":
        out = digest_grid(run_grid_workload(workload, seed, "", oracle=True))
        return {"cells": out["planned"], "results": out["results"]}
    from repro.report import build_figure, figure_names

    config = report_config(seed)
    names = [
        name for name in figure_names()
        if committed is None or is_seed_dependent(build_figure(name, config)[1])
    ]
    out_dir = os.path.join(work, "ref-out")
    raw = run_report(seed, os.path.join(work, "ref-store"), out_dir,
                     jobs=1, names=names)
    figures = digest_report(raw, out_dir)["figures"]
    if committed is not None:
        for name, entry in committed["figures"].items():
            if not entry["seeded"]:
                figures[name] = entry
    figures = {name: figures[name] for name in figure_names()}
    return {
        "cells": sum(entry["cells"] for entry in figures.values()),
        "figures": figures,
    }
