"""Which program functions the traced run wraps, and the per-layer
metrics derived from their spans.

Wrappers are installed from the benchmark's own files, on the public
function of each layer (plus the pool's per-chunk worker entry point,
the top-level call in a worker), before any pool forks: workers are
forked, so they inherit the wrapped functions. A wrapped module-level
function replaces the original under every name a loaded ``repro``
module binds it to, so ``from X import f`` aliases are covered too.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

from spans import Recorder, Span, outer_spans, self_times, unattributed

#: (metric, unit) of every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("report.analytic_s", "s"), ("report.render_s", "s"),
    ("report.resolve_s", "s"), ("report.figures", "count"),
    ("attacks.hammer_s", "s"), ("attacks.hammer_calls", "count"),
    ("experiment.plan_s", "s"), ("experiment.self_s", "s"),
    ("experiment.cells_planned", "count"), ("experiment.cells_executed", "count"),
    ("experiment.cells_reused", "count"), ("experiment.reuse_ratio", "ratio"),
    ("store.digest_s", "s"), ("store.digests", "count"),
    ("store.get_s", "s"), ("store.gets", "count"), ("store.hits", "count"),
    ("store.hit_ratio", "ratio"), ("store.put_s", "s"), ("store.puts", "count"),
    ("store.put_many_calls", "count"), ("store.mb", "MB"),
    ("store.data_mb", "MB"),
    ("pool.workers", "count"), ("pool.chunks", "count"), ("pool.run_s", "s"),
    ("pool.self_s", "s"), ("pool.worker_busy_s", "s"),
    ("pool.busy_frac", "ratio"), ("pool.worker_rss_mb", "MB"),
    ("workloads.traces_s", "s"), ("workloads.generated", "count"),
    ("workloads.attached", "count"), ("workloads.trace_hits", "count"),
    ("workloads.decode_hits", "count"), ("workloads.trace_hit_ratio", "ratio"),
    ("engine.sim_s", "s"), ("engine.scalar_s", "s"), ("engine.batched_s", "s"),
    ("engine.fused_frac", "ratio"), ("engine.scoped_accesses", "count"),
    ("engine.ns_per_request", "ns"),
    ("evaluations.security_s", "s"), ("evaluations.security_cells", "count"),
    ("evaluations.model_s", "s"),
    ("cpu.requests", "count"), ("cpu.instructions", "count"),
    ("core.swaps", "count"), ("core.pins", "count"),
    ("core.place_backs", "count"), ("dram.max_row_acts", "count"),
    ("unattributed_s", "s"), ("trace.overhead_frac", "ratio"),
)


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_function(rec: Recorder, module: str, attr: str, span: str, attrs=None):
    original = getattr(sys.modules[module], attr)
    _replace_everywhere(original, rec.wrap(span, original, attrs))


def _patch_method(rec: Recorder, cls: type, attr: str, span: str, attrs=None):
    setattr(cls, attr, rec.wrap(span, getattr(cls, attr), attrs))


# -- span counters (run right after the wrapped call returns) ----------


def _grid_attrs(args, kwargs, results) -> Dict[str, Any]:
    stats = results.run_stats
    out = {"planned": stats.planned, "executed": stats.executed,
           "reused": stats.reused}
    if stats.workloads is not None:
        out.update(dataclasses.asdict(stats.workloads))
    return out


def _pool_attrs(args, kwargs, result) -> Dict[str, Any]:
    pool = args[0]
    return {"workers": getattr(pool, "max_workers", 1),
            "chunks": getattr(pool, "chunk_count", None) or 0}


def _sim_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {
        "requests": sum(c.memory_reads + c.memory_writes for c in result.cores),
        "instructions": result.total_instructions,
        "swaps": result.swaps,
        "pins": result.pins,
        "place_backs": result.place_backs,
        "max_row_acts": result.max_row_activations,
    }


def _batched_attrs(args, kwargs, result) -> Dict[str, Any]:
    counters = args[0].counters
    return {key: counters[key] for key in
            ("fast_accesses", "scalar_accesses", "scoped_accesses")}


def install(rec: Recorder) -> None:
    """Wrap every traced function. Call before the first pool forks."""
    import repro.attacks.harness  # noqa: F401
    import repro.report
    import repro.sim
    import repro.sim.pool
    import repro.workloads.plane  # noqa: F401
    from repro.registry import EVALUATIONS, FIGURES
    from repro.sim.engine import BatchedEngine, ScalarEngine
    from repro.sim.simulator import PerformanceSimulation
    from repro.sim.store import ResultStore

    len(FIGURES)  # import every figure module, so aliases exist to patch

    # report
    build = repro.report.planner.build_figure

    @functools.wraps(build)
    def build_figure(*args, **kwargs):
        info, spec = build(*args, **kwargs)
        if spec.analytic is not None:
            spec.analytic = rec.wrap("report.analytic", spec.analytic)
        return info, spec

    _replace_everywhere(build, rec.wrap("report.build", build_figure))
    _patch_function(rec, "repro.report.planner", "resolve_figure", "report.resolve")
    _patch_function(rec, "repro.report.planner", "render_figure", "report.render")
    _patch_function(rec, "repro.report.render", "write_artifact", "report.render")
    # attacks
    _patch_function(rec, "repro.attacks.harness", "hammer_pattern", "attacks.hammer")
    # experiment
    _patch_function(rec, "repro.sim.experiment", "run_grid", "experiment.run_grid",
                    _grid_attrs)
    _patch_function(rec, "repro.sim.experiment", "plan_cells", "experiment.plan")
    # store
    _patch_function(rec, "repro.sim.store", "cell_key", "store.key")
    _patch_function(rec, "repro.sim.store", "key_digest", "store.digest")
    _patch_method(rec, ResultStore, "get", "store.get",
                  lambda a, k, r: {"hit": int(r is not None)})
    _patch_method(rec, ResultStore, "put", "store.put")
    _patch_method(rec, ResultStore, "put_many", "store.put_many")
    # pool
    for cls in (repro.sim.pool.SerialPool, repro.sim.pool.ProcessPool):
        _patch_method(rec, cls, "run", "pool.run", _pool_attrs)
    _patch_function(rec, "repro.sim.pool", "_run_chunk", "pool.chunk")
    _patch_function(rec, "repro.sim.experiment", "_run_cell", "pool.cell")
    # workloads
    _patch_function(rec, "repro.workloads.plane", "traces_for", "workloads.traces")
    # engine
    _patch_method(rec, PerformanceSimulation, "run", "engine.sim", _sim_attrs)
    _patch_method(rec, ScalarEngine, "drive", "engine.scalar")
    _patch_method(rec, BatchedEngine, "drive", "engine.batched", _batched_attrs)
    # evaluations: the registry holds the runner, so re-register it
    for kind, span in (("security", "evaluations.security"),
                       ("storage", "evaluations.model"),
                       ("power", "evaluations.model")):
        info = EVALUATIONS.get(kind)
        EVALUATIONS.remove(kind)
        EVALUATIONS.add(kind, dataclasses.replace(
            info, runner=rec.wrap(span, info.runner)))


# ----------------------------------------------------------------------
# derivation


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    spans: Sequence[Span],
    coordinator: int,
    window: Tuple[float, float],
    sample: Dict[str, Any],
    untraced_wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced sample.

    ``X_s`` is inclusive time summed over the outermost ``X`` spans;
    ``X.self_s`` subtracts the time covered by same-process children.
    Worker-side spans are summed across workers.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    selfs = self_times(spans)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total(*names: str) -> float:
        return sum(span.duration for span in outer_spans(spans, names))

    def count(name: str) -> int:
        return len(named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    grids = "experiment.run_grid"
    planned = attr_sum(grids, "planned")
    gets = count("store.get")
    hits = attr_sum("store.get", "hit")
    pool_runs = named("pool.run")
    busy = total("pool.chunk", "pool.cell")
    capacity = sum(s.attrs.get("workers", 1) * s.duration for s in pool_runs)
    generated = attr_sum(grids, "generated")
    attached = attr_sum(grids, "attached")
    trace_hits = attr_sum(grids, "trace_hits")
    fast = attr_sum("engine.batched", "fast_accesses")
    slow = attr_sum("engine.batched", "scalar_accesses")
    requests = attr_sum("engine.sim", "requests")
    sim_s = total("engine.sim")
    metrics = {
        "report.analytic_s": total("report.analytic"),
        "report.render_s": total("report.render"),
        "report.resolve_s": total("report.resolve"),
        "report.figures": count("report.build"),
        "attacks.hammer_s": total("attacks.hammer"),
        "attacks.hammer_calls": count("attacks.hammer"),
        "experiment.plan_s": total("experiment.plan"),
        "experiment.self_s": sum(selfs[s.id] for s in named(grids)),
        "experiment.cells_planned": planned,
        "experiment.cells_executed": attr_sum(grids, "executed"),
        "experiment.cells_reused": attr_sum(grids, "reused"),
        "experiment.reuse_ratio": _ratio(attr_sum(grids, "reused"), planned),
        "store.digest_s": total("store.key", "store.digest"),
        "store.digests": count("store.digest"),
        "store.get_s": total("store.get"),
        "store.gets": gets,
        "store.hits": hits,
        "store.hit_ratio": _ratio(hits, gets),
        "store.put_s": total("store.put", "store.put_many"),
        "store.puts": count("store.put"),
        "store.put_many_calls": count("store.put_many"),
        "store.mb": sample.get("store_mb", 0.0),
        "store.data_mb": sample.get("store_data_mb", 0.0),
        "pool.workers": max((s.attrs.get("workers", 1) for s in pool_runs), default=0),
        "pool.chunks": attr_sum("pool.run", "chunks"),
        "pool.run_s": sum(s.duration for s in pool_runs),
        "pool.self_s": sum(selfs[s.id] for s in pool_runs),
        "pool.worker_busy_s": busy,
        "pool.busy_frac": _ratio(busy, capacity),
        "pool.worker_rss_mb": sample.get("rss_worker_mb", 0.0),
        "workloads.traces_s": total("workloads.traces"),
        "workloads.generated": generated,
        "workloads.attached": attached,
        "workloads.trace_hits": trace_hits,
        "workloads.decode_hits": attr_sum(grids, "decode_hits"),
        "workloads.trace_hit_ratio": _ratio(
            trace_hits, trace_hits + generated + attached),
        "engine.sim_s": sim_s,
        "engine.scalar_s": total("engine.scalar"),
        "engine.batched_s": total("engine.batched"),
        "engine.fused_frac": _ratio(fast, fast + slow),
        "engine.scoped_accesses": attr_sum("engine.batched", "scoped_accesses"),
        "engine.ns_per_request": _ratio(sim_s * 1e9, requests),
        "evaluations.security_s": total("evaluations.security"),
        "evaluations.security_cells": count("evaluations.security"),
        "evaluations.model_s": total("evaluations.model"),
        "cpu.requests": requests,
        "cpu.instructions": attr_sum("engine.sim", "instructions"),
        "core.swaps": attr_sum("engine.sim", "swaps"),
        "core.pins": attr_sum("engine.sim", "pins"),
        "core.place_backs": attr_sum("engine.sim", "place_backs"),
        "dram.max_row_acts": max(
            (s.attrs.get("max_row_acts", 0) for s in named("engine.sim")), default=0),
        "unattributed_s": unattributed(spans, coordinator, window),
        "trace.overhead_frac": _ratio(sample["wall_s"], untraced_wall) - 1.0,
    }
    return metrics
