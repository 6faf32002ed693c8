"""The workload plane: workload bytes as a per-process cached resource.

Every grid cell used to pay a private fixed cost before its first
simulated access: resolve the workload, regenerate (or re-read and
re-decode) the per-core columnar traces, and — under the batched
engine — re-``tolist`` the columns into Python lists. A
``mitigations x trackers x trh`` grid shares one workload across all
of those cells, so the work is pure redundancy. This module memoizes
the workload bytes in each process instead, in two layers:

1. **Per-process memoization** — :func:`traces_for` resolves a
   workload's per-core :class:`~repro.workloads.columnar.ColumnarTrace`
   arrays through a process-wide LRU keyed by the same fingerprint-free
   ingredients the result store digests (workload identity +
   generation-relevant parameters + DRAM organization), plus the PR-5
   ``store_fingerprint()`` for file-backed workloads so re-recording a
   trace invalidates the cache. :func:`cached_decode` gives the batched
   engine the same treatment for its decoded-list product, and
   :func:`file_columns` memoizes parsed trace files in-process (a
   rate-mode directory with one file is loaded once, not once per core).
   Cached columns are marked read-only, so a cell that tried to write
   into a trace another cell shares fails loudly.

2. **Cache-affine scheduling** — :func:`affinity_order` groups a run's
   pending cells by workload key (largest expected cost first within a
   group) so per-worker caches actually hit; see
   :class:`~repro.sim.pool.ProcessPool`.

Accounting flows through :class:`PlaneStats` (surfaced as the greppable
``workloads: generated N, decode hits K (trace hits M)`` line). Each
process counts its own work; a process pool returns each chunk's delta
with the chunk's results, and the coordinator sums them. Results are
identical to generating every cell's traces afresh — the plane caches
exactly what generation would have produced.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.workloads.columnar import ColumnarTrace
from repro.workloads.suites import WorkloadSpec

#: LRU capacities, in entries (workload materializations, decoded
#: products, parsed trace files).
TRACE_CAPACITY = 8
DECODED_CAPACITY = 6
FILE_CAPACITY = 8

_STAT_FIELDS = ("generated", "trace_hits", "decode_hits")


@dataclass(frozen=True)
class PlaneStats:
    """Workload-plane accounting of one run (rolled into ``RunStats``).

    Attributes:
        generated: Workload materializations computed from scratch
            (synthetic generation or trace parse+decode).
        trace_hits: Materializations served by the in-process trace LRU.
        decode_hits: Batched-engine decoded-list products served from
            the in-process decode LRU instead of re-``tolist``-ing.
    """

    generated: int = 0
    trace_hits: int = 0
    decode_hits: int = 0

    def __add__(self, other: "PlaneStats") -> "PlaneStats":
        """Field-wise sum (aggregation across chunks and grids)."""
        return PlaneStats(
            *(
                getattr(self, name) + getattr(other, name)
                for name in _STAT_FIELDS
            )
        )

    def __sub__(self, other: "PlaneStats") -> "PlaneStats":
        """Field-wise difference (delta between two snapshots)."""
        return PlaneStats(
            *(
                getattr(self, name) - getattr(other, name)
                for name in _STAT_FIELDS
            )
        )

    def __bool__(self) -> bool:
        """True when the plane did anything at all this run."""
        return any(getattr(self, name) for name in _STAT_FIELDS)

    @property
    def line(self) -> str:
        """The greppable accounting line CLI runs and benchmarks print."""
        return (
            f"workloads: generated {self.generated}, decode hits "
            f"{self.decode_hits} (trace hits {self.trace_hits})"
        )


# ----------------------------------------------------------------------
# process-wide state
#
# One plane per process: the caches below are module-level by design —
# a ProcessPool worker's cache must survive across the cells it runs.
# `reset()` (tests, benchmarks) clears everything.


_trace_cache: "OrderedDict[str, List[ColumnarTrace]]" = OrderedDict()
_decoded_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
_file_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
_stats: Dict[str, int] = {name: 0 for name in _STAT_FIELDS}


def _bump(name: str) -> None:
    """Increment one of this process's counters."""
    _stats[name] += 1


def local_stats() -> PlaneStats:
    """Snapshot of this process's plane counters (diff two for a delta)."""
    return PlaneStats(**_stats)


def reset() -> None:
    """Drop every cache and zero the counters (tests, benchmarks)."""
    for cache in (_trace_cache, _decoded_cache, _file_cache):
        cache.clear()
    for name in _STAT_FIELDS:
        _stats[name] = 0


def _evict(cache: OrderedDict, capacity: int) -> None:
    """Shrink a cache to ``capacity`` entries, oldest first."""
    while len(cache) > capacity:
        cache.popitem(last=False)


# ----------------------------------------------------------------------
# cache keys


def _organization_token(organization: Any) -> Tuple:
    """Hashable identity of a DRAM organization (decode geometry)."""
    import dataclasses

    if dataclasses.is_dataclass(organization):
        return tuple(
            sorted(dataclasses.asdict(organization).items())
        )
    return (repr(organization),)


def workload_key(
    workload: Any, params: Any, organization: Any
) -> Optional[str]:
    """Stable plane key of one workload materialization, or ``None``.

    Mirrors the store's fingerprint-free digest ingredients — workload
    identity plus the generation-relevant parameters plus the decode
    organization — and, for file-backed workloads, folds in the PR-5
    ``store_fingerprint()`` (per-file mtime_ns/size) so re-recording a
    trace under the same path invalidates the cache. Returns ``None``
    for workload objects the plane does not understand (ad-hoc test
    workloads): those are never cached, so unknown generation inputs
    can never alias.
    """
    import hashlib
    import json

    requests = getattr(params, "requests_per_core", None)
    cores = getattr(params, "num_cores", None)
    if requests is None or cores is None:
        return None
    fingerprint_hook = getattr(workload, "store_fingerprint", None)
    if callable(fingerprint_hook) and callable(
        getattr(workload, "core_files", None)
    ):
        try:
            fingerprint = fingerprint_hook()
        except OSError:
            return None
        ingredients: Tuple = (
            "trace", workload.name, tuple(map(tuple, fingerprint)),
            requests, cores, _organization_token(organization),
        )
    elif isinstance(workload, WorkloadSpec):
        ingredients = (
            "synthetic", workload.name, tuple(workload.components),
            getattr(params, "seed", None), requests, cores,
            _organization_token(organization),
        )
    else:
        return None
    payload = json.dumps(ingredients, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_workload_key(cell: Any) -> Optional[str]:
    """The plane key of one ``perf`` grid cell, or ``None``.

    Resolves the cell's workload the same way the engine will (the
    carried ``workload_spec`` object, else the name through the
    workload-source registry) and keys it against the cell's own
    parameters and organization. Non-``perf`` cells, unresolvable
    workloads, and missing trace files all degrade to ``None`` — the
    cell simply runs uncached.
    """
    if getattr(cell, "kind", None) != "perf":
        return None
    workload = getattr(cell, "workload_spec", None)
    if workload is None:
        from repro.workloads.sources import resolve_workload_string

        try:
            workload = resolve_workload_string(str(cell.workload))
        except Exception:
            return None
    params = cell.params
    make_organization = getattr(params, "make_organization", None)
    if not callable(make_organization):
        return None
    return workload_key(workload, params, make_organization())


# ----------------------------------------------------------------------
# trace materialization


def file_columns(file_path: str) -> Tuple:
    """In-process memo over the parsed-trace cache for one file.

    The on-disk ``.npz`` cache (:mod:`repro.workloads.cache`) already
    avoids re-parsing, but loading the entry still costs milliseconds
    per call — and a rate-mode trace directory asks for the same file
    once *per core*. This memo keys on ``(realpath, mtime_ns, size)``
    (the same invalidation stamp the disk cache uses) and holds the
    decoded columns for the life of the process.
    """
    from repro.workloads.cache import load_trace_columns

    try:
        stat = os.stat(file_path)
        stamp = (os.path.realpath(file_path), stat.st_mtime_ns, stat.st_size)
    except OSError:
        return load_trace_columns(file_path, name=file_path)
    hit = _file_cache.get(stamp)
    if hit is not None:
        _file_cache.move_to_end(stamp)
        return hit
    columns = load_trace_columns(file_path, name=file_path)
    _file_cache[stamp] = columns
    _evict(_file_cache, FILE_CAPACITY)
    return columns


def _materialize(
    workload: Any, params: Any, organization: Any
) -> Tuple[List[ColumnarTrace], List[int]]:
    """Generate per-core traces plus their stream identities.

    The stream identity maps each core to the distinct trace content it
    replays: synthetic cores are all distinct streams, while a
    trace-directory workload assigns file ``core_id % len(files)`` — a
    single-file (rate-mode) recording is decoded *once* and shared
    across every core, bit-identically to decoding it per core.
    """
    cores = params.num_cores
    core_files = getattr(workload, "core_files", None)
    if callable(core_files) and callable(
        getattr(workload, "store_fingerprint", None)
    ):
        files = core_files()
        by_file: Dict[int, ColumnarTrace] = {}
        traces = []
        stream_ids = []
        for core_id in range(cores):
            index = core_id % len(files)
            if index not in by_file:
                by_file[index] = workload.arrays_for_core(
                    core_id, params, organization
                )
            traces.append(by_file[index])
            stream_ids.append(index)
        return traces, stream_ids
    traces = [
        workload.arrays_for_core(core_id, params, organization)
        for core_id in range(cores)
    ]
    return traces, list(range(cores))


def _seal(traces: Sequence[ColumnarTrace], key: str, stream_ids: Sequence[int]) -> None:
    """Prepare freshly generated traces for sharing through the cache.

    Stamps each trace with its content identity for the decode cache
    and marks every column read-only: cached traces are shared by every
    later cell over the workload, so a write into one would silently
    change other cells' inputs.
    """
    for trace, stream in zip(traces, stream_ids):
        trace.plane_token = (key, stream)
        for column in fields(trace):
            getattr(trace, column.name).flags.writeable = False


def traces_for(workload: Any, params: Any, organization: Any) -> List[ColumnarTrace]:
    """Per-core columnar traces for one cell, through the plane.

    The single materialization path of the simulator. An uncacheable
    workload (see :func:`workload_key`) gets the plain per-core
    ``arrays_for_core`` loop; any other is served from the in-process
    LRU, or generated once and cached. The result equals the plain loop
    column for column. Cached arrays are shared across cells and are
    read-only: writing into one raises :class:`ValueError`.
    """
    key = workload_key(workload, params, organization)
    if key is None:
        return [
            workload.arrays_for_core(core_id, params, organization)
            for core_id in range(params.num_cores)
        ]
    traces = _trace_cache.get(key)
    if traces is not None:
        _trace_cache.move_to_end(key)
        _bump("trace_hits")
        return traces
    traces, stream_ids = _materialize(workload, params, organization)
    _seal(traces, key, stream_ids)
    _trace_cache[key] = traces
    _evict(_trace_cache, TRACE_CAPACITY)
    _bump("generated")
    return traces


# ----------------------------------------------------------------------
# decoded-list product (batched engine)


def decode_token(trace: Any, core: Any, memory: Any) -> Optional[Tuple]:
    """Cache identity of one decoded trace, or ``None`` (don't cache).

    Only plane-materialized traces carry a content token; the decoded
    product additionally depends on the core's gap arithmetic
    (``fetch_width``, cycle time) and the organization's bank geometry
    — everything :class:`~repro.sim.engine.batched._DecodedTrace`
    reads. Deliberately *not* per-core: rate-mode cores sharing one
    stream share one decode.
    """
    token = getattr(trace, "plane_token", None)
    if token is None:
        return None
    organization = memory.config.organization
    return (
        token,
        core.config.fetch_width,
        core.cycle_ns,
        organization.ranks_per_channel,
        organization.banks_per_rank,
    )


def cached_decode(token: Optional[Tuple], build: Any) -> Any:
    """Return the cached decoded product for ``token``, else build it.

    ``build`` is a zero-argument callable; a ``None`` token always
    builds (uncacheable trace). Decoded products are
    immutable by engine contract — the fused loop only reads them.
    """
    if token is None:
        return build()
    hit = _decoded_cache.get(token)
    if hit is not None:
        _decoded_cache.move_to_end(token)
        _bump("decode_hits")
        return hit
    value = build()
    _decoded_cache[token] = value
    _evict(_decoded_cache, DECODED_CAPACITY)
    return value


# ----------------------------------------------------------------------
# cache-affine scheduling


def _expected_cost(cell: Any) -> float:
    """Relative wall-clock estimate of one cell (scheduling heuristic).

    Demand accesses dominate, scaled up for cells that run on the
    scalar engine (explicit, or what ``auto`` resolves to from the
    registry's ``supports_batching`` metadata) and for mitigation cells
    (swaps add work over baseline). Only relative order matters:
    largest-first within a workload group keeps the long pole off the
    tail of the schedule.
    """
    from repro.sim.engine import resolve_engine_name

    params = getattr(cell, "params", None)
    requests = getattr(params, "requests_per_core", 0) or 0
    cores = getattr(params, "num_cores", 1) or 1
    cost = float(requests * cores)
    mitigation = getattr(cell, "mitigation", "baseline")
    engine = getattr(params, "engine", "")
    if engine:
        try:
            engine = resolve_engine_name(
                engine, mitigation, getattr(params, "tracker", "")
            )
        except ValueError:
            pass  # unregistered names: keep the literal engine name
    if engine == "scalar":
        cost *= 3.0
    if mitigation != "baseline":
        cost *= 1.5
    return cost


def affinity_order(
    pending: Sequence[Tuple[int, Any]]
) -> List[Tuple[int, Any, Optional[str]]]:
    """Submission order for a process pool: grouped, big-first.

    Takes a run's pending ``(position, cell)`` pairs and returns
    ``(position, cell, key)`` triples, keyed by
    :func:`cell_workload_key` (computed once per cell).

    Cells sharing a workload key are submitted consecutively (groups in
    first-appearance plan order, so early plan cells still start early),
    largest expected cost first within each group — workers pulling
    from the shared queue stay on one workload while it is in their
    caches, and a group's longest cell never starts last. Unkeyed cells
    form singleton groups. Plan-order progress reporting is unaffected:
    results are recorded by plan position regardless of completion
    order.
    """
    groups: "OrderedDict[Any, List[Tuple[int, Any, Optional[str]]]]" = OrderedDict()
    for position, cell in pending:
        key = cell_workload_key(cell)
        group = key if key is not None else ("__solo__", position)
        groups.setdefault(group, []).append((position, cell, key))
    ordered: List[Tuple[int, Any, Optional[str]]] = []
    for members in groups.values():
        members.sort(key=lambda item: (-_expected_cost(item[1]), item[0]))
        ordered.extend(members)
    return ordered
