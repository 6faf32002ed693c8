"""Pluggable execution backends for the experiment grid engine.

:func:`~repro.sim.experiment.run_grid` plans cells; a *pool* executes
them. This module provides the backend interface and two
implementations, in the style of instrumentation-infra's ``Pool`` →
``ProcessPool`` split:

- :class:`SerialPool` — in-process, one cell at a time (the
  ``max_workers=1`` path);
- :class:`ProcessPool` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out with interrupt-safe draining: on Ctrl-C, queued cells are
  cancelled, already-completed results still reach the store, and the
  :class:`KeyboardInterrupt` re-raises — so an interrupted grid rerun
  with ``--resume`` recomputes only genuinely unfinished cells.

Backends share one failure contract: a failing cell raises a
:class:`RuntimeError` naming the cell (:func:`wrap_cell_error`),
identically on every backend.

Spanning machines needs no backend here. Node placement is left to
whatever launches the processes: each machine runs one digest-stable
``--shard i/n`` slice into its own store
(:func:`~repro.sim.store.shard_of` partitions cells without any
coordination), and the copied stores are merged by digest with
``repro store import`` (:meth:`~repro.sim.store.ResultStore.merge_from`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.registry import EVALUATIONS
from repro.workloads import plane


#: Per-chunk cost budget, in :func:`cell_cost` units (one unit is
#: roughly one simulated memory request, i.e. microseconds of work).
#: A real ``perf`` cell costs thousands of units and therefore fills a
#: chunk alone; analytical cells (tens of units) pack by the dozens to
#: hundreds, which is what amortizes the per-dispatch pickle + IPC +
#: store round-trip on high-cardinality grids.
CHUNK_BUDGET = 4000.0


def cell_cost(cell: Any) -> float:
    """Expected relative cost of one cell, in chunk-budget units.

    Delegates to the evaluation kind's registered ``cell_cost`` hint
    (see :class:`repro.registry.EvaluationInfo`); kinds without a hint,
    unknown kinds, and hint failures all degrade to one unit — the
    scheduler then simply packs such cells by count. Never returns less
    than one unit, so a chunk's cell count is bounded by the budget.
    """
    try:
        hook = EVALUATIONS.get(cell.kind).cell_cost
        if hook is None:
            return 1.0
        return max(1.0, float(hook(cell.params)))
    except Exception:
        return 1.0


def chunk_plan(
    ordered: Sequence[Tuple[int, Any, Optional[str]]],
    max_workers: int,
    budget_cap: float = CHUNK_BUDGET,
) -> List[List[Tuple[int, Any, Optional[str]]]]:
    """Partition affinity-ordered cells into dispatch chunks.

    Greedy sweep over :func:`repro.workloads.plane.affinity_order`
    output: a chunk closes when the workload key changes (a chunk's
    cells share one workload, so they share the worker's plane caches —
    the workload grouping *is* the partition key) or when its
    accumulated :func:`cell_cost` reaches the budget.
    The budget is ``min(budget_cap, total_cost / max_workers)`` — never
    wider than an even split across the workers, so a small grid still
    fans out instead of collapsing into one chunk.

    Deterministic: the partition is a pure function of the ordered
    cells and worker count. Execution order inside a chunk is the
    affinity order, and recording stays plan-positional — chunking
    changes dispatch granularity, never results.
    """
    costs = [cell_cost(cell) for _, cell, _ in ordered]
    total = sum(costs)
    budget = max(1.0, min(budget_cap, total / max(1, max_workers)))
    chunks: List[List[Tuple[int, Any, Optional[str]]]] = []
    current: List[Tuple[int, Any, Optional[str]]] = []
    current_cost = 0.0
    current_key: Any = None
    for item, cost in zip(ordered, costs):
        key = item[2]
        if current and (key != current_key or current_cost >= budget):
            chunks.append(current)
            current = []
            current_cost = 0.0
        current.append(item)
        current_cost += cost
        current_key = key
    if current:
        chunks.append(current)
    return chunks


@dataclass
class ChunkOutcome:
    """What one dispatched chunk produced (worker → coordinator).

    ``completed`` holds ``(plan position, result)`` for every cell that
    finished — on failure or interrupt it is the completed prefix, so
    partially-executed chunks still persist their finished cells.
    ``failed_position``/``error`` identify the first cell that raised
    (``error`` may be a :class:`BaseException` such as
    :class:`KeyboardInterrupt`; the coordinator re-routes those through
    the interrupt drain path). ``plane_delta`` is the worker's
    workload-plane delta over the chunk, which the coordinator sums into
    :attr:`Pool.plane_stats`.
    """

    completed: List[Tuple[int, Any]] = field(default_factory=list)
    failed_position: Optional[int] = None
    error: Optional[BaseException] = None
    plane_delta: plane.PlaneStats = field(default_factory=plane.PlaneStats)


def _run_chunk(
    run_cell: Callable[[Any], Any],
    cells: Sequence[Tuple[int, Any]],
) -> ChunkOutcome:
    """Worker-side chunk runner: run the cells, count the plane's work.

    Catches ``BaseException`` per cell — a ``KeyboardInterrupt``
    delivered mid-chunk must still return the completed prefix (and
    its plane delta) to the coordinator instead of discarding it with
    the future.
    """
    before = plane.local_stats()
    outcome = ChunkOutcome()
    for position, cell in cells:
        try:
            result = run_cell(cell)
        except BaseException as error:
            outcome.failed_position = position
            outcome.error = error
            break
        outcome.completed.append((position, result))
    outcome.plane_delta = plane.local_stats() - before
    return outcome


def available_cpu_count() -> int:
    """CPUs actually available to this process (the worker default).

    ``os.cpu_count()`` reports the machine's CPUs, which overstates the
    usable parallelism under cgroup CPU sets or ``taskset`` affinity
    masks (a 1-CPU container on a 64-core host reports 64). The
    scheduler affinity mask respects those limits, so it is the honest
    default for worker counts; platforms without ``sched_getaffinity``
    (macOS, Windows) fall back to ``os.cpu_count()``.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platform failure
            pass
    return os.cpu_count() or 1


def wrap_cell_error(cell: Any, error: BaseException) -> RuntimeError:
    """The uniform failure wrapper shared by every backend.

    A failing cell always surfaces as a :class:`RuntimeError` carrying
    the cell identity (kind, workload, mitigation) — serial and
    parallel execution raise byte-identical messages, so callers and
    logs never depend on the backend that happened to run the cell.
    """
    return RuntimeError(
        f"cell ({cell.kind}, {cell.workload!r}, {cell.mitigation!r}) "
        f"failed: {error}"
    )


@dataclass
class PoolTask:
    """Everything a backend needs to execute one grid run's slice.

    Attributes:
        pending: ``(plan position, cell)`` pairs to execute, in plan
            order (cells already served by the store are not included).
        run_cell: Runs one cell in-process and returns its result
            (:func:`repro.sim.experiment._run_cell`).
        record: ``record(batch)`` files completed ``(position, result)``
            pairs — it persists them to the store in one transaction
            and reports progress for the contiguous completed prefix.
            Backends must call it from the thread that called
            :meth:`Pool.run`.
    """

    pending: List[Tuple[int, Any]]
    run_cell: Callable[[Any], Any]
    record: Callable[[Sequence[Tuple[int, Any]]], None]


class Pool:
    """Execution-backend interface for :func:`~repro.sim.experiment.run_grid`.

    A pool executes the pending cells of one grid run and files the
    completed results through ``task.record``. Implementations may run
    cells in-process or across local processes — the engine neither
    knows nor cares, which is what makes every store/shard/resume
    feature composable across backends.
    """

    #: Human-readable backend name (used in error messages and logs).
    name = "pool"

    #: Workload-plane accounting of the run, populated by the backend
    #: after :meth:`run`; rolled into
    #: :class:`~repro.sim.experiment.RunStats`.
    plane_stats: Optional[plane.PlaneStats] = None

    def run(self, task: PoolTask) -> None:
        """Execute every pending cell of ``task`` (see :class:`PoolTask`)."""
        raise NotImplementedError


class SerialPool(Pool):
    """In-process execution, one cell at a time.

    The backend behind ``max_workers=1``: no processes are forked, so
    monkeypatched cell runners (tests) and profilers see every call. A
    failing cell raises :func:`wrap_cell_error` immediately — the same
    error the parallel backends raise after draining.
    """

    name = "serial"

    def run(self, task: PoolTask) -> None:
        """Run cells in plan order; stop at the first failure.

        Cells share this process's workload plane, so consecutive cells
        over one workload hit its trace/decode caches; the run's plane
        delta lands in :attr:`Pool.plane_stats` (even on failure — the
        completed prefix did the caching).
        """
        before = plane.local_stats()
        try:
            for position, cell in task.pending:
                try:
                    result = task.run_cell(cell)
                except Exception as error:
                    raise wrap_cell_error(cell, error) from error
                task.record([(position, result)])
        finally:
            self.plane_stats = plane.local_stats() - before


class ProcessPool(Pool):
    """Local fan-out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Results are recorded the moment they complete (out of order), so a
    killed run keeps everything that actually finished. Two failure
    paths, both drain-first:

    - a *cell* failure keeps consuming the remaining futures (their
      results still reach the store) and then raises the first
      failure, wrapped by :func:`wrap_cell_error`;
    - an *interrupt* (Ctrl-C, or any non-cell exception) cancels the
      queued cells — ``shutdown(cancel_futures=True)``, so nothing new
      launches and nothing is waited on — drains already-completed
      results into the store, and re-raises. An interrupted grid rerun
      with ``--resume`` therefore recomputes only genuinely unfinished
      cells.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        """``max_workers`` defaults to :func:`available_cpu_count`."""
        self.max_workers = max_workers or available_cpu_count()
        #: Dispatched chunk count of the last :meth:`run` (rolled into
        #: :class:`~repro.sim.experiment.RunStats`).
        self.chunk_count: Optional[int] = None

    def run(self, task: PoolTask) -> None:
        """Fan the pending cells out in chunks; record as they complete.

        Cells are partitioned by :func:`chunk_plan` over their
        cache-affinity order — a chunk holds cells of one workload key
        up to a cost budget, so cheap analytical cells share one
        dispatch while a heavy ``perf`` cell fills a chunk alone. Each
        completed chunk's batch is recorded in one call (one store
        transaction per chunk); recording stays plan-positional, so
        progress and the store are unaffected by the partition.

        Every chunk that reaches the coordinator — on success, cell
        failure, or the interrupt drain — adds its worker-side plane
        delta to :attr:`Pool.plane_stats`.
        """
        ordered = plane.affinity_order(task.pending)
        groups = chunk_plan(ordered, self.max_workers)
        self.chunk_count = len(groups)
        self.plane_stats = plane.PlaneStats()
        executor = ProcessPoolExecutor(max_workers=self.max_workers)
        # Futures not yet filed; a chunk leaves once filed, so the
        # interrupt drain never files (or counts) one twice.
        futures: Dict[Any, List[Tuple[int, Any]]] = {}
        failed: Optional[Tuple[Any, Exception]] = None
        try:
            for group in groups:
                cells = [(position, cell) for position, cell, _ in group]
                futures[executor.submit(_run_chunk, task.run_cell, cells)] = cells
            for future in as_completed(list(futures)):
                cells = futures[future]
                try:
                    outcome = future.result()
                except Exception as error:
                    # The dispatch itself failed (broken pool,
                    # unpicklable payload): blame the chunk's first
                    # cell but keep draining — completed chunks still
                    # reach the store, so a --resume after the failure
                    # recomputes only what never ran.
                    if failed is None:
                        failed = (cells[0][1], error)
                    continue
                self._file(outcome, task)
                del futures[future]
                if outcome.error is not None:
                    if isinstance(outcome.error, Exception):
                        if failed is None:
                            cell = dict(cells)[outcome.failed_position]
                            failed = (cell, outcome.error)
                    else:
                        # KeyboardInterrupt (or another BaseException)
                        # inside a worker cell: the chunk's completed
                        # prefix is already recorded; route the rest
                        # through the interrupt drain below.
                        raise outcome.error
        except BaseException:
            # Interrupted (KeyboardInterrupt, or a worker re-raising
            # it): stop launching queued chunks, keep what finished.
            executor.shutdown(wait=False, cancel_futures=True)
            self._drain_completed(futures, task)
            raise
        executor.shutdown()
        if failed is not None:
            cell, error = failed
            raise wrap_cell_error(cell, error) from error

    def _file(self, outcome: ChunkOutcome, task: PoolTask) -> None:
        """Record a chunk's completed cells and count its plane delta."""
        if outcome.completed:
            task.record(outcome.completed)
        self.plane_stats += outcome.plane_delta

    def _drain_completed(
        self, futures: Dict[Any, List[Tuple[int, Any]]], task: PoolTask
    ) -> None:
        """File every already-completed, not-yet-filed chunk (interrupt path).

        Cancelled and still-running futures are skipped — only results
        that exist are recorded, including the completed prefix of a
        chunk whose later cell raised."""
        for future in futures:
            if not future.done() or future.cancelled():
                continue
            try:
                outcome = future.result()
            except BaseException:
                continue
            self._file(outcome, task)
