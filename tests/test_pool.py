"""Tests for the execution backends (:mod:`repro.sim.pool`)."""

import dataclasses
import os
import sqlite3
import time
from contextlib import closing
from typing import ClassVar

import pytest

from repro.registry import EVALUATIONS, register_evaluation
from repro.sim import (
    ExperimentSpec,
    ProcessPool,
    ResultStore,
    SerialPool,
    SimulationParams,
    available_cpu_count,
    run_grid,
)
from repro.sim.store import STORE_FILE

# A small two-cell perf grid (one baseline, one rrs cell).
SPEC = ExperimentSpec(
    workloads=["povray"],
    mitigations=["rrs"],
    base_params=SimulationParams(
        trh=1200, num_cores=1, requests_per_core=800, time_scale=32
    ),
)


def stored_rows(store_dir):
    path = os.path.join(str(store_dir), STORE_FILE)
    with closing(sqlite3.connect(path)) as db:
        return db.execute("SELECT * FROM results ORDER BY digest").fetchall()


def entry_digests(store_dir):
    return [row[0] for row in stored_rows(store_dir)]


# Module-level (picklable) pieces for failure-path tests: a kind whose
# "boom" subject raises, and one whose "boom" subject simulates Ctrl-C.
@dataclasses.dataclass(frozen=True)
class PoolParams:
    trh: int = 0


@dataclasses.dataclass
class PoolResult:
    kind: ClassVar[str] = "pool-kind"

    workload: str
    mitigation: str
    trh: int
    params: object = None


def run_pool_cell(cell):
    if cell.mitigation == "boom":
        raise ValueError("pool boom")
    return PoolResult(cell.workload, cell.mitigation, cell.params.trh,
                      cell.params)


def run_interrupt_cell(cell):
    if cell.mitigation == "boom":
        # Let the in-flight ok cells finish first, then simulate Ctrl-C
        # reaching a worker process.
        time.sleep(0.4)
        raise KeyboardInterrupt
    return PoolResult(cell.workload, cell.mitigation, cell.params.trh,
                      cell.params)


@dataclasses.dataclass(frozen=True)
class KillParams:
    marker: str = ""


@dataclasses.dataclass
class KillResult:
    kind: ClassVar[str] = "pool-sigkill"

    workload: str
    mitigation: str
    value: int
    params: object = None


#: Two workers, unit costs: chunk_plan splits these 12 cells into two
#: chunks of six, and "kill" sits in the middle of the first one.
KILL_SUBJECTS = ("s0", "s1", "s2", "kill", "s3", "s4") + tuple(
    f"t{i}" for i in range(6)
)


def run_kill_cell(cell):
    """A cell whose "kill" subject SIGKILLs its own worker process, once.

    The marker file makes the kill one-shot (a rerun computes the cell
    normally), and the parent-process guard keeps a serial in-process
    run from ever killing the test runner itself.
    """
    if cell.mitigation == "kill" and not os.path.exists(cell.params.marker):
        import multiprocessing
        import signal

        if multiprocessing.parent_process() is not None:
            with open(cell.params.marker, "w"):
                pass
            # Let the other worker's chunk finish and reach the store.
            time.sleep(1.0)
            os.kill(os.getpid(), signal.SIGKILL)
    value = sum(ord(ch) for ch in cell.mitigation) * 7919 % 10007
    return KillResult(cell.workload, cell.mitigation, value, cell.params)


@pytest.fixture
def flaky_kind():
    register_evaluation(
        "pool-kind",
        params_cls=PoolParams,
        result_cls=PoolResult,
        subjects=("ok", "boom", "also-ok"),
    )(run_pool_cell)
    yield ExperimentSpec(
        kind="pool-kind",
        mitigations=["ok", "boom", "also-ok"],
        base_params=PoolParams(),
    )
    EVALUATIONS.remove("pool-kind")


@pytest.fixture
def interrupt_kind():
    register_evaluation(
        "pool-interrupt",
        params_cls=PoolParams,
        result_cls=PoolResult,
        subjects=("ok", "also-ok", "boom"),
    )(run_interrupt_cell)
    yield
    EVALUATIONS.remove("pool-interrupt")


class TestWorkerDefaults:
    def test_available_cpu_count_respects_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert available_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpu_count() == (os.cpu_count() or 1)

    def test_process_pool_defaults_to_available_cpus(self):
        assert ProcessPool().max_workers == available_cpu_count()

    def test_run_grid_rejects_non_positive_workers(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                run_grid(SPEC, max_workers=bad)


class TestFailurePaths:
    def test_serial_and_parallel_wrap_failures_identically(
        self, flaky_kind, tmp_path
    ):
        """A failing cell raises the same RuntimeError (naming the
        cell) whether the backend was serial or a process pool."""
        messages = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            with pytest.raises(RuntimeError) as info:
                run_grid(flaky_kind, max_workers=workers,
                         store=str(tmp_path / label))
            messages[label] = str(info.value)
            assert "pool-kind" in messages[label]
            assert "'boom'" in messages[label]
            assert "pool boom" in messages[label]
        assert messages["serial"] == messages["parallel"]

    def test_progress_prefix_stops_at_failure(self, flaky_kind, tmp_path):
        """Mid-plan failure: progress reports the contiguous prefix up
        to the failed cell only, while completed later cells still
        reach the store."""
        seen = []
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="pool boom"):
            run_grid(
                flaky_kind,
                max_workers=2,
                store=str(store_dir),
                progress=lambda done, total, result: seen.append(
                    (done, total)
                ),
            )
        # Plan order is [ok, boom, also-ok]: only the first cell forms
        # a completed prefix; also-ok completed but is never reported.
        assert seen == [(1, 3)]
        assert len(entry_digests(store_dir)) == 2
        # The resume recomputes exactly the failed cell.
        ok_only = dataclasses.replace(
            flaky_kind, mitigations=["ok", "also-ok"]
        )
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.executed == 0

    def test_interrupt_drains_completed_cells(self, interrupt_kind, tmp_path):
        """Ctrl-C mid-grid: the pool cancels queued cells, keeps every
        completed result, and re-raises — resume recomputes only the
        genuinely unfinished cells."""
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["ok", "also-ok", "boom"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, max_workers=2, store=str(store_dir))
        assert len(entry_digests(store_dir)) == 2
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == 2

    def test_interrupt_cancels_queued_cells(self, interrupt_kind, tmp_path):
        """With one worker and the interrupting cell first, the queued
        cells never launch (cancel_futures) and the store stays empty."""
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["boom", "ok", "also-ok"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, store=str(store_dir), pool=ProcessPool(1))
        assert entry_digests(store_dir) == []


class TestWorkerFaults:
    """Faults real runs hit, each injected, each recoverable by reuse."""

    @pytest.fixture
    def kill_kind(self, tmp_path):
        register_evaluation(
            "pool-sigkill",
            params_cls=KillParams,
            result_cls=KillResult,
            subjects=KILL_SUBJECTS,
        )(run_kill_cell)
        yield ExperimentSpec(
            kind="pool-sigkill",
            mitigations=list(KILL_SUBJECTS),
            base_params=KillParams(marker=str(tmp_path / "killed")),
        )
        EVALUATIONS.remove("pool-sigkill")

    def test_worker_sigkill_mid_chunk(self, kill_kind, tmp_path):
        """A worker SIGKILLed mid-chunk aborts the grid with a
        RuntimeError; whatever reached the store reads back intact, and
        a rerun with reuse executes only the missing cells, finishing
        bit-identical to a serial run."""
        from repro.sim.experiment import plan_cells

        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError):
            run_grid(kill_kind, store=str(store_dir), pool=ProcessPool(2))
        assert os.path.exists(kill_kind.base_params.marker)
        serial = run_grid(kill_kind, max_workers=1)
        expected = {
            result.mitigation: result for result in serial.results
        }
        cells = plan_cells(kill_kind)
        store = ResultStore(str(store_dir))
        stored = {}
        for cell in cells:
            result = store.get(cell)
            if result is not None:
                stored[cell.mitigation] = result
                assert result == expected[cell.mitigation]
        # The other worker's chunk was stored; the kill cell was not.
        assert 0 < len(stored) < len(cells)
        assert "kill" not in stored
        resumed = run_grid(
            kill_kind, store=str(store_dir), pool=ProcessPool(2)
        )
        assert resumed.run_stats.reused == len(stored)
        assert resumed.run_stats.executed == len(cells) - len(stored)
        assert resumed.to_json() == serial.to_json()


class TestSerialPoolContract:
    def test_serial_pool_runs_in_process(self, tmp_path, monkeypatch):
        """SerialPool never forks: a monkeypatched cell runner is seen
        by every cell (the property the test suite itself leans on)."""
        import repro.sim.experiment as experiment

        calls = []
        original = experiment._run_cell

        def counting(cell):
            calls.append(cell.mitigation)
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        results = run_grid(SPEC, store=str(tmp_path / "s"), pool=SerialPool())
        assert len(calls) == len(results)


def run_perf_until_srs(cell):
    """A perf-cell runner where Ctrl-C reaches the worker at the srs cell."""
    if cell.mitigation == "srs":
        raise KeyboardInterrupt
    from repro.sim.experiment import _run_cell

    return _run_cell(cell)


POOLS = {"serial": SerialPool, "process": lambda: ProcessPool(2)}


class TestWorkloadPlane:
    """Plane accounting through the pools: per-chunk deltas add up."""

    SPEC = ExperimentSpec(
        workloads=["povray"],
        mitigations=["rrs", "srs"],
        base_params=SimulationParams(
            trh=1200, num_cores=1, requests_per_core=600, time_scale=32
        ),
    )

    @staticmethod
    def spec_on(engine):
        return dataclasses.replace(
            TestWorkloadPlane.SPEC,
            base_params=dataclasses.replace(
                TestWorkloadPlane.SPEC.base_params, engine=engine
            ),
        )

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_every_executed_cell_is_generated_or_a_trace_hit(
        self, pool, engine
    ):
        """Each executed perf cell materializes its workload exactly
        once — fresh or from a cache — on the coordinator (serial) or
        in a worker, whose chunk deltas the coordinator sums."""
        results = run_grid(self.spec_on(engine), pool=POOLS[pool]())
        stats = results.run_stats.workloads
        assert stats is not None
        assert results.run_stats.executed == 3
        assert stats.generated >= 1
        assert stats.generated + stats.trace_hits == results.run_stats.executed
        if engine == "batched":
            assert stats.decode_hits >= 1
        else:
            assert stats.decode_hits == 0

    def test_serial_run_hits_caches(self):
        """Serial cells over one workload hit the trace (and, under the
        batched engine, decode) caches; the accounting lands in
        RunStats."""
        results = run_grid(self.spec_on("batched"), pool=SerialPool())
        stats = results.run_stats.workloads
        assert stats is not None
        assert stats.generated == 1
        assert stats.trace_hits >= 1
        assert stats.decode_hits >= 1

    def test_interrupt_drain_keeps_plane_deltas(self):
        """Ctrl-C mid-run: every chunk the coordinator filed — in the
        main loop or by the interrupt drain — brings its plane delta."""
        from repro.sim.experiment import plan_cells
        from repro.sim.pool import PoolTask

        recorded = set()
        pool = ProcessPool(2)
        task = PoolTask(
            pending=list(enumerate(plan_cells(self.SPEC))),
            run_cell=run_perf_until_srs,
            record=lambda batch: recorded.update(p for p, _ in batch),
        )
        with pytest.raises(KeyboardInterrupt):
            pool.run(task)
        # rrs runs ahead of srs in its chunk, so at least it completed.
        assert recorded
        stats = pool.plane_stats
        assert stats is not None
        assert stats.generated >= 1
        assert stats.generated + stats.trace_hits == len(recorded)


@dataclasses.dataclass(frozen=True)
class ChunkCell:
    """Minimal cell stand-in for partition-policy tests."""

    kind: str = "no-such-kind"
    workload: str = "w"
    mitigation: str = "m"
    params: object = None


class TestChunking:
    """Chunk-scheduled dispatch: partition policy and failure paths."""

    @staticmethod
    def items(count, key=None, kind="no-such-kind"):
        """Affinity-ordered (position, cell, key) triples of unit cost."""
        return [
            (i, ChunkCell(kind=kind, mitigation=f"m{i}", params=PoolParams()), key)
            for i in range(count)
        ]

    def test_budget_packs_cheap_cells(self):
        """Unit-cost cells pack to roughly total/workers per chunk."""
        from repro.sim.pool import chunk_plan

        chunks = chunk_plan(self.items(100), max_workers=4)
        assert 4 <= len(chunks) <= 5
        flat = [position for chunk in chunks for position, _, _ in chunk]
        assert flat == list(range(100))

    def test_key_change_flushes_a_chunk(self):
        """A chunk never spans two workload keys (one plane attach)."""
        from repro.sim.pool import chunk_plan

        ordered = (
            self.items(2, key="ka")
            + [(2, ChunkCell(), "kb")]
            + [(3, ChunkCell(), None), (4, ChunkCell(), None)]
        )
        chunks = chunk_plan(ordered, max_workers=1)
        keys = [{key for _, _, key in chunk} for chunk in chunks]
        assert keys == [{"ka"}, {"kb"}, {None}]

    def test_registered_cost_hint_isolates_heavy_cells(self):
        """A kind whose cost hint exceeds the budget dispatches solo."""
        from repro.sim.pool import CHUNK_BUDGET, cell_cost, chunk_plan

        register_evaluation(
            "pool-heavy",
            params_cls=PoolParams,
            result_cls=PoolResult,
            subjects=("ok",),
            cell_cost=lambda params: 10 * CHUNK_BUDGET,
        )(run_pool_cell)
        try:
            heavy = self.items(4, kind="pool-heavy")
            assert cell_cost(heavy[0][1]) == 10 * CHUNK_BUDGET
            assert [len(c) for c in chunk_plan(heavy, 2)] == [1, 1, 1, 1]
        finally:
            EVALUATIONS.remove("pool-heavy")

    def test_unknown_kind_costs_one_unit(self):
        from repro.sim.pool import cell_cost

        assert cell_cost(self.items(1)[0][1]) == 1.0

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_chunked_runs_are_bit_identical(self, engine, tmp_path):
        """Serial and chunked pooled runs produce the same result JSON
        and the same store entries, on both engines."""
        spec = dataclasses.replace(
            SPEC,
            mitigations=["rrs", "srs"],
            base_params=dataclasses.replace(SPEC.base_params, engine=engine),
        )
        runs = {}
        stores = {}
        for label, pool in (
            ("serial", SerialPool()),
            ("chunked", ProcessPool(2)),
        ):
            store_dir = tmp_path / label
            runs[label] = run_grid(
                spec, store=str(store_dir), pool=pool
            ).to_json()
            stores[label] = stored_rows(store_dir)
        assert runs["chunked"] == runs["serial"]
        assert stores["chunked"] == stores["serial"]

    def test_run_stats_report_chunks(self, flaky_kind, tmp_path):
        ok_only = dataclasses.replace(flaky_kind, mitigations=["ok", "also-ok"])
        pooled = run_grid(ok_only, pool=ProcessPool(2))
        assert pooled.run_stats.chunks >= 1
        serial = run_grid(ok_only, max_workers=1)
        assert serial.run_stats.chunks is None

    def test_partial_chunk_failure_records_prefix(self, flaky_kind, tmp_path):
        """When a cell mid-chunk raises, the chunk's completed prefix
        still reaches the store; the rest of the chunk reruns later."""
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError, match="pool boom"):
            # One worker, unit costs: the whole [ok, boom, also-ok] plan
            # lands in a single chunk.
            run_grid(flaky_kind, store=str(store_dir), pool=ProcessPool(1))
        assert len(entry_digests(store_dir)) == 1
        ok_only = dataclasses.replace(
            flaky_kind, mitigations=["ok", "also-ok"]
        )
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 1
        assert resumed.run_stats.executed == 1

    def test_interrupt_mid_chunk_keeps_prefix(self, interrupt_kind, tmp_path):
        """A KeyboardInterrupt inside a chunk still delivers the chunk's
        completed prefix to the store."""
        spec = ExperimentSpec(
            kind="pool-interrupt",
            mitigations=["ok", "boom", "also-ok"],
            base_params=PoolParams(),
        )
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, store=str(store_dir), pool=ProcessPool(1))
        # Single chunk [ok, boom, also-ok]: ok completed before the
        # interrupt and must survive; the rest resumes later.
        assert len(entry_digests(store_dir)) == 1
        ok_only = dataclasses.replace(spec, mitigations=["ok", "also-ok"])
        resumed = run_grid(ok_only, max_workers=1, store=str(store_dir))
        assert resumed.run_stats.reused == 1
        assert resumed.run_stats.executed == 1
