"""Tests for the content-addressed result store and grid sharding."""

import dataclasses
import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from contextlib import closing
from typing import ClassVar

import pytest

import repro.sim.experiment as experiment
from repro.registry import EVALUATIONS, register_evaluation
from repro.sim import (
    ExperimentSpec,
    ResultStore,
    SecurityParams,
    SimulationParams,
    cell_digest,
    parse_shard,
    plan_cells,
    run_grid,
    shard_of,
)
from repro.sim.pool import Pool
from repro.sim.store import STORE_FILE, StoreError

STORAGE = ExperimentSpec(
    kind="storage",
    mitigations=["rrs", "scale-srs"],
    grid={"trh": [4800, 2400, 1200]},
)

PERF = ExperimentSpec(
    workloads=["povray"],
    mitigations=["rrs"],
    base_params=SimulationParams(
        trh=1200, num_cores=1, requests_per_core=1500, time_scale=32, seed=7
    ),
)


# Module-level (picklable) pieces for the parallel-failure test: a kind
# whose "boom" subject always raises.
@dataclasses.dataclass(frozen=True)
class FlakyParams:
    trh: int = 0


@dataclasses.dataclass
class FlakyResult:
    kind: ClassVar[str] = "flaky-kind"

    workload: str
    mitigation: str
    trh: int
    params: object = None


def run_flaky_cell(cell):
    if cell.mitigation == "boom":
        raise RuntimeError("boom")
    return FlakyResult(cell.workload, cell.mitigation, cell.params.trh,
                       cell.params)


def query(store_dir, sql, *args):
    """Run one statement on the store's database file; returns its rows."""
    with closing(sqlite3.connect(os.path.join(str(store_dir), STORE_FILE))) as db:
        with db:
            return db.execute(sql, args).fetchall()


def entry_digests(store_dir):
    return [d for (d,) in query(store_dir, "SELECT digest FROM results ORDER BY digest")]


def set_column(store_dir, digest, column, value):
    """Overwrite one column of one row (fault injection)."""
    query(store_dir, f"UPDATE results SET {column} = ? WHERE digest = ?", value, digest)


def drop_rows(store_dir, digests):
    for digest in digests:
        query(store_dir, "DELETE FROM results WHERE digest = ?", digest)


def write_legacy(store_dir, legacy_dir, packed=(), loose=(), index=True):
    """Write rows of a sqlite store in the pre-sqlite layout: ``loose``
    digests as ``<digest>.json`` files, ``packed`` ones as ``pack.seg``
    lines plus the ``pack.idx`` offset sidecar."""
    os.makedirs(str(legacy_dir), exist_ok=True)
    payloads = {
        digest: json.dumps({
            "kind": kind, "schema_version": version,
            "cell": json.loads(cell), "result": json.loads(result),
        })
        for digest, kind, version, cell, result in query(
            store_dir, "SELECT * FROM results"
        )
    }
    for digest in loose:
        with open(os.path.join(str(legacy_dir), digest + ".json"), "w") as handle:
            handle.write(payloads[digest])
    if not packed:
        return
    entries, offset = {}, 0
    with open(os.path.join(str(legacy_dir), "pack.seg"), "wb") as segment:
        for digest in packed:
            data = payloads[digest].encode()
            segment.write(digest.encode() + b" " + data + b"\n")
            entries[digest] = [offset + 65, len(data)]
            offset += 65 + len(data) + 1
    if index:
        with open(os.path.join(str(legacy_dir), "pack.idx"), "w") as handle:
            json.dump({"version": 1, "entries": entries}, handle)


class TestDigest:
    def test_digest_is_stable_and_param_sensitive(self):
        cells = plan_cells(STORAGE)
        assert cell_digest(cells[0]) == cell_digest(cells[0])
        digests = {cell_digest(c) for c in cells}
        assert len(digests) == len(cells)  # every cell gets its own key

    def test_digest_ignores_the_perf_engine(self):
        """Engines are bit-identical by contract, so a store filled
        under one engine must serve resumes under the other."""
        def cell_for(engine):
            spec = dataclasses.replace(
                PERF, base_params=dataclasses.replace(
                    PERF.base_params, engine=engine
                )
            )
            return plan_cells(spec)[-1]

        scalar, batched = cell_for("scalar"), cell_for("batched")
        assert cell_digest(scalar) == cell_digest(batched)

    def test_store_serves_across_engines(self, tmp_path):
        store = str(tmp_path / "store")
        run_grid(PERF, max_workers=1, store=store)
        other = dataclasses.replace(
            PERF, base_params=dataclasses.replace(
                PERF.base_params, engine="batched"
            )
        )
        resumed = run_grid(other, max_workers=1, store=store)
        assert resumed.run_stats.executed == 0

    def test_merge_dedups_across_engines(self):
        scalar = run_grid(PERF, max_workers=1)
        batched = run_grid(
            dataclasses.replace(
                PERF, base_params=dataclasses.replace(
                    PERF.base_params, engine="batched"
                )
            ),
            max_workers=1,
        )
        assert len(scalar.merge(batched)) == len(scalar)

    def test_trace_recording_changes_invalidate_stored_cells(self, tmp_path):
        """Re-recording a trace under the same path must change the cell
        digest — otherwise --resume would silently serve results for the
        old contents."""
        from repro.sim import SimulationParams, record_workload
        from repro.sim.experiment import resolve_workload

        out_dir = str(tmp_path / "rec")
        record_params = SimulationParams(
            num_cores=1, requests_per_core=400, seed=3
        )
        record_workload(resolve_workload("povray"), record_params,
                        out_dir=out_dir)
        spec = ExperimentSpec(
            workloads=[f"trace:{out_dir}"],
            mitigations=["rrs"],
            base_params=dataclasses.replace(
                PERF.base_params, requests_per_core=400
            ),
        )
        before = [cell_digest(c) for c in plan_cells(spec)]
        assert before == [cell_digest(c) for c in plan_cells(spec)]
        shards_before = [shard_of(c, 4) for c in plan_cells(spec)]
        record_workload(
            resolve_workload("povray"),
            dataclasses.replace(record_params, seed=4),
            out_dir=out_dir,
        )
        after = [cell_digest(c) for c in plan_cells(spec)]
        assert all(a != b for a, b in zip(after, before))
        # ...but shard membership is fingerprint-free: machines holding
        # the trace under different mtimes agree on the partition.
        assert [shard_of(c, 4) for c in plan_cells(spec)] == shards_before

    def test_digest_covers_the_kind(self):
        storage_cell = plan_cells(STORAGE)[0]
        security_cell = plan_cells(
            ExperimentSpec(
                kind="security", mitigations=["rrs"],
                base_params=SecurityParams(trh=storage_cell.params.trh),
            )
        )[0]
        assert cell_digest(storage_cell) != cell_digest(security_cell)


class TestSharding:
    def test_partition_complete_and_disjoint(self):
        cells = plan_cells(STORAGE)
        for count in (1, 2, 3, 5):
            shards = [
                [c for c in cells if shard_of(c, count) == i]
                for i in range(count)
            ]
            assert sum(len(s) for s in shards) == len(cells)
            digests = [cell_digest(c) for shard in shards for c in shard]
            assert len(set(digests)) == len(cells)

    def test_partition_is_axis_stable(self):
        """Extending a grid axis never migrates existing cells between
        shards (the digest depends on the cell alone)."""
        small = plan_cells(STORAGE)
        grown = plan_cells(
            dataclasses.replace(STORAGE, grid={"trh": [4800, 2400, 1200, 600]})
        )
        before = {cell_digest(c): shard_of(c, 4) for c in small}
        after = {cell_digest(c): shard_of(c, 4) for c in grown}
        for digest, shard in before.items():
            assert after[digest] == shard

    def test_shard_runs_merge_into_the_full_grid(self, tmp_path):
        full = run_grid(STORAGE, max_workers=1)
        store = str(tmp_path / "store")
        parts = [
            run_grid(STORAGE, max_workers=1, store=store, shard=(i, 3))
            for i in range(3)
        ]
        assert sum(len(p) for p in parts) == len(full)
        merged = parts[0].merge(*parts[1:])
        assert {cell_digest(c) for c in plan_cells(STORAGE)} == set(
            entry_digests(store)
        )
        # A final resume pass collects everything without executing.
        collected = run_grid(STORAGE, max_workers=1, store=store)
        assert collected.run_stats.executed == 0
        assert collected.to_json() == full.to_json()
        assert len(merged) == len(full)

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            run_grid(STORAGE, max_workers=1, shard=(3, 3))

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "x/4", "2", "-1/4", "0/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestResultStore:
    def test_round_trip_bit_identical(self, tmp_path):
        store = str(tmp_path / "store")
        first = run_grid(STORAGE, max_workers=1, store=store)
        assert first.run_stats.executed == len(first)
        second = run_grid(STORAGE, max_workers=1, store=store)
        assert second.run_stats.executed == 0
        assert second.run_stats.reused == len(first)
        assert second.to_json() == first.to_json()

    def test_resume_after_kill_executes_only_missing_cells(
        self, tmp_path, monkeypatch
    ):
        """The acceptance pin: kill a grid partway, rerun with the same
        store — only the missing cells execute, and the final set is
        bit-identical to an uninterrupted run."""
        uninterrupted = run_grid(STORAGE, max_workers=1)
        store_dir = tmp_path / "store"
        run_grid(STORAGE, max_workers=1, store=str(store_dir))
        # Simulate the kill: drop some completed cells from the store.
        killed = entry_digests(store_dir)[::2]
        drop_rows(store_dir, killed)

        executed = []
        original = experiment._run_cell

        def counting(cell):
            executed.append(cell_digest(cell))
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        resumed = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        assert sorted(executed) == sorted(killed)
        assert resumed.run_stats.executed == len(killed)
        assert resumed.to_json() == uninterrupted.to_json()

    def test_corrupt_entry_is_a_miss_and_heals(self, tmp_path):
        store_dir = tmp_path / "store"
        first = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        victim = entry_digests(store_dir)[0]
        set_column(store_dir, victim, "result", '{"trh": 4800, truncated')
        healed = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        assert healed.run_stats.executed == 1
        assert healed.to_json() == first.to_json()
        # The rewritten row parses again.
        [(kind, result)] = query(
            store_dir, "SELECT kind, result FROM results WHERE digest = ?", victim
        )
        assert kind == "storage"
        json.loads(result)

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        store_dir = tmp_path / "store"
        first = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        set_column(store_dir, entry_digests(store_dir)[0], "schema_version", 999)
        rerun = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        assert rerun.run_stats.executed == 1
        assert rerun.to_json() == first.to_json()
        healed = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        assert healed.run_stats.executed == 0

    def test_parallel_run_persists_every_cell(self, tmp_path):
        """Parallel execution writes each result as it completes (not in
        plan order), so every completed cell survives a kill; the
        returned set still equals the serial run bit-for-bit."""
        store_dir = tmp_path / "store"
        parallel = run_grid(STORAGE, max_workers=2, store=str(store_dir))
        assert len(entry_digests(store_dir)) == len(parallel)
        assert parallel.to_json() == run_grid(STORAGE, max_workers=1).to_json()

    def test_parallel_failure_still_persists_completed_cells(self, tmp_path):
        """One failing cell must not discard in-flight successes: the
        run raises (naming the cell), but every completed cell reaches
        the store, so a later resume recomputes only the failure."""
        register_evaluation(
            "flaky-kind",
            params_cls=FlakyParams,
            result_cls=FlakyResult,
            subjects=("ok", "boom", "also-ok"),
        )(run_flaky_cell)
        try:
            spec = ExperimentSpec(
                kind="flaky-kind",
                mitigations=["ok", "boom", "also-ok"],
                base_params=FlakyParams(),
            )
            store_dir = tmp_path / "store"
            with pytest.raises(RuntimeError, match="boom"):
                run_grid(spec, max_workers=2, store=str(store_dir))
            assert len(entry_digests(store_dir)) == 2
        finally:
            EVALUATIONS.remove("flaky-kind")

    def test_reuse_false_recomputes(self, tmp_path):
        store = str(tmp_path / "store")
        run_grid(STORAGE, max_workers=1, store=store)
        rerun = run_grid(STORAGE, max_workers=1, store=store, reuse=False)
        assert rerun.run_stats.executed == len(rerun)

    def test_store_accepts_instance(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        results = run_grid(STORAGE, max_workers=1, store=store)
        assert len(store) == len(results)
        assert plan_cells(STORAGE)[0] in store

    def test_perf_results_round_trip_bit_identically(self, tmp_path):
        """Simulation results (floats, per-core records) must come back
        from the store exactly — reuse may never perturb numbers."""
        store_dir = tmp_path / "store"
        store = str(store_dir)
        fresh = run_grid(PERF, max_workers=1, store=store)
        assert fresh.run_stats.executed == 2  # baseline + rrs
        reused = run_grid(PERF, max_workers=1, store=store)
        assert reused.run_stats.executed == 0
        assert reused.to_json() == fresh.to_json()
        assert reused.normalized_table() == fresh.normalized_table()
        # Kill simulation on the perf grid itself: drop one completed
        # cell; the resume executes exactly it and stays bit-identical.
        drop_rows(store_dir, entry_digests(store_dir)[:1])
        resumed = run_grid(PERF, max_workers=1, store=store)
        assert resumed.run_stats.executed == 1
        assert resumed.run_stats.reused == 1
        assert resumed.to_json() == fresh.to_json()

    def test_security_mc_results_round_trip(self, tmp_path):
        store = str(tmp_path / "store")
        spec = ExperimentSpec(
            kind="security",
            mitigations=["rrs"],
            base_params=SecurityParams(
                trh=4800, rows_per_bank=4096, iterations=1000,
                probe_windows=3000, step=200,
            ),
        )
        fresh = run_grid(spec, max_workers=1, store=store)
        reused = run_grid(spec, max_workers=1, store=store)
        assert reused.run_stats.reused == 1
        assert reused.to_json() == fresh.to_json()


class TestMergeFrom:
    """Digest-verified adoption of one store's entries into another —
    the multi-host collection primitive."""

    def fill_source(self, tmp_path):
        source = tmp_path / "source"
        run_grid(STORAGE, max_workers=1, store=str(source))
        return source

    def test_adopts_everything_and_is_idempotent(self, tmp_path):
        source = self.fill_source(tmp_path)
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(source))
        assert (stats.adopted, stats.present) == (6, 0)
        assert (stats.unverified, stats.rejected) == (0, 0)
        assert stats.total == 6
        assert entry_digests(tmp_path / "dest") == entry_digests(source)
        again = dest.merge_from(str(source))
        assert (again.adopted, again.present) == (0, 6)
        # Adopted entries serve resumes bit-identically.
        direct = run_grid(STORAGE, max_workers=1)
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0
        assert resumed.to_json() == direct.to_json()

    def test_merge_into_itself_is_a_noop(self, tmp_path):
        source = self.fill_source(tmp_path)
        stats = ResultStore(str(source)).merge_from(str(source))
        assert (stats.adopted, stats.present) == (0, 6)
        assert len(entry_digests(source)) == 6

    def test_renamed_entry_is_not_adopted(self, tmp_path):
        """An entry whose cell record does not hash back to its digest
        (renamed, tampered) must not poison the destination."""
        source = self.fill_source(tmp_path)
        victim = entry_digests(source)[0]
        bogus = "0" * 64
        set_column(source, victim, "digest", bogus)
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(source))
        assert (stats.adopted, stats.unverified) == (5, 1)
        assert bogus not in entry_digests(tmp_path / "dest")

    def test_corrupt_and_stale_entries_rejected(self, tmp_path):
        source = self.fill_source(tmp_path)
        names = entry_digests(source)
        set_column(source, names[0], "result", "{ truncated")
        set_column(source, names[1], "schema_version", 999)
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(source))
        assert (stats.adopted, stats.rejected) == (4, 2)

    def test_fingerprinted_trace_entries_verify_and_adopt(self, tmp_path):
        """Trace cells are addressed under a local content fingerprint,
        and the payload carries the same fingerprint-bearing key — so
        collection verifies and adopts them instead of forcing the
        coordinator to recompute. The adopted entries must then serve a
        resume against the destination with zero executions."""
        from repro.sim import record_workload
        from repro.sim.experiment import resolve_workload

        out_dir = str(tmp_path / "rec")
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=400, seed=3),
            out_dir=out_dir,
        )
        spec = ExperimentSpec(
            workloads=[f"trace:{out_dir}"],
            mitigations=["rrs"],
            base_params=dataclasses.replace(
                PERF.base_params, requests_per_core=400
            ),
        )
        source = tmp_path / "source"
        run_grid(spec, max_workers=1, store=str(source))
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(source))
        assert stats.adopted == len(entry_digests(source))
        assert stats.unverified == 0
        resumed = run_grid(spec, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == stats.adopted

    def test_tampered_entry_stays_unverified(self, tmp_path):
        """A renamed/tampered source entry still fails digest
        verification and is left behind."""
        source = tmp_path / "source"
        run_grid(STORAGE, max_workers=1, store=str(source))
        names = entry_digests(source)
        set_column(source, names[0], "digest", "0" * 64)
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(source))
        assert stats.unverified == 1
        assert stats.adopted == len(names) - 1


class TestInventoryAndPrune:
    """Store maintenance: classify every entry, delete the dead ones."""

    def fill(self, tmp_path):
        store_dir = tmp_path / "store"
        run_grid(STORAGE, max_workers=1, store=str(store_dir))
        return store_dir, ResultStore(str(store_dir))

    def corrupt_one(self, store_dir, index=0):
        victim = entry_digests(store_dir)[index]
        set_column(store_dir, victim, "result", "{ truncated")
        return victim

    def stale_one(self, store_dir, index=1, kind=None, version=999):
        victim = entry_digests(store_dir)[index]
        if kind is not None:
            set_column(store_dir, victim, "kind", kind)
        else:
            set_column(store_dir, victim, "schema_version", version)
        return victim

    def test_inventory_counts_live_per_kind(self, tmp_path):
        _, store = self.fill(tmp_path)
        report = store.inventory()
        assert report.live == {("storage", 1): 6}
        assert report.stale == []
        assert report.corrupt == []
        assert report.total == 6
        assert report.prunable == []

    def test_inventory_flags_stale_and_corrupt(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        old = self.stale_one(store_dir, index=1)
        alien = self.stale_one(store_dir, index=2, kind="no-such-kind")
        report = store.inventory()
        assert report.live == {("storage", 1): 3}
        assert dict(report.corrupt)[bad] == "unreadable or truncated payload"
        stale = dict(report.stale)
        assert "current v1" in stale[old]
        assert "unknown evaluation kind" in stale[alien]
        assert report.total == 6
        assert {digest for digest, _ in report.prunable} == {bad, old, alien}

    def test_prune_dry_run_keeps_files(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        removals = store.prune(dry_run=True)
        assert [digest for digest, _ in removals] == [bad]
        assert bad in entry_digests(store_dir)
        assert len(store) == 6

    def test_prune_removes_only_dead_entries(self, tmp_path):
        store_dir, store = self.fill(tmp_path)
        bad = self.corrupt_one(store_dir)
        old = self.stale_one(store_dir, index=1)
        removed = store.prune()
        assert {digest for digest, _ in removed} == {bad, old}
        assert bad not in entry_digests(store_dir)
        assert old not in entry_digests(store_dir)
        assert len(store) == 4
        assert store.inventory().live == {("storage", 1): 4}
        # The grid heals the pruned cells and nothing else.
        rerun = run_grid(STORAGE, max_workers=1, store=store)
        assert rerun.run_stats.executed == 2
        assert rerun.run_stats.reused == 4

    def test_prune_empty_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "empty"))
        assert store.prune() == []
        assert store.inventory().total == 0




class TestPackedTier:
    """The pre-sqlite packed tier (``pack.seg`` lines plus the
    ``pack.idx`` sidecar, next to loose ``<digest>.json`` files): read
    only by :meth:`ResultStore.merge_from` (``repro store import``)."""

    def fill(self, tmp_path, spec=STORAGE):
        store_dir = tmp_path / "store"
        run_grid(spec, max_workers=1, store=str(store_dir))
        return store_dir, entry_digests(store_dir)

    def test_pack_round_trip_and_resume(self, tmp_path):
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        before = sorted(os.listdir(str(legacy)))
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(legacy))
        assert (stats.adopted, stats.unverified, stats.rejected) == (6, 0, 0)
        # The import only reads the legacy directory.
        assert sorted(os.listdir(str(legacy))) == before == ["pack.idx", "pack.seg"]
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0
        assert resumed.run_stats.reused == 6
        assert len(dest) == 6
        assert resumed.to_json() == run_grid(STORAGE, max_workers=1).to_json()

    def test_pack_is_idempotent(self, tmp_path):
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        dest = ResultStore(str(tmp_path / "dest"))
        dest.merge_from(str(legacy))
        again = dest.merge_from(str(legacy))
        assert (again.adopted, again.present) == (0, 6)
        assert len(dest) == 6

    def test_packed_and_loose_mix_serves_and_repacks(self, tmp_path):
        """A loose file shadows the packed record under its digest (the
        old tier's rerun wrote a healed cell loose): the import adopts
        the loose copy and counts the garbled packed one as present."""
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests, loose=digests[:1])
        segment = legacy / "pack.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:65] + b"x" * (len(lines[0]) - 66) + b"\n"
        segment.write_bytes(b"".join(lines))
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(legacy))
        assert (stats.adopted, stats.present, stats.rejected) == (6, 1, 0)
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0

    def test_corrupt_index_is_rebuilt_from_segment(self, tmp_path):
        """The reader derives every address from the segment lines, so
        a corrupt sidecar loses nothing."""
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        (legacy / "pack.idx").write_text("{ not json")
        dest = ResultStore(str(tmp_path / "dest"))
        assert dest.merge_from(str(legacy)).adopted == 6
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0

    def test_missing_index_is_rebuilt_from_segment(self, tmp_path):
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests, index=False)
        dest = ResultStore(str(tmp_path / "dest"))
        assert dest.merge_from(str(legacy)).adopted == 6
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0

    def test_corrupt_segment_record_heals_through_rerun(self, tmp_path):
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        # Garble one record's payload in place (same line length).
        segment = legacy / "pack.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:65] + b"x" * (len(lines[0]) - 66) + b"\n"
        segment.write_bytes(b"".join(lines))
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(legacy))
        assert (stats.adopted, stats.rejected) == (5, 1)
        rerun = run_grid(STORAGE, max_workers=1, store=dest)
        assert rerun.run_stats.executed == 1
        assert rerun.run_stats.reused == 5
        healed = run_grid(STORAGE, max_workers=1, store=dest)
        assert healed.run_stats.executed == 0

    def test_inventory_and_prune_are_pack_aware(self, tmp_path):
        """A garbled packed record never enters the store, so the
        imported store inventories clean and prune has nothing to do."""
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        segment = legacy / "pack.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        victim = lines[0][:64].decode()
        lines[0] = lines[0][:65] + b"x" * (len(lines[0]) - 66) + b"\n"
        segment.write_bytes(b"".join(lines))
        dest = ResultStore(str(tmp_path / "dest"))
        dest.merge_from(str(legacy))
        inventory = dest.inventory()
        assert sum(inventory.live.values()) == 5
        assert inventory.prunable == []
        assert dest.prune() == []
        assert victim not in entry_digests(tmp_path / "dest")
        rerun = run_grid(STORAGE, max_workers=1, store=dest)
        assert rerun.run_stats.executed == 1
        assert rerun.run_stats.reused == 5

    def test_merge_from_adopts_packed_sources(self, tmp_path):
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(legacy))
        assert stats.adopted == 6
        assert stats.unverified == 0
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0

    def test_merge_from_sees_packed_destination_entries(self, tmp_path):
        """Rows imported from a packed directory count as present when
        the same cells arrive again from a sqlite store."""
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests)
        dest = ResultStore(str(tmp_path / "dest"))
        dest.merge_from(str(legacy))
        stats = dest.merge_from(str(store_dir))
        assert stats.present == 6
        assert stats.adopted == 0
        assert len(dest) == 6

    def test_mixed_source_merge(self, tmp_path):
        """A source with both packed and loose entries merges whole."""
        wider = dataclasses.replace(
            STORAGE, grid={"trh": [4800, 2400, 1200, 600]}
        )
        store_dir, digests = self.fill(tmp_path, wider)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, packed=digests[:6], loose=digests[6:])
        dest = ResultStore(str(tmp_path / "dest"))
        stats = dest.merge_from(str(legacy))
        assert stats.adopted == 8
        resumed = run_grid(wider, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0

    def test_legacy_directory_is_not_opened_as_a_store(self, tmp_path):
        """Pointing --store at a pre-sqlite directory would silently
        recompute everything; it raises, naming the import command."""
        store_dir, digests = self.fill(tmp_path)
        legacy = tmp_path / "legacy"
        write_legacy(store_dir, legacy, loose=digests)
        with pytest.raises(StoreError, match="repro store import"):
            run_grid(STORAGE, max_workers=1, store=str(legacy))
        assert not (legacy / STORE_FILE).exists()


class ChunkedSerialPool(Pool):
    """Runs cells in-process and files them three at a time through
    ``record_all`` — the process pool's one ``put_many`` per chunk,
    deterministically."""

    name = "chunked-serial"

    def run(self, task):
        for start in range(0, len(task.pending), 3):
            chunk = task.pending[start:start + 3]
            task.record_all([
                (position, task.run_cell(cell)) for position, cell in chunk
            ])


class FullDisk:
    """A connection whose bulk insert writes two rows, then fails the
    way a full disk does."""

    def __init__(self, db):
        self._db = db

    def __getattr__(self, name):
        return getattr(self._db, name)

    def executemany(self, sql, rows):
        self._db.executemany(sql, list(rows)[:2])
        raise sqlite3.OperationalError("database or disk is full")


def fill_grid(spec, store):
    """Fork target: one serial grid run into ``store``."""
    run_grid(spec, max_workers=1, store=store)


def put_around_parent_close(store, entries, opened, closed):
    """Fork target: put half of ``entries``, let the parent close its
    connection, then put the rest."""
    half = len(entries) // 2
    for cell, result in entries[:half]:
        store.put(cell, result)
    opened.set()
    closed.wait(60)
    for cell, result in entries[half:]:
        store.put(cell, result)


def security_spec(trhs):
    return ExperimentSpec(
        kind="security",
        mitigations=["rrs", "srs"],
        base_params=SecurityParams(rounds=64, iterations=0),
        grid={"trh": trhs, "swap_rate": [2.0 + 0.5 * i for i in range(20)]},
    )


class TestStoreFaults:
    """Fault injection: every case leaves no corrupt read behind, and a
    rerun finishes bit-identically to an uninterrupted run."""

    def test_full_disk_put_many_commits_none_of_its_chunk(
        self, tmp_path, monkeypatch
    ):
        uninterrupted = run_grid(STORAGE, max_workers=1)
        store_dir = tmp_path / "store"
        store = ResultStore(str(store_dir))
        real_db, real_put_many = store._db, store.put_many
        chunks = []

        def put_many(entries):
            chunks.append(sorted(digest for _, _, digest, _ in entries))
            full = len(chunks) == 2
            store._db = (lambda: FullDisk(real_db())) if full else real_db
            return real_put_many(entries)

        monkeypatch.setattr(store, "put_many", put_many)
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            run_grid(STORAGE, store=store, pool=ChunkedSerialPool())
        assert len(chunks) == 2
        # The first chunk committed; none of the second did, although
        # two of its rows were written before the failure.
        assert entry_digests(store_dir) == chunks[0]
        executed = []
        original = experiment._run_cell

        def counting(cell):
            executed.append(cell_digest(cell))
            return original(cell)

        monkeypatch.setattr(experiment, "_run_cell", counting)
        resumed = run_grid(STORAGE, max_workers=1, store=str(store_dir))
        assert sorted(executed) == chunks[1]
        assert resumed.to_json() == uninterrupted.to_json()

    def test_interrupted_merge_adopts_nothing(self, tmp_path, monkeypatch):
        """A merge that fails mid-insert commits none of its rows; the
        rerun adopts the whole source."""
        source = tmp_path / "source"
        run_grid(STORAGE, max_workers=1, store=str(source))
        dest = ResultStore(str(tmp_path / "dest"))
        real_db = dest._db
        monkeypatch.setattr(dest, "_db", lambda: FullDisk(real_db()))
        with pytest.raises(sqlite3.OperationalError, match="disk is full"):
            dest.merge_from(str(source))
        monkeypatch.setattr(dest, "_db", real_db)
        assert len(dest) == 0
        stats = dest.merge_from(str(source))
        assert (stats.adopted, stats.present) == (6, 0)
        resumed = run_grid(STORAGE, max_workers=1, store=dest)
        assert resumed.run_stats.executed == 0
        assert resumed.to_json() == run_grid(STORAGE, max_workers=1).to_json()

    def test_non_database_file_raises_naming_it(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        bogus = store_dir / STORE_FILE
        junk = b"not a result store " * 256
        bogus.write_bytes(junk)
        with pytest.raises(StoreError, match=str(bogus)):
            run_grid(STORAGE, max_workers=1, store=str(store_dir))
        with pytest.raises(StoreError, match=str(bogus)):
            ResultStore(str(tmp_path / "dest")).merge_from(str(store_dir))
        from repro.cli import main

        with pytest.raises(SystemExit, match=str(bogus)):
            main(["store", "ls", str(store_dir)])
        # Never silently emptied or rewritten.
        assert bogus.read_bytes() == junk

    def test_processes_fill_one_store_concurrently(self, tmp_path):
        """Overlapping grids written at once into one store by more
        processes than a 2-CPU host has cores, through a store object
        the parent opened before forking: nothing lost, nothing
        corrupt, and the resume matches a serial run."""
        store = ResultStore(str(tmp_path / "store"))
        assert len(store) == 0  # the parent's connection is open
        context = multiprocessing.get_context("fork")
        workers = [
            context.Process(target=fill_grid, args=(security_spec(trhs), store))
            for trhs in ([1200, 1600, 2000, 2400], [2000, 2400, 2800, 3200],
                         [2800, 3200, 1200, 1600])
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
        assert [worker.exitcode for worker in workers] == [0, 0, 0]
        union = security_spec([1200, 1600, 2000, 2400, 2800, 3200])
        inventory = store.inventory()
        assert sum(inventory.live.values()) == len(plan_cells(union)) == 240
        assert inventory.prunable == []
        resumed = run_grid(union, max_workers=1, store=store)
        assert resumed.run_stats.executed == 0
        assert resumed.to_json() == run_grid(union, max_workers=1).to_json()

    def test_parent_close_while_children_write_loses_nothing(self, tmp_path):
        """The fork rule: a child inherits no sqlite state, so the
        parent closing its connection mid-run (it could otherwise take
        itself for the last user and delete the WAL) loses no row the
        children commit afterwards."""
        spec = security_spec([1200, 1600])
        entries = list(zip(plan_cells(spec), run_grid(spec, max_workers=1)))
        store = ResultStore(str(tmp_path / "store"))
        assert len(store) == 0  # the parent's connection is open
        context = multiprocessing.get_context("fork")
        closed = context.Event()
        opened = [context.Event() for _ in range(2)]
        workers = [
            context.Process(
                target=put_around_parent_close,
                args=(store, entries[i::2], opened[i], closed),
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        assert all(event.wait(60) for event in opened)
        store.close()
        closed.set()
        for worker in workers:
            worker.join(60)
        assert [worker.exitcode for worker in workers] == [0, 0]
        assert sum(store.inventory().live.values()) == len(entries) == 80
        resumed = run_grid(spec, max_workers=1, store=store)
        assert resumed.run_stats.executed == 0

    def test_inherited_handle_is_never_used(self, tmp_path):
        """A child that inherits an open handle (pid differs) opens its
        own and leaves the parent's untouched."""
        store = ResultStore(str(tmp_path / "store"))
        len(store)
        inherited = store._conn
        store._pid = -1  # as seen from a forked child
        assert len(store) == 0
        assert store._conn is not inherited
        inherited.execute("SELECT 1")  # still open

    def test_store_less_grid_never_imports_sqlite3(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            experiment.__file__)))
        code = (
            "import sys, repro.cli, repro.report\n"
            "from repro.sim import ExperimentSpec, run_grid\n"
            "run_grid(ExperimentSpec(kind='storage', mitigations=['rrs'],"
            " grid={'trh': [4800]}), max_workers=1)\n"
            "print('sqlite3' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": os.path.dirname(src)},
        )
        assert out.stdout.strip() == "False"


class TestReadAhead:
    """The resume scan's block reads: one query per block, same answers
    as point lookups."""

    def test_resume_reads_one_query_per_block(self, tmp_path, monkeypatch):
        import repro.sim.store as store_module

        monkeypatch.setattr(store_module, "READ_AHEAD_BLOCK", 4)
        store_dir = str(tmp_path / "store")
        first = run_grid(STORAGE, max_workers=1, store=store_dir)
        store = ResultStore(store_dir)
        real_db = store._db
        statements = []

        class Counting:
            def __init__(self, db):
                self._db = db

            def execute(self, sql, *args):
                statements.append(sql)
                return self._db.execute(sql, *args)

        monkeypatch.setattr(store, "_db", lambda: Counting(real_db()))
        resumed = run_grid(STORAGE, max_workers=1, store=store)
        assert resumed.run_stats.executed == 0
        assert resumed.to_json() == first.to_json()
        assert len(statements) == 2  # 6 cells in blocks of 4

    def test_block_reads_serve_hits_misses_and_fresh_writes(self, tmp_path):
        cells = plan_cells(STORAGE)
        results = run_grid(STORAGE, max_workers=1).results
        store = ResultStore(str(tmp_path / "store"))
        for cell, result in zip(cells[:3], results[:3]):
            store.put(cell, result)
        store.read_ahead(cell_digest(cell) for cell in cells)
        assert store.get(cells[5]) is None  # out of order: reads the block
        assert [store.get(cell) for cell in cells[:3]] == results[:3]
        # cells[3] was fetched as a miss with the block; a write since
        # is never masked by that buffered miss.
        store.put(cells[3], results[3])
        assert store.get(cells[3]) == results[3]
        assert store.get(cells[4]) is None
