"""Tests for the workload plane (:mod:`repro.workloads.plane`).

The plane's contract has three legs, each pinned here:

- **keys** — the cache key mirrors the store's fingerprint-free digest
  ingredients, folds ``store_fingerprint()`` in for file-backed
  workloads (re-recording invalidates), and refuses to key ad-hoc
  workload objects (they can never alias a cached entry);
- **bit-identity** — a cached materialization equals the uncached
  per-core ``arrays_for_core`` loop column for column, and a pooled
  grid equals a serial one, on both engines;
- **read-only** — every column a cached trace exposes rejects writes,
  so no cell can change another cell's input.
"""

import dataclasses
import time

import pytest

from repro.sim.experiment import (
    ExperimentSpec,
    plan_cells,
    resolve_workload,
    run_grid,
)
from repro.sim.pool import ProcessPool, SerialPool
from repro.sim.recorder import record_workload
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads import plane
from repro.workloads.columnar import ColumnarTrace

PARAMS = SimulationParams(
    trh=1200, num_cores=2, requests_per_core=600, time_scale=32
)


def small_spec(workload="povray", **overrides):
    return ExperimentSpec(
        workloads=[workload],
        mitigations=["rrs", "srs"],
        base_params=dataclasses.replace(PARAMS, **overrides),
    )


def record_rate_trace(tmp_path, requests=3000):
    """A single-file (rate-mode) recording every core replays."""
    out = tmp_path / "recorded"
    record_workload(
        resolve_workload("gcc"),
        SimulationParams(num_cores=1, requests_per_core=requests),
        out_dir=str(out),
    )
    return str(out)


class TestWorkloadKey:
    def test_stable_and_generation_sensitive(self):
        spec = resolve_workload("povray")
        org = PARAMS.make_organization()
        key = plane.workload_key(spec, PARAMS, org)
        assert key == plane.workload_key(spec, PARAMS, org)
        assert key != plane.workload_key(
            spec, dataclasses.replace(PARAMS, seed=1), org
        )
        assert key != plane.workload_key(
            spec, dataclasses.replace(PARAMS, requests_per_core=601), org
        )
        assert key != plane.workload_key(
            resolve_workload("gcc"), PARAMS, org
        )

    def test_trace_key_folds_store_fingerprint(self, tmp_path):
        """Regression: re-recording a trace under the same path must
        change the plane key (same invalidation the store uses)."""
        trace_dir = record_rate_trace(tmp_path)
        workload = resolve_workload(f"trace:{trace_dir}")
        org = PARAMS.make_organization()
        before = plane.workload_key(workload, PARAMS, org)
        assert before is not None
        time.sleep(0.01)  # ensure a distinct mtime_ns on coarse clocks
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=3000),
            out_dir=trace_dir,
        )
        after = plane.workload_key(workload, PARAMS, org)
        assert after is not None
        assert before != after

    def test_rerecorded_trace_regenerates(self, tmp_path):
        """The in-process cache must not serve stale bytes after the
        backing file changed."""
        trace_dir = record_rate_trace(tmp_path)
        workload = resolve_workload(f"trace:{trace_dir}")
        org = PARAMS.make_organization()
        first = plane.traces_for(workload, PARAMS, org)
        time.sleep(0.01)
        record_workload(
            resolve_workload("povray"),
            SimulationParams(num_cores=1, requests_per_core=3000),
            out_dir=trace_dir,
        )
        second = plane.traces_for(workload, PARAMS, org)
        assert not first[0].equals(second[0])

    def test_missing_trace_keys_to_none(self, tmp_path):
        workload = resolve_workload(f"trace:{tmp_path / 'nope'}")
        assert (
            plane.workload_key(workload, PARAMS, PARAMS.make_organization())
            is None
        )

    def test_adhoc_workload_is_uncacheable(self):
        class AdHoc:
            def arrays_for_core(self, core_id, params, organization):
                return ColumnarTrace.empty()

        org = PARAMS.make_organization()
        workload = AdHoc()
        assert plane.workload_key(workload, PARAMS, org) is None
        first = plane.traces_for(workload, PARAMS, org)
        second = plane.traces_for(workload, PARAMS, org)
        assert first[0] is not second[0]
        assert not plane.local_stats()


class TestTracesFor:
    def test_memoizes_within_a_process(self):
        spec = resolve_workload("povray")
        org = PARAMS.make_organization()
        first = plane.traces_for(spec, PARAMS, org)
        second = plane.traces_for(spec, PARAMS, org)
        assert all(a is b for a, b in zip(first, second))
        stats = plane.local_stats()
        assert stats.generated == 1
        assert stats.trace_hits == 1

    def test_rate_mode_decodes_once(self, tmp_path, monkeypatch):
        """A single-file recording is parsed and decoded once for all
        cores, and the per-core traces share one array set."""
        import repro.workloads.cache as cache_module

        trace_dir = record_rate_trace(tmp_path)
        loads = []
        original = cache_module.load_trace_columns

        def counting(path, **kwargs):
            loads.append(path)
            return original(path, **kwargs)

        monkeypatch.setattr(cache_module, "load_trace_columns", counting)
        workload = resolve_workload(f"trace:{trace_dir}")
        params = dataclasses.replace(PARAMS, num_cores=4)
        traces = plane.traces_for(workload, params, params.make_organization())
        assert len(traces) == 4
        assert all(t is traces[0] for t in traces)
        assert len(loads) == 1


def uncached(workload, params):
    """The per-core ``arrays_for_core`` loop the plane must reproduce."""
    organization = params.make_organization()
    return [
        workload.arrays_for_core(core_id, params, organization)
        for core_id in range(params.num_cores)
    ]


class TestUncachedReference:
    """A plane result equals the uncached generation, column for column."""

    def test_synthetic_workload_matches_direct_generation(self):
        spec = resolve_workload("mix1")
        cached = plane.traces_for(spec, PARAMS, PARAMS.make_organization())
        reference = uncached(spec, PARAMS)
        assert len(cached) == len(reference) == PARAMS.num_cores
        assert all(a.equals(b) for a, b in zip(cached, reference))
        assert plane.local_stats().generated == 1

    def test_rate_mode_trace_matches_direct_generation(self, tmp_path):
        workload = resolve_workload(f"trace:{record_rate_trace(tmp_path)}")
        params = dataclasses.replace(PARAMS, num_cores=3)
        cached = plane.traces_for(workload, params, params.make_organization())
        reference = uncached(workload, params)
        assert len(cached) == len(reference) == 3
        assert all(a.equals(b) for a, b in zip(cached, reference))


class TestReadOnlyGuard:
    """Cached traces are shared across cells, so writes must fail."""

    @pytest.mark.parametrize("source", ["synthetic", "trace"])
    def test_every_cached_column_rejects_writes(self, source, tmp_path):
        if source == "synthetic":
            workload = resolve_workload("povray")
        else:
            workload = resolve_workload(f"trace:{record_rate_trace(tmp_path)}")
        org = PARAMS.make_organization()
        for _ in range(2):  # the generating call and the cache hit
            traces = plane.traces_for(workload, PARAMS, org)
            for trace in traces:
                for column in dataclasses.fields(trace):
                    array = getattr(trace, column.name)
                    assert len(array)
                    with pytest.raises(ValueError):
                        array[0] = array[0]
                    with pytest.raises(ValueError):
                        trace.take(1).gaps[0] = 0
        stats = plane.local_stats()
        assert (stats.generated, stats.trace_hits) == (1, 1)


class TestExpectedCost:
    """The affinity scheduler's cost heuristic follows the registry."""

    @staticmethod
    def cell(mitigation, **params):
        spec = dataclasses.replace(small_spec(**params), mitigations=[mitigation])
        (cell,) = [c for c in plan_cells(spec) if c.mitigation == mitigation]
        return cell

    def test_scalar_resolving_cells_cost_three_times_as_much(self):
        fused = plane._expected_cost(self.cell("rrs", engine="auto"))
        scalar = plane._expected_cost(self.cell("rrs", engine="scalar"))
        assert scalar == 3 * fused

    def test_hydra_cells_fuse_under_auto(self):
        hydra = self.cell("rrs", engine="auto", tracker="hydra")
        misra = self.cell("rrs", engine="auto", tracker="misra-gries")
        assert plane._expected_cost(hydra) == plane._expected_cost(misra)

    def test_designs_without_the_contract_resolve_scalar(self):
        aqua = self.cell("aqua", engine="auto", tracker="hydra")
        rrs = self.cell("rrs", engine="auto", tracker="hydra")
        assert plane._expected_cost(aqua) == 3 * plane._expected_cost(rrs)


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_pooled_trace_grid_identical_to_serial(self, engine, tmp_path):
        trace_dir = record_rate_trace(tmp_path, requests=1500)
        spec = small_spec(workload=f"trace:{trace_dir}", engine=engine)
        serial = run_grid(spec, pool=SerialPool())
        assert serial.run_stats.workloads.generated == 1
        plane.reset()
        pooled = run_grid(spec, pool=ProcessPool(2))
        assert serial.to_json() == pooled.to_json()

    def test_decode_cache_hits_under_batched_engine(self):
        """Back-to-back batched cells over one workload share a decode."""
        spec = resolve_workload("povray")
        params = dataclasses.replace(PARAMS, engine="batched")
        for mitigation in ("baseline", "rrs"):
            PerformanceSimulation(spec, mitigation, params).run()
        stats = plane.local_stats()
        assert stats.decode_hits >= 1
        assert stats.generated == 1


class TestFuzzUnderPlane:
    def test_fuzz_seeds_pass_from_a_cold_plane(self):
        """The differential fuzzer's scenarios stay scalar/batched
        bit-identical starting from a cold plane."""
        from test_engine_fuzz import check_seed

        for seed in (11, 12, 13):
            plane.reset()
            check_seed(seed)
