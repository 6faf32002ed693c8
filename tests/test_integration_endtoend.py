"""End-to-end integration tests across the whole stack.

These are the cross-module checks a reviewer would run first: the full
simulator reproduces the paper's *orderings* (who wins, where) and the
security harness confirms the defense properties with all components
assembled (tracker + RIT + engine + bank + memory system).
"""

import pytest

pytestmark = pytest.mark.slow  # full-stack simulations, seconds per test

from repro.sim.experiment import ExperimentSpec, run_grid
from repro.sim.results import normalized_performance
from repro.sim.simulator import PerformanceSimulation, SimulationParams
from repro.workloads.suites import ALL_WORKLOADS

PARAMS = SimulationParams(
    trh=1200, num_cores=2, requests_per_core=12_000, time_scale=32, seed=3
)


def spec(name):
    return next(w for w in ALL_WORKLOADS if w.name == name)


def simulate(name, mitigation, params):
    """One workload under one mitigation, straight through the simulator."""
    return PerformanceSimulation(spec(name), mitigation, params).run()


def compare(name, mitigations, params):
    """A one-workload grid (baseline included), keyed by mitigation."""
    grid = ExperimentSpec(
        workloads=[name], mitigations=list(mitigations), base_params=params
    )
    return run_grid(grid, max_workers=1).by("mitigation")


class TestPerformanceOrdering:
    """The paper's Figure 14 ordering at TRH=1200."""

    @pytest.fixture(scope="class")
    def gcc_results(self):
        return compare("gcc", ["rrs", "srs", "scale-srs"], PARAMS)

    def test_scale_srs_beats_rrs(self, gcc_results):
        base = gcc_results["baseline"]
        rrs = normalized_performance(base, gcc_results["rrs"])
        scale = normalized_performance(base, gcc_results["scale-srs"])
        assert scale > rrs

    def test_rrs_slowdown_significant_on_gcc(self, gcc_results):
        base = gcc_results["baseline"]
        rrs = normalized_performance(base, gcc_results["rrs"])
        assert rrs < 0.92  # gcc is the paper's worst case (26.5%)

    def test_scale_srs_overhead_small_even_on_gcc(self, gcc_results):
        base = gcc_results["baseline"]
        scale = normalized_performance(base, gcc_results["scale-srs"])
        assert scale > 0.85

    def test_swap_counts_ordered_by_swap_rate(self, gcc_results):
        # Scale-SRS (rate 3, TS=400) must swap roughly half as often as
        # RRS/SRS (rate 6, TS=200).
        assert gcc_results["scale-srs"].swaps < 0.75 * gcc_results["rrs"].swaps

    def test_srs_and_rrs_same_swap_rate_similar_swaps(self, gcc_results):
        ratio = gcc_results["srs"].swaps / max(1, gcc_results["rrs"].swaps)
        assert 0.5 < ratio < 1.5


class TestNoUnswapAblation:
    """Figure 4: removing immediate unswaps costs extra slowdown (the
    epoch-end chain unravel freezes the channel)."""

    def test_no_unswap_worse_than_unswap(self):
        params = SimulationParams(
            trh=1200, num_cores=2, requests_per_core=40_000, time_scale=32, seed=3
        )
        results = compare("hmmer", ["rrs", "rrs-no-unswap"], params)
        base = results["baseline"]
        with_unswap = normalized_performance(base, results["rrs"])
        without = normalized_performance(base, results["rrs-no-unswap"])
        assert without < with_unswap


class TestDefenseSecurityEndToEnd:
    """Activation-count structure with the full stack assembled.

    Scaled simulations magnify the latent-activation-to-TRH ratio by the
    time-scale factor, so they are *performance* rigs, not security
    bounds. What must hold structurally:

    - the baseline lets hot rows accumulate unboundedly;
    - under SRS/Scale-SRS, demand activations per location are capped
      near TS (the home location gains nothing after its first swap);
    - under RRS the home location keeps collecting latent activations —
      the very effect Juggernaut exploits (and the reason RRS breaks
      within one window at low TRH, Section III-C).
    """

    def test_baseline_has_hot_locations(self):
        result = simulate("gcc", "baseline", PARAMS)
        assert result.max_row_activations > PARAMS.scaled_trh

    @pytest.mark.parametrize("mitigation", ["srs", "scale-srs"])
    def test_swap_only_designs_cap_demand_activations(self, mitigation):
        result = simulate("gcc", mitigation, PARAMS)
        baseline = simulate("gcc", "baseline", PARAMS)
        # Orders of magnitude below the baseline's hottest location.
        assert result.max_row_activations < baseline.max_row_activations / 5

    def test_rrs_home_locations_accumulate_latents(self):
        rrs = simulate("gcc", "rrs", PARAMS)
        srs = simulate("gcc", "srs", PARAMS)
        # RRS's reswap latents pile up at home locations; SRS's do not.
        assert rrs.max_row_activations > srs.max_row_activations


class TestTrackerSensitivity:
    """Figure 16's direction: Hydra costs more than Misra-Gries at low
    thresholds, and more for RRS than for Scale-SRS."""

    def test_hydra_runs_and_orders(self):
        hydra_params = SimulationParams(
            trh=1200, num_cores=2, requests_per_core=12_000,
            time_scale=32, seed=3, tracker="hydra",
        )
        mg = compare("gcc", ["rrs"], PARAMS)
        hydra = compare("gcc", ["rrs"], hydra_params)
        mg_norm = normalized_performance(mg["baseline"], mg["rrs"])
        hydra_norm = normalized_performance(hydra["baseline"], hydra["rrs"])
        assert hydra_norm <= mg_norm + 0.02


class TestWindowAccounting:
    def test_multi_window_simulation_places_back(self):
        params = SimulationParams(
            trh=1200, num_cores=2, requests_per_core=40_000, time_scale=32, seed=5
        )
        result = simulate("hmmer", "scale-srs", params)
        assert result.place_backs > 0

    def test_activation_stats_cover_run(self):
        sim = PerformanceSimulation(spec("gcc"), "baseline", PARAMS)
        result = sim.run()
        recorded = sum(
            bank.stats.lifetime_activations for bank in sim.memory._banks
        )
        reads = sum(c.memory_reads for c in result.cores)
        writes = sum(c.memory_writes for c in result.cores)
        assert recorded == reads + writes
