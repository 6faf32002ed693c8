"""Tests for the bank state machine and activation accounting."""

import pytest

from repro.dram.bank import ActivationStats, Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMTiming


class TestActivationStats:
    def test_counts_within_window(self):
        stats = ActivationStats(1000.0)
        assert stats.record(5, 0.0) == 1
        assert stats.record(5, 10.0) == 2
        assert stats.count(5) == 2
        assert stats.count(6) == 0

    def test_window_roll_resets_counts(self):
        stats = ActivationStats(1000.0, keep_history=True)
        stats.record(5, 0.0)
        stats.record(5, 1500.0)  # next window
        assert stats.count(5) == 1
        assert stats.window_index == 1
        assert stats.history[0].max_row_activations == 1
        assert stats.closed_max_row_activations == 1
        assert stats.windows_closed == 1

    def test_history_records_hottest_row(self):
        stats = ActivationStats(1000.0, keep_history=True)
        for _ in range(3):
            stats.record(7, 0.0)
        stats.record(9, 0.0)
        stats.finalize(0.0)
        assert stats.history[0].hottest_row == 7
        assert stats.history[0].max_row_activations == 3
        assert stats.history[0].total_activations == 4
        assert stats.history[0].rows_activated == 2

    def test_empty_window_recorded(self):
        stats = ActivationStats(1000.0, keep_history=True)
        stats.record(1, 2500.0)  # skips windows 0 and 1
        assert len(stats.history) == 2
        assert stats.history[0].total_activations == 0

    def test_bank_threads_keep_history_through(self):
        bank = Bank(64, DRAMTiming(refresh_window=1000.0), keep_history=True)
        bank.access(0.0, 3)
        bank.access(1500.0, 3)  # rolls window 0 closed
        assert len(bank.stats.history) == 1
        assert bank.stats.history[0].max_row_activations == 1
        plain = Bank(64, DRAMTiming(refresh_window=1000.0))
        plain.access(0.0, 3)
        plain.access(1500.0, 3)
        assert plain.stats.history == []
        assert plain.stats.windows_closed == 1

    def test_history_off_by_default_but_aggregates_kept(self):
        stats = ActivationStats(1000.0)
        for _ in range(3):
            stats.record(7, 0.0)
        stats.record(9, 0.0)
        stats.record(1, 2500.0)  # closes windows 0 and 1
        assert stats.history == []
        assert stats.windows_closed == 2
        assert stats.closed_total_activations == 4
        assert stats.closed_max_row_activations == 3
        assert stats.peak_row_activations() == 3
        assert stats.ever_exceeded(3)
        assert not stats.ever_exceeded(4)

    def test_time_travel_rejected(self):
        stats = ActivationStats(1000.0)
        stats.record(1, 2500.0)
        with pytest.raises(ValueError):
            stats.record(1, 100.0)

    def test_ever_exceeded(self):
        stats = ActivationStats(1000.0)
        for _ in range(5):
            stats.record(3, 0.0)
        assert stats.ever_exceeded(5)
        assert not stats.ever_exceeded(6)
        stats.finalize(0.0)
        assert stats.ever_exceeded(5)  # survives window roll

    def test_rows_at_or_above(self):
        stats = ActivationStats(1000.0)
        for _ in range(4):
            stats.record(1, 0.0)
        stats.record(2, 0.0)
        assert stats.rows_at_or_above(4) == [1]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ActivationStats(0.0)


class TestBankClosedPage:
    def test_access_latency(self, small_bank, fast_timing):
        result = small_bank.access(0.0, 100)
        t = fast_timing
        assert result.start == 0.0
        assert result.finish == t.t_rcd + t.t_cas + t.t_bl
        assert result.activated and not result.row_hit

    def test_trc_enforced_between_activations(self, small_bank, fast_timing):
        first = small_bank.access(0.0, 100)
        second = small_bank.access(first.finish, 100)
        assert second.start >= first.start + fast_timing.t_rc

    def test_every_access_activates(self, small_bank):
        for _ in range(5):
            result = small_bank.access(small_bank.busy_until, 7)
            assert result.activated
        assert small_bank.stats.count(7) == 5

    def test_out_of_range_row_rejected(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.access(0.0, 4096)


class TestBankOpenPage:
    def test_row_hit_is_fast_and_does_not_activate(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        miss = bank.access(0.0, 5)
        hit = bank.access(miss.finish, 5)
        assert hit.row_hit and not hit.activated
        assert hit.finish - hit.start < miss.finish - miss.start
        assert bank.stats.count(5) == 1

    def test_row_conflict_pays_precharge(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        conflict = bank.access(bank.busy_until, 6)
        assert conflict.activated
        # Conflict latency includes precharge of the open row.
        assert conflict.start >= fast_timing.t_rp

    def test_hit_rate_accounting(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        for _ in range(3):
            bank.access(bank.busy_until, 5)
        assert bank.row_hit_rate == pytest.approx(0.75)


class TestBankOccupyAndActivate:
    def test_occupy_blocks_bank(self, small_bank):
        end = small_bank.occupy(0.0, 2700.0)
        assert end == 2700.0
        result = small_bank.access(0.0, 1)
        assert result.start >= 2700.0

    def test_occupy_closes_open_row(self, fast_timing):
        bank = Bank(4096, fast_timing, PagePolicy.OPEN)
        bank.access(0.0, 5)
        bank.occupy(bank.busy_until, 100.0)
        assert bank.open_row is None

    def test_negative_occupy_rejected(self, small_bank):
        with pytest.raises(ValueError):
            small_bank.occupy(0.0, -1.0)

    def test_raw_activate_records(self, small_bank):
        small_bank.activate(0.0, 9)
        assert small_bank.stats.count(9) == 1

    def test_precharge_idempotent_when_closed(self, small_bank):
        t = small_bank.precharge(100.0)
        assert t == 100.0


class TestBankAccessRun:
    """The harness's same-row replay against one access per step."""

    @staticmethod
    def fresh():
        bank = Bank(64, DRAMTiming(refresh_window=1_000.0), keep_history=True)
        bank.occupy(0.0, 130.0)
        return bank

    @staticmethod
    def bank_state(bank):
        stats = bank.stats
        return (
            bank.busy_until, bank.last_act_time, bank.open_row,
            bank.total_accesses, bank.row_hits, stats.window_index,
            stats.current_counts(), stats.lifetime_activations,
            [vars(record) for record in stats.history],
        )

    @pytest.mark.parametrize(
        "deadline, quiet, period",
        [
            (float("inf"), float("inf"), float("inf")),
            (500.0, float("inf"), float("inf")),
            (float("inf"), 700.0, float("inf")),
            (float("inf"), float("inf"), 370.0),
        ],
    )
    def test_matches_per_access(self, deadline, quiet, period):
        # Single accesses, each arriving at the previous one's finish.
        probe = self.fresh()
        time, trace = 3.0, []
        for _ in range(60):
            result = probe.access(time, 9)
            trace.append((time, result.start, result.finish))
            time = result.finish
        # The replay's stop rules, applied to that trace.
        first_start = trace[0][1]
        served = 0
        for arrival, start, finish in trace:
            if arrival >= deadline or finish >= quiet:
                break
            if any(start // w != first_start // w for w in (1_000.0, period)):
                break
            served += 1
        assert 0 < served < 60
        single = self.fresh()
        time = 3.0
        for _ in range(served):
            time = single.access(time, 9).finish

        fused = self.fresh()
        starts, end = fused.access_run(3.0, 9, 60, deadline, quiet, period)
        assert starts == [start for _, start, _ in trace[:served]]
        assert end == time
        assert self.bank_state(fused) == self.bank_state(single)

    def test_requires_closed_page_without_open_row(self, fast_timing):
        with pytest.raises(ValueError):
            Bank(64, fast_timing, PagePolicy.OPEN).access_run(0.0, 1, 4)
        bank = Bank(64, fast_timing)
        bank.activate(0.0, 3)
        with pytest.raises(ValueError):
            bank.access_run(0.0, 1, 4)
