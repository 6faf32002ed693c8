"""Hydra hybrid tracker (Qureshi et al., ISCA 2022).

Hydra keeps a small SRAM Group Count Table (GCT): one counter per group of
consecutive rows. While a group's aggregate count stays below the group
threshold, no per-row state exists. When the group threshold is crossed,
per-row counters for the group are initialised *in DRAM* (Row Count Table,
RCT) and subsequently accessed through an SRAM Row Count Cache (RCC). An
RCC miss costs a DRAM read (and a writeback of the evicted dirty entry),
which is the source of Hydra's extra memory traffic at low thresholds —
the effect Figure 16 of the paper measures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.registry import register_tracker
from repro.trackers.base import Tracker, TrackerObservation


@dataclass(frozen=True)
class HydraConfig:
    """Hydra structure parameters.

    Attributes:
        rows_per_group: Rows aggregated per GCT counter.
        group_threshold_fraction: The group counter value (as a fraction of
            the row threshold) at which per-row tracking starts. Hydra uses
            a fraction below 1 so that no row can reach the row threshold
            while hidden inside a group counter.
        rcc_entries: Row Count Cache capacity (per bank, entries).
        group_threshold_floor: Lower bound on the group threshold. The
            group threshold is a *spatial* quantity (accesses a 128-row
            neighbourhood absorbs before per-row tracking starts), so
            time-scaled simulations must not scale it to nothing; the
            floor keeps the transition realistic at scaled thresholds.
    """

    rows_per_group: int = 128
    group_threshold_fraction: float = 0.5
    rcc_entries: int = 2048
    group_threshold_floor: int = 64


@register_tracker(
    "hydra",
    description="Hydra group/row hybrid with a DRAM-backed counter cache",
    builder=lambda threshold, timing: HydraTracker(threshold, HydraConfig()),
    supports_batching=True,
)
class HydraTracker(Tracker):
    """Two-level group/row tracker with a counter cache.

    The over-estimate property holds: per-row counters are initialised to
    the group threshold when a group transitions to per-row mode, so a
    row's estimate is always at least its true count.

    Batching contract (see :meth:`Tracker.batch_horizon`). Only two
    kinds of observation are free of triggers and DRAM counter traffic,
    and the batched simulation engine defers exactly those:

    - a row whose group is still in group mode, as long as the group
      counter stays below the group threshold. All rows of such a group
      share one budget, ``group_threshold - 1 - GCT[group]``, so
      :meth:`budget_key_fn` keys them by their group;
    - a row of a hot group whose counter is resident in the RCC, as
      long as its count stays below the row threshold. The hit's only
      side effect is LRU recency, which :meth:`observe_batch` replays in
      order. Its budget is ``threshold - 1 - count``, keyed by the row.

    Every other observation (an RCC miss, a group transition, a
    trigger) goes through :meth:`observe` on the full path. Budgets of
    different keys never interact: cold-group observations do not touch
    the RCC and resident hits do not evict, so :meth:`batch_slack` is
    unbounded.
    """

    def __init__(self, threshold: int, config: Optional[HydraConfig] = None):
        super().__init__(threshold)
        self.config = config or HydraConfig()
        if not 0 < self.config.group_threshold_fraction <= 1:
            raise ValueError("group_threshold_fraction must be in (0, 1]")
        self.group_threshold = max(
            self.config.group_threshold_floor,
            int(threshold * self.config.group_threshold_fraction),
        )
        self._group_counts: Dict[int, int] = {}
        # Largest group count this window (group counts only grow until
        # `end_window`), for an O(1) `batch_horizon`.
        self._group_max = 0
        self._hot_groups: Set[int] = set()
        # Row counters for rows in hot groups live in DRAM; the RCC caches
        # them. `_row_counts` is the DRAM-resident truth.
        self._row_counts: Dict[int, int] = {}
        self._rcc: "OrderedDict[int, int]" = OrderedDict()
        self.rcc_hits = 0
        self.rcc_misses = 0
        self.rcc_evictions = 0
        self.dram_counter_accesses = 0

    def _group_of(self, row: int) -> int:
        return row // self.config.rows_per_group

    def _rcc_access(self, row: int) -> int:
        """Access ``row``'s counter through the RCC; returns DRAM accesses."""
        if row in self._rcc:
            self.rcc_hits += 1
            self._rcc.move_to_end(row)
            return 0
        self.rcc_misses += 1
        extra = 1  # read the counter from DRAM
        if len(self._rcc) >= self.config.rcc_entries:
            self._rcc.popitem(last=False)
            self.rcc_evictions += 1
            extra += 1  # write back the dirty evicted counter
        self._rcc[row] = self._row_counts.get(row, 0)
        self.dram_counter_accesses += extra
        return extra

    def observe(self, row: int) -> TrackerObservation:
        group = self._group_of(row)
        if group not in self._hot_groups:
            count = self._group_counts.get(group, 0) + 1
            self._group_counts[group] = count
            if count > self._group_max:
                self._group_max = count
            if count >= self.group_threshold:
                # Transition: per-row counters initialised (lazily) to the
                # group threshold — a safe over-estimate for each row.
                self._hot_groups.add(group)
            return self._note(
                TrackerObservation(triggered=False, estimated_count=count)
            )

        extra = self._rcc_access(row)
        count = self._row_counts.get(row, self.group_threshold) + 1
        self._row_counts[row] = count
        self._rcc[row] = count
        triggered = count >= self.threshold
        if triggered:
            self._row_counts[row] = 0
            self._rcc[row] = 0
        return self._note(
            TrackerObservation(
                triggered=triggered,
                extra_dram_accesses=extra,
                estimated_count=count,
            )
        )

    def observe_batch(self, rows) -> None:
        """Bulk :meth:`observe` with the side-effect-free arms inlined.

        Bit-identical to calling :meth:`observe` per row: cold-group
        increments and RCC hits (``move_to_end`` plus the count update)
        run in the same order, so ``_rcc`` recency and ``rcc_hits`` stay
        exact. Any row that would transition its group, miss the RCC,
        or trigger (a caller overran its budget) is delegated to
        :meth:`observe`, so that bookkeeping stays exactly the scalar
        path's.
        """
        rows_per_group = self.config.rows_per_group
        group_threshold = self.group_threshold
        threshold = self.threshold
        hot = self._hot_groups
        group_counts = self._group_counts
        row_counts = self._row_counts
        rcc = self._rcc
        group_max = self._group_max
        seen = 0
        hits = 0
        for row in rows:
            group = row // rows_per_group
            if group not in hot:
                count = group_counts.get(group, 0) + 1
                if count < group_threshold:
                    group_counts[group] = count
                    if count > group_max:
                        group_max = count
                    seen += 1
                    continue
            elif row in rcc:
                count = row_counts.get(row, group_threshold) + 1
                if count < threshold:
                    rcc.move_to_end(row)
                    row_counts[row] = count
                    rcc[row] = count
                    hits += 1
                    seen += 1
                    continue
            self.observations += seen
            self.rcc_hits += hits
            self._group_max = group_max
            seen = hits = 0
            self.observe(row)
            group_max = self._group_max
        self.observations += seen
        self.rcc_hits += hits
        self._group_max = group_max

    def batch_horizon(self) -> int:
        """Observations of any rows that cannot trigger or touch DRAM.

        While no group is hot, every observation is a group-counter
        increment, and ``group_threshold - 1 - max(GCT)`` of them cannot
        complete a transition. Once any group is hot, an observation of
        one of its rows may miss the RCC, so the bank-wide horizon is 0
        and the per-key budgets of :meth:`row_headroom` take over.
        """
        if self._hot_groups:
            return 0
        return max(0, self.group_threshold - 1 - self._group_max)

    def row_headroom(self, row: int) -> int:
        """Remaining budget of ``row``'s budget key (see the class doc).

        A cold group's rows share ``group_threshold - 1 - GCT[group]``;
        an RCC-resident row of a hot group has
        ``threshold - 1 - count``; a non-resident row of a hot group has
        0, since its next observation misses the RCC.
        """
        group = row // self.config.rows_per_group
        if group not in self._hot_groups:
            return max(
                0, self.group_threshold - 1 - self._group_counts.get(group, 0)
            )
        if row not in self._rcc:
            return 0
        return max(
            0, self.threshold - 1 - self._row_counts.get(row, self.group_threshold)
        )

    def batch_slack(self) -> int:
        """Budgets of different keys never interact: unbounded."""
        return 1 << 62

    def budget_key_fn(self) -> Callable[[int], int]:
        """Cold rows share their group's budget; hot rows own theirs."""
        return self._budget_key

    def _budget_key(self, row: int) -> int:
        # Groups map to negative keys so they never collide with rows.
        group = row // self.config.rows_per_group
        if group in self._hot_groups:
            return row
        return -1 - group

    def count(self, row: int) -> int:
        group = self._group_of(row)
        if group in self._hot_groups:
            return self._row_counts.get(row, self.group_threshold)
        return self._group_counts.get(group, 0)

    def reset_row(self, row: int) -> None:
        if self._group_of(row) in self._hot_groups:
            self._row_counts[row] = 0
            if row in self._rcc:
                self._rcc[row] = 0

    def end_window(self) -> None:
        self._group_counts.clear()
        self._group_max = 0
        self._hot_groups.clear()
        self._row_counts.clear()
        self._rcc.clear()

    @property
    def rcc_hit_rate(self) -> float:
        total = self.rcc_hits + self.rcc_misses
        return self.rcc_hits / total if total else 0.0
