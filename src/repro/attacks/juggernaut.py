"""The Juggernaut attack pattern — live driver and policy analyses.

Three tools live here:

- :class:`JuggernautAttacker` executes the attack pattern of Figure 5
  against a *live* mitigation engine attached to a real :class:`Bank`,
  and checks whether any physical location crossed ``TRH``. This is the
  integration-level proof that RRS is broken and SRS is not, run on
  scaled-down banks so guesses land within test budgets.

- :func:`multi_bank_time_to_break_days` models the Section III-C analysis:
  hammering ``B`` banks concurrently multiplies the per-window success
  odds by ``B`` but dilates the per-bank activation gap to
  ``B * tFAW / 4`` (the channel's ACT throughput limit), which degrades
  the attack by orders of magnitude (4 hours to ~10 years at 16 banks).

- :func:`open_page_time_to_break_days` models Section VIII-3: an
  open-page controller stretches the attacker's effective activation gap,
  shrinking the feasible attack rounds (4 hours to ~10 days at
  ``TRH = 4800``), though the protection evaporates at lower ``TRH``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.attacks.analytical import AttackParameters, JuggernautModel
from repro.attacks.harness import play_run
from repro.core.mitigation import Mitigation


@dataclass
class AttackVerdict:
    """Outcome of driving the attack pattern for one refresh window."""

    target_home_activations: int
    max_location_activations: int
    hottest_location: Optional[int]
    bit_flipped: bool
    demand_activations: int
    rounds_completed: int
    guesses_made: int


class JuggernautAttacker:
    """Drives the two-phase Juggernaut pattern against a mitigation.

    Args:
        mitigation: The engine under attack (owns the bank and tracker).
        trh: Row Hammer threshold to test against.
        ts: The defense's swap threshold (the attacker knows it; Kerckhoffs).
        rng: Randomness for the guess phase.
    """

    def __init__(
        self,
        mitigation: Mitigation,
        trh: int,
        ts: int,
        rng: Optional[random.Random] = None,
    ):
        self.mitigation = mitigation
        self.bank = mitigation.bank
        self.trh = trh
        self.ts = ts
        self.rng = rng or random.Random(0xA77ACC)
        self.demand_activations = 0

    def _hammer(self, time: float, row: int, count: int, deadline: float) -> float:
        """Activate logical ``row`` ``count`` times; returns the new time.

        Played by the hammer harness's run step (no disturbance model).
        Accesses to a row Scale-SRS pinned hit in the LLC and produce no
        DRAM activations: hammering it is wasted time.
        """
        time, issued = play_run(self.mitigation, None, row, count, time, deadline)
        self.demand_activations += issued
        return time

    def run_window(
        self,
        target_row: int,
        rounds: int,
        window_start: float = 0.0,
    ) -> AttackVerdict:
        """Execute one window of the attack pattern (Figure 5).

        Phase 1 hammers ``target_row`` in bursts of ``TS`` for ``rounds``
        rounds, milking the defense's mitigative actions for latent
        activations at the target's home location. Phase 2 spends the
        remaining window on random guesses, each hammered ``TS`` times.
        """
        deadline = window_start + self.bank.timing.refresh_window
        time = window_start
        # Initial burst: force the first swap.
        time = self._hammer(time, target_row, 2 * self.ts - 1, deadline)
        completed = 0
        for _ in range(rounds):
            if time >= deadline:
                break
            time = self._hammer(time, target_row, self.ts, deadline)
            completed += 1
        guesses = 0
        while time < deadline:
            guess = self.rng.randrange(self.bank.num_rows)
            if guess == target_row:
                continue
            time = self._hammer(time, guess, self.ts, deadline)
            guesses += 1
        stats = self.bank.stats
        counts = stats.current_counts()
        if counts:
            hottest, hottest_count = max(counts.items(), key=lambda kv: kv[1])
        else:
            hottest, hottest_count = None, 0
        target_home = stats.count(target_row)
        return AttackVerdict(
            target_home_activations=target_home,
            max_location_activations=hottest_count,
            hottest_location=hottest,
            bit_flipped=hottest_count > self.trh,
            demand_activations=self.demand_activations,
            rounds_completed=completed,
            guesses_made=guesses,
        )


def multi_bank_time_to_break_days(
    trh: int,
    swap_rate: float,
    num_banks: int,
    params: Optional[AttackParameters] = None,
    t_faw: float = 35.0,
) -> float:
    """Section III-C: expected days to break RRS hammering ``B`` banks.

    Hammering banks concurrently is bounded by the channel's activate
    throughput (four ACTs per ``tFAW``), so each bank sees an effective
    activation gap of ``max(tRC, B * tFAW / 4)``; success probability per
    window scales by ``B`` (any bank may hit). At ``TRH = 4800`` and a
    swap rate of 6, 16 banks degrade Juggernaut from ~4 hours to ~10
    years (the paper reports 9.9 years).
    """
    if num_banks < 1:
        raise ValueError("num_banks must be at least 1")
    base = params or AttackParameters()
    act_gap = max(base.t_rc, num_banks * t_faw / 4.0)
    per_bank = AttackParameters(
        trh=trh,
        ts=max(1, int(round(trh / swap_rate))),
        rows_per_bank=base.rows_per_bank,
        t_rc=base.t_rc,
        t_rfc=base.t_rfc,
        refreshes_per_window=base.refreshes_per_window,
        t_swap=base.t_swap,
        t_reswap=base.t_reswap,
        latent_per_round=base.latent_per_round,
        refresh_window=base.refresh_window,
        act_gap=act_gap,
    )
    best = JuggernautModel(per_bank).best(step=10)
    if best.success_probability <= 0.0:
        return float("inf")
    combined = min(1.0, best.success_probability * num_banks)
    window_days = per_bank.refresh_window / (86_400.0 * 1e9)
    return window_days / combined


def open_page_time_to_break_days(
    trh: int,
    swap_rate: float,
    act_gap_factor: float = 1.5,
    params: Optional[AttackParameters] = None,
    refresh_window: Optional[float] = None,
) -> float:
    """Section VIII-3: Juggernaut under an open-page memory controller.

    An open-page controller merges consecutive same-row accesses into one
    activation, so the attacker must interleave conflicting rows; the
    effective per-activation gap stretches by ``act_gap_factor``
    (row-conflict latency over row-cycle latency). Passing a halved
    ``refresh_window`` models the DDR5 discussion point (Section VIII-5).

    Note: the time-to-break is cliff-like in the gap factor — at
    ``TRH = 4800`` / swap rate 6 it jumps from under a day (factor
    ~1.4, where ``k = 2`` biasing still fits the window) to tens of days
    (factor 1.5, ``k = 3``). The paper's 10-day figure sits in the latter
    regime; the qualitative conclusions it draws (open-page slows
    Juggernaut at high ``TRH``, but ``TRH <= 3300`` still falls in under
    a day at swap rate 10) hold at the default factor.
    """
    base = params or AttackParameters()
    configured = AttackParameters(
        trh=trh,
        ts=max(1, int(round(trh / swap_rate))),
        rows_per_bank=base.rows_per_bank,
        t_rc=base.t_rc,
        t_rfc=base.t_rfc,
        refreshes_per_window=base.refreshes_per_window,
        t_swap=base.t_swap,
        t_reswap=base.t_reswap,
        latent_per_round=base.latent_per_round,
        refresh_window=refresh_window if refresh_window is not None else base.refresh_window,
        act_gap=base.t_rc * act_gap_factor,
    )
    return JuggernautModel(configured).best(step=10).time_to_break_days
