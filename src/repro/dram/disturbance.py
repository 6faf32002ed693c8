"""Charge-disturbance physics: blast radius and bit flips.

Row Hammer is an analog phenomenon: each ACT of an aggressor row leaks a
little charge from rows within its *blast radius* (Section II-E cites
[29]). This model tracks accumulated disturbance per victim row in
"equivalent aggressor activations": a victim at distance 1 accumulates 1
unit per aggressor ACT, a victim at distance 2 a configurable fraction,
and so on. A row whose accumulated disturbance exceeds ``TRH`` within a
refresh window flips bits.

Crucially for the half-double attack (Section II-E): *any* activation
disturbs neighbours — including the activation performed by a
victim-focused mitigation when it refreshes a victim row. Refreshing row
``r`` restores ``r``'s charge but disturbs ``r +/- d``, which is how
VFM's own mitigative action hammers distance-2 rows.

The model is driven by the security harnesses (it is not wired into the
performance simulator, where per-ACT neighbour updates would be wasted
work: swaps keep every count far below the flip point).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Dict, List, Sequence, Tuple


@dataclass
class FlipEvent:
    """A bit flip: the ACT that carried ``row`` from below ``TRH`` to at
    or above it — which row, when, and at what disturbance level."""

    row: int
    time: float
    disturbance: float
    window_index: int


class DisturbanceModel:
    """Accumulates per-row disturbance within refresh windows.

    Args:
        num_rows: Rows in the bank.
        trh: Row Hammer threshold — disturbance units at which a row
            flips (the paper's demonstrated values are measured in
            distance-1 aggressor activations, hence unit weight 1.0 at
            distance 1).
        refresh_window: Window after which regular refresh restores every
            row (ns).
        distance_factors: Disturbance per aggressor ACT by distance:
            entry 0 is distance 1, entry 1 is distance 2, ... The default
            models a blast radius of 2 with a weak distance-2 coupling —
            too weak to matter alone, decisive under half-double.
    """

    def __init__(
        self,
        num_rows: int,
        trh: int,
        refresh_window: float = 64_000_000.0,
        distance_factors: Tuple[float, ...] = (1.0, 0.05),
    ):
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        if trh <= 0:
            raise ValueError("trh must be positive")
        if not distance_factors or distance_factors[0] <= 0:
            raise ValueError("distance_factors must start with a positive weight")
        self.num_rows = num_rows
        self.trh = trh
        self.refresh_window = refresh_window
        self.distance_factors = distance_factors
        self._disturbance: Dict[int, float] = defaultdict(float)
        self._window_index = 0
        self.flips: List[FlipEvent] = []
        self.total_activations = 0
        self.refreshes = 0

    @property
    def blast_radius(self) -> int:
        return len(self.distance_factors)

    def _roll(self, time: float) -> None:
        window = int(time // self.refresh_window)
        if window > self._window_index:
            # Regular refresh restored every row at the window boundary.
            self._disturbance.clear()
            self._window_index = window

    def _disturb(self, victim: int, amount: float, time: float) -> None:
        if not 0 <= victim < self.num_rows:
            return
        old = self._disturbance[victim]
        level = old + amount
        self._disturbance[victim] = level
        if old < self.trh <= level:
            self.flips.append(
                FlipEvent(
                    row=victim,
                    time=time,
                    disturbance=level,
                    window_index=self._window_index,
                )
            )

    def on_activation(self, row: int, time: float) -> None:
        """An ACT on ``row`` disturbs its neighbours out to the radius."""
        self._roll(time)
        self.total_activations += 1
        for index, factor in enumerate(self.distance_factors):
            distance = index + 1
            self._disturb(row - distance, factor, time)
            self._disturb(row + distance, factor, time)

    def on_activation_run(self, row: int, starts: Sequence[float]) -> None:
        """One ACT on ``row`` at each instant of ``starts``, in order.

        Bit-identical to calling :meth:`on_activation` once per instant:
        each victim's level takes the same float additions in the same
        order, and threshold crossings are recorded in scalar order
        (by ACT, then by victim in :meth:`on_activation`'s order). The
        instants must be nondecreasing and share one refresh window,
        so the window rolls at most once, at the first.
        """
        if not starts:
            return
        self._roll(starts[0])
        window = self._window_index
        if int(starts[-1] // self.refresh_window) != window:
            raise ValueError("activation run crosses a refresh-window boundary")
        count = len(starts)
        self.total_activations += count
        levels_by_row = self._disturbance
        trh = self.trh
        crossings = []
        order = 0
        for index, factor in enumerate(self.distance_factors):
            distance = index + 1
            for victim in (row - distance, row + distance):
                order += 1
                if not 0 <= victim < self.num_rows:
                    continue
                old = levels_by_row[victim]
                # levels[k]: the victim's level after k of the run's ACTs.
                levels = list(accumulate(repeat(factor, count), initial=old))
                levels_by_row[victim] = levels[-1]
                if old < trh <= levels[-1]:
                    # Positive steps only, so the levels are sorted and
                    # the first one at or above TRH is the crossing.
                    act = bisect_left(levels, trh) - 1
                    crossings.append((act, order, victim, levels[act + 1]))
        for act, _, victim, level in sorted(crossings):
            self.flips.append(
                FlipEvent(
                    row=victim,
                    time=starts[act],
                    disturbance=level,
                    window_index=window,
                )
            )

    def on_refresh(self, row: int, time: float) -> None:
        """A targeted refresh restores ``row`` — but, being an activation,
        disturbs the rows around it (the half-double lever)."""
        self._roll(time)
        self.refreshes += 1
        self.on_activation(row, time)
        self.total_activations -= 1  # refresh counted separately
        self._disturbance[row] = 0.0

    def disturbance(self, row: int) -> float:
        return self._disturbance.get(row, 0.0)

    def flipped_rows(self) -> List[int]:
        return sorted({flip.row for flip in self.flips})

    def any_flip(self) -> bool:
        return bool(self.flips)

    def hottest(self) -> Tuple[int, float]:
        """(row, disturbance) of the currently most disturbed row."""
        if not self._disturbance:
            return (-1, 0.0)
        row = max(self._disturbance, key=self._disturbance.get)
        return row, self._disturbance[row]
