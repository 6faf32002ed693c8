"""Security harness: play an access pattern against a defended bank.

Glue for the motivation and security experiments: drives a hammer
pattern (from :mod:`repro.attacks.patterns`) through a mitigation
attached to a bank, feeding every demand activation into a
:class:`DisturbanceModel`, then reports whether any victim flipped.

Hammer patterns are long runs of one repeated row (half-double hits its
far aggressor 2047 times per near-row touch), so the harness plays a
pattern run by run. :func:`play_run` serves as much of a run as the
mitigation declares free of mitigative work through the batched
engine's quiescence contract (see DESIGN.md, "Engine") on a fused
same-row step, and every other access on the per-access step. Both
steps give bit-identical results: bank, activation stats, disturbance
levels and flips, tracker and mitigation state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice
from typing import Iterable, List, Optional, Tuple

from repro.core.mitigation import Mitigation
from repro.dram.commands import PagePolicy
from repro.dram.disturbance import DisturbanceModel

#: Pattern accesses taken from one run per :func:`play_run` call; keeps
#: an unbounded run of one row playable up to a deadline.
_RUN_CHUNK = 4096


@dataclass
class HammerOutcome:
    """Result of one hammering session."""

    activations: int
    flipped_rows: List[int]
    hottest_row: int
    hottest_disturbance: float
    victim_refreshes: int
    duration_ns: float

    @property
    def any_flip(self) -> bool:
        return bool(self.flipped_rows)


def play_run(
    mitigation: Mitigation,
    disturbance: Optional[DisturbanceModel],
    row: int,
    count: int,
    time: float,
    deadline: Optional[float] = None,
) -> Tuple[float, int]:
    """Access logical ``row`` ``count`` times in a row, from ``time``.

    Each access arrives when the previous one, and any mitigative work
    it triggered, has finished. An access to an LLC-pinned row costs
    ``tRC`` and activates nothing. Any other access resolves the row
    through the mitigation's indirection, activates the bank, disturbs
    the physical neighbours (when ``disturbance`` is given) and
    notifies the mitigation. Stops before an access arriving at or
    after ``deadline``.

    Fused step: on a closed-page bank with no open row, the next
    ``min(row_headroom(row), batch_slack())`` accesses are free of
    mitigative work, so they are served by :meth:`Bank.access_run` and
    :meth:`DisturbanceModel.on_activation_run` and committed with one
    :meth:`Mitigation.observe_batch`. The span also stops at the
    deadline, at a refresh-window boundary of the bank or of the
    disturbance model, and before an access whose data is ready at or
    after :meth:`Mitigation.batch_quiet_until`. A mitigation whose
    headroom is 0 (the contract's default) takes the per-access step
    throughout; that is the reference the fused step is tested against.

    Returns the time after the last access and the number of demand
    activations issued.
    """
    bank = mitigation.bank
    end = float("inf") if deadline is None else deadline
    t_rc = bank.timing.t_rc
    closed_page = bank.policy is PagePolicy.CLOSED
    period = float("inf") if disturbance is None else disturbance.refresh_window
    issued = 0
    while count and time < end:
        if mitigation.is_pinned(row):
            # Served from the LLC: no activation, and pins only change
            # on the per-access step.
            while count and time < end:
                time += t_rc
                count -= 1
            break
        physical = mitigation.resolve(row)
        if closed_page and bank.open_row is None:
            limit = min(count, mitigation.row_headroom(row), mitigation.batch_slack())
            if limit:
                starts, finish = bank.access_run(
                    time,
                    physical,
                    limit,
                    end,
                    mitigation.batch_quiet_until(),
                    period,
                )
                if starts:
                    if disturbance is not None:
                        disturbance.on_activation_run(physical, starts)
                    mitigation.observe_batch([row] * len(starts))
                    issued += len(starts)
                    count -= len(starts)
                    time = finish
                    continue
        result = bank.access(time, physical)
        if disturbance is not None:
            disturbance.on_activation(physical, result.start)
        issued += 1
        count -= 1
        time = max(result.finish, mitigation.on_activation(result.finish, row))
    return time, issued


def hammer_pattern(
    mitigation: Mitigation,
    disturbance: DisturbanceModel,
    pattern: Iterable[int],
    start: float = 0.0,
    deadline: Optional[float] = None,
) -> HammerOutcome:
    """Hammer ``pattern``'s rows in order through ``mitigation``.

    The pattern is split into runs of one repeated row, each played by
    :func:`play_run`. Stops at ``deadline`` if given, without reading
    the pattern further.
    """
    end = float("inf") if deadline is None else deadline
    time = start
    issued = 0
    for row, run in groupby(pattern):
        while time < end:
            count = len(list(islice(run, _RUN_CHUNK)))
            if not count:
                break
            time, served = play_run(
                mitigation, disturbance, row, count, time, deadline
            )
            issued += served
        if time >= end:
            break
    hottest_row, hottest = disturbance.hottest()
    victim_refreshes = getattr(mitigation, "victim_refreshes", 0)
    return HammerOutcome(
        activations=issued,
        flipped_rows=disturbance.flipped_rows(),
        hottest_row=hottest_row,
        hottest_disturbance=hottest,
        victim_refreshes=victim_refreshes,
        duration_ns=time - start,
    )
