"""Differential tests for the hammer harness's fused run step.

The reference is the same harness driven through a mitigation whose
``row_headroom`` is 0, the quiescence contract's default: every access
then takes the per-access step. Each case plays the same sessions on a
fused rig and on a reference rig and requires equal
:class:`HammerOutcome` values and equal end states, down to float bits:
bank, activation stats, disturbance levels and flips, tracker,
mitigation and RNG state.
"""

import enum
import itertools
import random
from collections import OrderedDict, deque

import numpy as np
import pytest

from repro.attacks.harness import hammer_pattern
from repro.attacks.patterns import double_sided, half_double, many_sided, single_sided
from repro.core.blockhammer import BlockHammerThrottle
from repro.core.mitigation import BaselineMitigation
from repro.core.rrs import RandomizedRowSwap
from repro.core.scale_srs import ScaleSecureRowSwap
from repro.core.srs import SecureRowSwap
from repro.core.vfm import PARA, TargetedRowRefresh
from repro.dram.bank import Bank
from repro.dram.commands import PagePolicy
from repro.dram.config import DRAMTiming
from repro.dram.disturbance import DisturbanceModel
from repro.report.figures.motivation import HALF_DOUBLE_HAMMERS, _half_double_rig
from repro.trackers.base import ExactTracker
from repro.trackers.hydra import HydraConfig, HydraTracker
from repro.trackers.misra_gries import MisraGriesTracker

ROWS = 128
TS = 40
TRH = 40
FACTORS = (1.0, 0.05)
SHORT_WINDOW = 20_000.0  # about 430 ACTs

MITIGATIONS = (
    "trr",
    "trr-radius2",
    "trr-misra-gries",
    "para",
    "rrs",
    "rrs-hydra",
    "srs",
    "scale-srs",
    "baseline",
    "blockhammer",
)

#: name -> (bank window, disturbance window, page policy, deadlines)
CONDITIONS = {
    "long-window": (1e12, 1e12, PagePolicy.CLOSED, False),
    # Disturbance windows shorter than, and misaligned with, the bank's:
    # fused spans stop at both kinds of boundary.
    "short-windows": (SHORT_WINDOW, SHORT_WINDOW * 0.37, PagePolicy.CLOSED, False),
    "deadlines": (SHORT_WINDOW, SHORT_WINDOW, PagePolicy.CLOSED, True),
    "open-page": (1e12, 1e12, PagePolicy.OPEN, False),
}

PATTERNS = ("single-sided", "double-sided", "many-sided", "half-double", "random-runs")


def build(name, seed, condition):
    bank_window, dist_window, policy, _ = CONDITIONS[condition]
    bank = Bank(ROWS, DRAMTiming(refresh_window=bank_window), policy=policy)
    disturbance = DisturbanceModel(
        ROWS, TRH, refresh_window=dist_window, distance_factors=FACTORS
    )
    rng = random.Random(seed)
    if name == "trr":
        engine = TargetedRowRefresh(bank, disturbance, ExactTracker(TS))
    elif name == "trr-radius2":
        engine = TargetedRowRefresh(
            bank, disturbance, ExactTracker(TS), protected_radius=2
        )
    elif name == "trr-misra-gries":
        engine = TargetedRowRefresh(bank, disturbance, MisraGriesTracker(TS, 6))
    elif name == "para":
        engine = PARA(bank, disturbance, trh=TRH, probability=0.02, rng=rng)
    elif name == "rrs":
        engine = RandomizedRowSwap(bank, ExactTracker(TS), rng)
    elif name == "rrs-hydra":
        hydra = HydraTracker(
            TS, HydraConfig(rows_per_group=8, rcc_entries=4, group_threshold_floor=4)
        )
        engine = RandomizedRowSwap(bank, hydra, rng)
    elif name == "srs":
        engine = SecureRowSwap(bank, ExactTracker(TS), rng)
    elif name == "scale-srs":
        engine = ScaleSecureRowSwap(bank, ExactTracker(TS), rng)
    elif name == "baseline":
        engine = BaselineMitigation(bank, ExactTracker(TS))
    elif name == "blockhammer":
        engine = BlockHammerThrottle(bank, trh=TRH)
    else:
        raise ValueError(name)
    return engine, disturbance


def make_pattern(kind, rng, length):
    """One pattern of ``length`` accesses, its shape drawn from ``rng``."""
    base = rng.randrange(8, ROWS - 16)
    if kind == "single-sided":
        return list(single_sided(base, (base + 200) % ROWS, length))
    if kind == "double-sided":
        return list(double_sided(base, length))
    if kind == "many-sided":
        return list(many_sided([base, base + 5, base + 9], length))
    if kind == "half-double":
        return list(half_double(base, length, near_touch_period=rng.randrange(20, 400)))
    rows = []
    while len(rows) < length:
        rows += [rng.randrange(ROWS)] * rng.choice((1, 2, 7, 60, 300))
    return rows[:length]


def sessions(seed, condition):
    """Session plans: (pattern, deadline offset or None), same for both rigs."""
    rng = random.Random(seed)
    plans = []
    for _ in range(2):
        for kind in PATTERNS:
            deadline = None
            if CONDITIONS[condition][3]:
                deadline = rng.uniform(5_000.0, 30_000.0)
            plans.append((make_pattern(kind, rng, rng.randrange(200, 700)), deadline))
    return plans


def play(engine, disturbance, plans, close_windows=True):
    """Play every session, each from where the last one left off.

    With ``close_windows``, sessions on a short-window bank stop at the
    bank's next window boundary and the mitigation's window is closed
    after each session, as the memory controller closes it at every
    boundary (SRS schedules its place-backs from there). Long-window
    sessions share one window, so Scale-SRS location counts build up to
    pins.
    """
    window = engine.bank.timing.refresh_window
    close_windows = close_windows and window < 1e12
    time = 0.0
    outcomes = []
    for pattern, deadline in plans:
        end = float("inf") if deadline is None else time + deadline
        if close_windows:
            end = min(end, (time // window + 1) * window)
        outcome = hammer_pattern(
            engine,
            disturbance,
            iter(pattern),
            start=time,
            deadline=None if end == float("inf") else end,
        )
        outcomes.append(outcome)
        time += outcome.duration_ns
        if close_windows:
            time = max(time, end)
            engine.end_window(time)
    return outcomes


def state(obj, seen=None):
    """Comparable deep state of ``obj``, skipping callables.

    Dict equality ignores order except for the disturbance levels
    (``hottest`` breaks ties by insertion order) and ``OrderedDict``s
    (Hydra's LRU), which are compared as ordered item lists.
    """
    if seen is None:
        seen = set()
    if obj is None or isinstance(obj, (bool, int, float, str, enum.Enum)):
        return obj
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, OrderedDict):
        return [(key, state(value, seen)) for key, value in obj.items()]
    if isinstance(obj, dict):
        return {key: state(value, seen) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, deque)):
        return [state(item, seen) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if callable(obj):
        return None
    if id(obj) in seen:
        return ("<seen>", type(obj).__name__)
    seen.add(id(obj))
    fields = dict(getattr(obj, "__dict__", {}))
    for slot in getattr(type(obj), "__slots__", ()):
        if hasattr(obj, slot):
            fields[slot] = getattr(obj, slot)
    out = {
        key: state(value, seen)
        for key, value in fields.items()
        if not callable(value)
    }
    if isinstance(obj, DisturbanceModel):
        out["_order"] = list(obj._disturbance.items())
    return (type(obj).__name__, out)


def count_calls(obj, name):
    """Count calls of ``obj.name`` (the shadowing wrapper is a callable,
    so :func:`state` skips it)."""
    calls = [0]
    method = getattr(obj, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return method(*args, **kwargs)

    setattr(obj, name, wrapper)
    return calls


def zero_headroom(engine):
    """Turn ``engine`` into the per-access reference."""
    engine.row_headroom = lambda row: 0


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("name", MITIGATIONS)
def test_fused_harness_matches_per_access_reference(name, condition):
    seed = MITIGATIONS.index(name) * 101 + sorted(CONDITIONS).index(condition)
    plans = sessions(seed, condition)
    engine, disturbance = build(name, seed, condition)
    fused_runs = count_calls(engine.bank, "access_run")
    reference, ref_disturbance = build(name, seed, condition)
    zero_headroom(reference)
    reference_runs = count_calls(reference.bank, "access_run")

    outcomes = play(engine, disturbance, plans)
    expected = play(reference, ref_disturbance, plans)

    assert outcomes == expected
    assert state(disturbance) == state(ref_disturbance)
    assert state(engine) == state(reference)
    assert reference_runs[0] == 0
    if name == "blockhammer" or condition == "open-page":
        # No headroom (BlockHammer) or an open row after every access:
        # the fused step never runs.
        assert fused_runs[0] == 0
    else:
        assert fused_runs[0] > 0, "the fused step never ran"


@pytest.mark.parametrize("name", ["trr", "trr-radius2", "para", "baseline"])
def test_fused_spans_cross_bank_windows(name):
    """Long sessions over many short bank windows, never closed: fused
    spans stop at bank and disturbance boundaries alike. (Designs with
    place-backs or per-window RIT provisioning need ``end_window`` at
    every boundary, so they are covered by the aligned sessions above.)"""
    rng = random.Random(5)
    plans = [(make_pattern(kind, rng, 3000), None) for kind in PATTERNS]
    engine, disturbance = build(name, 5, "short-windows")
    reference, ref_disturbance = build(name, 5, "short-windows")
    zero_headroom(reference)
    outcomes = play(engine, disturbance, plans, close_windows=False)
    assert outcomes == play(reference, ref_disturbance, plans, close_windows=False)
    assert engine.bank.stats.windows_closed > 10
    assert state(disturbance) == state(ref_disturbance)
    assert state(engine) == state(reference)


def test_unbounded_run_stops_at_deadline():
    """A pattern may repeat one row forever: the harness reads it in
    chunks and stops at the deadline, as the per-access step does."""
    engine, disturbance = build("trr", 3, "long-window")
    reference, ref_disturbance = build("trr", 3, "long-window")
    zero_headroom(reference)
    outcome = hammer_pattern(engine, disturbance, itertools.repeat(50), deadline=3e5)
    expected = hammer_pattern(
        reference, ref_disturbance, itertools.repeat(50), deadline=3e5
    )
    assert outcome == expected
    assert outcome.activations > 4096
    assert state(engine) == state(reference)


def test_cases_exercise_mitigative_work():
    """The cases reach every path a fused span must stop at."""
    runs = {}
    for condition in ("long-window", "deadlines"):
        for name in ("trr", "para", "srs", "scale-srs"):
            engine, disturbance = build(name, 7, condition)
            play(engine, disturbance, sessions(7, condition))
            runs[condition, name] = (engine, disturbance)
    for name in ("trr", "para"):
        engine, disturbance = runs["long-window", name]
        assert engine.victim_refreshes > 0
        assert disturbance.flips
    assert runs["deadlines", "srs"][0].stats.place_backs > 0
    assert runs["long-window", "scale-srs"][0].stats.pins > 0


@pytest.mark.parametrize("name", ["trr", "para", "scale-srs"])
def test_half_double_runs_stay_fused(name):
    """``motiv-half-double``'s runs. A silent fall-back to the per-access
    step would still match the reference, so bound how often it is taken."""
    engine, disturbance = _half_double_rig(name)
    per_access = count_calls(engine.bank, "access")
    outcome = hammer_pattern(
        engine, disturbance, half_double(100, HALF_DOUBLE_HAMMERS)
    )
    assert outcome.activations > 0
    assert per_access[0] <= 0.05 * outcome.activations, (
        f"{per_access[0]} of {outcome.activations} activations per-access"
    )


def test_para_buffered_draws_match_on_demand_draws():
    """Every activation sees the draw it would see drawing on demand."""
    bank = Bank(ROWS, DRAMTiming(refresh_window=1e12))
    disturbance = DisturbanceModel(ROWS, 10**9, refresh_window=1e12)
    engine = PARA(bank, disturbance, trh=TRH, probability=0.03, rng=random.Random(11))
    reference = random.Random(11)
    time = 0.0
    for step in range(3 * PARA.DRAW_BUFFER):
        before = engine.victim_refreshes
        result = bank.access(time, 7)
        time = max(result.finish, engine.on_activation(result.finish, 7))
        assert (engine.victim_refreshes > before) == (
            reference.random() < engine.probability
        ), step


def test_para_observe_batch_rejects_refreshing_draws():
    bank = Bank(ROWS, DRAMTiming(refresh_window=1e12))
    disturbance = DisturbanceModel(ROWS, TRH, refresh_window=1e12)
    engine = PARA(bank, disturbance, trh=TRH, probability=0.5, rng=random.Random(3))
    quiet = engine.row_headroom(7)
    assert engine.batch_slack() == quiet
    with pytest.raises(ValueError):
        engine.observe_batch([7] * (quiet + 1))
