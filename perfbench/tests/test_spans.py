"""Span arithmetic on synthetic trees, and the recorder across a fork.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

from spans import (  # noqa: E402
    Recorder, Span, load_spans, outer_spans, self_times, union_length,
    unattributed,
)


def span(id, parent, name, start, end, pid=1):
    return Span(id, parent, pid, "run", name, start, end)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("a", None, "experiment.run_grid", 0.0, 10.0),
        span("b", "a", "store.get", 1.0, 3.0),
        span("c", "a", "pool.run", 4.0, 9.0),
        span("d", "c", "store.put_many", 5.0, 6.0),
        span("e", "d", "store.put", 5.2, 5.6),
    ]
    selfs = self_times(spans)
    assert selfs["a"] == pytest.approx(10 - 2 - 5)
    assert selfs["c"] == pytest.approx(5 - 1)
    assert selfs["d"] == pytest.approx(1 - 0.4)
    assert selfs["e"] == pytest.approx(0.4)
    # Self times partition the root's interval.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_children_on_workers_do_not_shorten_coordinator_span():
    spans = [
        span("r", None, "pool.run", 0.0, 4.0, pid=1),
        span("w1", "r", "pool.chunk", 0.5, 3.5, pid=2),
        span("w1c", "w1", "pool.cell", 1.0, 3.0, pid=2),
        span("w2", "r", "pool.chunk", 0.5, 3.9, pid=3),
        span("p", "r", "store.put_many", 3.6, 3.8, pid=1),
    ]
    selfs = self_times(spans)
    assert selfs["r"] == pytest.approx(4.0 - 0.2)
    assert selfs["w1"] == pytest.approx(1.0)
    assert selfs["w2"] == pytest.approx(3.4)
    # Busy time sums the outermost worker spans across workers.
    busy = outer_spans(spans, {"pool.chunk", "pool.cell"})
    assert sorted(s.id for s in busy) == ["w1", "w2"]
    assert sum(s.duration for s in busy) == pytest.approx(3.0 + 3.4)


def test_outer_spans_skip_nested_calls_of_one_layer():
    spans = [
        span("m", None, "store.put_many", 0.0, 1.0),
        span("p1", "m", "store.put", 0.1, 0.2),
        span("p2", None, "store.put", 2.0, 2.5),
    ]
    outer = outer_spans(spans, {"store.put", "store.put_many"})
    assert sorted(s.id for s in outer) == ["m", "p2"]


def test_unattributed_is_wall_minus_top_level_coordinator_spans():
    spans = [
        span("a", None, "report.build", 1.0, 2.0),
        span("b", None, "report.resolve", 2.0, 6.0),
        span("c", "b", "experiment.run_grid", 2.5, 5.0),
        span("w", "b", "pool.chunk", 0.0, 10.0, pid=2),
    ]
    assert unattributed(spans, 1, (0.0, 8.0)) == pytest.approx(8.0 - 5.0)


def _child(fn):
    fn(3)
    os._exit(0)  # what a pool worker does: no atexit, no flush at exit


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_flushes_spans_with_parent_link(tmp_path):
    recorder = Recorder("run-1", str(tmp_path))
    inner = recorder.wrap("pool.cell", lambda x: x + 1)
    chunk = recorder.wrap("pool.chunk", lambda x: inner(x))
    outer = recorder.wrap("pool.run", lambda: _fork_and_wait(chunk))
    outer()
    recorder.flush()
    spans = load_spans(str(tmp_path))
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"pool.run", "pool.chunk", "pool.cell"}
    run, chunk_span, cell = by_name["pool.run"], by_name["pool.chunk"], by_name["pool.cell"]
    assert chunk_span.pid != run.pid
    assert chunk_span.parent == run.id
    assert cell.parent == chunk_span.id
    assert {s.run for s in spans} == {"run-1"}


def _fork_and_wait(chunk):
    process = multiprocessing.get_context("fork").Process(
        target=_child, args=(chunk,))
    process.start()
    process.join(timeout=30)
    assert not process.is_alive()
    assert process.exitcode == 0


def test_failed_call_still_records_span(tmp_path):
    recorder = Recorder("run-2", str(tmp_path))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("store.get", boom)()
    assert [s.attrs for s in recorder.spans] == [{"error": 1}]
    assert recorder.stack == []
