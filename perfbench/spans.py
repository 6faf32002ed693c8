"""Span recorder for the benchmark's traced run, and span arithmetic.

A span is one call into a wrapped function: name, start, end (both
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the coordinator and its forked pool workers), the
span that was open when it started, the process it ran in, and the
run it belongs to.

Pool workers are forked from the coordinator, so they inherit the
recorder and its stack of open spans: a worker's first span gets the
coordinator's open ``pool.run`` span as its parent. Workers exit via
``os._exit`` (``atexit`` never runs), so a worker writes its spans to
``spans-<pid>.jsonl`` each time its top-level call returns. The
coordinator writes its own file when the sample ends.

Only the standard library is used; this module never imports the
program under test. Resource use (CPU time, peak RSS) is taken with
``resource.getrusage`` by the sample around the whole timed window.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One completed call; ``parent`` may live in another process."""

    id: str
    parent: Optional[str]
    pid: int
    run: str
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory and writes them per process.

    Args:
        run_id: Identifier every span of this run carries.
        out_dir: Directory receiving ``spans-<pid>.jsonl`` files.
    """

    def __init__(self, run_id: str, out_dir: str):
        self.run_id = run_id
        self.out_dir = out_dir
        self.coordinator = os.getpid()
        self.pid = self.coordinator
        self.stack: List[str] = []
        self.spans: List[Span] = []
        self.own_depth = 0
        self.counter = 0

    def _check_fork(self) -> None:
        """After a fork, drop the parent's finished spans but keep its
        open ones on the stack: they are the child's cross-process
        parents."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.own_depth = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``attrs(args, kwargs, result)`` adds counters to the span when
        the call returns normally.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._check_fork()
            self.counter += 1
            span_id = f"{self.pid}.{self.counter}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            self.own_depth += 1
            start = time.perf_counter()
            extra: Dict[str, Any] = {}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, kwargs, result)
                return result
            except BaseException:
                extra = {"error": 1}
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.own_depth -= 1
                self.spans.append(Span(
                    span_id, parent, self.pid, self.run_id, name, start, end,
                    extra,
                ))
                if self.own_depth == 0 and self.pid != self.coordinator:
                    self.flush()

        return wrapper

    def flush(self) -> None:
        """Append this process's finished spans to its file."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(
                json.dumps(dataclasses.asdict(span)) + "\n" for span in self.spans))
        self.spans = []


def load_spans(out_dir: str) -> List[Span]:
    """Every span written under ``out_dir``."""
    spans: List[Span] = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                spans.extend(Span(**json.loads(line)) for line in handle)
    return spans


# ----------------------------------------------------------------------
# arithmetic


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part covered by its children.

    Only children in the span's own process count: a worker's chunk is
    a child of the coordinator's ``pool.run``, but it runs in parallel
    with it, so it does not shorten the coordinator's time.
    """
    children: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[str, float] = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.pid == span.pid
        )
        out[span.id] = max(0.0, span.duration - covered)
    return out


def outer_spans(spans: Sequence[Span], names: Iterable[str]) -> List[Span]:
    """Spans named in ``names`` with no ancestor also named in ``names``
    (so nested calls of one layer are not counted twice)."""
    names = set(names)
    by_id = {span.id: span for span in spans}
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent) if parent.parent else None
        if parent is None:
            out.append(span)
    return out


def unattributed(
    spans: Sequence[Span], pid: int, window: Tuple[float, float]
) -> float:
    """Coordinator time in ``window`` covered by no top-level span of
    process ``pid``: the wall clock minus the layers' self times."""
    start, end = window
    covered = union_length(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.pid == pid and span.parent is None
    )
    return max(0.0, (end - start) - covered)
