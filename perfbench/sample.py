"""One sample of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample (as a CLI invocation
would start), passing the CLOCK_MONOTONIC instant at which it spawned
the process. Modes:

- ``setup``: import the program, populate its registries, report
  ``setup_s`` and exit;
- ``sample``: the above, then one timed run of the workload (traced
  when ``--trace 1``);
- ``reference``: the untimed serial oracle for a seed;
- ``fill``: one untimed run whose store the resume workload reads.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _store_sizes(path: str):
    """(allocated MB, data MB) of every file under ``path``."""
    allocated = data = 0
    for root, _, files in os.walk(path):
        for name in files:
            stat = os.stat(os.path.join(root, name))
            allocated += stat.st_blocks * 512
            data += stat.st_size
    return allocated / 2**20, data / 2**20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("setup", "sample", "reference", "fill"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--reference", default="",
                        help="reference.json, for the seed-independent figures")
    args = parser.parse_args()

    # -- set-up: what every CLI invocation pays ------------------------
    import repro.cli  # noqa: F401
    import repro.report
    import repro.sim
    from repro.registry import (
        EVALUATIONS, FIGURES, MITIGATIONS, TRACKERS, WORKLOAD_SOURCES,
    )

    for registry in (MITIGATIONS, TRACKERS, WORKLOAD_SOURCES, EVALUATIONS, FIGURES):
        len(registry)
    setup_s = time.monotonic() - args.spawned

    import workloads

    out = {"setup_s": setup_s}
    if args.mode == "setup":
        import numpy

        out["numpy"] = numpy.__version__
    elif args.mode == "reference":
        committed = None
        if args.reference and args.workload == "paper-report":
            with open(args.reference, encoding="utf-8") as handle:
                committed = json.load(handle).get("paper-report")
        out["reference"] = workloads.reference(
            args.workload, args.seed, args.work, committed)
    elif args.mode == "fill":
        raw = workloads.run_workload("sweep-cold", args.seed, args.store, args.work)
        out.update(workloads.digest("sweep-cold", raw, args.work))
    else:
        recorder = None
        if args.trace:
            import layers
            from spans import Recorder

            recorder = Recorder(f"{args.workload}-{args.seed}", args.work)
            layers.install(recorder)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        raw = workloads.run_workload(args.workload, args.seed, args.store, args.work)
        end = time.perf_counter()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if recorder is not None:
            recorder.flush()
        cpu = sum(
            (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            for before, after in ((self0, self1), (child0, child1))
        )
        out.update(
            wall_s=end - start,
            window=[start, end],
            pid=os.getpid(),
            cpu_s=cpu,
            rss_coord_mb=self1.ru_maxrss / 1024,
            rss_worker_mb=child1.ru_maxrss / 1024,
        )
        if os.path.isdir(args.store):
            out["store_mb"], out["store_data_mb"] = _store_sizes(args.store)
        out.update(workloads.digest(args.workload, raw, args.work))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
