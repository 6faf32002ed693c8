"""The repository's benchmark: one workload, timed end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload perf-grid --seed 3 --seconds 20 --trace 0

Load model: a closed loop. One sample at a time, each in a fresh
interpreter started the way a CLI invocation starts (``sample.py``);
the next sample starts when the previous one has returned. The program
runs with its default executor. With ``--trace 0`` the samples are
timed for ``--seconds`` and the last stdout line is a JSON object with
the end-to-end metrics (medians). With ``--trace 1`` the same untimed
loop runs, then one traced sample, and the JSON carries the per-layer
metrics. Every sample passes the correctness gate (``gate.py``).

``--workload all`` runs every workload in turn. ``--make-reference``
recomputes ``reference.json`` (the oracle's digests at the default
seed) from the serial scalar path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only interpreter launches per run (after one warm-up launch).
SETUP_PROBES = 5
#: Hard limit for one child interpreter.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("rss_coord_mb", "MB"))


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or timed out."""


def child_env(work: Path) -> Dict[str, str]:
    """The environment of every child: no ``REPRO_*`` knob from the
    caller (CI sets engine and plane switches), the trace cache in the
    run's scratch directory, and the checkout's ``src`` as the only
    extra import path."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_TRACE_CACHE"] = str(work / "trace-cache")
    return env


def launch(mode: str, workload: str, seed: int, work: Path, store: Path,
           env: Dict[str, str], trace: int = 0) -> Dict[str, Any]:
    """Run ``sample.py`` in a fresh interpreter and return its record.

    The child gets its own process group, so a timeout kills the pool
    workers it forked as well.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{mode}.json"
    argv = [
        sys.executable, str(BENCH / "sample.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--work", str(work),
        "--store", str(store), "--out", str(out), "--trace", str(trace),
        "--reference", str(REFERENCE) if REFERENCE.exists() else "",
        "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        try:  # reap anything of the group that outlived the child
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise ChildFailed(f"{mode} {workload} seed {seed}: exit {proc.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def fs_type(path: Path) -> str:
    try:
        return subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def code_digest() -> str:
    """Digest of the program and the workload definitions, keying the
    cached references."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [BENCH / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_reference(workload: str, seed: int, work: Path,
                   env: Dict[str, str]) -> Dict[str, Any]:
    """The oracle's digests: committed for the default seed, else
    computed once by an untimed serial run and cached in the checkout."""
    group = workloads.reference_group(workload)
    if REFERENCE.exists():
        committed = json.loads(REFERENCE.read_text())
        if committed["seed"] == seed and group in committed:
            return committed[group]
    cache = WORK_ROOT / "refs" / f"{group}-{seed}-{code_digest()}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    record = launch("reference", workload, seed, work / "reference",
                    work / "reference" / "store", env)
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(json.dumps(record["reference"]))
    return record["reference"]


def make_reference() -> int:
    """Recompute ``reference.json`` at the default seed, every figure
    through the serial oracle."""
    seed = workloads.DEFAULT_SEED
    work = WORK_ROOT / f"make-reference-{os.getpid()}"
    env = child_env(work)
    out: Dict[str, Any] = {"seed": seed}
    try:
        if REFERENCE.exists():
            REFERENCE.unlink()
        for workload in ("sweep-cold", "perf-grid", "paper-report"):
            group = workloads.reference_group(workload)
            out[group] = launch("reference", workload, seed, work / group,
                                work / group / "store", env)["reference"]
            print(f"reference {group}: {out[group]['cells']} cells")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def measure(workload: str, seed: int, seconds: float, trace: int) -> Optional[Dict[str, Any]]:
    """One benchmark run; returns the result object (None when no
    sample completed)."""
    work = WORK_ROOT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(work)
    try:
        return _measure(workload, seed, seconds, trace, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, work, env):
    # Set-up time: a warm-up launch fills the bytecode cache, then probes.
    probe = launch("setup", workload, seed, work / "probe", work / "probe", env)
    fs = fs_type(work)
    if fs == "tmpfs":
        print("perfbench: warning: stores are on tmpfs", file=sys.stderr)
    setups = [launch("setup", workload, seed, work / "probe", work / "probe",
                     env)["setup_s"] for _ in range(SETUP_PROBES)]
    reference = load_reference(workload, seed, work, env)
    shared_store = None
    if workload == "sweep-resume":
        shared_store = work / "resume-store"
        filled = launch("fill", workload, seed, work / "fill", shared_store, env)
        problems = gate.check_sample("sweep-cold", filled, reference)
        if problems:
            raise ChildFailed(f"resume set-up run failed the gate: {problems}")
        os.sync()

    attempted = failed = 0
    samples: List[Dict[str, Any]] = []

    def one_sample(index: int, traced: int) -> Optional[Dict[str, Any]]:
        nonlocal attempted, failed
        sample_dir = work / f"sample-{index}"
        store = shared_store or sample_dir / "store"
        try:
            record = launch("sample", workload, seed, sample_dir, store, env,
                            trace=traced)
        except ChildFailed as error:
            print(f"perfbench: sample {index} crashed: {error}", file=sys.stderr)
            attempted += reference["cells"]
            failed += reference["cells"]
            return None
        attempted += record["planned"]
        problems = gate.check_sample(workload, record, reference)
        if problems:
            failed += record["planned"]
            for problem in problems:
                print(f"perfbench: sample {index}: {problem}", file=sys.stderr)
        if traced:
            record["spans"] = spans.load_spans(str(sample_dir))
        shutil.rmtree(sample_dir, ignore_errors=True)
        os.sync()  # no write-back of this sample's store overlaps the next
        return record

    begin = time.monotonic()
    while True:
        started = time.monotonic()
        record = one_sample(len(samples), 0)
        if record is not None:
            samples.append(record)
            setups.append(record["setup_s"])
        now = time.monotonic()
        if now - begin + (now - started) > seconds:
            break
    if not samples:
        return None
    e2e = {name: statistics.median(s[name] for s in samples) for name, _ in END_TO_END}
    e2e["setup_s"] = statistics.median(setups)
    cells = samples[0]["planned"]
    host = {
        "workload": workload, "seed": seed, "samples": len(samples),
        "setup_probes": len(setups), "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": probe["numpy"],
        "fs": fs,
    }
    print("host: " + json.dumps(host))
    print("  wall_s per sample: " + " ".join(f"{s['wall_s']:.4f}" for s in samples))
    for name, unit in END_TO_END:
        print(f"  {name:<28} {e2e[name]:12.4f} {unit:<6} (median of "
              f"{len(setups) if name == 'setup_s' else len(samples)})")
    print(f"  {'cells/s':<28} {cells / e2e['wall_s']:12.1f} 1/s    "
          f"({cells} cells per sample)")
    if "store_mb" in samples[0]:
        print(f"  {'store_mb':<28} {samples[0]['store_mb']:12.2f} MB     "
              f"({samples[0]['store_data_mb']:.2f} MB of data)")
    print(f"  {'rss_worker_mb':<28} "
          f"{statistics.median(s['rss_worker_mb'] for s in samples):12.1f} MB")

    if trace:
        traced = one_sample(len(samples), 1)
        if traced is None:
            return None
        per_layer = layers.derive(traced["spans"], traced["pid"],
                                  tuple(traced["window"]), traced, e2e["wall_s"])
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.METRICS}
        for name, unit in layers.METRICS:
            print(f"  {name:<28} {per_layer[name]:14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(f"  {'failed_frac':<28} {failed / attempted:12.4f} ratio  "
          f"({failed} of {attempted} cells)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = measure(name, args.seed, args.seconds, args.trace)
        except ChildFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        if result is None:
            print(f"perfbench: {name}: no sample completed", file=sys.stderr)
            return 1
        print(json.dumps(result))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
