"""Benchmark of actriv: one workload per process.

    python3 bench/run.py --workload learn --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 30

The workload is set up ``setup_repeats`` times, then its measured unit is
repeated until ``--seconds`` are spent.  The inputs come from the input
seed ``--seed`` modulo ``REFERENCE_SEEDS``.  Outputs are checked against
the reference digests of that input seed in ``reference.json`` and by
independent replays.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from a traced repeat of the
measured phase.  ``--workload all`` runs every workload in a process of
its own and prints one line per workload.

The program comes from ``src/`` next to this directory; the benchmark
fails, without printing a result, when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = os.path.join(ROOT, ".bench_work")
NAMES = ("learn", "catalog", "ak3-multi")
# reference.json holds digests for input seeds 0 .. REFERENCE_SEEDS - 1;
# a workload seed is taken modulo this, so every run has a reference
REFERENCE_SEEDS = 40
CHILD_TIMEOUT_S = 900

# The other modules of bench/ import actriv, so they are imported inside
# the functions that need them, after import_library() has run.


def import_library():
    """Import actriv from ``src/`` of this checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "actriv", "__init__.py")):
        raise SystemExit(f"bench: no actriv sources under {SRC}")
    sys.path.insert(0, SRC)
    import actriv

    if os.path.dirname(os.path.dirname(os.path.abspath(actriv.__file__))) != SRC:
        raise SystemExit(f"bench: actriv imported from {actriv.__file__}, not {SRC}")


def measure(run_unit, seconds: float) -> list:
    """Repeat the unit, at least once, while another typical unit still
    fits in ``seconds``."""
    from workloads import median

    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit())
        elapsed = time.perf_counter() - start
        if elapsed + median([u.seconds for u in units]) > seconds:
            return units


def safe_unit(workload, prepared, seed: int, workers: int):
    from workloads import Unit

    t0 = time.perf_counter()
    try:
        return workload.unit(prepared, seed, workers)
    except Exception:
        traceback.print_exc()
        return Unit(time.perf_counter() - t0, 0, {})


def load_reference(workload) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        entry = json.load(fh)[workload.name]
    if entry["config"] != workload.cfg.fingerprint():
        raise SystemExit(
            f"bench: reference.json was made for another {workload.name} "
            "configuration; run bench/make_reference.py"
        )
    return entry


def failed_ops(unit, expected: dict, ops_per_unit: int) -> int:
    """Operations of one unit that raised, failed a check, or whose output
    digest differs from the expected one."""
    if not unit.digests:
        return ops_per_unit
    bad = set(unit.failed)
    for op in expected.keys() | unit.digests.keys():
        if unit.digests.get(op) != expected.get(op):
            bad.add(op)
    return min(len(bad), ops_per_unit)


def gate(workload, prepared, seed: int, unit_lists, reference: dict) -> tuple[int, int]:
    """(attempted, failed) over every unit of every phase."""
    from workloads import ball_digest

    units = [u for units in unit_lists for u in units]
    per_unit = workload.ops_per_unit()
    attempted = per_unit * len(units)
    known = reference["seeds"].get(str(seed))
    if known is None:
        print(f"bench: no reference digests for input seed {seed}", file=sys.stderr)
        return attempted, attempted
    if (
        ball_digest(prepared.ball) != reference["ball"]
        or workload.setup_digest(prepared) != known["setup"]
    ):
        print("bench: set-up output differs from the reference", file=sys.stderr)
        return attempted, attempted
    failed = 0
    for unit in units:
        if unit.digests:
            workload.check(prepared, unit)
        failed += failed_ops(unit, known["ops"], per_unit)
    return attempted, failed


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(setup_times, units) -> dict:
    from workloads import median

    return {
        "setup_s": (median(setup_times), "s"),
        "run_s": (median([u.seconds for u in units]), "s"),
        "candidates_per_s": (
            median([u.candidates / u.seconds for u in units if u.seconds > 0]),
            "1/s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_record(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.seed % REFERENCE_SEEDS,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def execute(workload, reference: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; the result object."""
    from layers import layer_metrics
    from tracing import Tracer

    cfg = workload.cfg
    setup_tracer = Tracer()
    setup_times = []
    prepared = None
    for _ in range(cfg.setup_repeats):
        prepared = None
        gc.collect()
        with setup_tracer.installed(coarse_only=True) if trace else nullcontext():
            t0 = time.perf_counter()
            prepared = workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)

    def run(workers):
        return lambda: safe_unit(workload, prepared, seed, workers)

    # the phases of a traced run share --seconds: untraced, untraced at one
    # worker when the workload uses more, and traced
    if trace:
        seconds /= 2 if cfg.workers == 1 else 3
    units = measure(run(cfg.workers), seconds)
    phases = [units]
    if trace:
        # spans stay in one process: trace at one worker, and take the
        # tracing overhead against an untraced phase at one worker
        baseline = units if cfg.workers == 1 else measure(run(1), seconds)
        tracer = Tracer(ball=prepared.ball)

        def traced():
            with tracer.installed():
                return safe_unit(workload, prepared, seed, 1)

        traced_units = measure(traced, seconds)
        phases += [traced_units] if baseline is units else [baseline, traced_units]
    attempted, failed = gate(workload, prepared, seed, phases, reference)
    if trace:
        metrics = layer_metrics(
            workload, prepared, setup_tracer, tracer, units, baseline, traced_units
        )
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    else:
        metrics = end_to_end(setup_times, units)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_workload(args) -> int:
    import_library()
    from workloads import CONFIGS, WORKLOADS

    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](CONFIGS[args.workload], workdir)
        reference = load_reference(workload)
        seed = args.seed % REFERENCE_SEEDS
        result = execute(workload, reference, seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    print("run-record " + json.dumps(run_record(args), sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one line per workload."""
    status = 0
    for name in NAMES:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name}: {lines[-1]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
