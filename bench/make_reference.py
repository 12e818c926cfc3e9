"""Write the reference digests that bench/run.py checks outputs against.

    python3 bench/make_reference.py --workload catalog

Run it on the commit whose outputs are the reference, and again after a
change to ``CONFIGS`` (the runner refuses a reference made for another
configuration).  It writes input seeds 0 to ``run.REFERENCE_SEEDS - 1``
of the chosen workloads and keeps the entries of the others.  The
ball is built once per workload: it does not depend on the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def reference_entry(workload, seeds) -> dict:
    """Digests of the ball and, per seed, of the set-up and every
    operation; raises when an independent check fails."""
    from workloads import ball_digest

    entry = {"config": workload.cfg.fingerprint(), "seeds": {}}
    ball, size = workload.make_ball()
    entry["ball"] = ball_digest(ball)
    for seed in seeds:
        prepared = workload.prepare(ball, size, seed)
        unit = workload.unit(prepared, seed, workload.cfg.workers)
        workload.check(prepared, unit)
        if unit.failed:
            raise SystemExit(f"{workload.name} seed {seed}: checks failed: {unit.failed}")
        entry["seeds"][str(seed)] = {
            "setup": workload.setup_digest(prepared),
            "ops": unit.digests,
        }
        print(f"{workload.name} seed {seed}: {len(unit.digests)} operations", flush=True)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.NAMES + ("all",), default="all")
    args = parser.parse_args(argv)
    run.import_library()
    from workloads import CONFIGS, WORKLOADS

    reference = {}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    names = run.NAMES if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for name in names:
            workload = WORKLOADS[name](CONFIGS[name], workdir)
            reference[name] = reference_entry(workload, range(run.REFERENCE_SEEDS))
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
