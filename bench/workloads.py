"""The three benchmark workloads.

Each workload has a set-up step, which prepares the inputs a user would
have on disk before the job, and a measured unit of work, which the
runner repeats until its time is up.  A unit returns, besides its time,
the number of GA candidates it evaluated and one digest per operation,
so the runner can compare outputs with the stored reference and with
the other repeats.

Only the generated inputs reach the library: the workload seed picks the
training cases and the GA master seeds, nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from actriv import ball as ball_mod
from actriv import catalog as catalog_mod
from actriv import ensemble as ensemble_mod
from actriv import metrics as metrics_mod
from actriv import notation
from actriv import presentations as pres_mod
from actriv import proof as proof_mod
from actriv import solver as solver_mod


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# the same for every workload: training cases, metric GA population and
# objectives kept by trim_objectives
CASES = 60
LEARN_POPULATION = 100
OBJECTIVES = 5


@dataclass(frozen=True)
class Config:
    """Sizes of one workload; the defaults are in ``CONFIGS``."""

    ball: tuple[int, int, int]  # rank, max total length, max depth
    # metric learning: restarts and generations of each run
    learn_runs: int = 2
    learn_generations: int = 20
    # online search
    population: int = 200
    restarts: int = 1
    generations: int = 10
    workers: int = 1
    save_ball: bool = True
    setup_repeats: int = 3

    def fingerprint(self) -> str:
        return sha(repr(self))[:16]


@dataclass
class Prepared:
    """What the set-up step hands to the measured phase."""

    ball: ball_mod.Ball
    training: ball_mod.TrainingSet
    model: object = None
    metric_set: metrics_mod.MetricSet | None = None
    ball_file_bytes: int = 0


@dataclass
class Unit:
    """Outcome of one measured unit of work."""

    seconds: float
    candidates: int
    # operation id -> digest of its output ("" when the operation raised)
    digests: dict[str, str]
    # operation ids that failed a check inside the unit
    failed: set[str] = field(default_factory=set)
    runs: list = field(default_factory=list)
    # wall time spent inside run_campaign (catalog only)
    pool_seconds: float = 0.0


def ball_digest(ball: ball_mod.Ball) -> str:
    """Digest of the member set and the depth census."""
    census = sorted(ball.depth_census().items())
    members = "\n".join(repr(key) for key in sorted(ball.members))
    return sha(f"{census!r}\n{members}")


def metric_set_digest(metric_set: metrics_mod.MetricSet) -> str:
    lines = [
        f"{notation.format_sequence(d, metric_set.rank)}\t{f!r}"
        for d, f in zip(metric_set.metrics, metric_set.fitnesses)
    ]
    return sha("\n".join(lines))


def _metric_config(cfg: Config) -> metrics_mod.MetricGaConfig:
    return metrics_mod.MetricGaConfig(
        population_size=LEARN_POPULATION,
        generations=cfg.learn_generations,
        tournament_size=7,
        correlation="pearson",
    )


def solver_config(cfg: Config, mode: str) -> solver_mod.SolverConfig:
    return solver_mod.SolverConfig(
        population_size=cfg.population,
        max_generations=cfg.generations,
        restarts=cfg.restarts,
        mode=mode,
    )


class Workload:
    name = ""

    def __init__(self, cfg: Config, workdir: str):
        self.cfg = cfg
        self.workdir = workdir

    # -- set-up ------------------------------------------------------------

    def make_ball(self) -> tuple[ball_mod.Ball, int]:
        rank, cap, depth = self.cfg.ball
        built = ball_mod.build_ball(rank, cap, depth)
        if not self.cfg.save_ball:
            return built, 0
        # the CLI's ball -> solve path: the search reads the ball from disk
        path = os.path.join(self.workdir, "ball.txt")
        ball_mod.save_ball(built, path)
        del built
        size = os.path.getsize(path)
        return ball_mod.load_ball(path), size

    def learn_metrics(self, training, seed: int) -> metrics_mod.MetricSet:
        return metrics_mod.learn_metric_set(
            training,
            runs=self.cfg.learn_runs,
            config=_metric_config(self.cfg),
            master_seed=seed,
            workers=1,
        )

    def setup(self, seed: int) -> Prepared:
        ball, size = self.make_ball()
        return self.prepare(ball, size, seed)

    def prepare(self, ball: ball_mod.Ball, size: int, seed: int) -> Prepared:
        """The seed-dependent part of the set-up."""
        training = ball_mod.sample_cases(ball, CASES, seed)
        return Prepared(ball, training, ball_file_bytes=size)

    def ops_per_unit(self) -> int:
        raise NotImplementedError

    def setup_digest(self, prepared: Prepared) -> str:
        """Digest of the seed-dependent part of the set-up output."""
        if prepared.metric_set is None:
            return ""
        return metric_set_digest(prepared.metric_set)

    # -- measured unit -----------------------------------------------------

    def unit(self, prepared: Prepared, seed: int, workers: int) -> Unit:
        raise NotImplementedError

    def check(self, prepared: Prepared, unit: Unit) -> None:
        """Independent checks of a unit's outputs, outside the timed region;
        adds failing operation ids to ``unit.failed``."""


class Learn(Workload):
    """Metric learning only: the GA over ``metric_value``."""

    name = "learn"

    def ops_per_unit(self):
        return self.cfg.learn_runs

    def unit(self, prepared, seed, workers):
        cfg = self.cfg
        t0 = time.perf_counter()
        metric_set = self.learn_metrics(prepared.training, seed)
        ensemble_mod.fit_weights(metric_set, prepared.training)
        ensemble_mod.trim_objectives(metric_set, prepared.training, k=OBJECTIVES)
        seconds = time.perf_counter() - t0
        rank = metric_set.rank
        digests = {
            f"run{i}": sha(f"{notation.format_sequence(d, rank)}\t{f!r}")
            for i, (d, f) in enumerate(zip(metric_set.metrics, metric_set.fitnesses))
        }
        candidates = cfg.learn_runs * LEARN_POPULATION * (cfg.learn_generations + 1)
        return Unit(seconds, candidates, digests, runs=[metric_set])

    def check(self, prepared, unit):
        # the recorded best-of-run fitness must be the fitness of the metric
        metric_set = unit.runs[0]
        for i, (d, f) in enumerate(zip(metric_set.metrics, metric_set.fitnesses)):
            again = metrics_mod.metric_fitness(d, prepared.training, "pearson")
            if again != f:
                unit.failed.add(f"run{i}")


class Catalog(Workload):
    """The user's job: single-mode campaigns on every solved T-instance,
    then verification of every solved certificate."""

    name = "catalog"

    def prepare(self, ball, size, seed):
        prepared = super().prepare(ball, size, seed)
        prepared.metric_set = self.learn_metrics(prepared.training, seed)
        weights = ensemble_mod.fit_weights(prepared.metric_set, prepared.training)
        prepared.model = ensemble_mod.ScalarEnsemble(weights, prepared.metric_set)
        return prepared

    def ops_per_unit(self):
        return len(self.instances()) * self.cfg.restarts

    def instances(self):
        return [r for r in catalog_mod.catalog() if r.known_length is not None]

    def unit(self, prepared, seed, workers):
        solver_cfg = solver_config(self.cfg, "single")
        runs: list[tuple[catalog_mod.InstanceRecord, solver_mod.RunResult]] = []
        verified: dict[str, bool] = {}
        pool_seconds = 0.0
        t0 = time.perf_counter()
        for record in self.instances():
            t_campaign = time.perf_counter()
            results = solver_mod.run_campaign(
                record.presentation,
                prepared.model,
                prepared.ball,
                solver_cfg,
                master_seed=seed,
                instance_id=record.id,
                workers=workers,
            )
            pool_seconds += time.perf_counter() - t_campaign
            runs.extend((record, result) for result in results)
        for index, (record, result) in enumerate(runs):
            if result.outcome == "solved":
                certificate = proof_mod.verify(
                    record.presentation, result.sequence, prepared.ball, record.id
                )
                verified[f"{index}:{record.id}"] = certificate.verified
        seconds = time.perf_counter() - t0
        return Unit(
            seconds,
            sum(r.evaluations for _, r in runs),
            self.record_digests(runs),
            {op for op, ok in verified.items() if not ok},
            runs,
            pool_seconds,
        )

    def record_digests(self, runs) -> dict[str, str]:
        """One digest per line of the campaign results JSONL."""
        path = os.path.join(self.workdir, "results.jsonl")
        solver_mod.write_results_jsonl([r for _, r in runs], self.cfg.ball[0], path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        op_ids = [f"{i}:{record.id}" for i, (record, _) in enumerate(runs)]
        return {op: sha(line) for op, line in zip(op_ids, lines)}

    def check(self, prepared, unit):
        for index, (record, result) in enumerate(unit.runs):
            if result.outcome == "solved" and not replay_certificate(
                record.presentation, result.sequence, result.prefix_length, prepared.ball
            ):
                unit.failed.add(f"{index}:{record.id}")


def replay_certificate(instance, sequence, prefix_length, ball) -> bool:
    """Replay a solved run without ``proof.verify``: the moves of the
    prefix, then the ball's path to the trivial class; the end point must
    be in the trivial class."""
    p = instance
    for move in sequence[:prefix_length]:
        p = pres_mod.apply_move(p, move)
    found = ball_mod.lookup(ball, p)
    if found is None:
        return False
    for move in found[1]:
        p = pres_mod.apply_move(p, move)
    trivial = pres_mod.trivial_presentation(instance.rank)
    return pres_mod.canonical_form(p) == pres_mod.canonical_form(trivial)


@contextmanager
def evaluated_candidates():
    """Collect the distinct sequences ``run_search`` evaluates, by wrapping
    ``evaluate_candidate`` where ``run_search`` looks it up."""
    seen: set = set()
    original = solver_mod.evaluate_candidate

    def collecting(s, *args, **kwargs):
        seen.add(s)
        return original(s, *args, **kwargs)

    solver_mod.evaluate_candidate = collecting
    try:
        yield seen
    finally:
        solver_mod.evaluate_candidate = original


class Ak3Multi(Workload):
    """The open instance AK3 at paper scale, multi-objective search."""

    name = "ak3-multi"

    def prepare(self, ball, size, seed):
        prepared = super().prepare(ball, size, seed)
        prepared.metric_set = self.learn_metrics(prepared.training, seed)
        prepared.model = ensemble_mod.trim_objectives(
            prepared.metric_set, prepared.training, k=OBJECTIVES
        )
        return prepared

    def ops_per_unit(self):
        return 1

    def unit(self, prepared, seed, workers):
        ak3 = catalog_mod.get_instance("AK3").presentation
        solver_cfg = solver_config(self.cfg, "multi")
        with evaluated_candidates() as seen:
            t0 = time.perf_counter()
            result = solver_mod.run_search(
                ak3, prepared.model, prepared.ball, solver_cfg, seed, "AK3"
            )
            seconds = time.perf_counter() - t0
        if not seen:
            raise RuntimeError(
                "ak3-multi: run_search evaluated no candidate through "
                "actriv.solver.evaluate_candidate; the digest hook was bypassed"
            )
        rank = self.cfg.ball[0]
        record = json.dumps(solver_mod.result_record(result, rank), sort_keys=True)
        candidates = sorted(notation.format_sequence(s, rank) for s in seen)
        digest = sha(record + "\n" + "\n".join(candidates))
        return Unit(seconds, result.evaluations, {"run": digest}, runs=[result])


WORKLOADS = {w.name: w for w in (Learn, Catalog, Ak3Multi)}

# Why each workload is here, and what should move on it, is in METRICS.md.
CONFIGS = {
    "learn": Config(ball=(2, 14, 6), save_ball=False, setup_repeats=10),
    "catalog": Config(
        ball=(2, 14, 6),
        learn_runs=3,
        learn_generations=10,
        population=200,
        restarts=2,
        generations=8,
        workers=2,
        setup_repeats=3,
    ),
    "ak3-multi": Config(
        ball=(2, 16, 8),
        learn_runs=5,
        learn_generations=4,
        population=1000,
        generations=3,
        # one set-up takes ~20 s; several would not fit the run-time budget
        setup_repeats=1,
    ),
}
