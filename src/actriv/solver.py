"""Online genetic search for trivializing move sequences.

Candidates are move sequences, varied by mutation only.  A candidate
succeeds as soon as any prefix of its trace lands in the precomputed
trivialization ball; the reported trivialization length is the shortest
such prefix.  Candidates outside the 8..70 length band, or whose trace
reaches total relator length 200, are penalized with the worst possible
fitness and can never win a tournament against an unpenalized candidate.

Selection is tournament-of-7 on the ensemble scalar (single-objective
mode) or on Pareto rank with crowding-distance tie-break over the trimmed
objectives (multi-objective mode, NSGA-II style).  The Pareto ranks come
from a numpy boolean dominance matrix, so the sort needs O(n²) memory:
about 1 MB per n x n matrix at population 1000.  Replacement is plain
generational; the best-so-far candidate is tracked outside the population
for reporting only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import notation
from .ball import Ball, _atomic_write
from .ensemble import ObjectiveSet, ScalarEnsemble, objective_values
from .presentations import (
    MoveSequence,
    Presentation,
    apply_to_relators,
    canonical_relators,
)
from .variation import mutate, random_sequence

__all__ = [
    "SolverConfig",
    "Evaluation",
    "RunResult",
    "mutate",
    "random_sequence",
    "evaluate_candidate",
    "nondominated_sort",
    "crowding_distance",
    "run_search",
    "run_campaign",
    "result_record",
    "write_results_jsonl",
    "write_summary_csv",
]

WORST_SCALAR = math.inf


@dataclass
class SolverConfig:
    population_size: int = 1000
    initial_length: int = 8
    tournament_size: int = 7
    p_insert: float = 0.1
    p_replace: float = 0.8
    p_delete: float = 0.1
    min_length: int = 8
    max_length: int = 70
    relator_length_cap: int = 200
    max_generations: int = 100_000
    time_budget_s: float = 3 * 3600.0
    restarts: int = 20
    mode: str = "single"
    stop_on_first_solve: bool = False

    def validate(self) -> None:
        if abs(self.p_insert + self.p_replace + self.p_delete - 1.0) > 1e-9:
            raise ValueError("operator probabilities must sum to 1")
        if not self.min_length <= self.initial_length <= self.max_length:
            raise ValueError("need min_length <= initial_length <= max_length")
        if self.mode not in ("single", "multi"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.population_size < self.tournament_size:
            raise ValueError("population smaller than tournament size")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class Evaluation:
    status: str  # "ok" | "penalized" | "success"
    reason: str | None = None
    prefix_length: int | None = None
    scalar: float | None = None
    objectives: tuple[float, ...] | None = None


@dataclass
class RunResult:
    instance: str
    seed: int
    outcome: str  # "solved" | "exhausted" | "timed_out"
    sequence: MoveSequence | None
    prefix_length: int | None
    generations: int
    evaluations: int
    wall_time_s: float
    trajectory: list[tuple[int, float]] = field(default_factory=list)


def evaluate_candidate(
    s: MoveSequence,
    instance: Presentation,
    model,
    ball: Ball,
    cfg: SolverConfig,
) -> Evaluation:
    """Penalties, success detection, then fitness at the final presentation."""
    if len(s) < cfg.min_length:
        return Evaluation("penalized", "too_short")
    if len(s) > cfg.max_length:
        return Evaluation("penalized", "too_long")
    rank = instance.rank
    if ball.rank != rank:
        raise ValueError("ball rank does not match instance rank")
    ball_cap = ball.max_total_length
    members = ball.members
    length_cap = cfg.relator_length_cap
    rels = list(instance.relators)
    total = sum(map(len, rels))
    if total <= ball_cap and canonical_relators(rels) in members:
        return Evaluation("success", prefix_length=0)
    if total >= length_cap:
        return Evaluation("penalized", "relator_cap")
    for step, m in enumerate(s, start=1):
        total += apply_to_relators(rels, m)
        if total <= ball_cap and canonical_relators(rels) in members:
            return Evaluation("success", prefix_length=step)
        if total >= length_cap:
            return Evaluation("penalized", "relator_cap")
    final = Presentation(rank, tuple(rels))
    if cfg.mode == "single":
        return Evaluation("ok", scalar=model.value(final, length_cap))
    return Evaluation("ok", objectives=objective_values(model, final, length_cap))


def nondominated_sort(points) -> list[int]:
    """Pareto rank (0 = non-dominated front) of each point, minimization.

    x dominates y iff x <= y in every coordinate and x < y in at least one.
    The ranks come from an n x n boolean dominance matrix, built one
    objective at a time, whose fronts are peeled by dominator counts.
    """
    n = len(points)
    if n == 0:
        return []
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("objective vectors have mismatched dimensions")
    values = np.asarray(points)
    # dom[a, b]: a dominates b, i.e. a <= b everywhere and a < b somewhere
    dom = np.ones((n, n), dtype=bool)
    strict = np.zeros((n, n), dtype=bool)
    for col in values.T:
        dom &= col[:, None] <= col[None, :]
        strict |= col[:, None] < col[None, :]
    dom &= strict
    counts = dom.sum(axis=0)
    ranks = np.empty(n, dtype=np.intp)
    front = np.flatnonzero(counts == 0)
    rank = 0
    while front.size:
        ranks[front] = rank
        counts -= dom[front].sum(axis=0)
        # a ranked point dominates nothing ranked before it, so -1 stays put
        counts[front] = -1
        front = np.flatnonzero(counts == 0)
        rank += 1
    return ranks.tolist()


def crowding_distance(front) -> list[float]:
    """NSGA-II crowding distance within one front (minimization).

    Fronts of one or two points are all-boundary and get infinite
    distance; an objective with zero range over the front contributes
    nothing.
    """
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    dim = len(front[0])
    dist = [0.0] * n
    for k in range(dim):
        order = sorted(range(n), key=lambda idx: front[idx][k])
        low = front[order[0]][k]
        high = front[order[-1]][k]
        span = high - low
        if span == 0:
            continue
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        for pos in range(1, n - 1):
            idx = order[pos]
            if dist[idx] != math.inf:
                gap = front[order[pos + 1]][k] - front[order[pos - 1]][k]
                dist[idx] += gap / span
    return dist


def _selection_keys(evals: list[Evaluation], mode: str) -> list[tuple]:
    """Per-candidate sort keys, lower is better; penalized keys always sort
    after every unpenalized key."""
    if mode == "single":
        return [
            (e.scalar,) if e.status == "ok" else (WORST_SCALAR,) for e in evals
        ]
    ok_indices = [i for i, e in enumerate(evals) if e.status == "ok"]
    keys: list[tuple] = [(math.inf, 0.0)] * len(evals)
    if ok_indices:
        points = [evals[i].objectives for i in ok_indices]
        ranks = nondominated_sort(points)
        by_rank: dict[int, list[int]] = {}
        for pos, i in enumerate(ok_indices):
            by_rank.setdefault(ranks[pos], []).append(pos)
        crowding = [0.0] * len(ok_indices)
        for positions in by_rank.values():
            front = [points[pos] for pos in positions]
            for pos, d in zip(positions, crowding_distance(front)):
                crowding[pos] = d
        for pos, i in enumerate(ok_indices):
            keys[i] = (ranks[pos], -crowding[pos])
    return keys


def run_search(
    instance: Presentation,
    model,
    ball: Ball,
    cfg: SolverConfig,
    seed: int,
    instance_id: str = "?",
) -> RunResult:
    """One GA run; deterministic given the seed."""
    cfg.validate()
    if cfg.mode == "single" and not isinstance(model, ScalarEnsemble):
        raise ValueError("single mode expects a ScalarEnsemble model")
    if cfg.mode == "multi" and not isinstance(model, ObjectiveSet):
        raise ValueError("multi mode expects an ObjectiveSet model")
    rng = random.Random(seed)
    started = time.monotonic()
    population = [
        random_sequence(instance.rank, cfg.initial_length, rng)
        for _ in range(cfg.population_size)
    ]
    generation = 0
    evaluations = 0
    best_scalar = math.inf
    trajectory: list[tuple[int, float]] = []

    def finish(outcome, sequence=None, prefix=None) -> RunResult:
        return RunResult(
            instance=instance_id,
            seed=seed,
            outcome=outcome,
            sequence=sequence,
            prefix_length=prefix,
            generations=generation,
            evaluations=evaluations,
            wall_time_s=time.monotonic() - started,
            trajectory=trajectory,
        )

    while True:
        evals = [
            evaluate_candidate(d, instance, model, ball, cfg) for d in population
        ]
        evaluations += len(population)
        hits = [
            (e.prefix_length, i)
            for i, e in enumerate(evals)
            if e.status == "success"
        ]
        if hits:
            prefix, idx = min(hits)
            return finish("solved", population[idx], prefix)
        if cfg.mode == "single":
            gen_best = min(
                (e.scalar for e in evals if e.status == "ok"), default=math.inf
            )
            if gen_best < best_scalar:
                best_scalar = gen_best
                trajectory.append((generation, gen_best))
        if generation >= cfg.max_generations:
            return finish("exhausted")
        if time.monotonic() - started > cfg.time_budget_s:
            return finish("timed_out")
        keys = _selection_keys(evals, cfg.mode)
        size = cfg.population_size
        offspring = []
        for _ in range(size):
            contenders = rng.sample(range(size), cfg.tournament_size)
            winner = min(contenders, key=lambda idx: keys[idx])
            offspring.append(
                mutate(
                    population[winner],
                    instance.rank,
                    rng,
                    cfg.p_insert,
                    cfg.p_replace,
                    cfg.p_delete,
                )
            )
        population = offspring
        generation += 1


def _campaign_task(args) -> RunResult:
    instance, model, ball, cfg, seed, instance_id = args
    return run_search(instance, model, ball, cfg, seed, instance_id)


def run_campaign(
    instance: Presentation,
    model,
    ball: Ball,
    cfg: SolverConfig,
    master_seed: int,
    instance_id: str = "?",
    workers: int = 1,
) -> list[RunResult]:
    """cfg.restarts independent runs with seeds split off master_seed.

    Results are identical for any worker count.  With
    cfg.stop_on_first_solve the runs execute sequentially and the campaign
    ends at the first solved run.
    """
    cfg.validate()
    seed_rng = random.Random(master_seed)
    seeds = [seed_rng.getrandbits(64) for _ in range(cfg.restarts)]
    tasks = [
        (instance, model, ball, cfg, seed, instance_id) for seed in seeds
    ]
    if cfg.stop_on_first_solve:
        results = []
        for task in tasks:
            result = _campaign_task(task)
            results.append(result)
            if result.outcome == "solved":
                break
        return results
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_campaign_task, tasks))
    return [_campaign_task(task) for task in tasks]


def result_record(result: RunResult, rank: int) -> dict:
    """Deterministic per-run record (timing lives in the CSV summary only,
    so identical campaigns serialize to identical bytes)."""
    sequence = (
        None
        if result.sequence is None
        else notation.format_sequence(result.sequence, rank)
    )
    best = result.trajectory[-1][1] if result.trajectory else None
    return {
        "instance": result.instance,
        "seed": result.seed,
        "outcome": result.outcome,
        "prefix_length": result.prefix_length,
        "sequence": sequence,
        "generations": result.generations,
        "evaluations": result.evaluations,
        "best_fitness": best,
    }


def write_results_jsonl(results: list[RunResult], rank: int, path: str) -> None:
    lines = [
        json.dumps(result_record(r, rank), sort_keys=True) for r in results
    ]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_summary_csv(results: list[RunResult], path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "instance",
            "seed",
            "outcome",
            "prefix_length",
            "generations",
            "evaluations",
            "wall_time_s",
        ]
    )
    for r in results:
        writer.writerow(
            [
                r.instance,
                r.seed,
                r.outcome,
                "" if r.prefix_length is None else r.prefix_length,
                r.generations,
                r.evaluations,
                f"{r.wall_time_s:.3f}",
            ]
        )
    _atomic_write(path, buffer.getvalue())
