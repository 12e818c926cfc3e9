"""Online genetic search for trivializing move sequences.

Candidates are move sequences, varied by mutation only.  A candidate
succeeds as soon as any prefix of its trace lands in the precomputed
trivialization ball; the reported trivialization length is the shortest
such prefix.  Candidates outside the 8..70 length band, or whose trace
reaches total relator length 200, are penalized with the worst possible
fitness and can never win a tournament against an unpenalized candidate.

Mutants share most of their trace with their parents, and many of them
end where an earlier candidate ended, so a run keeps two memos keyed by
the exact relator tuple: ball membership of each state a trace reaches
inside the ball's length cap, and the model's value of each final state.
Each is a ``WindowMemo``: it keeps the entries the search read in the last
``MEMO_WINDOW`` to ``2 * MEMO_WINDOW`` generations, so a run of any length
holds only what its recent generations reached.  A state is canonicalized,
and a final state scored, once while the search keeps reaching it.

Selection is tournament-of-7 on the ensemble scalar (single-objective
mode) or on Pareto rank with crowding-distance tie-break over the trimmed
objectives (multi-objective mode, NSGA-II style).  Equal objective
vectors share their Pareto rank, so the ranks come from a numpy boolean
dominance matrix over the m distinct vectors of a generation: the sort
needs O(m²) memory, at most about 1 MB at population 1000.  Replacement is
plain generational; the best-so-far candidate is tracked outside the
population for reporting only.  The GA loop itself is ``metrics.evolve``,
the engine metric learning runs too; ``run_search`` owns the stopping
rule.

A campaign on several workers sends the instance, model and ball to each
worker process once, through the pool initializer (``metrics.map_seeds``);
each task then carries only its seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import formats, notation
from .ball import Ball
from .ensemble import ObjectiveSet, ScalarEnsemble, objective_values
from .metrics import GaConfig, evolve, map_seeds, restart_seeds
from .presentations import (
    MoveSequence,
    Presentation,
    apply_to_relators,
    canonical_relators,
)
# not called here: bench/tracing.py wraps ``solver.mutate``, and
# tests/test_layout.py checks that every name it wraps exists
from .variation import mutate

WORST_SCALAR = math.inf
# generations in each block of a WindowMemo; a run's memos hold the states
# read in the last one to two blocks
MEMO_WINDOW = 10


@dataclass
class SolverConfig(GaConfig):
    max_generations: int = 100_000
    time_budget_s: float = 3 * 3600.0
    restarts: int = 20
    mode: str = "single"
    stop_on_first_solve: bool = False

    def validate(self) -> None:
        super().validate()
        if self.mode not in ("single", "multi"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_generations < 0:
            raise ValueError("max_generations must be >= 0")
        if not self.time_budget_s >= 0:
            raise ValueError("time_budget_s must be >= 0")


@dataclass
class Evaluation:
    status: str  # "ok" | "penalized" | "success"
    reason: str | None = None
    prefix_length: int | None = None
    # the model's value of the final state when "ok": the scalar in single
    # mode, the objective tuple in multi mode
    value: float | tuple[float, ...] | None = None


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


class WindowMemo:
    """A per-run memo that forgets what the search no longer reaches.

    ``current`` holds the entries written or read in the present block of
    ``MEMO_WINDOW`` generations, ``previous`` those of the block before;
    a read that finds its key only in ``previous`` copies it into
    ``current``.  ``end_generation`` drops ``previous`` after every
    ``MEMO_WINDOW`` generations.  So an entry read again within
    ``MEMO_WINDOW`` generations is kept, and one not read for more than
    ``2 * MEMO_WINDOW`` generations is gone.  ``get`` and item assignment
    are a dict's, so a plain dict serves where no bound is needed.
    """

    def __init__(self) -> None:
        self.current: dict = {}
        self.previous: dict = {}
        self.generations = 0

    def get(self, key):
        value = self.current.get(key)
        if value is None:
            value = self.previous.get(key)
            if value is not None:
                self.current[key] = value
        return value

    def __setitem__(self, key, value) -> None:
        self.current[key] = value

    def end_generation(self) -> None:
        self.generations += 1
        if self.generations % MEMO_WINDOW == 0:
            self.previous, self.current = self.current, {}


def _in_ball(rels, members, known) -> bool:
    """Ball membership of the relators ``rels``, memoized in ``known``."""
    state = tuple(rels)
    hit = known.get(state)
    if hit is None:
        hit = known[state] = canonical_relators(state) in members
    return hit


def evaluate_candidate(
    s: MoveSequence,
    instance: Presentation,
    model,
    ball: Ball,
    cfg: SolverConfig,
    known: dict | WindowMemo | None = None,
    scored: dict | WindowMemo | None = None,
) -> Evaluation:
    """Penalties, success detection, then fitness at the final presentation.

    ``known`` memoizes ball membership by relator tuple; one memo may serve
    every candidate checked against the same ball.  ``scored`` memoizes the
    model's value by the final relator tuple, not by its class, because a
    metric's value depends on how the relators are spelled: the scalar in
    single mode, the objective tuple in multi mode.  One ``scored`` memo
    serves one model and one ``relator_length_cap``.
    """
    if len(s) < cfg.min_length:
        return Evaluation("penalized", "too_short")
    if len(s) > cfg.max_length:
        return Evaluation("penalized", "too_long")
    if known is None:
        known = {}
    if scored is None:
        scored = {}
    ball_cap = ball.max_total_length
    members = ball.members
    length_cap = cfg.relator_length_cap
    rels = list(instance.relators)
    total = sum(map(len, rels))
    if total <= ball_cap and _in_ball(rels, members, known):
        return Evaluation("success", prefix_length=0)
    if total >= length_cap:
        return Evaluation("penalized", "relator_cap")
    for step, m in enumerate(s, start=1):
        total += apply_to_relators(rels, m)
        if total <= ball_cap and _in_ball(rels, members, known):
            return Evaluation("success", prefix_length=step)
        if total >= length_cap:
            return Evaluation("penalized", "relator_cap")
    final = tuple(rels)
    value = scored.get(final)
    if value is None:
        p = Presentation(instance.rank, final)
        if cfg.mode == "single":
            value = model.value(p, length_cap)
        else:
            value = objective_values(model, p, length_cap)
        scored[final] = value
    return Evaluation("ok", value=value)


def nondominated_sort(points) -> list[int]:
    """Pareto rank (0 = non-dominated front) of each point, minimization.

    x dominates y iff x <= y in every coordinate and x < y in at least one.
    Equal points dominate each other nowhere and are dominated by the same
    points, so they share a rank: the ranks come from an m x m boolean
    dominance matrix over the m distinct points, built one objective at a
    time, whose fronts are peeled by dominator counts.
    """
    n = len(points)
    if n == 0:
        return []
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("objective vectors have mismatched dimensions")
    distinct: dict[tuple, int] = {}
    slots = [distinct.setdefault(tuple(p), len(distinct)) for p in points]
    values = np.asarray(list(distinct))
    m = len(distinct)
    # dom[a, b]: a dominates b, i.e. a <= b everywhere and a < b somewhere
    dom = np.ones((m, m), dtype=bool)
    for col in values.T:
        dom &= col[:, None] <= col[None, :]
    # two distinct points that are <= everywhere differ, so are < somewhere
    np.fill_diagonal(dom, False)
    counts = dom.sum(axis=0)
    ranks = np.empty(m, dtype=np.intp)
    front = np.flatnonzero(counts == 0)
    rank = 0
    while front.size:
        ranks[front] = rank
        counts -= dom[front].sum(axis=0)
        # a ranked point dominates nothing ranked before it, so -1 stays put
        counts[front] = -1
        front = np.flatnonzero(counts == 0)
        rank += 1
    return ranks[slots].tolist()


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
            (e.value,) if e.status == "ok" else (WORST_SCALAR,) for e in evals
        ]
    ok_indices = [i for i, e in enumerate(evals) if e.status == "ok"]
    keys: list[tuple] = [(math.inf, 0.0)] * len(evals)
    if ok_indices:
        points = [evals[i].value for i in ok_indices]
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
    if model.rank != instance.rank:
        raise ValueError(
            f"a rank {model.rank} model cannot drive a rank {instance.rank} instance"
        )
    ball.check_rank(instance.rank)
    if (total := sum(map(len, instance.relators))) >= cfg.relator_length_cap:
        raise ValueError(
            f"relator_length_cap {cfg.relator_length_cap} is not above the "
            f"instance's total relator length {total}"
        )
    started = time.monotonic()
    trajectory: list[tuple[int, float]] = []

    def finish(outcome, sequence=None, prefix=None) -> RunResult:
        return RunResult(
            instance=instance_id,
            seed=seed,
            outcome=outcome,
            sequence=sequence,
            prefix_length=prefix,
            generations=generation,
            evaluations=(generation + 1) * cfg.population_size,
            wall_time_s=time.monotonic() - started,
            trajectory=trajectory,
        )

    known, scored = WindowMemo(), WindowMemo()

    def evaluate(population: list[MoveSequence]) -> list[Evaluation]:
        evals = [
            evaluate_candidate(d, instance, model, ball, cfg, known, scored)
            for d in population
        ]
        known.end_generation()
        scored.end_generation()
        return evals

    generations = evolve(
        instance.rank,
        cfg,
        random.Random(seed),
        evaluate,
        lambda evals: _selection_keys(evals, cfg.mode),
    )
    for generation, (population, evals) in enumerate(generations):
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
                (e.value for e in evals if e.status == "ok"), default=math.inf
            )
            if gen_best < (trajectory[-1][1] if trajectory else math.inf):
                trajectory.append((generation, gen_best))
        if generation >= cfg.max_generations:
            return finish("exhausted")
        if time.monotonic() - started > cfg.time_budget_s:
            return finish("timed_out")


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

    Results are identical for any worker count.  With more than one
    worker, each worker process receives the instance, model and ball
    once and then runs one seed per task.  With cfg.stop_on_first_solve
    the runs execute sequentially and the campaign ends at the first
    solved run.
    """
    cfg.validate()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    seeds = restart_seeds(master_seed, cfg.restarts)
    if not cfg.stop_on_first_solve:
        search = partial(
            run_search, instance, model, ball, cfg, instance_id=instance_id
        )
        return map_seeds(search, seeds, workers)
    results = []
    for seed in seeds:
        results.append(run_search(instance, model, ball, cfg, seed, instance_id))
        if results[-1].outcome == "solved":
            break
    return results


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
    lines = (
        json.dumps(result_record(r, rank), sort_keys=True) + "\n" for r in results
    )
    formats.write_atomic(path, lines)


def write_summary_csv(results: list[RunResult], path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = "instance seed outcome prefix_length generations evaluations wall_time_s"
    writer.writerow(header.split())
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
    formats.write_atomic(path, [buffer.getvalue()])
