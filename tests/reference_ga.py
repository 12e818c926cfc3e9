"""Slow reference for the generational GA, as two separate loops.

These are ``metrics.evolve_metric`` and ``solver.run_search`` as the
library had them before both became loops over ``metrics.evolve``; the
metric loop's per-candidate fitness is ``reference_metric_fitness``.
Tests require the engine to give the same best candidate and run record as
these loops, the search the same evaluated sequences in the same order, and
metric learning each candidate the fitness ``reference_metric_fitness``
gives it alone.  They resolve
``evaluate_candidate`` in this module, so a test that collects evaluated
sequences patches it here.
"""

from __future__ import annotations

import math
import random
import time

from actriv.ball import Ball, TrainingSet
from actriv.ensemble import ObjectiveSet, ScalarEnsemble
from actriv.metrics import (
    _CORRELATIONS,
    SENTINEL_FITNESS,
    MetricCandidate,
    MetricGaConfig,
    metric_value,
)
from actriv.presentations import MoveSequence, Presentation
from actriv.solver import RunResult, SolverConfig, _selection_keys, evaluate_candidate
from actriv.variation import mutate, random_sequence


def reference_metric_fitness(
    d: MoveSequence, training: TrainingSet, config: MetricGaConfig
) -> float:
    """The fitness of one candidate of a metric-learning run, on its own:
    ``metric_value`` on each case, then the correlation."""
    if not config.min_length <= len(d) <= config.max_length:
        return SENTINEL_FITNESS
    cap = config.relator_length_cap
    values = [metric_value(d, case.presentation, cap) for case in training.cases]
    first = values[0]
    if all(v == first for v in values):
        return SENTINEL_FITNESS
    return _CORRELATIONS[config.correlation](values, training.distances())


def reference_evolve_metric(
    training: TrainingSet, config: MetricGaConfig, rng_seed: int
) -> MetricCandidate:
    """One generational GA run; returns the best candidate seen in any
    generation, not merely the best of the final population."""
    config.validate()
    distances = training.distances()
    if len(distances) < 2 or len(set(distances)) < 2:
        raise ValueError("training set is degenerate: need >= 2 distinct distances")
    rank = training.rank

    def fitness(d: MoveSequence) -> float:
        return reference_metric_fitness(d, training, config)

    rng = random.Random(rng_seed)
    population = [
        random_sequence(rank, config.initial_length, rng)
        for _ in range(config.population_size)
    ]
    scores = [fitness(d) for d in population]
    best = MetricCandidate(*max(zip(population, scores), key=lambda t: t[1]))
    for _ in range(config.generations):
        offspring = []
        for _ in range(config.population_size):
            contenders = rng.sample(range(len(population)), config.tournament_size)
            parent = population[max(contenders, key=lambda idx: scores[idx])]
            offspring.append(
                mutate(
                    parent,
                    rank,
                    rng,
                    config.p_insert,
                    config.p_replace,
                    config.p_delete,
                )
            )
        population = offspring
        scores = [fitness(d) for d in population]
        gen_best, gen_score = max(zip(population, scores), key=lambda t: t[1])
        if best.fitness is None or gen_score > best.fitness:
            best = MetricCandidate(gen_best, gen_score)
    return best


def reference_run_search(
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
                (e.value for e in evals if e.status == "ok"), default=math.inf
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
