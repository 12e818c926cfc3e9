"""Offline distance-metric learning, and the GA engine of both stages.

A learned metric is itself a move sequence d: its value on a presentation
p is the total relator length after applying d to p.  Metrics are scored
by how well their values correlate with the BFS distances of a training
set, and evolved by ``evolve``, the mutation-only generational GA that the
online solver also runs; ``GaConfig`` holds the settings both stages
share.  Repeated runs collect a set of diverse metrics.

``metric_value`` is the value of one sequence on one presentation.
``metric_values`` gives the values of many sequences on many
presentations at once: it sorts the distinct sequences and walks each
presentation through them once, so a move prefix that several sequences
share is applied once per presentation.  ``evolve_metric`` scores each
generation that way, and each sequence once per run.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from . import formats, notation
from .ball import TrainingSet
from .presentations import MoveSequence, Presentation, apply_to_relators
from .variation import mutate, random_sequence

# Strictly below any real correlation; keeps selection total when a
# candidate's values are degenerate or its trace blows past the cap.
SENTINEL_FITNESS = -2.0


@dataclass
class MetricCandidate:
    sequence: MoveSequence
    fitness: float | None = None


@dataclass
class MetricSet:
    rank: int
    metrics: list[MoveSequence]
    fitnesses: list[float] | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.metrics)


@dataclass
class GaConfig:
    """Settings and checks shared by both GA stages; the paper's defaults."""

    population_size: int = 1000
    initial_length: int = 8
    tournament_size: int = 7
    p_insert: float = 0.1
    p_replace: float = 0.8
    p_delete: float = 0.1
    min_length: int = 8
    max_length: int = 70
    relator_length_cap: int = 200

    def validate(self) -> None:
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        for name in ("p_insert", "p_replace", "p_delete"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if abs(self.p_insert + self.p_replace + self.p_delete - 1.0) > 1e-9:
            raise ValueError("p_insert + p_replace + p_delete must sum to 1")
        if not self.min_length <= self.initial_length <= self.max_length:
            raise ValueError("need min_length <= initial_length <= max_length")
        if self.population_size < self.tournament_size:
            raise ValueError(
                f"population_size {self.population_size} is smaller than "
                f"tournament_size {self.tournament_size}"
            )
        if self.relator_length_cap < 1:
            raise ValueError("relator_length_cap must be >= 1")


@dataclass
class MetricGaConfig(GaConfig):
    population_size: int = 100
    generations: int = 200
    correlation: str = "pearson"

    def validate(self) -> None:
        super().validate()
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.correlation not in _CORRELATIONS:
            raise ValueError(f"unknown correlation kind {self.correlation!r}")


def evolve(rank: int, cfg: GaConfig, rng: random.Random, evaluate, selection_keys):
    """The generational GA of both stages.  Yields ``(population, evals)``
    for each generation, from the random initial one, until the caller
    stops; ``evaluate(population)`` returns one entry per candidate, in
    order.  Each offspring mutates the winner of a tournament, the first
    contender with the lowest ``selection_keys(evals)`` entry."""
    size = cfg.population_size
    population = [random_sequence(rank, cfg.initial_length, rng) for _ in range(size)]
    while True:
        evals = evaluate(population)
        yield population, evals
        keys = selection_keys(evals)
        offspring = []
        for _ in range(size):
            contenders = rng.sample(range(size), cfg.tournament_size)
            parent = population[min(contenders, key=keys.__getitem__)]
            offspring.append(
                mutate(parent, rank, rng, cfg.p_insert, cfg.p_replace, cfg.p_delete)
            )
        population = offspring


def restart_seeds(master_seed: int, count: int) -> list[int]:
    """Seeds of ``count`` independent runs, split off ``master_seed``."""
    seed_rng = random.Random(master_seed)
    return [seed_rng.getrandbits(64) for _ in range(count)]


def map_seeds(run, seeds: list[int], workers: int) -> list:
    """``[run(seed) for seed in seeds]`` on a pool of ``min(workers,
    len(seeds))`` processes, in seed order; in this process when that is
    at most one.  ``workers`` must be at least one.

    ``run`` binds the state every run shares, such as a ``partial`` over
    the ball and model.  Each worker receives it once, through the pool
    initializer: a forked worker inherits it without pickling, a spawned
    one unpickles it once.  A task carries only its seed.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    size = min(workers, len(seeds))
    if size <= 1:
        return [run(seed) for seed in seeds]
    with ProcessPoolExecutor(size, initializer=_install_run, initargs=(run,)) as pool:
        return list(pool.map(_run_installed, seeds))


_installed_run = None  # set by the pool initializer, in worker processes only


def _install_run(run) -> None:
    global _installed_run
    _installed_run = run


def _run_installed(seed: int):
    return _installed_run(seed)


def metric_value(d: MoveSequence, p: Presentation, cap: int) -> int:
    """Total relator length after applying d to p; cap acts as the worst
    value if any intermediate reaches it."""
    total = _walk(list(p.relators), sum(map(len, p.relators)), d, cap)
    return cap if total is None else total


def metric_values(
    seqs: list[MoveSequence], presentations: list[Presentation], cap: int
) -> list[list[int]]:
    """``[[metric_value(d, p, cap) for p in presentations] for d in seqs]``,
    with each distinct sequence walked once and each move prefix that
    sorted neighbours share applied once per presentation.

    In sorted order a sequence shares with the one before it the longest
    prefix it shares with any earlier one, so it resumes each presentation
    from the state at that depth.  A state is kept only at a depth that a
    later sequence resumes from.  A prefix whose trace reached ``cap`` is
    kept as ``None``: capped for every sequence that extends it.
    """
    plan = _resume_plan(sorted(set(seqs)))
    rows = [[] for _ in plan]
    for p in presentations:
        kept = {0: (p.relators, sum(map(len, p.relators)))}
        for (d, resume, stops), row in zip(plan, rows):
            state = kept[resume]
            depth, total = resume, None
            if state is not None:
                rels, total = list(state[0]), state[1]
                for stop in stops:
                    total = _walk(rels, total, d[depth:stop], cap)
                    if total is None:
                        break
                    kept[stop] = (tuple(rels), total)
                    depth = stop
                else:
                    total = _walk(rels, total, d[depth:], cap)
            if total is None:
                row.append(cap)
                for stop in stops:
                    if stop > depth:
                        kept[stop] = None
            else:
                row.append(total)
    index = {d: k for k, (d, _, _) in enumerate(plan)}
    return [list(rows[index[d]]) for d in seqs]


def _resume_plan(order: list[MoveSequence]) -> list[tuple]:
    """``(d, resume, stops)`` for each of the sorted distinct sequences:
    the depth d resumes from, its common prefix with the sequence before
    it, and the depths past that, ascending, that a later sequence
    resumes from."""
    plan = []
    walker: dict[int, list] = {}  # depth -> stops of the last walk through it
    prev: MoveSequence = ()
    for d in order:
        resume = 0
        for a, b in zip(prev, d):
            if a != b:
                break
            resume += 1
        if resume:
            walker[resume].append(resume)
        stops: list[int] = []
        for depth in range(resume + 1, len(d) + 1):
            walker[depth] = stops
        plan.append((d, resume, stops))
        prev = d
    return [(d, resume, sorted(set(stops))) for d, resume, stops in plan]


def _walk(rels: list, total: int, moves: MoveSequence, cap: int) -> int | None:
    """Apply moves to rels, whose total relator length is ``total``, in
    place; the new total, or None if the start or any later state reaches
    cap."""
    if total >= cap:
        return None
    for m in moves:
        total += apply_to_relators(rels, m)
        if total >= cap:
            return None
    return total


def pearson(xs, ys) -> float:
    """Pearson correlation; SENTINEL_FITNESS when either variance is zero."""
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise ValueError("need at least two points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return SENTINEL_FITNESS
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def _count_inversions(values: list) -> int:
    """Pairs i<j with values[i] > values[j], by merge sort."""
    if len(values) < 2:
        return 0
    mid = len(values) // 2
    left, right = values[:mid], values[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            count += len(left) - i
            merged.append(right[j])
            j += 1
    values[: i + j] = merged
    values[i + j :] = left[i:] if i < len(left) else right[j:]
    return count


def _tie_term(values) -> int:
    term = 0
    run = 1
    ordered = sorted(values)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur == prev:
            run += 1
        else:
            term += run * (run - 1) // 2
            run = 1
    term += run * (run - 1) // 2
    return term


def kendall_tau(xs, ys) -> float:
    """Tie-corrected Kendall tau-b (Knight's O(n log n) formulation);
    SENTINEL_FITNESS on all-tied input.

    The denominator is one square root of an integer product, so values
    like 1/3 come out bit-exact.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise ValueError("need at least two points")
    pairs = sorted(zip(xs, ys))
    xtie = _tie_term([x for x, _ in pairs])
    ytie = _tie_term(ys)
    joint_tie = _tie_term(pairs)
    discordant = _count_inversions([y for _, y in pairs])
    total = n * (n - 1) // 2
    denom_sq = (total - xtie) * (total - ytie)
    if denom_sq <= 0:
        return SENTINEL_FITNESS
    con_minus_dis = total - xtie - ytie + joint_tie - 2 * discordant
    return con_minus_dis / math.sqrt(denom_sq)


_CORRELATIONS = {"pearson": pearson, "kendall": kendall_tau}


def _training_cases(training: TrainingSet, kind: str):
    """The training presentations and their distances, checked for a
    correlation of this kind."""
    if kind not in _CORRELATIONS:
        raise ValueError(f"unknown correlation kind {kind!r}")
    distances = training.distances()
    if len(distances) < 2 or len(set(distances)) < 2:
        raise ValueError("training set is degenerate: need >= 2 distinct distances")
    return [case.presentation for case in training.cases], distances


def _fitness(values: list[int], distances: list[int], kind: str) -> float:
    """Correlation of a metric's values with the distances;
    SENTINEL_FITNESS when the values are all equal."""
    first = values[0]
    if all(v == first for v in values):
        return SENTINEL_FITNESS
    return _CORRELATIONS[kind](values, distances)


def metric_fitness(
    d: MoveSequence, training: TrainingSet, kind: str = "pearson", cap: int = 200
) -> float:
    """Correlation between d's values and the training distances."""
    cases, distances = _training_cases(training, kind)
    return _fitness([metric_value(d, p, cap) for p in cases], distances, kind)


def evolve_metric(
    training: TrainingSet, config: MetricGaConfig, rng_seed: int
) -> MetricCandidate:
    """One generational GA run; returns the best candidate seen in any
    generation, not merely the best of the final population.

    Each generation's in-band sequences not yet scored in this run go
    through one ``metric_values`` walk; a per-run dict from sequence to
    fitness answers for the rest, and holds at most population x
    (generations + 1) entries.
    """
    config.validate()
    kind, cap = config.correlation, config.relator_length_cap
    cases, distances = _training_cases(training, kind)
    lo, hi = config.min_length, config.max_length
    scored: dict[MoveSequence, float] = {}

    def evaluate(population: list[MoveSequence]) -> list[float]:
        fresh = [d for d in population if lo <= len(d) <= hi and d not in scored]
        for d, values in zip(fresh, metric_values(fresh, cases, cap)):
            scored[d] = _fitness(values, distances, kind)
        return [scored.get(d, SENTINEL_FITNESS) for d in population]

    best = None
    rng = random.Random(rng_seed)
    # higher fitness is better, the engine's tournaments pick the lowest key
    generations = evolve(
        training.rank, config, rng, evaluate, lambda scores: [-s for s in scores]
    )
    for generation, (population, scores) in enumerate(generations):
        gen_best, gen_score = max(zip(population, scores), key=lambda t: t[1])
        if best is None or gen_score > best.fitness:
            best = MetricCandidate(gen_best, gen_score)
        if generation == config.generations:
            return best


def learn_metric_set(
    training: TrainingSet,
    runs: int = 50,
    config: MetricGaConfig | None = None,
    master_seed: int = 0,
    workers: int = 1,
) -> MetricSet:
    """Independent best-of-run metrics from ``runs`` GA restarts.

    Per-run seeds are split off ``master_seed``, so results are identical
    whether runs execute sequentially or across worker processes.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    config = config or MetricGaConfig()
    seeds = restart_seeds(master_seed, runs)
    results = map_seeds(partial(evolve_metric, training, config), seeds, workers)
    return MetricSet(
        rank=training.rank,
        metrics=[cand.sequence for cand in results],
        fitnesses=[cand.fitness for cand in results],
        meta={"runs": str(runs), "correlation": config.correlation},
    )


def save_metric_set(metric_set: MetricSet, path: str) -> None:
    header = {"rank": metric_set.rank, **dict(sorted(metric_set.meta.items()))}
    records = (
        (notation.format_sequence(d, metric_set.rank),) for d in metric_set.metrics
    )
    formats.write_file(path, "metrics", header, records)


def load_metric_set(path: str) -> MetricSet:
    with formats.read_file(path, "metrics", 1) as (header, records):
        rank = header.int("rank")
        metrics = [
            formats.parse_sequence(text, rank, where) for where, (text,) in records
        ]
    meta = {key: value for key, value in header.fields.items() if key != "rank"}
    return MetricSet(rank=rank, metrics=metrics, meta=meta)
