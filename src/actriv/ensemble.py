"""Combining learned metrics into search drivers.

Single-objective search uses ordinary least squares: the metric values on
the training set are regressed against the BFS distance, and the fitted
linear combination (plus intercept) estimates distance-to-trivial, lower
is better.  Multi-objective search instead keeps a handful of mutually
least-correlated metrics as separate minimization objectives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import formats, notation
from .ball import TrainingSet
from .metrics import (
    SENTINEL_FITNESS,
    MetricSet,
    _CORRELATIONS,
    metric_value,
    metric_values,
)
from .presentations import MoveSequence, Presentation

log = logging.getLogger(__name__)


@dataclass
class EnsembleWeights:
    weights: list[float]
    intercept: float


@dataclass
class ObjectiveSet:
    rank: int
    objectives: list[MoveSequence]

    def __len__(self) -> int:
        return len(self.objectives)


def _design_matrix(metric_set: MetricSet, training: TrainingSet, cap: int):
    """Each metric's values on the training cases, one column per metric."""
    if not metric_set.metrics:
        raise ValueError("empty metric set")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if metric_set.rank != training.rank:
        raise ValueError(
            f"rank {metric_set.rank} metrics do not fit a rank {training.rank} "
            "training set"
        )
    cases = [case.presentation for case in training.cases]
    return metric_values(metric_set.metrics, cases, cap)


def _varying(columns) -> list[int]:
    """Indices of the columns that vary over the training set; a
    ValueError if none does."""
    kept = [idx for idx, col in enumerate(columns) if len(set(col)) > 1]
    if not kept:
        raise ValueError(
            f"none of the {len(columns)} metrics varies over the training set"
        )
    return kept


def fit_weights(
    metric_set: MetricSet, training: TrainingSet, cap: int = 200
) -> EnsembleWeights:
    """Least-squares weights for the metric ensemble against the distances.

    Columns that are constant over the training set carry no signal and
    are dropped (their weight is reported as 0); rank-deficient systems
    get the minimum-norm solution.  If no column varies there is nothing to
    fit, and a ValueError says so.
    """
    if not training.cases:
        raise ValueError("empty training set")
    columns = _design_matrix(metric_set, training, cap)
    kept = _varying(columns)
    dropped = len(columns) - len(kept)
    if dropped:
        log.warning("dropping %d constant metric column(s) before regression", dropped)
    targets = np.array(training.distances(), dtype=float)
    design = np.ones((len(training.cases), len(kept) + 1))
    for out_idx, col_idx in enumerate(kept, start=1):
        design[:, out_idx] = columns[col_idx]
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    weights = [0.0] * len(columns)
    for out_idx, col_idx in enumerate(kept):
        weights[col_idx] = float(solution[out_idx + 1])
    return EnsembleWeights(weights=weights, intercept=float(solution[0]))


def trim_objectives(
    metric_set: MetricSet,
    training: TrainingSet,
    k: int = 5,
    cap: int = 200,
    kind: str = "pearson",
) -> ObjectiveSet:
    """Greedy selection of the k mutually least correlated metrics.

    Seeds with the metric most correlated (in absolute value) with the
    distances, then repeatedly adds the metric minimizing its maximum
    absolute correlation with the ones already chosen.  Ties break by
    metric-set order; constant-valued metrics are skipped while any
    informative ones remain.  If no metric varies over the training set
    there is nothing to choose from, and a ValueError says so.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if kind not in _CORRELATIONS:
        raise ValueError(f"unknown correlation kind {kind!r}")
    corr = _CORRELATIONS[kind]
    columns = _design_matrix(metric_set, training, cap)
    distances = training.distances()
    informative = _varying(columns)

    def abs_corr(xs, ys) -> float:
        value = corr(xs, ys)
        return abs(value) if value != SENTINEL_FITNESS else 0.0

    seed = max(informative, key=lambda idx: (abs_corr(columns[idx], distances), -idx))
    chosen = [seed]
    while len(chosen) < min(k, len(informative)):
        best_idx = None
        best_score = None
        for idx in informative:
            if idx in chosen:
                continue
            score = max(abs_corr(columns[idx], columns[sel]) for sel in chosen)
            if best_score is None or score < best_score:
                best_idx, best_score = idx, score
        chosen.append(best_idx)
    # pad from the remainder only if every informative metric is already in
    if len(chosen) < k:
        for idx in range(len(columns)):
            if len(chosen) == k:
                break
            if idx not in chosen:
                chosen.append(idx)
    return ObjectiveSet(metric_set.rank, [metric_set.metrics[i] for i in chosen[:k]])


def objective_values(
    objectives: ObjectiveSet, p: Presentation, cap: int = 200
) -> tuple[float, ...]:
    return tuple(float(metric_value(d, p, cap)) for d in objectives.objectives)


@dataclass
class ScalarEnsemble:
    """Fitted weights together with their metric set; the single-objective
    search driver."""

    weights: EnsembleWeights
    metrics: MetricSet

    def __post_init__(self) -> None:
        if len(self.weights.weights) != len(self.metrics.metrics):
            raise ValueError("weight count does not match metric set size")

    @property
    def rank(self) -> int:
        return self.metrics.rank

    def value(self, p: Presentation, cap: int = 200) -> float:
        """Weighted linear combination of metric values; estimates distance
        to the trivial presentation, so lower is better."""
        acc = self.weights.intercept
        for w, d in zip(self.weights.weights, self.metrics.metrics):
            if w != 0.0:
                acc += w * metric_value(d, p, cap)
        return acc


def save_ensemble(model: ScalarEnsemble, path: str) -> None:
    """One ``weight <TAB> metric`` line per metric, after a header that
    holds the rank and the intercept."""
    rank = model.metrics.rank
    header = {"rank": rank, "intercept": repr(model.weights.intercept)}
    records = (
        (repr(w), notation.format_sequence(d, rank))
        for w, d in zip(model.weights.weights, model.metrics.metrics)
    )
    formats.write_file(path, "ensemble", header, records)


def load_ensemble(path: str) -> ScalarEnsemble:
    weights, metrics = [], []
    with formats.read_file(path, "ensemble", 2) as (header, records):
        rank = header.int("rank")
        intercept = header.float("intercept")
        for where, (weight, sequence) in records:
            weights.append(formats.parse_float(weight, "weight", where))
            metrics.append(formats.parse_sequence(sequence, rank, where))
    return ScalarEnsemble(EnsembleWeights(weights, intercept), MetricSet(rank, metrics))


def save_objectives(objectives: ObjectiveSet, path: str) -> None:
    records = (
        (notation.format_sequence(d, objectives.rank),) for d in objectives.objectives
    )
    formats.write_file(path, "objectives", {"rank": objectives.rank}, records)


def load_objectives(path: str) -> ObjectiveSet:
    with formats.read_file(path, "objectives", 1) as (header, records):
        rank = header.int("rank")
        objectives = [
            formats.parse_sequence(text, rank, where) for where, (text,) in records
        ]
    return ObjectiveSet(rank=rank, objectives=objectives)
