"""In-memory tracing of the library's layers, installed from the outside.

The library imports most of its helpers with ``from ... import``, so a
call such as ``canonical_relators`` inside ``actriv.solver`` resolves the
name in ``actriv.solver``'s globals.  The tracer therefore wraps each name
at the module that imports it (see ``TARGETS``) and puts every original
back when it is uninstalled.

Two kinds of wrapper are used:

* coarse calls (ball build/save/load, ``evolve_metric``, ``run_search``,
  ``verify``, ...) record a span ``(name, start, end, parent)`` in memory;
* hot calls (``canonical_rep``, ``metric_value``, ``mutate``, ...) only add
  to aggregated counters: calls, total seconds and self seconds.

Every wrapper, coarse or hot, keeps the self time of its caller right: a
call's self time is its duration minus the time of wrapped calls made
inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import actriv.ball
import actriv.ensemble
import actriv.metrics
import actriv.presentations
import actriv.proof
import actriv.solver

_perf = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``owner.attr`` (or ``owner[attr]`` for a dict)."""

    owner: object
    attr: str
    label: str
    coarse: bool = False

    def get(self):
        if isinstance(self.owner, dict):
            return self.owner[self.attr]
        return getattr(self.owner, self.attr)

    def set(self, value) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.attr] = value
        else:
            setattr(self.owner, self.attr, value)


def _targets() -> list[Target]:
    ball, ens, met = actriv.ball, actriv.ensemble, actriv.metrics
    pres, proof, sol = actriv.presentations, actriv.proof, actriv.solver
    coarse = [
        (ball, "build_ball", "ball.build"),
        (ball, "save_ball", "ball.save"),
        (ball, "load_ball", "ball.load"),
        (met, "learn_metric_set", "metrics.learn_metric_set"),
        (met, "evolve_metric", "metrics.evolve_metric"),
        (ens, "fit_weights", "ensemble.fit"),
        (ens, "trim_objectives", "ensemble.trim"),
        (sol, "run_campaign", "solver.campaign"),
        (sol, "run_search", "solver.run_search"),
        (proof, "verify", "proof.verify"),
    ]
    hot = [
        (sol, "canonical_relators", "ball.membership"),
        (pres, "canonical_rep", "words.canonical_rep"),
        (ball, "canonical_rep", "words.canonical_rep"),
        (met, "metric_value", "metrics.metric_value"),
        (ens, "metric_value", "metrics.metric_value"),
        (met._CORRELATIONS, "pearson", "metrics.correlation"),
        (met._CORRELATIONS, "kendall", "metrics.correlation"),
        (ens.ScalarEnsemble, "value", "ensemble.model"),
        (sol, "objective_values", "ensemble.model"),
        (sol, "evaluate_candidate", "solver.evaluate"),
        (sol, "nondominated_sort", "solver.nsga.sort"),
        (sol, "crowding_distance", "solver.nsga.crowding"),
        (sol, "mutate", "variation.mutate"),
        (met, "mutate", "variation.mutate"),
        (proof, "lookup", "proof.lookup"),
    ]
    return [Target(o, a, lbl, True) for o, a, lbl in coarse] + [
        Target(o, a, lbl) for o, a, lbl in hot
    ]


TARGETS = _targets()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Spans and counters of one traced phase.

    ``ball`` is the ball whose membership is being tested; a membership
    call whose key is in ``ball.members`` counts as a hit.
    """

    ball: object = None
    spans: list[Span] = field(default_factory=list)
    # label -> [calls, total seconds, self seconds]
    stats: dict[str, list] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _child: list[float] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span_seconds(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def calls(self, label: str) -> int:
        return self.stats.get(label, (0, 0.0, 0.0))[0]

    def total_s(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[1]

    def self_s(self, label: str) -> float:
        return self.stats.get(label, (0, 0.0, 0.0))[2]

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        label = target.label
        stats = self.stats.setdefault(label, [0, 0.0, 0.0])
        child = self._child
        observe = _OBSERVERS.get(label)
        tracer, spans, open_spans = self, self.spans, self._open

        if target.coarse:

            def wrapper(*args, **kwargs):
                parent = open_spans[-1] if open_spans else None
                spans.append(Span(label, _perf(), 0.0, parent))
                open_spans.append(len(spans) - 1)
                child.append(0.0)
                t0 = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = _perf()
                    spans[open_spans.pop()].end = t1
                    _close(stats, child, t1 - t0)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    _close(stats, child, _perf() - t0)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        return wrapper

    @contextmanager
    def installed(self, coarse_only: bool = False):
        """Wrap every target for the duration of the block, then restore
        the original attributes, also when the block raises."""
        saved = []
        try:
            for target in TARGETS:
                if coarse_only and not target.coarse:
                    continue
                original = target.get()
                saved.append((target, original))
                target.set(self._wrap(target, original))
            yield self
        finally:
            for target, original in reversed(saved):
                target.set(original)


def _close(stats: list, child: list[float], elapsed: float) -> None:
    inner = child.pop()
    if child:
        child[-1] += elapsed
    stats[0] += 1
    stats[1] += elapsed
    stats[2] += elapsed - inner


# -- observers: counts that need the arguments or the result ----------------


def _observe_membership(tracer: Tracer, args, key) -> None:
    if tracer.ball is not None and key in tracer.ball.members:
        tracer.count("ball.membership.hits")


def _observe_evaluate(tracer: Tracer, args, evaluation) -> None:
    sequence = args[0]
    if sequence in tracer._seen:
        tracer.count("solver.duplicates")
    else:
        tracer._seen.add(sequence)
    if evaluation.status == "success":
        tracer.count("solver.success")
    elif evaluation.status == "penalized":
        tracer.count(f"solver.penalized.{evaluation.reason}")


def _observe_run_search(tracer: Tracer, args, result) -> None:
    # duplicates are counted within one search run
    tracer._seen = set()


def _observe_verify(tracer: Tracer, args, proof) -> None:
    if proof.verified:
        tracer.count("proof.verified")


_OBSERVERS = {
    "ball.membership": _observe_membership,
    "solver.evaluate": _observe_evaluate,
    "solver.run_search": _observe_run_search,
    "proof.verify": _observe_verify,
}

_ORIGINALS = [target.get() for target in TARGETS]


def patched_attributes() -> list[str]:
    """Targets whose current value is not the one found at import."""
    return [
        f"{t.owner!r}.{t.attr}"
        for t, original in zip(TARGETS, _ORIGINALS)
        if t.get() is not original
    ]
