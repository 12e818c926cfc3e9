"""Per-layer metrics of a traced run.

Counts and times of hot calls are per measured unit (the traced phase's
totals divided by its number of units); set-up layers use the median of
their spans over the set-up repeats.  A ratio or rate whose denominator
is zero on a workload (no NSGA-II sort on ``learn``, say) reads 0.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc

from actriv import ball as ball_mod
from actriv import catalog as catalog_mod
from workloads import median, solver_config


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def bytes_per_member(cfg) -> float:
    """Traced bytes held by a freshly built ball, per member."""
    gc.collect()
    tracemalloc.start()
    try:
        built = ball_mod.build_ball(*cfg.ball)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / len(built)


def campaign_task_bytes(prepared, cfg) -> int:
    """Pickled size of one campaign task, as the process pool sends it."""
    instance = catalog_mod.get_instance("T1").presentation
    task = (instance, prepared.model, prepared.ball, solver_config(cfg, "single"), 0, "T1")
    return len(pickle.dumps(task))


def layer_metrics(workload, prepared, setup_tracer, tracer, pool_units, baseline, traced):
    """Name -> (value, unit) for every per-layer metric."""
    cfg = workload.cfg
    n = len(traced)
    t = tracer

    def per_unit(x):
        return x / n

    build_s = median(setup_tracer.span_seconds("ball.build"))
    members = len(prepared.ball)
    evals = t.calls("solver.evaluate")
    sorts = t.calls("solver.nsga.sort")
    verifies = t.calls("proof.verify")
    is_campaign = workload.name == "catalog"
    pool_s = sum(u.pool_seconds for u in pool_units)
    run_walls = sum(r.wall_time_s for u in pool_units for _, r in u.runs) if is_campaign else 0
    untraced_s = median([u.seconds for u in baseline])
    traced_s = median([u.seconds for u in traced])
    fits = setup_tracer.span_seconds("ensemble.fit") + t.span_seconds("ensemble.fit")
    return {
        "ball.build_s": (build_s, "s"),
        "ball.members": (members, "count"),
        "ball.members_per_s": (_ratio(members, build_s), "1/s"),
        "ball.bytes_per_member": (bytes_per_member(cfg), "B"),
        "ball.save_s": (median(setup_tracer.span_seconds("ball.save")), "s"),
        "ball.load_s": (median(setup_tracer.span_seconds("ball.load")), "s"),
        "ball.file_bytes": (prepared.ball_file_bytes, "B"),
        "ball.membership.calls": (per_unit(t.calls("ball.membership")), "count"),
        "ball.membership.s": (per_unit(t.total_s("ball.membership")), "s"),
        "ball.membership.hit_ratio": (
            _ratio(t.counts.get("ball.membership.hits", 0), t.calls("ball.membership")),
            "ratio",
        ),
        "words.canonical_rep.calls": (per_unit(t.calls("words.canonical_rep")), "count"),
        "words.canonical_rep.s": (per_unit(t.total_s("words.canonical_rep")), "s"),
        "metrics.metric_value.calls": (per_unit(t.calls("metrics.metric_value")), "count"),
        "metrics.metric_value.s": (per_unit(t.total_s("metrics.metric_value")), "s"),
        "metrics.correlation.s": (per_unit(t.total_s("metrics.correlation")), "s"),
        "metrics.evolve_metric.s": (per_unit(t.total_s("metrics.evolve_metric")), "s"),
        "ensemble.model.calls": (per_unit(t.calls("ensemble.model")), "count"),
        "ensemble.model.s": (per_unit(t.total_s("ensemble.model")), "s"),
        "ensemble.fit_s": (median(fits), "s"),
        "solver.evaluate.calls": (per_unit(evals), "count"),
        "solver.evaluate.self_s": (per_unit(t.self_s("solver.evaluate")), "s"),
        "solver.penalized.too_short": (
            per_unit(t.counts.get("solver.penalized.too_short", 0)), "count"
        ),
        "solver.penalized.too_long": (
            per_unit(t.counts.get("solver.penalized.too_long", 0)), "count"
        ),
        "solver.penalized.relator_cap": (
            per_unit(t.counts.get("solver.penalized.relator_cap", 0)), "count"
        ),
        "solver.success": (per_unit(t.counts.get("solver.success", 0)), "count"),
        "solver.duplicate_ratio": (
            _ratio(t.counts.get("solver.duplicates", 0), evals), "ratio"
        ),
        "solver.select.self_s": (per_unit(t.self_s("solver.run_search")), "s"),
        "solver.nsga.sort_s": (per_unit(t.total_s("solver.nsga.sort")), "s"),
        "solver.nsga.crowding_s": (per_unit(t.total_s("solver.nsga.crowding")), "s"),
        "solver.nsga.ms_per_gen": (
            _ratio(
                1000 * (t.total_s("solver.nsga.sort") + t.total_s("solver.nsga.crowding")),
                sorts,
            ),
            "ms",
        ),
        "solver.campaign.task_bytes": (
            campaign_task_bytes(prepared, cfg) if is_campaign else 0, "B"
        ),
        "solver.campaign.efficiency": (
            _ratio(run_walls, cfg.workers * pool_s), "ratio"
        ),
        "variation.mutate.calls": (per_unit(t.calls("variation.mutate")), "count"),
        "variation.mutate.s": (per_unit(t.total_s("variation.mutate")), "s"),
        "proof.verify.calls": (per_unit(verifies), "count"),
        "proof.verify.s": (per_unit(t.total_s("proof.verify")), "s"),
        "proof.lookup.s": (per_unit(t.total_s("proof.lookup")), "s"),
        "proof.verified_ratio": (
            _ratio(t.counts.get("proof.verified", 0), verifies), "ratio"
        ),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s) - 1 if untraced_s else 0.0, "ratio"),
    }
