"""Tests of the benchmark itself, on tiny configurations.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

import make_reference
import run

run.import_library()

import tracing  # noqa: E402
from workloads import CONFIGS, WORKLOADS, Config, Unit, sha  # noqa: E402

TINY = {
    "learn": Config(
        ball=(2, 10, 4), learn_generations=2, save_ball=False, setup_repeats=2,
    ),
    "catalog": Config(
        ball=(2, 10, 4), learn_runs=2, learn_generations=2,
        population=14, restarts=2, generations=2,
        workers=2, setup_repeats=1,
    ),
    "ak3-multi": Config(
        ball=(2, 10, 4), learn_runs=5, learn_generations=2,
        population=20, generations=2, setup_repeats=1,
    ),
}


def declared() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def tiny(name: str, tmp_path):
    return WORKLOADS[name](TINY[name], str(tmp_path))


def tiny_reference(workload, seed: int) -> dict:
    return make_reference.reference_entry(workload, [seed])


def test_workloads_are_declared():
    assert declared()["workloads"] == list(run.NAMES) == list(WORKLOADS)
    assert list(CONFIGS) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_printed_names_are_declared(name, trace, tmp_path):
    workload = tiny(name, tmp_path)
    result = run.execute(workload, tiny_reference(workload, 3), 3, 0.1, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {n: m["unit"] for n, m in result["metrics"].items()}
    assert units == declared()[trace]
    for metric_name, metric in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric_name)
        assert isinstance(metric["value"], (int, float))
    assert tracing.patched_attributes() == []


def test_tracer_restores_every_attribute():
    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(tracing.patched_attributes()) == len(tracing.TARGETS)
    assert tracing.patched_attributes() == []
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("inside a traced block")
    assert tracing.patched_attributes() == []


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_digests_agree(name, tmp_path):
    workload = tiny(name, tmp_path)
    prepared = workload.setup(5)
    plain = workload.unit(prepared, 5, workload.cfg.workers)
    tracer = tracing.Tracer(ball=prepared.ball)
    with tracer.installed():
        traced = workload.unit(prepared, 5, 1)
    assert plain.digests == traced.digests
    assert tracer.stats  # the traced unit went through the wrappers


def test_self_time_excludes_wrapped_children():
    from actriv import solver
    from actriv.ball import build_ball
    from actriv.catalog import get_instance
    from actriv.ensemble import ObjectiveSet

    ball = build_ball(2, 14, 3)
    sequence = ((2, 0, 1),) * 10
    model = ObjectiveSet(2, [sequence])
    instance = get_instance("AK3").presentation
    tracer = tracing.Tracer(ball=ball)
    with tracer.installed():
        solver.evaluate_candidate(
            sequence, instance, model, ball, solver.SolverConfig(mode="multi")
        )
    assert tracer.calls("ball.membership") >= 1
    assert tracer.calls("ensemble.model") == 1
    total = tracer.total_s("solver.evaluate")
    inner = tracer.total_s("ball.membership") + tracer.total_s("ensemble.model")
    assert tracer.self_s("solver.evaluate") == pytest.approx(total - inner)


def test_gate_rejects_a_corrupted_record(tmp_path):
    workload = tiny("catalog", tmp_path)
    prepared = workload.setup(2)
    unit = workload.unit(prepared, 2, 1)
    expected = dict(unit.digests)
    assert run.failed_ops(unit, expected, workload.ops_per_unit()) == 0

    record, result = unit.runs[0]
    unit.runs[0] = (record, dataclasses.replace(result, generations=result.generations + 1))
    unit.digests = workload.record_digests(unit.runs)
    assert run.failed_ops(unit, expected, workload.ops_per_unit()) == 1


def test_check_rejects_a_bad_certificate(tmp_path):
    from actriv.catalog import get_instance, known_trivializations
    from actriv.solver import RunResult

    workload = tiny("catalog", tmp_path)
    prepared = workload.setup(2)
    record = get_instance("T1")
    published = known_trivializations()["T1"]
    # T1 itself is not in the tiny ball, so six inversions never get there
    forged = ((0, 0, 0),) * len(published)
    runs = [
        (record, RunResult("T1", 0, "solved", seq, len(seq), 0, 0, 0.0))
        for seq in (published, forged)
    ]
    unit = Unit(0.0, 0, {"0:T1": "", "1:T1": ""}, runs=runs)
    workload.check(prepared, unit)
    assert unit.failed == {"1:T1"}


def test_gate_fails_without_a_matching_reference(tmp_path):
    workload = tiny("ak3-multi", tmp_path)
    reference = tiny_reference(workload, 11)
    assert run.execute(workload, reference, 11, 0.1, False)["correct"]
    for seed, ball in ((12, reference["ball"]), (11, sha("another ball"))):
        result = run.execute(workload, dict(reference, ball=ball), seed, 0.1, False)
        assert not result["correct"] and result["failed"] == result["attempted"]


def test_reference_matches_configs():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name, cfg in CONFIGS.items():
        assert reference[name]["config"] == cfg.fingerprint()
        seeds = sorted(map(int, reference[name]["seeds"]))
        assert seeds == list(range(run.REFERENCE_SEEDS))
