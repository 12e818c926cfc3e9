"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 4's final clause ("no solved run reports a trivialization prefix
below the published length 6") is implemented literally and marked as a
strict expected failure: a 2-move entry from T1 into any desk-scale ball
containing the published endpoint class exists and replays to the trivial
class, so the clause is unattainable under ball-membership success
detection at every ball size (see the project notes for the witness).
The sound parts of the criterion are asserted green.
"""

import math
import random
import time

import pytest

import goldens
from test_ball import reference_bfs
from test_metrics import kendall_oracle, pearson_oracle

from actriv.ball import FitnessCase, TrainingSet, build_ball, sample_cases
from actriv.catalog import get_instance, known_trivializations
from actriv.ensemble import ScalarEnsemble, fit_weights, trim_objectives
from actriv.metrics import (
    MetricGaConfig,
    MetricSet,
    kendall_tau,
    learn_metric_set,
    metric_value,
    pearson,
)
from actriv.notation import format_presentation
from actriv.presentations import (
    conjugate_move,
    enumerate_moves,
    multiply_move,
)
from actriv.proof import verify
from actriv.solver import (
    SolverConfig,
    _selection_keys,
    crowding_distance,
    evaluate_candidate,
    nondominated_sort,
    run_campaign,
    write_results_jsonl,
)
from actriv.variation import random_sequence
from test_solver import peel_oracle


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. golden replay


class TestCriterion1GoldenReplay:
    def test_golden_replay(self, golden_ball):
        elapsed = {}
        for name, start, steps in (
            ("T1", goldens.T1_START, goldens.T1_STEPS),
            ("T13", goldens.T13_START, goldens.T13_STEPS),
        ):
            record = get_instance(name)
            t0 = time.monotonic()
            proof = verify(
                record.presentation, known_trivializations()[name], golden_ball, name
            )
            elapsed[name] = time.monotonic() - t0
            assert proof.verified
            assert proof.prefix_length == len(steps)
            got = [
                (s.move_text, format_presentation(s.presentation, sorted_relators=True))
                for s in proof.steps
            ]
            assert got == steps
        assert goldens.T1_STEPS[-1][1] == "<a,b|B,aBA^2>"
        assert goldens.T13_STEPS[-1][1] == "<a,b|A,Ba^2bAbA>"
        report(
            "1 (golden replay)",
            max(elapsed.values()) < 1.0,
            f"T1 in 6 moves, T13 in 7; verify times "
            f"{elapsed['T1']:.3f}s/{elapsed['T13']:.3f}s",
        )


# ---------------------------------------------------------------------------
# 2. move census


class TestCriterion2MoveCensus:
    def test_census(self):
        t0 = time.monotonic()
        sizes = [len(enumerate_moves(rank)) for rank in (1, 2, 3, 4)]
        ok = sizes == [3, 12, 27, 48] and time.monotonic() - t0 < 1.0
        report("2 (move census)", ok, f"sizes {sizes}")


# ---------------------------------------------------------------------------
# 3. BFS oracle equivalence


class TestCriterion3BfsOracle:
    def test_depths_and_samples(self):
        t0 = time.monotonic()
        ball = build_ball(2, 12, 6)
        reference = reference_bfs(2, 12, 6, seed=101)
        assert ball.members.keys() == reference.keys()
        for key, depth, _, _ in ball.records():
            assert depth == reference[key]
        training = sample_cases(ball, 200, rng_seed=55)
        assert len(training.cases) == 200
        for case in training.cases:
            assert case.distance == ball.depth(ball.key_of(case.presentation))
        elapsed = time.monotonic() - t0
        report(
            "3 (BFS oracle equivalence)",
            elapsed < 120.0,
            f"{len(ball)} members re-checked, 200 samples, {elapsed:.1f}s",
        )


# ---------------------------------------------------------------------------
# 4. end-to-end desk-scale solve


@pytest.fixture(scope="module")
def desk_pipeline():
    started = time.monotonic()
    ball = build_ball(2, 14, 6)
    training = sample_cases(ball, 60, rng_seed=7)
    metric_set = learn_metric_set(
        training,
        runs=10,
        config=MetricGaConfig(population_size=100, generations=200),
        master_seed=2024,
    )
    weights = fit_weights(metric_set, training)
    model = ScalarEnsemble(weights, metric_set)
    cfg = SolverConfig(
        population_size=200,
        max_generations=2000,
        restarts=20,
        mode="single",
    )
    t1 = get_instance("T1")
    results = run_campaign(
        t1.presentation, model, ball, cfg, master_seed=99, instance_id="T1"
    )
    return {
        "ball": ball,
        "training": training,
        "metric_set": metric_set,
        "model": model,
        "cfg": cfg,
        "results": results,
        "elapsed": time.monotonic() - started,
    }


class TestCriterion4DeskScaleSolve:
    def test_solved_within_budget(self, desk_pipeline):
        solved = [r for r in desk_pipeline["results"] if r.outcome == "solved"]
        ok = len(solved) >= 1 and desk_pipeline["elapsed"] <= 600.0
        report(
            "4a (desk-scale solve)",
            ok,
            f"{len(solved)}/20 seeds solved in {desk_pipeline['elapsed']:.0f}s "
            f"(10 metrics, population 200, <=2000 generations)",
        )

    def test_published_candidate_scores_six(self, desk_pipeline):
        # the published 6-move certificate padded to the minimum candidate
        # length enters the ball at the near-trivial region at step 6
        padded = known_trivializations()["T1"] + (
            multiply_move(0, 1),
            multiply_move(0, 1),
        )
        t1 = get_instance("T1")
        out = evaluate_candidate(
            padded, t1.presentation, desk_pipeline["model"],
            desk_pipeline["ball"], desk_pipeline["cfg"],
        )
        ok = out.status == "success" and out.prefix_length == 6
        if ok:
            proof = verify(t1.presentation, padded, desk_pipeline["ball"], "T1")
            ok = proof.verified
        report(
            "4b (published certificate scores its known length 6)",
            ok,
            f"status {out.status}, prefix {out.prefix_length}",
        )

    def test_solved_runs_verify(self, desk_pipeline):
        t1 = get_instance("T1")
        solved = [r for r in desk_pipeline["results"] if r.outcome == "solved"]
        checked = 0
        for r in solved:
            proof = verify(t1.presentation, r.sequence, desk_pipeline["ball"], "T1")
            assert proof.verified
            checked += 1
        report(
            "4c (solved runs verify end-to-end)",
            checked == len(solved) and checked >= 1,
            f"{checked} certificates replayed to the trivial class",
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "unattainable: a 2-move entry from T1 into any ball containing "
            "the published endpoint class exists (measured for every cap/depth "
            "combination), so ball-membership success admits prefixes below "
            "the published length 6; see notes"
        ),
    )
    def test_no_prefix_below_published_length(self, desk_pipeline):
        solved = [r for r in desk_pipeline["results"] if r.outcome == "solved"]
        shortest = min(r.prefix_length for r in solved)
        ok = shortest >= 6
        report(
            "4d (no prefix below the published length)",
            ok,
            f"shortest solved prefix {shortest}",
        )


# ---------------------------------------------------------------------------
# 5. correlation oracles


class TestCriterion5CorrelationOracles:
    def test_oracle_agreement(self):
        rng = random.Random(500)
        checked = 0
        while checked < 100:
            n = rng.randrange(2, 31)
            xs = [rng.randrange(0, 15) for _ in range(n)]
            ys = [rng.randrange(0, 15) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(pearson(xs, ys) - pearson_oracle(xs, ys)) < 1e-12
            assert abs(kendall_tau(xs, ys) - kendall_oracle(xs, ys)) < 1e-12
            checked += 1
        exact = kendall_tau([1, 2, 3], [1, 3, 2]) == 1 / 3
        report(
            "5 (correlation oracles)",
            exact,
            "100 random vectors within 1e-12; kendall([1,2,3],[1,3,2]) == 1/3",
        )


# ---------------------------------------------------------------------------
# 6. regression recovery


class TestCriterion6RegressionRecovery:
    def test_recovers_weights(self):
        import numpy as np

        ball = build_ball(2, 10, 5)
        sampled = sample_cases(ball, 60, rng_seed=6)
        d1, d2 = (), (multiply_move(0, 1),)
        metric_set = MetricSet(2, [d1, d2])
        v1 = [metric_value(d1, c.presentation, 200) for c in sampled.cases]
        v2 = [metric_value(d2, c.presentation, 200) for c in sampled.cases]
        design = np.column_stack([np.ones(len(v1)), v1, v2])
        assert np.linalg.matrix_rank(design) == 3
        labelled = TrainingSet(
            2,
            [
                FitnessCase(c.presentation, 2 * a + 3 * b + 1)
                for c, a, b in zip(sampled.cases, v1, v2)
            ],
        )
        w = fit_weights(metric_set, labelled)
        errors = (
            abs(w.weights[0] - 2),
            abs(w.weights[1] - 3),
            abs(w.intercept - 1),
        )
        report(
            "6 (regression recovery)",
            max(errors) < 1e-9,
            f"recovered (2, 3) + intercept 1 over {len(v1)} cases, "
            f"max error {max(errors):.2e}",
        )


# ---------------------------------------------------------------------------
# 7. NSGA-II oracle


class TestCriterion7NsgaOracle:
    def test_sort_against_oracle(self):
        rng = random.Random(700)
        for _ in range(1000):
            n = rng.randrange(1, 51)
            dim = rng.randrange(1, 6)
            points = [
                tuple(rng.randrange(0, 10) for _ in range(dim)) for _ in range(n)
            ]
            assert nondominated_sort(points) == peel_oracle(points)
        two_point_fronts_infinite = all(
            crowding_distance(
                [
                    tuple(rng.randrange(0, 10) for _ in range(d)),
                    tuple(rng.randrange(0, 10) for _ in range(d)),
                ]
            )
            == [math.inf, math.inf]
            for d in (1, 2, 5)
        )
        report(
            "7 (NSGA-II oracle)",
            two_point_fronts_infinite,
            "1000 random point sets match the dominance oracle; "
            "2-point fronts infinite",
        )


# ---------------------------------------------------------------------------
# 8. determinism


class TestCriterion8Determinism:
    def test_byte_identical_jsonl(self, tmp_path):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 30, rng_seed=12)
        metric_set = MetricSet(
            2,
            [
                (),
                (multiply_move(0, 1),),
                (conjugate_move(0, -2), multiply_move(1, 0)),
            ],
        )
        scalar = ScalarEnsemble(fit_weights(metric_set, training), metric_set)
        objectives = trim_objectives(metric_set, training, k=2)
        ak3 = get_instance("AK3").presentation
        outputs = []
        for mode, model in (("single", scalar), ("multi", objectives)):
            cfg = SolverConfig(
                population_size=30,
                max_generations=3,
                restarts=3,
                mode=mode,
            )
            blobs = []
            for tag, workers in (("r1", 1), ("r2", 1), ("r3", 2)):
                results = run_campaign(
                    ak3, model, ball, cfg, master_seed=321,
                    instance_id="AK3", workers=workers,
                )
                path = tmp_path / f"{mode}-{tag}.jsonl"
                write_results_jsonl(results, 2, str(path))
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]
            outputs.append(mode)
        report(
            "8 (determinism)",
            outputs == ["single", "multi"],
            "byte-identical JSONL across repeats and worker counts, both modes",
        )


# ---------------------------------------------------------------------------
# 9. penalty rules


class TestCriterion9PenaltyRules:
    def test_penalized_never_survive(self):
        ball = build_ball(2, 8, 4)
        training = sample_cases(ball, 30, rng_seed=13)
        metric_set = MetricSet(2, [(), (multiply_move(0, 1),)])
        scalar = ScalarEnsemble(fit_weights(metric_set, training), metric_set)
        objectives = trim_objectives(metric_set, training, k=2)
        ak3 = get_instance("AK3").presentation
        rng = random.Random(900)
        candidates = (
            [random_sequence(2, 7, rng) for _ in range(4)]
            + [random_sequence(2, 71, rng) for _ in range(4)]
            + [(multiply_move(0, 1), multiply_move(1, 0)) * 6]
            + [random_sequence(2, 12, rng) for _ in range(9)]
        )
        tournaments = 0
        for mode, model in (("single", scalar), ("multi", objectives)):
            cfg = SolverConfig(
                population_size=30, mode=mode, relator_length_cap=60
            )
            evals = [
                evaluate_candidate(s, ak3, model, ball, cfg) for s in candidates
            ]
            reasons = {e.reason for e in evals if e.status == "penalized"}
            assert reasons == {"too_short", "too_long", "relator_cap"}
            assert any(e.status == "ok" for e in evals)
            keys = _selection_keys(evals, mode)
            for _ in range(3000):
                contenders = rng.sample(range(len(keys)), 7)
                winner = min(contenders, key=lambda idx: keys[idx])
                if any(evals[idx].status == "ok" for idx in contenders):
                    assert evals[winner].status == "ok"
                    tournaments += 1
        report(
            "9 (penalty rules)",
            tournaments > 0,
            f"{tournaments} tournaments, all three penalty clauses exercised",
        )
