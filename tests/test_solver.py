import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import actriv.solver as solver
from actriv.ball import build_ball, sample_cases
from actriv.catalog import get_instance, known_trivializations
from actriv.ensemble import (
    ScalarEnsemble,
    fit_weights,
    trim_objectives,
)
from actriv.metrics import MetricSet
from actriv.presentations import (
    Presentation,
    canonical_relators,
    conjugate_move,
    enumerate_moves,
    inverse_moves,
    invert_move,
    multiply_move,
)
from actriv.solver import (
    SolverConfig,
    crowding_distance,
    evaluate_candidate,
    mutate,
    nondominated_sort,
    random_sequence,
    result_record,
    run_campaign,
    run_search,
    write_results_jsonl,
    write_summary_csv,
    _selection_keys,
)
from reference_moves import reference_apply, reference_trace, total
from reference_nsga import reference_nondominated_sort


@pytest.fixture(scope="module")
def small_ball():
    return build_ball(2, 8, 5)


@pytest.fixture(scope="module")
def scalar_model(small_ball):
    training = sample_cases(small_ball, 40, rng_seed=2)
    metric_set = MetricSet(
        2,
        [
            (),
            (multiply_move(0, 1), invert_move(0)),
            (conjugate_move(0, 2), multiply_move(1, 0)),
        ],
    )
    return ScalarEnsemble(fit_weights(metric_set, training), metric_set)


@pytest.fixture(scope="module")
def objective_model(small_ball):
    training = sample_cases(small_ball, 40, rng_seed=2)
    metric_set = MetricSet(
        2,
        [
            (),
            (multiply_move(0, 1),),
            (invert_move(0), multiply_move(0, 1)),
            (conjugate_move(1, -1),),
        ],
    )
    return trim_objectives(metric_set, training, k=3)


def tiny_config(**overrides):
    base = dict(
        population_size=30,
        max_generations=5,
        restarts=2,
        time_budget_s=60.0,
        mode="single",
    )
    base.update(overrides)
    return SolverConfig(**base)


class TestMutate:
    def test_insertion_grows_by_one(self):
        rng = random.Random(0)
        s = random_sequence(2, 10, rng)
        out = mutate(s, 2, rng, p_insert=1.0, p_replace=0.0, p_delete=0.0)
        assert len(out) == 11

    def test_deletion_shrinks_by_one(self):
        rng = random.Random(1)
        s = random_sequence(2, 10, rng)
        out = mutate(s, 2, rng, p_insert=0.0, p_replace=0.0, p_delete=1.0)
        assert len(out) == 9

    def test_replacement_keeps_length(self):
        rng = random.Random(2)
        s = random_sequence(2, 10, rng)
        out = mutate(s, 2, rng, p_insert=0.0, p_replace=1.0, p_delete=0.0)
        assert len(out) == 10

    def test_empty_sequence_noops(self):
        rng = random.Random(3)
        assert mutate((), 2, rng, 0.0, 1.0, 0.0) == ()
        assert mutate((), 2, rng, 0.0, 0.0, 1.0) == ()

    def test_bad_probabilities(self):
        rng = random.Random(4)
        with pytest.raises(ValueError):
            mutate((), 2, rng, 0.5, 0.1, 0.1)

    def test_operator_frequencies(self):
        rng = random.Random(5)
        s = random_sequence(2, 20, rng)
        deltas = [len(mutate(s, 2, rng)) - 20 for _ in range(100_000)]
        inserts = deltas.count(1) / len(deltas)
        deletes = deltas.count(-1) / len(deltas)
        replaces = deltas.count(0) / len(deltas)
        assert abs(inserts - 0.1) < 0.01
        assert abs(deletes - 0.1) < 0.01
        assert abs(replaces - 0.8) < 0.01
        # expected length drift is zero
        assert abs(sum(deltas) / len(deltas)) < 0.01


class TestNondominatedSort:
    def test_chain(self):
        assert nondominated_sort([(1, 1), (2, 2)]) == [0, 1]

    def test_mutually_nondominating(self):
        assert nondominated_sort([(1, 2), (2, 1)]) == [0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nondominated_sort([(1, 2), (1, 2, 3)])

    def test_against_definition_oracle(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(1, 8)
            points = [
                (rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(n)
            ]
            assert nondominated_sort(points) == peel_oracle(points)


def dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def peel_oracle(points):
    """Rank by repeatedly removing the currently non-dominated points."""
    remaining = set(range(len(points)))
    ranks = [None] * len(points)
    rank = 0
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(points[j], points[i]) for j in remaining if j != i)
        ]
        for i in front:
            ranks[i] = rank
        remaining -= set(front)
        rank += 1
    return ranks


# a coarse grid, so equal coordinates and duplicate points are common
GRID = st.sampled_from([-math.inf, -1, 0, 0.5, 1, 2, math.inf])
point_sets = st.integers(1, 6).flatmap(
    lambda dim: st.lists(st.tuples(*[GRID] * dim), max_size=200)
)


class TestNondominatedSortAgainstReference:
    @settings(deadline=None)
    @given(point_sets)
    def test_matches_reference(self, points):
        ranks = nondominated_sort(points)
        assert ranks == reference_nondominated_sort(points)
        assert all(type(r) is int for r in ranks)

    def test_population_scale(self):
        rng = random.Random(1000)
        points = [tuple(rng.randint(0, 200) for _ in range(5)) for _ in range(1000)]
        ranks = nondominated_sort(points)
        assert ranks == reference_nondominated_sort(points)
        assert all(type(r) is int for r in ranks)


class TestCrowding:
    def test_two_point_front_infinite(self):
        assert crowding_distance([(1, 2), (3, 0)]) == [math.inf, math.inf]

    def test_middle_point(self):
        out = crowding_distance([(0, 2), (1, 1), (2, 0)])
        assert out[0] == math.inf
        assert out[2] == math.inf
        assert out[1] == pytest.approx(2.0)

    def test_zero_range_objective_contributes_nothing(self):
        out = crowding_distance([(0, 5), (1, 5), (2, 5)])
        assert out[1] == pytest.approx(1.0)

    def test_identical_points_small_front(self):
        assert crowding_distance([(1, 1), (1, 1)]) == [math.inf, math.inf]


def reference_evaluation(s, instance, ball, cfg):
    """(status, reason, prefix_length) of evaluate_candidate, by replaying s
    through the reference moves and testing ball membership at every step."""
    if len(s) < cfg.min_length:
        return "penalized", "too_short", None
    if len(s) > cfg.max_length:
        return "penalized", "too_long", None
    for step, rels in enumerate(reference_trace(instance.relators, s)):
        if canonical_relators(rels) in ball.members:
            return "success", None, step
        if total(rels) >= cfg.relator_length_cap:
            return "penalized", "relator_cap", None
    return "ok", None, None


def near_ball_case(ball, rng):
    """A start a few random moves away from a ball member, and a sequence
    that undoes those moves, then wanders off."""
    moves = enumerate_moves(2)
    rels = rng.choice(list(ball.members))
    walk = [rng.choice(moves) for _ in range(rng.randrange(1, 6))]
    for m in walk:
        rels = reference_apply(rels, m)
    undo = [inv for m in reversed(walk) for inv in inverse_moves(m)]
    tail = random_sequence(2, rng.randrange(0, 20), rng)
    return Presentation(2, rels), tuple(undo) + tail


class TestEvaluateCandidate:
    def test_too_short_penalized(self, small_ball, scalar_model):
        cfg = tiny_config()
        rng = random.Random(7)
        s = random_sequence(2, 7, rng)
        out = evaluate_candidate(s, get_instance("T1").presentation, scalar_model, small_ball, cfg)
        assert out.status == "penalized"
        assert out.reason == "too_short"

    def test_too_long_penalized(self, small_ball, scalar_model):
        cfg = tiny_config()
        rng = random.Random(8)
        s = random_sequence(2, 71, rng)
        out = evaluate_candidate(s, get_instance("T1").presentation, scalar_model, small_ball, cfg)
        assert out.status == "penalized"
        assert out.reason == "too_long"

    def test_relator_cap_penalized(self, small_ball, scalar_model):
        cfg = tiny_config(relator_length_cap=60)
        bombs = (multiply_move(0, 1), multiply_move(1, 0)) * 6
        out = evaluate_candidate(
            bombs, get_instance("AK3").presentation, scalar_model, small_ball, cfg
        )
        assert out.status == "penalized"
        assert out.reason == "relator_cap"

    def test_published_candidate_prefix(self, scalar_model):
        # padded to the minimum length with junk that blows the trace out of
        # the ball, the published T1 certificate succeeds exactly at step 6
        ball = build_ball(2, 6, 6)
        cfg = tiny_config()
        padded = known_trivializations()["T1"] + (
            multiply_move(0, 1),
            multiply_move(0, 1),
        )
        assert len(padded) == 8
        out = evaluate_candidate(
            padded, get_instance("T1").presentation, scalar_model, ball, cfg
        )
        assert out.status == "success"
        assert out.prefix_length == 6

    def test_instance_already_in_ball(self, small_ball, scalar_model):
        cfg = tiny_config()
        member = Presentation(2, next(iter(small_ball.members)))
        s = random_sequence(2, 8, random.Random(9))
        out = evaluate_candidate(s, member, scalar_model, small_ball, cfg)
        assert out.status == "success"
        assert out.prefix_length == 0

    def test_ok_scalar_mode(self, small_ball, scalar_model):
        cfg = tiny_config()
        s = (multiply_move(0, 1),) * 8
        out = evaluate_candidate(
            s, get_instance("AK3").presentation, scalar_model, small_ball, cfg
        )
        assert out.status == "ok"
        assert out.scalar is not None

    def test_matches_reference_replay(self, small_ball, scalar_model):
        rng = random.Random(17)
        starts = [get_instance(name).presentation for name in ("T1", "T13", "AK3")]
        seen = set()
        for trial in range(400):
            cfg = tiny_config(relator_length_cap=rng.choice([20, 40, 200]))
            if trial % 2:
                instance, s = near_ball_case(small_ball, rng)
            else:
                instance = rng.choice(starts)
                s = random_sequence(2, rng.randrange(6, 74), rng)
            out = evaluate_candidate(s, instance, scalar_model, small_ball, cfg)
            expected = reference_evaluation(s, instance, small_ball, cfg)
            assert (out.status, out.reason, out.prefix_length) == expected
            seen.add(expected[:2])
        assert seen == {
            ("ok", None),
            ("success", None),
            ("penalized", "too_short"),
            ("penalized", "too_long"),
            ("penalized", "relator_cap"),
        }

    def test_ok_multi_mode(self, small_ball, objective_model):
        cfg = tiny_config(mode="multi")
        s = (multiply_move(0, 1),) * 8
        out = evaluate_candidate(
            s, get_instance("AK3").presentation, objective_model, small_ball, cfg
        )
        assert out.status == "ok"
        assert len(out.objectives) == len(objective_model)


class TestPenaltySelection:
    def make_evals(self, mode, small_ball, model):
        cfg = tiny_config(mode=mode, relator_length_cap=60)
        ak3 = get_instance("AK3").presentation
        rng = random.Random(10)
        candidates = (
            [random_sequence(2, 7, rng) for _ in range(5)]
            + [random_sequence(2, 71, rng) for _ in range(5)]
            + [(multiply_move(0, 1), multiply_move(1, 0)) * 6]
            + [random_sequence(2, 10, rng) for _ in range(10)]
        )
        evals = [
            evaluate_candidate(s, ak3, model, small_ball, cfg) for s in candidates
        ]
        return candidates, evals

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_penalized_never_beats_ok(self, mode, small_ball, scalar_model, objective_model):
        model = scalar_model if mode == "single" else objective_model
        candidates, evals = self.make_evals(mode, small_ball, model)
        keys = _selection_keys(evals, mode)
        ok = [k for k, e in zip(keys, evals) if e.status == "ok"]
        penalized = [k for k, e in zip(keys, evals) if e.status == "penalized"]
        assert ok and penalized
        assert max(ok) < min(penalized)
        # simulated tournaments never elect a penalized candidate
        rng = random.Random(11)
        for _ in range(2000):
            contenders = rng.sample(range(len(keys)), 7)
            winner = min(contenders, key=lambda idx: keys[idx])
            if any(evals[idx].status == "ok" for idx in contenders):
                assert evals[winner].status == "ok"


class TestRunSearch:
    def test_generation_zero_success(self, small_ball, scalar_model):
        member = Presentation(2, next(iter(small_ball.members)))
        cfg = tiny_config(max_generations=3)
        out = run_search(member, scalar_model, small_ball, cfg, seed=0, instance_id="m")
        assert out.outcome == "solved"
        assert out.generations == 0
        assert out.prefix_length == 0

    def test_zero_generation_budget_exhausts(self, small_ball, scalar_model):
        cfg = tiny_config(max_generations=0)
        out = run_search(
            get_instance("AK3").presentation,
            scalar_model,
            small_ball,
            cfg,
            seed=1,
        )
        assert out.outcome == "exhausted"
        assert out.generations == 0
        assert out.evaluations == cfg.population_size

    def test_time_budget_checked_at_generation_boundary(
        self, small_ball, scalar_model
    ):
        cfg = tiny_config(max_generations=50, time_budget_s=0.0)
        out = run_search(
            get_instance("AK3").presentation,
            scalar_model,
            small_ball,
            cfg,
            seed=2,
        )
        assert out.outcome == "timed_out"
        assert out.generations == 0
        assert out.evaluations == cfg.population_size

    def test_deterministic(self, small_ball, scalar_model):
        cfg = tiny_config(max_generations=4)
        ak3 = get_instance("AK3").presentation
        a = run_search(ak3, scalar_model, small_ball, cfg, seed=42)
        b = run_search(ak3, scalar_model, small_ball, cfg, seed=42)
        assert (a.outcome, a.sequence, a.prefix_length, a.generations) == (
            b.outcome,
            b.sequence,
            b.prefix_length,
            b.generations,
        )
        assert a.trajectory == b.trajectory

    def test_trajectory_improves(self, small_ball, scalar_model):
        cfg = tiny_config(max_generations=8)
        out = run_search(
            get_instance("AK3").presentation, scalar_model, small_ball, cfg, seed=3
        )
        values = [v for _, v in out.trajectory]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_multi_mode_runs(self, small_ball, objective_model):
        cfg = tiny_config(mode="multi", max_generations=3)
        out = run_search(
            get_instance("AK3").presentation, objective_model, small_ball, cfg, seed=4
        )
        assert out.outcome in ("exhausted", "solved")

    def test_multi_mode_same_with_reference_sort(
        self, small_ball, objective_model, monkeypatch
    ):
        """Pins a multi-mode run: the numpy sort must give the record and
        the evaluated candidates, in order, of the pure-Python sort."""
        ak3 = get_instance("AK3").presentation
        cfg = tiny_config(mode="multi", population_size=60, max_generations=6)

        def traced_run():
            seen = []

            def collecting(s, *args):
                seen.append(s)
                return evaluate_candidate(s, *args)

            with monkeypatch.context() as patch:
                patch.setattr(solver, "evaluate_candidate", collecting)
                out = run_search(ak3, objective_model, small_ball, cfg, seed=11)
            return result_record(out, ak3.rank), seen

        shipped = traced_run()
        assert shipped[0]["generations"] == cfg.max_generations
        assert len(shipped[1]) == 7 * cfg.population_size
        monkeypatch.setattr(
            solver, "nondominated_sort", reference_nondominated_sort
        )
        assert traced_run() == shipped

    def test_model_mode_mismatch(self, small_ball, scalar_model, objective_model):
        cfg = tiny_config(mode="multi")
        with pytest.raises(ValueError):
            run_search(
                get_instance("AK3").presentation, scalar_model, small_ball, cfg, seed=0
            )
        cfg = tiny_config(mode="single")
        with pytest.raises(ValueError):
            run_search(
                get_instance("AK3").presentation, objective_model, small_ball, cfg, seed=0
            )

    def test_solved_run_verifies(self, small_ball, scalar_model):
        from actriv.proof import verify

        t1 = get_instance("T1").presentation
        cfg = tiny_config(population_size=60, max_generations=40)
        out = run_search(t1, scalar_model, small_ball, cfg, seed=7, instance_id="T1")
        if out.outcome != "solved":
            pytest.skip("seed did not solve at this tiny scale")
        proof = verify(t1, out.sequence, small_ball, "T1")
        assert proof.verified


class TestCampaign:
    def test_restart_count(self, small_ball, scalar_model):
        cfg = tiny_config(restarts=3, max_generations=2)
        results = run_campaign(
            get_instance("AK3").presentation, scalar_model, small_ball, cfg, 5
        )
        assert len(results) == 3
        assert len({r.seed for r in results}) == 3

    def test_single_restart(self, small_ball, scalar_model):
        cfg = tiny_config(restarts=1, max_generations=2)
        results = run_campaign(
            get_instance("AK3").presentation, scalar_model, small_ball, cfg, 5
        )
        assert len(results) == 1

    def test_identical_master_seed_identical_jsonl(
        self, tmp_path, small_ball, scalar_model
    ):
        cfg = tiny_config(restarts=3, max_generations=3)
        ak3 = get_instance("AK3").presentation
        paths = []
        for tag in ("a", "b"):
            results = run_campaign(ak3, scalar_model, small_ball, cfg, 77, "AK3")
            path = tmp_path / f"{tag}.jsonl"
            write_results_jsonl(results, 2, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stop_on_first_solve(self, small_ball, scalar_model):
        member = Presentation(2, next(iter(small_ball.members)))
        cfg = tiny_config(restarts=5, stop_on_first_solve=True)
        results = run_campaign(member, scalar_model, small_ball, cfg, 6)
        assert len(results) == 1
        assert results[0].outcome == "solved"

    def test_jsonl_and_csv_content(self, tmp_path, small_ball, scalar_model):
        cfg = tiny_config(restarts=2, max_generations=2)
        results = run_campaign(
            get_instance("AK3").presentation, scalar_model, small_ball, cfg, 8, "AK3"
        )
        jsonl = tmp_path / "runs.jsonl"
        csv_path = tmp_path / "summary.csv"
        write_results_jsonl(results, 2, str(jsonl))
        write_summary_csv(results, str(csv_path))
        lines = jsonl.read_text().strip().split("\n")
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["instance"] == "AK3"
        assert record["outcome"] == "exhausted"
        assert "wall_time" not in record
        header = csv_path.read_text().splitlines()[0]
        assert "wall_time_s" in header

    def test_record_round_trips_sequence(self, small_ball, scalar_model):
        member = Presentation(2, next(iter(small_ball.members)))
        cfg = tiny_config(restarts=1)
        results = run_campaign(member, scalar_model, small_ball, cfg, 9, "m")
        record = result_record(results[0], 2)
        from actriv.notation import parse_sequence

        assert parse_sequence(record["sequence"], 2) == results[0].sequence


class TestConfigValidation:
    def test_probability_sum(self):
        with pytest.raises(ValueError):
            SolverConfig(p_insert=0.5).validate()

    def test_length_band(self):
        with pytest.raises(ValueError):
            SolverConfig(initial_length=4).validate()

    def test_mode(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="both").validate()

    def test_defaults_match_published_setup(self):
        cfg = SolverConfig()
        assert cfg.population_size == 1000
        assert cfg.initial_length == 8
        assert cfg.tournament_size == 7
        assert (cfg.p_insert, cfg.p_replace, cfg.p_delete) == (0.1, 0.8, 0.1)
        assert (cfg.min_length, cfg.max_length) == (8, 70)
        assert cfg.relator_length_cap == 200
        assert cfg.max_generations == 100_000
        assert cfg.time_budget_s == 3 * 3600.0
        assert cfg.restarts == 20
        cfg.validate()
