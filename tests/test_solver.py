import json
import math
import multiprocessing
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import actriv.solver as solver
from actriv.ball import build_ball, sample_cases
from actriv.catalog import get_instance, known_trivializations
from actriv.ensemble import (
    EnsembleWeights,
    ObjectiveSet,
    ScalarEnsemble,
    fit_weights,
    trim_objectives,
)
from actriv.metrics import MetricSet
from actriv.presentations import (
    Presentation,
    apply_move,
    canonical_relators,
    conjugate_move,
    enumerate_moves,
    inverse_moves,
    invert_move,
    multiply_move,
    trivial_presentation,
)
from actriv.solver import (
    MEMO_WINDOW,
    SolverConfig,
    WindowMemo,
    crowding_distance,
    evaluate_candidate,
    mutate,
    nondominated_sort,
    result_record,
    run_campaign,
    run_search,
    write_results_jsonl,
    write_summary_csv,
    _selection_keys,
)
from actriv.variation import random_sequence
import reference_ga
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


@pytest.fixture(scope="module")
def rank3_setting():
    """A rank-3 ball, an instance outside it, and a model of each mode."""
    ball = build_ball(3, 8, 3)
    instance = trivial_presentation(3)
    for m in [multiply_move(0, 1), multiply_move(0, 2), multiply_move(1, 0),
              conjugate_move(2, 1), conjugate_move(0, -3)]:
        instance = apply_move(instance, m)
    assert instance not in ball
    training = sample_cases(ball, 40, rng_seed=2)
    metric_set = MetricSet(
        3,
        [
            (),
            (multiply_move(0, 1), invert_move(2)),
            (conjugate_move(2, 3), multiply_move(1, 2)),
        ],
    )
    models = {
        "single": ScalarEnsemble(fit_weights(metric_set, training), metric_set),
        "multi": trim_objectives(metric_set, training, k=2),
    }
    return ball, instance, models


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

    @settings(deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda dim: st.lists(st.tuples(*[GRID] * dim), min_size=1, max_size=6)
        ),
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=300),
    )
    def test_matches_reference_with_duplicates(self, pool, picks):
        """Points drawn from a pool of at most six, as tuples or lists."""
        points = [
            list(pool[i % len(pool)]) if as_list else pool[i % len(pool)]
            for i, as_list in picks
        ]
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
        assert isinstance(out.value, float)

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

    def test_shared_memo_matches_fresh_calls(self, small_ball, scalar_model):
        rng = random.Random(23)
        member = Presentation(2, next(iter(small_ball.members)))
        starts = [get_instance(name).presentation for name in ("T1", "T13", "AK3")]
        cases = []
        for trial in range(480):
            cfg = tiny_config(relator_length_cap=rng.choice([20, 40, 200]))
            if trial % 3 == 0:
                instance, s = near_ball_case(small_ball, rng)
            elif trial % 3 == 1:
                instance = rng.choice(starts + [member])
                s = random_sequence(2, rng.randrange(6, 74), rng)
            else:
                # a repeat of an earlier case, or a mutant of one
                instance, s, cfg = rng.choice(cases)
                s = mutate(s, 2, rng)
            cases.append((instance, s, cfg))
        rng.shuffle(cases)
        known = {}
        later = set()
        for instance, s, cfg in cases:
            out = evaluate_candidate(s, instance, scalar_model, small_ball, cfg, known)
            fresh = evaluate_candidate(s, instance, scalar_model, small_ball, cfg, None)
            assert out == fresh
            if out.status == "success":
                later.add(out.prefix_length > 0)
        # successes at prefix 0 and at a later step
        assert later == {False, True}
        assert known

    def test_memo_miss_canonicalizes_and_repeat_does_not(
        self, small_ball, scalar_model, monkeypatch
    ):
        calls = []

        def counting(rels):
            calls.append(tuple(rels))
            return canonical_relators(rels)

        monkeypatch.setattr(solver, "canonical_relators", counting)
        cap = small_ball.max_total_length
        cfg = tiny_config()
        rng = random.Random(29)
        known, checked = {}, set()
        for _ in range(60):
            instance, s = near_ball_case(small_ball, rng)
            if len(s) < cfg.min_length:
                continue
            # the states the check reaches: in-cap ones, up to the first
            # member or the relator cap
            reached = set()
            for rels in reference_trace(instance.relators, s):
                if total(rels) <= cap:
                    reached.add(rels)
                    if canonical_relators(rels) in small_ball.members:
                        break
                if total(rels) >= cfg.relator_length_cap:
                    break
            before = len(calls)
            evaluate_candidate(s, instance, scalar_model, small_ball, cfg, known)
            assert sorted(calls[before:]) == sorted(reached - checked)
            checked |= reached
            before = len(calls)
            evaluate_candidate(s, instance, scalar_model, small_ball, cfg, known)
            assert len(calls) == before
        assert set(known) == checked
        assert len(calls) == len(checked) > 0

    def test_ok_multi_mode(self, small_ball, objective_model):
        cfg = tiny_config(mode="multi")
        s = (multiply_move(0, 1),) * 8
        out = evaluate_candidate(
            s, get_instance("AK3").presentation, objective_model, small_ball, cfg
        )
        assert out.status == "ok"
        assert isinstance(out.value, tuple)
        assert len(out.value) == len(objective_model)


def counting_calls(monkeypatch):
    """Count ball-membership canonicalizations and model calls made through
    ``actriv.solver``."""
    calls = {"canonical": 0, "model": 0}

    def wrap(fn, key):
        def counted(*args):
            calls[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(
        solver, "canonical_relators", wrap(canonical_relators, "canonical")
    )
    monkeypatch.setattr(ScalarEnsemble, "value", wrap(ScalarEnsemble.value, "model"))
    monkeypatch.setattr(
        solver, "objective_values", wrap(solver.objective_values, "model")
    )
    return calls


class TestWindowMemo:
    @pytest.mark.parametrize("written", range(MEMO_WINDOW))
    def test_keeps_a_window_and_drops_two(self, written):
        """An entry last touched ``gap`` generations ago is kept while
        ``gap <= MEMO_WINDOW`` and gone once ``gap > 2 * MEMO_WINDOW``,
        whichever generation of a block it was written in."""
        for gap in range(1, 3 * MEMO_WINDOW):
            memo = WindowMemo()
            for _ in range(written):
                memo.end_generation()
            memo["state"] = 1.5
            for _ in range(gap):
                memo.end_generation()
            if gap <= MEMO_WINDOW:
                assert memo.get("state") == 1.5
            elif gap > 2 * MEMO_WINDOW:
                assert memo.get("state") is None

    def test_a_read_keeps_an_entry(self):
        """Read every generation, an entry outlives any number of
        rotations; a ``False`` one, as the membership memo holds, too."""
        memo = WindowMemo()
        memo["state"] = False
        for _ in range(5 * MEMO_WINDOW):
            assert memo.get("state") is False
            memo.end_generation()

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_checked_and_scored_once_within_the_window(
        self, mode, small_ball, scalar_model, objective_model, monkeypatch
    ):
        model = scalar_model if mode == "single" else objective_model
        cfg = tiny_config(mode=mode)
        calls = counting_calls(monkeypatch)
        # a candidate whose trace has an in-cap state outside the ball
        rng = random.Random(31)
        starts = [get_instance(name).presentation for name in ("T1", "T13")]
        for _ in range(1000):
            instance = rng.choice(starts)
            s = random_sequence(2, rng.randrange(8, 30), rng)
            calls.update(canonical=0, model=0)
            out = evaluate_candidate(s, instance, model, small_ball, cfg)
            if out.status == "ok" and calls["canonical"]:
                break
        else:
            pytest.fail("no candidate reaches an in-cap state and ends ok")
        first = dict(calls)
        known, scored = WindowMemo(), WindowMemo()

        def generation(read: bool) -> None:
            if read:
                got = evaluate_candidate(
                    s, instance, model, small_ball, cfg, known, scored
                )
                assert got == out
            known.end_generation()
            scored.end_generation()

        generation(read=True)
        assert calls == {key: 2 * n for key, n in first.items()}
        # seen again a window later, then every generation for three more
        for _ in range(MEMO_WINDOW - 1):
            generation(read=False)
        for _ in range(3 * MEMO_WINDOW + 1):
            generation(read=True)
        assert calls == {key: 2 * n for key, n in first.items()}
        # not seen for more than two windows: checked and scored again
        for _ in range(2 * MEMO_WINDOW + 1):
            generation(read=False)
        generation(read=True)
        assert calls == {key: 3 * n for key, n in first.items()}

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_keys_the_spelling_not_the_class(self, mode, small_ball):
        """Two final states of one class, spelled differently, score
        differently; each keeps its own score."""
        metric = (multiply_move(0, 1),)
        if mode == "single":
            model = ScalarEnsemble(EnsembleWeights([1.0], 0.0), MetricSet(2, [metric]))
        else:
            model = ObjectiveSet(2, [metric])
        ak3 = get_instance("AK3").presentation
        swapped = Presentation(2, ak3.relators[::-1])
        assert canonical_relators(swapped.relators) == canonical_relators(ak3.relators)
        # an even number of inversions ends where it starts
        s = (invert_move(0),) * 8
        cfg = tiny_config(mode=mode)
        fresh = [
            evaluate_candidate(s, p, model, small_ball, cfg) for p in (ak3, swapped)
        ]
        assert fresh[0].status == "ok"
        assert fresh[0] != fresh[1]
        known, scored = WindowMemo(), WindowMemo()
        shared = [
            evaluate_candidate(s, p, model, small_ball, cfg, known, scored)
            for p in (ak3, swapped, ak3, swapped)
        ]
        assert shared == fresh * 2

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("mode", ["single", "multi"])
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), per_generation=st.integers(1, 40))
    def test_shared_memo_matches_fresh_calls(
        self,
        rank,
        mode,
        seed,
        per_generation,
        small_ball,
        scalar_model,
        objective_model,
        rank3_setting,
    ):
        """Fresh candidates, repeats and mutants of earlier ones, shuffled:
        through one pair of memos, rotated every ``per_generation``
        candidates, each gives what a call with no memo gives."""
        rng = random.Random(seed)
        if rank == 2:
            ball = small_ball
            model = scalar_model if mode == "single" else objective_model
            starts = [get_instance(name).presentation for name in ("T1", "T13", "AK3")]

            def fresh():
                if rng.random() < 0.5:
                    return near_ball_case(ball, rng)
                return rng.choice(starts), random_sequence(2, rng.randrange(6, 74), rng)

        else:
            ball, instance, models = rank3_setting
            model = models[mode]

            def fresh():
                return instance, random_sequence(3, rng.randrange(6, 74), rng)

        cases = []
        for _ in range(120):
            roll = rng.random()
            if cases and roll < 0.3:
                cases.append(rng.choice(cases))
            elif cases and roll < 0.6:
                instance, s = rng.choice(cases)
                cases.append((instance, mutate(s, rank, rng)))
            else:
                cases.append(fresh())
        rng.shuffle(cases)
        # one memo pair serves one relator length cap
        cfg = tiny_config(mode=mode, relator_length_cap=rng.choice([40, 200]))
        known, scored = WindowMemo(), WindowMemo()
        for count, (instance, s) in enumerate(cases, start=1):
            out = evaluate_candidate(s, instance, model, ball, cfg, known, scored)
            assert out == evaluate_candidate(s, instance, model, ball, cfg)
            if count % per_generation == 0:
                known.end_generation()
                scored.end_generation()


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


def traced_search(monkeypatch, module, search, instance, model, ball, cfg, seed, name):
    """The record, the evaluated candidates in order and the trajectory of
    ``search``, collecting candidates where ``module`` looks up
    ``evaluate_candidate``."""
    seen = []

    def collecting(s, *args):
        seen.append(s)
        return evaluate_candidate(s, *args)

    with monkeypatch.context() as patch:
        patch.setattr(module, "evaluate_candidate", collecting)
        out = search(instance, model, ball, cfg, seed, name)
    return result_record(out, instance.rank), seen, out.trajectory


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

    @pytest.mark.parametrize(
        "name, mode, population, seed, outcome",
        [
            ("T1", "single", 30, 4, "solved"),
            ("AK3", "single", 30, 5, "exhausted"),
            ("AK3", "multi", 40, 3, "exhausted"),
        ],
    )
    def test_same_as_reference_loop(
        self,
        name,
        mode,
        population,
        seed,
        outcome,
        small_ball,
        scalar_model,
        objective_model,
        monkeypatch,
    ):
        """The engine gives the record, the trajectory and the evaluated
        candidates, in order, of the loop ``run_search`` had before
        ``metrics.evolve``."""
        instance = get_instance(name).presentation
        model = scalar_model if mode == "single" else objective_model
        cfg = tiny_config(
            mode=mode, population_size=population, max_generations=12
        )
        run = (instance, model, small_ball, cfg, seed, name)
        shipped = traced_search(monkeypatch, solver, run_search, *run)
        assert shipped[0]["outcome"] == outcome
        assert shipped[0]["generations"] > 0
        assert len(shipped[1]) == shipped[0]["evaluations"]
        reference = reference_ga.reference_run_search
        assert traced_search(monkeypatch, reference_ga, reference, *run) == shipped

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_same_as_reference_loop_across_memo_windows(
        self, mode, small_ball, scalar_model, objective_model, monkeypatch
    ):
        """Past two rotations of the run's memos, the engine still gives
        the reference loop's record, trajectory and evaluated candidates."""
        ak3 = get_instance("AK3").presentation
        model = scalar_model if mode == "single" else objective_model
        cfg = tiny_config(
            mode=mode, population_size=40, max_generations=2 * MEMO_WINDOW + 5
        )
        run = (ak3, model, small_ball, cfg, 6, "AK3")
        shipped = traced_search(monkeypatch, solver, run_search, *run)
        assert shipped[0]["outcome"] == "exhausted"
        assert shipped[0]["generations"] > 2 * MEMO_WINDOW
        reference = reference_ga.reference_run_search
        assert traced_search(monkeypatch, reference_ga, reference, *run) == shipped

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

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_model_rank_mismatch(self, small_ball, mode):
        metrics = [(multiply_move(2, 0),) * 8]
        model = {
            "single": ScalarEnsemble(EnsembleWeights([1.0], 0.0), MetricSet(3, metrics)),
            # mul:2:0 reads relator 2, which a rank-2 instance does not have
            "multi": ObjectiveSet(3, metrics),
        }[mode]
        t1 = get_instance("T1").presentation
        with pytest.raises(ValueError, match="rank 3 model cannot drive a rank 2"):
            run_search(t1, model, small_ball, tiny_config(mode=mode), seed=0)

    def test_ball_rank_mismatch_stops_before_any_candidate(
        self, scalar_model, monkeypatch
    ):
        scored = []

        def counting(*args, **kwargs):
            scored.append(args[0])
            return evaluate_candidate(*args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_candidate", counting)
        t1 = get_instance("T1").presentation
        with pytest.raises(
            ValueError, match="^a rank 3 ball cannot check a rank 2 instance$"
        ):
            run_search(t1, scalar_model, build_ball(3, 4, 1), tiny_config(), seed=0)
        assert scored == []

    @pytest.mark.parametrize("cap", [9, 10])
    def test_instance_at_relator_cap_stops_before_any_candidate(
        self, small_ball, scalar_model, monkeypatch, cap
    ):
        # T1's relators total 10 letters, so no move could stay under the cap
        scored = []

        def counting(*args, **kwargs):
            scored.append(args[0])
            return evaluate_candidate(*args, **kwargs)

        monkeypatch.setattr(solver, "evaluate_candidate", counting)
        t1 = get_instance("T1").presentation
        cfg = tiny_config(relator_length_cap=cap)
        with pytest.raises(
            ValueError,
            match=f"^relator_length_cap {cap} is not above the instance's total "
            "relator length 10$",
        ):
            run_search(t1, scalar_model, small_ball, cfg, seed=0)
        assert scored == []
        run_search(t1, scalar_model, small_ball, tiny_config(relator_length_cap=11), 0)
        assert scored

    def test_solved_run_verifies(self, small_ball, scalar_model):
        from actriv.proof import verify

        t1 = get_instance("T1").presentation
        cfg = tiny_config(population_size=60, max_generations=40)
        out = run_search(t1, scalar_model, small_ball, cfg, seed=7, instance_id="T1")
        if out.outcome != "solved":
            pytest.skip("seed did not solve at this tiny scale")
        proof = verify(t1, out.sequence, small_ball, "T1")
        assert proof.verified


class TestRank3:
    """Search and verification beyond the rank-2 instances of the catalog."""

    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_and_verifies(self, rank3_setting, mode, seed):
        from actriv.proof import verify

        ball, instance, models = rank3_setting
        cfg = tiny_config(mode=mode, max_generations=30)
        out = run_search(instance, models[mode], ball, cfg, seed=seed)
        assert out.outcome == "solved"
        assert verify(instance, out.sequence, ball).verified


class UnpicklableModel(ScalarEnsemble):
    """A scalar model that fails the moment anything pickles it."""

    def __reduce__(self):
        raise pickle.PicklingError("the model was pickled")


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

    @pytest.mark.parametrize("stop_on_first_solve", [False, True])
    def test_rejects_fewer_than_one_worker(
        self, stop_on_first_solve, small_ball, scalar_model
    ):
        cfg = tiny_config(stop_on_first_solve=stop_on_first_solve)
        ak3 = get_instance("AK3").presentation
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            run_campaign(ak3, scalar_model, small_ball, cfg, 6, workers=0)

    def test_stop_on_first_solve_with_workers(self, small_ball, scalar_model):
        member = Presentation(2, next(iter(small_ball.members)))
        cfg = tiny_config(restarts=5, stop_on_first_solve=True)
        results = run_campaign(member, scalar_model, small_ball, cfg, 6, workers=2)
        assert [r.outcome for r in results] == ["solved"]

    @pytest.mark.parametrize("mode", ["single", "multi"])
    def test_jsonl_identical_for_any_worker_count(
        self, tmp_path, mode, small_ball, scalar_model, objective_model
    ):
        model = scalar_model if mode == "single" else objective_model
        cfg = tiny_config(restarts=2, max_generations=3, mode=mode)
        t1 = get_instance("T1").presentation
        files = {}
        # seed 14 gives one exhausted and one solved run in both modes; three
        # workers for two restarts must still work
        for workers in (1, 2, 3):
            results = run_campaign(t1, model, small_ball, cfg, 14, "T1", workers)
            path = tmp_path / f"{workers}.jsonl"
            write_results_jsonl(results, 2, str(path))
            files[workers] = path.read_bytes()
        assert files[2] == files[1]
        assert files[3] == files[1]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the model without pickling it",
    )
    def test_workers_receive_the_model_without_pickling(
        self, small_ball, scalar_model
    ):
        model = UnpicklableModel(scalar_model.weights, scalar_model.metrics)
        cfg = tiny_config(restarts=3, max_generations=2)
        ak3 = get_instance("AK3").presentation
        shared = run_campaign(ak3, model, small_ball, cfg, 4, "AK3", workers=2)
        serial = run_campaign(ak3, scalar_model, small_ball, cfg, 4, "AK3")
        assert [result_record(r, 2) for r in shared] == [
            result_record(r, 2) for r in serial
        ]

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

    def test_relator_length_cap(self):
        with pytest.raises(ValueError, match="^relator_length_cap must be >= 1$"):
            SolverConfig(relator_length_cap=0).validate()

    @pytest.mark.parametrize("size", [0, -1])
    def test_tournament_size(self, size):
        with pytest.raises(ValueError, match="^tournament_size must be >= 1$"):
            SolverConfig(tournament_size=size).validate()
        SolverConfig(population_size=1, tournament_size=1).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_generations", -3, "^max_generations must be >= 0$"),
            ("time_budget_s", -5.0, "^time_budget_s must be >= 0$"),
            ("time_budget_s", math.nan, "^time_budget_s must be >= 0$"),
        ],
    )
    def test_stopping_rule(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{field: value}).validate()
        SolverConfig(**{field: 0}).validate()

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ((-0.5, 1.5, 0.0), r"^p_insert must be in \[0, 1\], got -0.5$"),
            ((0.0, 1.5, -0.5), r"^p_replace must be in \[0, 1\], got 1.5$"),
            ((0.5, 0.6, -0.1), r"^p_delete must be in \[0, 1\], got -0.1$"),
        ],
    )
    def test_each_probability_in_unit_interval(self, probabilities, message):
        p_insert, p_replace, p_delete = probabilities
        cfg = SolverConfig(p_insert=p_insert, p_replace=p_replace, p_delete=p_delete)
        with pytest.raises(ValueError, match=message):
            cfg.validate()
        SolverConfig(p_insert=0.0, p_replace=1.0, p_delete=0.0).validate()

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
