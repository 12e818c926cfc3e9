import math
import os
import random

import pytest
from hypothesis import given, strategies as st

import actriv.metrics as metrics
from actriv.ball import FitnessCase, TrainingSet, build_ball, sample_cases
from actriv.catalog import get_instance, known_trivializations
from actriv.metrics import (
    SENTINEL_FITNESS,
    MetricGaConfig,
    MetricSet,
    evolve_metric,
    kendall_tau,
    learn_metric_set,
    load_metric_set,
    metric_fitness,
    metric_value,
    metric_values,
    pearson,
    save_metric_set,
)
from actriv.presentations import (
    enumerate_moves,
    invert_move,
    make_presentation,
    multiply_move,
    total_length,
    trivial_presentation,
)
from actriv.variation import random_sequence
from reference_ga import reference_evolve_metric, reference_metric_fitness
from reference_moves import reference_trace, total


def pearson_oracle(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(
        sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
    )
    return num / den


def kendall_oracle(xs, ys):
    """Definition-direct tau-b by O(n^2) pair counting."""
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) // 2
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    return (concordant - discordant) / denom


@pytest.fixture(scope="module")
def small_training():
    ball = build_ball(2, 8, 6)
    return sample_cases(ball, 16, rng_seed=3)


@pytest.fixture(scope="module")
def length_labelled(small_training):
    """Distances replaced by total relator length: the neutral metric has
    correlation exactly 1 here."""
    cases = [
        FitnessCase(c.presentation, total_length(c.presentation))
        for c in small_training.cases
    ]
    return TrainingSet(2, cases)


class TestMetricValue:
    def test_empty_sequence_is_total_length(self):
        t1 = get_instance("T1").presentation
        assert metric_value((), t1, 200) == 10

    def test_published_sequence_on_t1(self):
        # final presentation <a,b|B,aBA^2>: letter count 1 + 4
        t1 = get_instance("T1").presentation
        assert metric_value(known_trivializations()["T1"], t1, 200) == 5

    def test_inversion_preserves_length(self):
        for name in ("T1", "T13", "AK3"):
            p = get_instance(name).presentation
            assert metric_value((invert_move(0),), p, 200) == total_length(p)

    def test_truncation_returns_cap(self):
        ak3 = get_instance("AK3").presentation
        bombs = (multiply_move(0, 1),) * 12
        assert metric_value(bombs, ak3, 50) == 50

    def test_agrees_with_trace(self):
        rng = random.Random(21)
        moves = enumerate_moves(2)
        p = get_instance("T1").presentation
        for _ in range(100):
            seq = tuple(rng.choice(moves) for _ in range(rng.randrange(0, 15)))
            cap = rng.choice([20, 40, 200])
            lengths = [total(rels) for rels in reference_trace(p.relators, seq)]
            expected = cap if max(lengths) >= cap else lengths[-1]
            assert metric_value(seq, p, cap) == expected


def reference_value(d, p, cap):
    """``metric_value`` from the reference trace: the last total, or cap
    once any state of the trace reaches it."""
    for rels in reference_trace(p.relators, d):
        if total(rels) >= cap:
            return cap
    return total(rels)


@st.composite
def walk_inputs(draw):
    """Sequences of one rank that share prefixes, repeat one another and
    include the empty one, with presentations of that rank and a small
    cap that some starting totals already reach."""
    rank = draw(st.sampled_from([2, 3]))
    moves = st.sampled_from(enumerate_moves(rank))
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    relator = st.lists(letters, max_size=6)
    presentations = draw(
        st.lists(
            st.lists(relator, min_size=rank, max_size=rank).map(
                lambda rels: make_presentation(rank, rels)
            ),
            min_size=1,
            max_size=4,
        )
    )
    stems = draw(st.lists(st.lists(moves, max_size=8), min_size=1, max_size=3))
    seqs = [()]
    for _ in range(draw(st.integers(0, 12))):
        stem = draw(st.sampled_from(stems))
        cut = draw(st.integers(0, len(stem)))
        seqs.append(tuple(stem[:cut]) + tuple(draw(st.lists(moves, max_size=4))))
    seqs += draw(st.lists(st.sampled_from(seqs), max_size=4))
    seqs = draw(st.permutations(seqs))
    return seqs, presentations, draw(st.integers(1, 24))


class TestMetricValues:
    @given(walk_inputs())
    def test_matches_metric_value(self, inputs):
        seqs, presentations, cap = inputs
        assert metric_values(seqs, presentations, cap) == [
            [metric_value(d, p, cap) for p in presentations] for d in seqs
        ]

    def test_capped_prefix_caps_its_extensions(self):
        # on T1 (total 10) mul:0:1 gives total 13; inv:1 then mul:0:1
        # cancels it again, so (g, i, g) ends at 10 unless its prefix (g,)
        # was capped
        t1 = get_instance("T1").presentation
        g, i = multiply_move(0, 1), invert_move(1)
        seqs = [(g, i, g), (g,), (g, i)]
        assert metric_values(seqs, [t1], 14) == [[10], [13], [13]]
        assert metric_values(seqs, [t1], 13) == [[13], [13], [13]]

    def test_capped_and_uncapped_starts_in_one_call(self):
        # AK3 starts past the cap and T1 below it; T1's walks reach the cap
        # from some prefixes and not from others
        rng = random.Random(5)
        moves = enumerate_moves(2)
        t1, ak3 = (get_instance(name).presentation for name in ("T1", "AK3"))
        cap = total(ak3.relators) - 1
        presentations = [t1, ak3, t1]
        stems = [tuple(rng.choices(moves, k=6)) for _ in range(3)]
        seqs = [()] + [
            stem[: rng.randrange(7)] + tuple(rng.choices(moves, k=rng.randrange(4)))
            for stem in stems
            for _ in range(10)
        ]
        rows = metric_values(seqs, presentations, cap)
        assert rows == [
            [reference_value(d, p, cap) for p in presentations] for d in seqs
        ]
        assert {row[1] for row in rows} == {cap}
        assert {row[0] == cap for row in rows} == {True, False}

    def test_start_at_cap(self):
        t1 = get_instance("T1").presentation
        seqs = [(), (invert_move(0),)]
        assert metric_values(seqs, [t1], 10) == [[10], [10]]
        assert metric_values(seqs, [t1], 11) == [[10], [10]]

    def test_rows_in_input_order_and_not_shared(self):
        t1 = get_instance("T1").presentation
        d = (multiply_move(0, 1),)
        rows = metric_values([d, (), d], [t1, t1], 200)
        assert rows == [[13, 13], [10, 10], [13, 13]]
        rows[0].append(0)
        assert rows[2] == [13, 13]

    def test_no_sequences_or_no_presentations(self):
        t1 = get_instance("T1").presentation
        assert metric_values([], [t1], 200) == []
        assert metric_values([(), ()], [], 200) == [[], []]


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_exact_anti(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_zero_variance_sentinel(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == SENTINEL_FITNESS

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestKendall:
    def test_one_third(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == 1 / 3

    def test_same_ranking(self):
        assert kendall_tau([1, 2, 3], [2, 4, 6]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1, 2], [2, 1]) == -1.0

    def test_all_tied_sentinel(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) == SENTINEL_FITNESS

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])


class TestCorrelationOracles:
    def test_random_vectors(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randrange(2, 31)
            xs = [rng.randrange(0, 12) for _ in range(n)]
            ys = [rng.randrange(0, 12) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert abs(pearson(xs, ys) - pearson_oracle(xs, ys)) < 1e-12
            assert abs(kendall_tau(xs, ys) - kendall_oracle(xs, ys)) < 1e-12


class TestMetricFitness:
    def test_neutral_metric_on_length_labels(self, length_labelled):
        assert metric_fitness((), length_labelled) == 1.0

    def test_constant_values_sentinel(self, small_training):
        # a single inversion never changes the total length, so labelling
        # every case with one fixed presentation's lengths is pointless;
        # instead build a set whose presentations all have equal length
        cases = [
            c for c in small_training.cases
            if total_length(c.presentation) == 8
        ]
        if len(cases) < 2:
            pytest.skip("not enough equal-length cases")
        there = TrainingSet(2, [FitnessCase(c.presentation, i) for i, c in enumerate(cases)])
        assert metric_fitness((), there) == SENTINEL_FITNESS

    def test_hand_computed_correlation(self, small_training):
        d = known_trivializations()["T1"]
        cases = small_training.cases[:3]
        subset = TrainingSet(2, cases)
        values = [metric_value(d, c.presentation, 200) for c in cases]
        distances = [c.distance for c in cases]
        if len(set(values)) < 2 or len(set(distances)) < 2:
            pytest.skip("degenerate subset for this seed")
        assert metric_fitness(d, subset) == pytest.approx(
            pearson_oracle(values, distances), abs=1e-12
        )

    def test_permutation_invariant(self, small_training):
        d = (multiply_move(0, 1), invert_move(1))
        base = metric_fitness(d, small_training)
        shuffled = list(small_training.cases)
        random.Random(4).shuffle(shuffled)
        assert metric_fitness(d, TrainingSet(2, shuffled)) == pytest.approx(
            base, abs=1e-12
        )

    def test_degenerate_training_set(self):
        t = trivial_presentation(2)
        with pytest.raises(ValueError):
            metric_fitness((), TrainingSet(2, [FitnessCase(t, 1), FitnessCase(t, 1)]))

    def test_kendall_kind(self, small_training):
        value = metric_fitness((), small_training, kind="kendall")
        assert -1.0 <= value <= 1.0


class TestEvolveMetric:
    def test_reaches_perfect_fit_on_length_labels(self, length_labelled):
        config = MetricGaConfig(population_size=60, generations=60)
        cand = evolve_metric(length_labelled, config, rng_seed=1)
        assert cand.fitness == pytest.approx(1.0, abs=1e-12)

    def test_beats_initial_population(self, small_training):
        config = MetricGaConfig(population_size=30, generations=15)
        seed = 17
        cand = evolve_metric(small_training, config, rng_seed=seed)
        # reconstruct the initial population exactly as evolve_metric does
        rng = random.Random(seed)
        initial = [
            random_sequence(2, config.initial_length, rng)
            for _ in range(config.population_size)
        ]
        best_initial = max(
            metric_fitness(d, small_training, config.correlation,
                           config.relator_length_cap)
            for d in initial
        )
        assert cand.fitness >= best_initial

    def test_deterministic(self, small_training):
        config = MetricGaConfig(population_size=20, generations=10)
        a = evolve_metric(small_training, config, rng_seed=5)
        b = evolve_metric(small_training, config, rng_seed=5)
        assert a == b

    def test_length_band_enforced(self, small_training):
        config = MetricGaConfig(population_size=20, generations=5)
        cand = evolve_metric(small_training, config, rng_seed=2)
        assert 8 <= len(cand.sequence) <= 70


class TestEvolveMetricAgainstReference:
    @pytest.mark.parametrize("kind", ["pearson", "kendall"])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_same_best_candidate(self, small_training, kind, seed, monkeypatch):
        """The engine gives the best candidate of the loop ``evolve_metric``
        had before ``evolve``, and every candidate of every generation the
        fitness that ``metric_value`` and the correlation give it alone."""
        config = MetricGaConfig(population_size=30, generations=15, correlation=kind)
        generations = []
        engine = metrics.evolve

        def recording(*args):
            for population, scores in engine(*args):
                generations.append((population, scores))
                yield population, scores

        monkeypatch.setattr(metrics, "evolve", recording)
        best = evolve_metric(small_training, config, seed)
        assert best == reference_evolve_metric(small_training, config, seed)
        assert len(generations) == config.generations + 1
        for population, scores in generations:
            assert scores == [
                reference_metric_fitness(d, small_training, config)
                for d in population
            ]
        # later generations repeat earlier candidates, which the run's memo
        # answers
        seen = [d for population, _ in generations for d in population]
        assert len(set(seen)) < len(seen)


class TestMetricGaConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"p_insert": 0.5},
            {"initial_length": 4},
            {"population_size": 6},
            {"generations": -1},
            {"correlation": "spearman"},
            {"relator_length_cap": 0},
        ],
        ids=["probabilities", "length_band", "population", "generations",
             "correlation", "relator_length_cap"],
    )
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            MetricGaConfig(**overrides).validate()

    def test_defaults(self):
        config = MetricGaConfig()
        assert (config.population_size, config.generations) == (100, 200)
        assert config.tournament_size == 7
        assert config.correlation == "pearson"
        config.validate()


class TestLearnMetricSet:
    def test_fifty_runs_give_fifty_metrics(self, small_training):
        config = MetricGaConfig(population_size=8, generations=1)
        metric_set = learn_metric_set(
            small_training, runs=50, config=config, master_seed=3
        )
        assert len(metric_set) == 50

    def test_single_run(self, small_training):
        config = MetricGaConfig(population_size=8, generations=1)
        metric_set = learn_metric_set(
            small_training, runs=1, config=config, master_seed=3
        )
        assert len(metric_set) == 1

    def test_seed_splitting(self, small_training):
        config = MetricGaConfig(population_size=8, generations=0)
        metric_set = learn_metric_set(
            small_training, runs=4, config=config, master_seed=3
        )
        # independent streams: the best-of-initial-population sequences differ
        assert len(set(metric_set.metrics)) > 1

    def test_deterministic_and_parallel_identical(self, small_training):
        config = MetricGaConfig(population_size=10, generations=3)
        a = learn_metric_set(small_training, 3, config, master_seed=8, workers=1)
        b = learn_metric_set(small_training, 3, config, master_seed=8, workers=2)
        assert a.metrics == b.metrics
        assert a.fitnesses == b.fitnesses


class TestMapSeeds:
    @pytest.mark.parametrize("seeds, workers", [([1, 2, 3], 1), ([7], 3), ([], 2)])
    def test_one_process_runs_in_this_one(self, seeds, workers):
        pid = os.getpid()
        ran = metrics.map_seeds(lambda seed: (seed, os.getpid()), seeds, workers)
        assert ran == [(seed, pid) for seed in seeds]

    @pytest.mark.parametrize("seeds, workers", [([1, 2], 0), ([], -2)])
    def test_rejects_fewer_than_one_worker(self, seeds, workers):
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            metrics.map_seeds(lambda seed: seed, seeds, workers)


class TestPersistence:
    def test_round_trip(self, tmp_path, small_training):
        config = MetricGaConfig(population_size=8, generations=1)
        metric_set = learn_metric_set(
            small_training, runs=3, config=config, master_seed=1
        )
        path = str(tmp_path / "metrics.txt")
        save_metric_set(metric_set, path)
        loaded = load_metric_set(path)
        assert loaded.rank == 2
        assert loaded.metrics == metric_set.metrics

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# actriv-metrics runs=2\n", "metrics.txt: header has no 'rank'"),
            ("# actriv-metrics rank=2\ninv:0\n\nmul:0:7\n", "metrics.txt:4: bad move"),
            ("# actriv-metrics rank=2 runs=0\n\n", "metrics.txt: no records$"),
            (
                "# actriv-metrics rank=2 runs=2 rank=3\ninv:0\n",
                "metrics.txt: header key 'rank' is given twice",
            ),
        ],
        ids=["rank", "sequence", "empty", "rank-twice"],
    )
    def test_rejects_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "metrics.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_metric_set(str(path))

    def test_comment_lines_are_skipped(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("# actriv-metrics rank=2\ninv:0 conj:1:a\n-\n")
        commented = tmp_path / "commented.txt"
        commented.write_text(
            "# actriv-metrics rank=2\n# note\ninv:0 conj:1:a  # first\n\n-\n"
        )
        loaded = load_metric_set(str(commented))
        assert loaded.metrics == load_metric_set(str(plain)).metrics
        assert len(loaded.metrics) == 2

    def test_empty_sequence_line(self, tmp_path):
        metric_set = MetricSet(rank=2, metrics=[(), (invert_move(0),)])
        path = str(tmp_path / "metrics.txt")
        save_metric_set(metric_set, path)
        assert load_metric_set(path).metrics == [(), (invert_move(0),)]
