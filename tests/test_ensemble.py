import random

import numpy as np
import pytest

from actriv.ball import FitnessCase, TrainingSet, build_ball, sample_cases
from actriv.ensemble import (
    EnsembleWeights,
    ObjectiveSet,
    ScalarEnsemble,
    _design_matrix,
    fit_weights,
    load_ensemble,
    load_objectives,
    objective_values,
    save_ensemble,
    save_objectives,
    trim_objectives,
)
from actriv.metrics import MetricSet, metric_value
from actriv.presentations import (
    conjugate_move,
    invert_move,
    multiply_move,
    total_length,
)
from actriv.variation import random_sequence


@pytest.fixture(scope="module")
def training():
    ball = build_ball(2, 10, 5)
    return sample_cases(ball, 60, rng_seed=11)


@pytest.fixture(scope="module")
def length_labelled(training):
    cases = [
        FitnessCase(c.presentation, total_length(c.presentation))
        for c in training.cases
    ]
    return TrainingSet(2, cases)


def design_columns(metric_set, training, cap=200):
    return [
        [metric_value(d, c.presentation, cap) for c in training.cases]
        for d in metric_set.metrics
    ]


class TestDesignMatrix:
    @pytest.mark.parametrize("cap", [200, 12, 1])
    def test_matches_metric_value_columns(self, training, cap):
        rng = random.Random(4)
        distinct = [random_sequence(2, rng.randrange(0, 12), rng) for _ in range(6)]
        # duplicates, a shared prefix and the empty metric, in metric order
        metrics = distinct + [distinct[2], distinct[0][:3], (), distinct[2]]
        metric_set = MetricSet(2, metrics)
        assert _design_matrix(metric_set, training, cap) == design_columns(
            metric_set, training, cap
        )


class TestFitWeights:
    def test_identity_metric_exact_fit(self, length_labelled):
        metric_set = MetricSet(2, [()])
        w = fit_weights(metric_set, length_labelled)
        assert w.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert w.intercept == pytest.approx(0.0, abs=1e-9)

    def test_duplicated_metric_minimum_norm_split(self, length_labelled):
        metric_set = MetricSet(2, [(), ()])
        w = fit_weights(metric_set, length_labelled)
        assert w.weights[0] == pytest.approx(0.5, abs=1e-9)
        assert w.weights[1] == pytest.approx(0.5, abs=1e-9)
        assert w.intercept == pytest.approx(0.0, abs=1e-9)

    def test_residual_orthogonality(self, training):
        rng = random.Random(2)
        metric_set = MetricSet(2, [random_sequence(2, 10, rng) for _ in range(4)])
        w = fit_weights(metric_set, training)
        columns = design_columns(metric_set, training)
        predictions = [
            w.intercept
            + sum(wi * col[row] for wi, col in zip(w.weights, columns))
            for row in range(len(training.cases))
        ]
        residual = [
            pred - dist for pred, dist in zip(predictions, training.distances())
        ]
        assert abs(sum(residual)) < 1e-9  # orthogonal to the ones column
        for col in columns:
            assert abs(sum(r * x for r, x in zip(residual, col))) < 1e-9

    def test_constant_columns_dropped(self, training, caplog):
        import logging

        # over cases of one total length the identity column is constant
        same_length = [
            c.presentation
            for c in training.cases
            if total_length(c.presentation) == 8
        ][:8]
        assert len(same_length) >= 4
        labelled = TrainingSet(
            2, [FitnessCase(p, i) for i, p in enumerate(same_length)]
        )
        metric_set = MetricSet(2, [(), (multiply_move(0, 1),)])
        with caplog.at_level(logging.WARNING):
            w = fit_weights(metric_set, labelled)
        assert w.weights[0] == 0.0
        assert "constant" in caplog.text

    def test_recovers_generating_weights(self, training):
        d1 = ()
        d2 = (multiply_move(0, 1),)
        metric_set = MetricSet(2, [d1, d2])
        columns = design_columns(metric_set, training)
        matrix = np.column_stack([np.ones(len(training.cases))] + [np.array(c) for c in columns])
        assert np.linalg.matrix_rank(matrix) == 3
        labelled = TrainingSet(
            2,
            [
                FitnessCase(c.presentation, 2 * v1 + 3 * v2 + 1)
                for c, v1, v2 in zip(training.cases, columns[0], columns[1])
            ],
        )
        w = fit_weights(metric_set, labelled)
        assert w.weights[0] == pytest.approx(2.0, abs=1e-9)
        assert w.weights[1] == pytest.approx(3.0, abs=1e-9)
        assert w.intercept == pytest.approx(1.0, abs=1e-9)

    def test_empty_inputs(self, training):
        with pytest.raises(ValueError):
            fit_weights(MetricSet(2, []), training)
        with pytest.raises(ValueError):
            fit_weights(MetricSet(2, [()]), TrainingSet(2, []))

    @pytest.mark.parametrize("fit", [fit_weights, trim_objectives])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one(self, training, fit, cap):
        with pytest.raises(ValueError, match="^cap must be >= 1$"):
            fit(MetricSet(2, [()]), training, cap=cap)

    @pytest.mark.parametrize("fit", [fit_weights, trim_objectives])
    def test_no_varying_metric(self, training, fit):
        # at cap 1 every metric reads 1 on every case
        metric_set = MetricSet(2, [(), (multiply_move(0, 1),)])
        with pytest.raises(
            ValueError, match="^none of the 2 metrics varies over the training set$"
        ):
            fit(metric_set, training, cap=1)

    @pytest.mark.parametrize("fit", [fit_weights, trim_objectives])
    def test_rank_mismatch(self, training, fit):
        # conj:0:c is a rank-3 move; on a rank-2 case it would read no relator c
        metric_set = MetricSet(3, [(conjugate_move(0, 3),)])
        with pytest.raises(ValueError, match="rank 3 metrics do not fit a rank 2"):
            fit(metric_set, training)


def scalar_value(weights, metric_set, p):
    return ScalarEnsemble(weights, metric_set).value(p)


class TestScalarFitness:
    def test_zero_weights_give_intercept(self, training):
        metric_set = MetricSet(2, [(), (invert_move(0),)])
        w = EnsembleWeights([0.0, 0.0], 7.5)
        for case in training.cases[:5]:
            assert scalar_value(w, metric_set, case.presentation) == 7.5

    def test_identity_metric_weight_one(self, training):
        metric_set = MetricSet(2, [()])
        w = EnsembleWeights([1.0], 0.0)
        for case in training.cases[:5]:
            assert scalar_value(w, metric_set, case.presentation) == total_length(
                case.presentation
            )

    def test_affine_in_each_weight(self, training):
        metric_set = MetricSet(2, [(), (multiply_move(0, 1),)])
        p = training.cases[0].presentation
        base = EnsembleWeights([0.5, 2.0], 1.0)
        doubled = EnsembleWeights([0.5, 4.0], 1.0)
        v2 = metric_value(metric_set.metrics[1], p, 200)
        assert scalar_value(doubled, metric_set, p) == pytest.approx(
            scalar_value(base, metric_set, p) + 2.0 * v2
        )

    def test_intercept_shift_preserves_ranking(self, training):
        metric_set = MetricSet(2, [(), (conjugate_move(0, 2), multiply_move(0, 1))])
        a = EnsembleWeights([0.3, 0.7], 0.0)
        b = EnsembleWeights([0.3, 0.7], 123.0)
        ps = [c.presentation for c in training.cases[:10]]
        rank_a = sorted(range(10), key=lambda i: scalar_value(a, metric_set, ps[i]))
        rank_b = sorted(range(10), key=lambda i: scalar_value(b, metric_set, ps[i]))
        assert rank_a == rank_b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="weight count"):
            ScalarEnsemble(EnsembleWeights([1.0], 0.0), MetricSet(2, [(), ()]))


class TestTrimObjectives:
    def test_trims_fifty_to_five(self, training):
        rng = random.Random(5)
        metric_set = MetricSet(2, [random_sequence(2, 10, rng) for _ in range(50)])
        chosen = trim_objectives(metric_set, training, k=5)
        assert len(chosen) == 5
        assert all(d in metric_set.metrics for d in chosen.objectives)

    def test_clamps_to_available(self, training):
        rng = random.Random(6)
        metric_set = MetricSet(2, [random_sequence(2, 10, rng) for _ in range(3)])
        assert len(trim_objectives(metric_set, training, k=5)) == 3

    def test_duplicates_not_selected_while_alternatives_remain(self, training):
        rng = random.Random(8)
        distinct = [random_sequence(2, 10, rng) for _ in range(4)]
        metric_set = MetricSet(2, [distinct[0], distinct[0]] + distinct[1:])
        chosen = trim_objectives(metric_set, training, k=3)
        vectors = [
            tuple(metric_value(d, c.presentation, 200) for c in training.cases)
            for d in chosen.objectives
        ]
        assert len(set(vectors)) == len(vectors)

    def test_permutation_invariant(self, training):
        rng = random.Random(9)
        metric_set = MetricSet(2, [random_sequence(2, 10, rng) for _ in range(8)])
        base = trim_objectives(metric_set, training, k=4)
        shuffled_cases = list(training.cases)
        random.Random(1).shuffle(shuffled_cases)
        shuffled = trim_objectives(
            metric_set, TrainingSet(2, shuffled_cases), k=4
        )
        assert base.objectives == shuffled.objectives

    def test_deterministic(self, training):
        rng = random.Random(10)
        metric_set = MetricSet(2, [random_sequence(2, 10, rng) for _ in range(10)])
        a = trim_objectives(metric_set, training, k=5)
        b = trim_objectives(metric_set, training, k=5)
        assert a.objectives == b.objectives

    def test_unknown_kind(self, training):
        metric_set = MetricSet(2, [random_sequence(2, 10, random.Random(11))])
        with pytest.raises(ValueError, match="^unknown correlation kind 'spearman'$"):
            trim_objectives(metric_set, training, kind="spearman")


class TestModelsAndPersistence:
    def test_scalar_ensemble_value(self, length_labelled):
        metric_set = MetricSet(2, [()])
        w = fit_weights(metric_set, length_labelled)
        model = ScalarEnsemble(w, metric_set)
        p = length_labelled.cases[0].presentation
        assert model.value(p) == pytest.approx(total_length(p), abs=1e-9)

    def test_objective_values(self, training):
        objectives = ObjectiveSet(2, [(), (invert_move(0),)])
        p = training.cases[0].presentation
        assert objective_values(objectives, p) == (
            float(total_length(p)),
            float(total_length(p)),
        )

    def test_ensemble_round_trip(self, tmp_path, length_labelled):
        metric_set = MetricSet(2, [(), (invert_move(0), conjugate_move(1, -2))])
        w = fit_weights(metric_set, length_labelled)
        path = str(tmp_path / "model.txt")
        save_ensemble(ScalarEnsemble(w, metric_set), path)
        loaded = load_ensemble(path)
        assert loaded.weights.intercept == w.intercept
        assert loaded.weights.weights == w.weights
        assert loaded.metrics.rank == 2
        assert loaded.metrics.metrics == metric_set.metrics

    def test_objectives_round_trip(self, tmp_path):
        objectives = ObjectiveSet(2, [(invert_move(1),), ()])
        path = str(tmp_path / "objectives.txt")
        save_objectives(objectives, path)
        loaded = load_objectives(path)
        assert loaded.rank == 2
        assert loaded.objectives == objectives.objectives

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# actriv-objectives\n", "objectives.txt: header has no 'rank'"),
            (
                "# actriv-objectives rank=2\ninv:1\nmul:0:7\n",
                "objectives.txt:3: bad move",
            ),
            # a header alone would give multi mode no objective at all
            ("# actriv-objectives rank=2\n\n", "objectives.txt: no records$"),
            (
                "# actriv-objectives rank=2 rank=3\ninv:1\n",
                "objectives.txt: header key 'rank' is given twice",
            ),
        ],
        ids=["rank", "sequence", "empty", "rank-twice"],
    )
    def test_objectives_reject_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "objectives.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_objectives(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "# actriv-ensemble intercept=0.5\n1.0\tinv:0\n",
                "model.txt: header has no 'rank'",
            ),
            (
                "# actriv-ensemble rank=2\n1.0\tinv:0\n",
                "model.txt: header has no 'intercept'",
            ),
            (
                "# actriv-ensemble rank=2 intercept=half\n1.0\tinv:0\n",
                "model.txt: header intercept 'half' is not a number",
            ),
            (
                "# actriv-ensemble rank=2 intercept=0.5\n1.0\tinv:0\n\nheavy\t-\n",
                "model.txt:4: weight 'heavy' is not a number",
            ),
            (
                "# actriv-ensemble rank=2 intercept=0.5\n1.0\tinv:0\t2.0\n",
                "model.txt:2: expected 2 tab-separated fields, got 3",
            ),
            (
                "# actriv-ensemble rank=2 intercept=0.5\n1.0\tinv:0\n2.0\tmul:0:7\n",
                "model.txt:3: bad move code 'mul:0:7'",
            ),
            # a `key: value` line of the retired format
            (
                "# actriv-ensemble rank=2 intercept=0.5\nmetrics: m.txt\n",
                "model.txt:2: expected 2 tab-separated fields, got 1",
            ),
            # the retired format, which referred to a separate metric file
            (
                "# actriv-ensemble\nmetrics: m.txt\nintercept: 0.5\nweights: 1.0\n",
                "model.txt: header has no 'rank'",
            ),
            # a header alone would be a constant model
            ("# actriv-ensemble rank=2 intercept=3.5\n", "model.txt: no records$"),
            # a model that is not finite scores every candidate NaN
            (
                "# actriv-ensemble rank=2 intercept=nan\n1.0\tinv:0\n",
                "model.txt: header intercept 'nan' is not finite",
            ),
            (
                "# actriv-ensemble rank=2 intercept=0.5\n1.0\tinv:0\ninf\t-\n",
                "model.txt:3: weight 'inf' is not finite",
            ),
            (
                "# actriv-ensemble rank=2 intercept=0.5\n-inf\tinv:0\n",
                "model.txt:2: weight '-inf' is not finite",
            ),
            (
                "# actriv-ensemble rank=2 intercept=1.0 intercept=nan\n1.0\tinv:0\n",
                "model.txt: header key 'intercept' is given twice",
            ),
        ],
        ids=[
            "rank", "intercept", "intercept-value", "weight", "weights", "move",
            "colon", "metrics", "empty", "intercept-nan", "weight-inf",
            "weight-minus-inf", "intercept-twice",
        ],
    )
    def test_ensemble_rejects_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "model.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_ensemble(str(path))
