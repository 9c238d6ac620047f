"""Tests for accuracy, forgetting and drift metrics."""

import numpy as np
import pytest

from fednsim.data import Dataset, synth_dataset
from fednsim.metrics import (
    accuracy_cosine_similarity,
    class_wise_accuracy,
    distribution_distance,
    forgetting_measure,
    gradient_diversity,
    masked_accuracy,
    normalized_accuracy_vector,
    overall_accuracy,
    predict,
    weight_divergence,
)
from fednsim.model import MlpConfig, init_params, unpack_params


def constant_predictor(num_classes: int, dim: int, winner: int):
    """Single-layer model whose bias makes one class always win."""
    cfg = MlpConfig(input_dim=dim, hidden_dims=(), num_classes=num_classes)
    params = np.zeros(cfg.param_count())
    _w, b = unpack_params(cfg, params)[0]
    b[winner] = 1.0
    return cfg, params


def identity_predictor(num_classes: int):
    """Perfect model for datasets whose features are one-hot class codes."""
    cfg = MlpConfig(input_dim=num_classes, hidden_dims=(), num_classes=num_classes)
    params = np.zeros(cfg.param_count())
    w, _b = unpack_params(cfg, params)[0]
    w[...] = np.eye(num_classes)
    return cfg, params


def masked(cfg, params, ds, weights) -> float:
    return masked_accuracy(class_wise_accuracy(predict(cfg, params, ds), ds), weights)


def onehot_dataset(num_classes: int, per_class: int) -> Dataset:
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(np.eye(num_classes)[labels], labels, num_classes)


class TestClassWiseAccuracy:
    def test_constant_predictor(self):
        ds = onehot_dataset(2, 5)
        cfg, params = constant_predictor(2, 2, winner=0)
        assert np.array_equal(class_wise_accuracy(predict(cfg, params, ds), ds), [1.0, 0.0])

    def test_perfect_model(self):
        ds = onehot_dataset(3, 4)
        cfg, params = identity_predictor(3)
        assert np.array_equal(class_wise_accuracy(predict(cfg, params, ds), ds), [1.0, 1.0, 1.0])

    def test_random_model_near_chance(self):
        ds = synth_dataset(10, 1000, 8, 0.0, seed=0)  # indistinguishable classes
        cfg = MlpConfig(input_dim=8, hidden_dims=(16,), num_classes=10)
        params = init_params(cfg, 1)
        acc = class_wise_accuracy(predict(cfg, params, ds), ds)
        assert np.all(acc >= 0.0) and np.all(acc <= 1.0)
        assert abs(acc.mean() - 0.1) < 0.05

    def test_missing_class_errors(self):
        ds = Dataset(np.eye(3)[[0, 1]], np.array([0, 1]), 3)
        cfg, params = identity_predictor(3)
        with pytest.raises(ValueError, match="no samples"):
            class_wise_accuracy(predict(cfg, params, ds), ds)


class TestForgetting:
    def test_hand_example_exact(self):
        history = [np.array([0.9, 0.2]), np.array([0.5, 0.8])]
        # direct-evaluation oracle; the real value -0.1 is not a binary64
        expected = ((0.9 - 0.5) + (0.2 - 0.8)) / 2
        got = forgetting_measure(history)
        assert got == expected
        assert abs(got - (-0.1)) < 1e-15

    def test_constant_history_zero(self):
        history = [np.array([0.4, 0.7, 0.1])] * 5
        assert forgetting_measure(history) == 0.0

    def test_monotone_improvement_nonpositive(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 0.2, 4)
        history = [base + 0.1 * t for t in range(6)]
        assert forgetting_measure(history) <= 0.0

    def test_needs_two_rounds(self):
        with pytest.raises(ValueError):
            forgetting_measure([np.array([1.0, 1.0])])

    def test_peak_excludes_final_round(self):
        # final-round value may be the max; gaps measure peak-before-final
        history = [np.array([0.1]), np.array([0.9])]
        assert forgetting_measure(history) == pytest.approx(-0.8)


class TestCosineSimilarity:
    def test_identical(self):
        a = np.array([0.3, 0.6])
        assert accuracy_cosine_similarity(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert accuracy_cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_reference_value(self):
        got = accuracy_cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - 1 / np.sqrt(2)) < 1e-12

    def test_zero_vector_convention(self):
        assert accuracy_cosine_similarity(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_bounded_for_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
            s = accuracy_cosine_similarity(a, b)
            assert 0.0 <= s <= 1.0 + 1e-12


class TestGradientDiversity:
    def test_identical_gradients(self):
        g = np.array([0.3, -1.0, 2.0])
        assert gradient_diversity([g, g.copy(), g.copy()]) == pytest.approx(1.0)

    def test_orthogonal_unit_gradients(self):
        assert gradient_diversity([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) == pytest.approx(2.0)

    def test_jensen_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            grads = list(rng.normal(size=(int(rng.integers(1, 8)), 6)))
            assert gradient_diversity(grads) >= 1.0 - 1e-12

    def test_zero_mean_errors(self):
        with pytest.raises(ValueError, match="zero"):
            gradient_diversity([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])


class TestDistances:
    def test_weight_divergence(self):
        assert weight_divergence(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert weight_divergence(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 3.0

    def test_weight_divergence_nonfinite_matches_the_written_out_sum(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 500))
        assert weight_divergence(a, b) == float(np.abs(a - b).sum())
        a[17] = np.inf
        with np.errstate(invalid="ignore"):
            assert weight_divergence(a, b) == np.inf
            b[17] = np.inf  # inf - inf is NaN
            got = weight_divergence(a, b)
            ref = float(np.abs(a - b).sum())
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    def test_weight_divergence_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 7))
            assert weight_divergence(a, c) <= weight_divergence(a, b) + weight_divergence(b, c) + 1e-12

    def test_distribution_distance(self):
        assert distribution_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        assert distribution_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
        assert distribution_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestNormalizedAccuracy:
    def test_uniform(self):
        got = normalized_accuracy_vector(np.full(4, 0.6))
        assert np.allclose(got, 0.25, atol=1e-15)

    def test_single_nonzero(self):
        assert np.array_equal(normalized_accuracy_vector(np.array([0.5, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_already_normalized(self):
        got = normalized_accuracy_vector(np.array([0.8, 0.2]))
        assert np.allclose(got, [0.8, 0.2], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            acc = rng.uniform(0.01, 1, 6)
            assert abs(normalized_accuracy_vector(acc).sum() - 1.0) < 1e-12

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            normalized_accuracy_vector(np.zeros(3))


class TestMaskedAccuracy:
    def test_uniform_weights_equal_mean(self):
        ds = onehot_dataset(3, 7)
        cfg, params = constant_predictor(3, 3, winner=1)
        mean_acc = class_wise_accuracy(predict(cfg, params, ds), ds).mean()
        got = masked(cfg, params, ds, np.full(3, 1 / 3))
        assert abs(got - mean_acc) < 1e-12

    def test_onehot_weight_selects_class(self):
        ds = onehot_dataset(3, 7)
        cfg, params = constant_predictor(3, 3, winner=1)
        assert masked(cfg, params, ds, np.array([0.0, 1.0, 0.0])) == 1.0
        assert masked(cfg, params, ds, np.array([1.0, 0.0, 0.0])) == 0.0

    def test_weighted_arithmetic(self):
        # class accuracies [0.4, 0.8] via a mixed dataset and a hand model
        labels = np.array([0] * 5 + [1] * 5)
        feats = np.eye(2)[labels].astype(float)
        # flip some features so the identity model errs on 3 of class 0, 1 of class 1
        feats[0] = [0, 1]
        feats[1] = [0, 1]
        feats[2] = [0, 1]
        feats[5] = [1, 0]
        ds = Dataset(feats, labels, 2)
        cfg, params = identity_predictor(2)
        accs = class_wise_accuracy(predict(cfg, params, ds), ds)
        assert np.allclose(accs, [0.4, 0.8])
        got = masked(cfg, params, ds, np.array([0.75, 0.25]))
        assert abs(got - 0.5) < 1e-12

    def test_same_bits_as_masking_formula(self):
        # the sum over finite accuracies equals, bit for bit, the old sum that
        # masked classes of zero weight and zeroed NaN accuracies
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = int(rng.integers(1, 12))
            acc = rng.integers(0, 40, size=c) / rng.integers(1, 40, size=c)
            weights = rng.dirichlet(np.ones(c)) * (rng.uniform(size=c) < 0.6)
            old = np.sum(np.where(weights > 0, weights * np.nan_to_num(acc), 0.0))
            assert np.float64(masked_accuracy(acc, weights)).tobytes() == old.tobytes()

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="length 3"):
            masked_accuracy(np.zeros(3), np.ones(2) / 2)


class TestOverallAccuracy:
    def test_matches_weighted_classwise(self):
        ds = synth_dataset(3, 50, 4, 5.0, seed=0)
        cfg = MlpConfig(input_dim=4, hidden_dims=(8,), num_classes=3)
        params = init_params(cfg, 3)
        class_acc = class_wise_accuracy(predict(cfg, params, ds), ds)
        counts = ds.class_counts()
        expected = float((class_acc * counts).sum() / counts.sum())
        assert abs(overall_accuracy(predict(cfg, params, ds), ds) - expected) < 1e-12
