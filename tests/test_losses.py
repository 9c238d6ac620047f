"""Tests for the loss functions and their logit gradients."""

import math

import numpy as np
import pytest

from fednsim.losses import (
    LossConfig,
    batch_loss_and_grad,
    ce_loss_and_grad,
    fedntd_objective,
    fedprox_penalty,
    kd_loss_and_grad,
    kd_ntd_interp_objective,
    not_true_softmax,
    ntd_loss_and_grad,
    ntd_mse_loss_and_grad,
    softmax_temp,
)

from test_model import central_difference_grad, max_relative_error


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax_temp([0.0, 0.0, 0.0], 1.0), [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(size=5)
            k = rng.normal() * 10
            assert np.abs(softmax_temp(z + k, 1.3) - softmax_temp(z, 1.3)).max() < 1e-12

    def test_reference_values(self):
        # exp(1)/ (e + e^2 + e^3) etc., evaluated independently
        got = softmax_temp([1.0, 2.0, 3.0], 1.0)
        assert np.allclose(got, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_temperature_flattens(self):
        sharp = softmax_temp([1.0, 2.0, 3.0], 0.5)
        flat = softmax_temp([1.0, 2.0, 3.0], 10.0)
        assert sharp.max() > flat.max()

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            softmax_temp([0.0, 1.0], 0.0)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        loss, _ = ce_loss_and_grad(np.zeros(10), 3)
        assert abs(loss - math.log(10)) < 1e-12

    def test_confident_correct_prediction(self):
        loss, _ = ce_loss_and_grad(np.array([100.0, 0.0, 0.0]), 0)
        assert loss < 1e-12

    def test_reference_value(self):
        loss, _ = ce_loss_and_grad(np.array([1.0, 2.0, 3.0]), 0)
        assert abs(loss - 2.407606) < 1e-6

    def test_gradient_is_probs_minus_onehot(self):
        z = np.array([0.3, -1.0, 0.5])
        _, grad = ce_loss_and_grad(z, 2)
        expected = softmax_temp(z, 1.0) - np.array([0.0, 0.0, 1.0])
        assert np.allclose(grad, expected, atol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss_and_grad(np.zeros(3), 3)


class TestKdLoss:
    def test_identical_logits_zero(self):
        z = np.array([0.4, -0.2, 1.1])
        loss, grad = kd_loss_and_grad(z, z.copy(), 2.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            loss, _ = kd_loss_and_grad(rng.normal(size=6), rng.normal(size=6), rng.uniform(0.5, 4))
            assert loss >= 0.0

    def test_reference_value(self):
        loss, _ = kd_loss_and_grad(np.array([0.0, 0.0]), np.array([0.0, math.log(3)]), 1.0)
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert abs(loss - expected) < 1e-12


class TestNotTrueSoftmax:
    def test_symmetric_remaining_classes(self):
        got = not_true_softmax(np.zeros(3), 0, 1.0)
        assert np.allclose(got, [0.0, 0.5, 0.5], atol=1e-15)
        assert got[0] == 0.0

    def test_high_temperature_limit(self):
        got = not_true_softmax(np.array([5.0, 1.0, -2.0, 0.3]), 1, 1e6)
        assert np.allclose(got[[0, 2, 3]], 1 / 3, atol=1e-5)

    def test_reference_values(self):
        got = not_true_softmax(np.array([1.0, 2.0, 3.0]), 2, 1.0)
        assert np.allclose(got[:2], [0.26894142, 0.73105858], atol=1e-8)
        assert got[2] == 0.0

    def test_two_classes_minimum(self):
        with pytest.raises(ValueError):
            not_true_softmax(np.array([1.0]), 0, 1.0)


class TestNtdLoss:
    def test_identical_logits_zero(self):
        z = np.array([0.4, -0.2, 1.1])
        loss, grad = ntd_loss_and_grad(z, z.copy(), 1, 1.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_true_class_logit_irrelevant(self):
        rng = np.random.default_rng(3)
        z_l = rng.normal(size=5)
        z_g = rng.normal(size=5)
        base, grad = ntd_loss_and_grad(z_l, z_g, 2, 1.4)
        for bump in (-100.0, -1.0, 3.0, 50.0):
            z_mod = z_l.copy()
            z_mod[2] += bump
            moved, _ = ntd_loss_and_grad(z_mod, z_g, 2, 1.4)
            assert moved == base
            g_mod = z_g.copy()
            g_mod[2] += bump
            teacher_moved, _ = ntd_loss_and_grad(z_l, g_mod, 2, 1.4)
            assert teacher_moved == base
        assert grad[2] == 0.0 and np.signbit(grad[2]) == np.signbit(0.0)

    def test_true_class_gradient_bitwise_zero_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(2, 9))
            y = int(rng.integers(0, c))
            _, grad = ntd_loss_and_grad(
                rng.normal(size=c), rng.normal(size=c), y, rng.uniform(0.3, 5)
            )
            assert grad[y] == 0.0
            assert not np.signbit(grad[y])

    def test_reduces_to_kd_on_deleted_index(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = int(rng.integers(3, 8))
            y = int(rng.integers(0, c))
            tau = rng.uniform(0.5, 3)
            z_l, z_g = rng.normal(size=c), rng.normal(size=c)
            loss, _ = ntd_loss_and_grad(z_l, z_g, y, tau)
            expected, _ = kd_loss_and_grad(np.delete(z_l, y), np.delete(z_g, y), tau)
            assert abs(loss - expected) < 1e-12


class TestNtdMse:
    def test_identical_zero(self):
        z = np.array([1.0, -1.0, 0.5])
        loss, grad = ntd_mse_loss_and_grad(z, z.copy(), 0)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_true_class_difference_ignored(self):
        loss, grad = ntd_mse_loss_and_grad(
            np.array([5.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0]), 0
        )
        assert loss == 1.0  # (1 + 1) / 2, the gap of 5 at the true class drops out
        assert grad[0] == 0.0

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            c = int(rng.integers(2, 9))
            y = int(rng.integers(0, c))
            z_l, z_g = rng.normal(size=c), rng.normal(size=c)
            loss, _ = ntd_mse_loss_and_grad(z_l, z_g, y)
            brute = sum((z_l[i] - z_g[i]) ** 2 for i in range(c) if i != y) / (c - 1)
            assert abs(loss - brute) < 1e-12


class TestFedntdObjective:
    def test_beta_zero_bit_identical_to_ce(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z_l, z_g = rng.normal(size=4), rng.normal(size=4)
            y = int(rng.integers(0, 4))
            loss, grad = fedntd_objective(z_l, z_g, y, beta=0.0, tau=1.0)
            ce, ce_grad = ce_loss_and_grad(z_l, y)
            assert loss == ce
            assert grad.tobytes() == ce_grad.tobytes()

    def test_matched_teacher_leaves_ce(self):
        z = np.array([1.0, 2.0, 3.0])
        loss, _ = fedntd_objective(z, z.copy(), 0, beta=1.0, tau=1.0)
        ce, _ = ce_loss_and_grad(z, 0)
        assert abs(loss - ce) < 1e-15
        assert abs(loss - 2.407606) < 1e-6


class TestInterpObjective:
    def test_endpoint_matches_fedntd(self):
        rng = np.random.default_rng(8)
        z_l, z_g = rng.normal(size=5), rng.normal(size=5)
        a, ga = kd_ntd_interp_objective(z_l, z_g, 1, lam=1.0, tau=2.0)
        b, gb = fedntd_objective(z_l, z_g, 1, beta=1.0, tau=2.0)
        assert abs(a - b) < 1e-15 and np.allclose(ga, gb, atol=1e-15)

    def test_lam_zero_with_matched_teacher_is_ce(self):
        z = np.array([0.2, -0.4, 0.9])
        loss, _ = kd_ntd_interp_objective(z, z.copy(), 2, lam=0.0, tau=1.0)
        ce, _ = ce_loss_and_grad(z, 2)
        assert abs(loss - ce) < 1e-15

    def test_linear_in_lambda(self):
        rng = np.random.default_rng(9)
        z_l, z_g = rng.normal(size=6), rng.normal(size=6)
        y, tau = 3, 1.5
        ce, _ = ce_loss_and_grad(z_l, y)
        at0, _ = kd_ntd_interp_objective(z_l, z_g, y, 0.0, tau)
        at1, _ = kd_ntd_interp_objective(z_l, z_g, y, 1.0, tau)
        mid, _ = kd_ntd_interp_objective(z_l, z_g, y, 0.5, tau)
        # shared CE appears in both endpoints; the mixture interpolates the rest
        assert abs(mid - (0.5 * (at0 - ce) + 0.5 * (at1 - ce) + ce)) < 1e-12

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            kd_ntd_interp_objective(np.zeros(3), np.zeros(3), 0, 1.5, 1.0)


class TestFedproxPenalty:
    def test_zero_at_anchor(self):
        w = np.array([1.0, 2.0])
        loss, grad = fedprox_penalty(w, w.copy(), 0.1)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_zero_mu(self):
        loss, grad = fedprox_penalty(np.array([1.0]), np.array([0.0]), 0.0)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_arithmetic(self):
        loss, grad = fedprox_penalty(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.1)
        assert abs(loss - 0.05) < 1e-15
        assert np.allclose(grad, [0.1, 0.0], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fedprox_penalty(np.zeros(2), np.zeros(3), 0.1)


def _loss_cases():
    """Single-sample loss closures used for the finite-difference sweeps."""
    return {
        "ce": lambda z_l, z_g, y, tau: ce_loss_and_grad(z_l, y),
        "kd": lambda z_l, z_g, y, tau: kd_loss_and_grad(z_l, z_g, tau),
        "ntd": lambda z_l, z_g, y, tau: ntd_loss_and_grad(z_l, z_g, y, tau),
        "ntd_mse": lambda z_l, z_g, y, tau: ntd_mse_loss_and_grad(z_l, z_g, y),
        "fedntd": lambda z_l, z_g, y, tau: fedntd_objective(z_l, z_g, y, 0.7, tau),
        "interp": lambda z_l, z_g, y, tau: kd_ntd_interp_objective(z_l, z_g, y, 0.3, tau),
    }


@pytest.mark.parametrize("name", sorted(_loss_cases()))
def test_logit_gradients_match_finite_differences(name):
    fn = _loss_cases()[name]
    seed = {"ce": 1, "fedntd": 2, "interp": 3, "kd": 4, "ntd": 5, "ntd_mse": 6}[name]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 9))
        y = int(rng.integers(0, c))
        tau = float(rng.uniform(0.5, 3.0))
        z_l = rng.normal(scale=2.0, size=c)
        z_g = rng.normal(scale=2.0, size=c)
        _, analytic = fn(z_l, z_g, y, tau)
        numeric = central_difference_grad(lambda z: fn(z, z_g, y, tau)[0], z_l)
        worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4


class TestBatchApi:
    def test_matches_single_sample_functions(self):
        rng = np.random.default_rng(11)
        z_l = rng.normal(size=(6, 4))
        z_g = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        cfg = LossConfig(method="fedntd", beta=0.8, tau=1.3)
        losses, grads = batch_loss_and_grad(cfg, z_l, y, z_g)
        for i in range(6):
            loss_i, grad_i = fedntd_objective(z_l[i], z_g[i], int(y[i]), 0.8, 1.3)
            assert abs(losses[i] - loss_i) < 1e-12
            assert np.allclose(grads[i], grad_i, atol=1e-12)

    def test_teacher_required(self):
        cfg = LossConfig(method="kd", beta=0.5)
        with pytest.raises(ValueError, match="teacher"):
            batch_loss_and_grad(cfg, np.zeros((2, 3)), np.array([0, 1]))

    def test_kd_method_scales_by_tau_squared(self):
        rng = np.random.default_rng(12)
        z_l, z_g = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        y = np.array([2])
        cfg = LossConfig(method="kd", beta=0.4, tau=3.0)
        losses, _ = batch_loss_and_grad(cfg, z_l, y, z_g)
        ce, _ = ce_loss_and_grad(z_l[0], 2)
        kl, _ = kd_loss_and_grad(z_l[0], z_g[0], 3.0)
        assert abs(losses[0] - (0.6 * ce + 0.4 * 9.0 * kl)) < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(method="nope")
        with pytest.raises(ValueError):
            LossConfig(beta=-0.1)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(interp_lambda=1.2)
        for key in ("beta", "tau", "mu"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                LossConfig(**{key: float("inf")})

    @pytest.mark.parametrize(
        "cfg,teacher,proximal",
        [
            (LossConfig("fedavg"), False, False),
            (LossConfig("fedprox"), False, True),
            (LossConfig("fedntd"), True, False),
            (LossConfig("fedntd", beta=0.0), False, False),
            (LossConfig("fedntd_mse", beta=0.0), False, False),
            (LossConfig("kd", beta=0.0), True, False),
            (LossConfig("kd_ntd_interp", interp_lambda=1.0), True, False),
        ],
    )
    def test_teacher_and_proximal_follow_the_objective(self, cfg, teacher, proximal):
        assert cfg.needs_teacher is teacher
        assert cfg.proximal is proximal

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_interp_matches_written_formula(self, lam):
        rng = np.random.default_rng(13)
        z_l, z_g = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        y = rng.integers(0, 5, size=4)
        losses, _ = batch_loss_and_grad(LossConfig("kd_ntd_interp", tau=1.5, interp_lambda=lam), z_l, y, z_g)
        for i in range(4):
            ce, _ = ce_loss_and_grad(z_l[i], int(y[i]))
            kl, _ = kd_loss_and_grad(z_l[i], z_g[i], 1.5)
            ntd, _ = ntd_loss_and_grad(z_l[i], z_g[i], int(y[i]), 1.5)
            assert abs(losses[i] - (ce + (1 - lam) * kl + lam * ntd)) < 1e-12
