"""Tests for the loss functions and their logit gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fednsim import losses
from fednsim.losses import (
    METHODS,
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
        with pytest.raises(ValueError):
            fedprox_penalty(np.zeros((2, 3)), np.zeros((2, 3)), 0.1)

    @pytest.mark.parametrize("nonfinite", [False, True])
    def test_stack_with_out_gives_each_rows_allocating_bits(self, nonfinite):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 300))
        w_g = rng.normal(size=300)
        if nonfinite:
            w[1, 7], w[3, 0], w_g[9] = np.nan, np.inf, -np.inf
        out = np.full_like(w, np.nan)
        with np.errstate(invalid="ignore"):
            losses, grad = fedprox_penalty(w, w_g, 0.7, out=out)
            for k in range(len(w)):
                # the per-client formulas, with their allocated temporaries
                diff = w[k] - w_g
                ref_loss, ref_grad = 0.5 * 0.7 * float(diff @ diff), 0.7 * diff
                solo_loss, solo_grad = fedprox_penalty(w[k], w_g, 0.7)
                for loss in (losses[k], solo_loss):
                    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
                assert grad[k].tobytes() == solo_grad.tobytes() == ref_grad.tobytes()
        assert grad is out


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

    @pytest.mark.parametrize("call", [
        lambda z, y: kd_loss_and_grad(z, None, 2.0),
        lambda z, y: ntd_loss_and_grad(z, None, y, 2.0),
        lambda z, y: ntd_mse_loss_and_grad(z, None, y),
        lambda z, y: fedntd_objective(z, None, y, 0.7, 2.0),
        lambda z, y: kd_ntd_interp_objective(z, None, y, 0.0, 2.0),
    ], ids=["kd", "ntd", "ntd_mse", "fedntd", "interp"])
    def test_single_sample_teacher_required(self, call):
        # kd used to return 0.0 here, the KL of the student against itself
        with pytest.raises(ValueError, match="requires teacher logits"):
            call(np.array([0.3, -1.2, 2.0]), 1)

    def test_fedntd_at_beta_zero_needs_no_teacher(self):
        z = np.array([0.3, -1.2, 2.0])
        assert _bits(fedntd_objective(z, None, 1, 0.0, 2.0)[1]) == _bits(ce_loss_and_grad(z, 1)[1])

    def test_kd_method_scales_by_tau_squared(self):
        rng = np.random.default_rng(12)
        z_l, z_g = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        y = np.array([2])
        cfg = LossConfig(method="kd", beta=0.4, tau=3.0)
        losses, _ = batch_loss_and_grad(cfg, z_l, y, z_g)
        ce, _ = ce_loss_and_grad(z_l[0], 2)
        kl, _ = kd_loss_and_grad(z_l[0], z_g[0], 3.0)
        assert abs(losses[0] - (0.6 * ce + 0.4 * 9.0 * kl)) < 1e-12

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


@st.composite
def _batches(draw):
    """(z_l, z_g, y, perm): a batch of 1-8 rows over 2-8 classes and a row permutation."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    logits = hnp.arrays(np.float64, (n, c), elements=st.floats(-30.0, 30.0))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    return draw(logits), draw(logits), y, np.array(draw(st.permutations(range(n))), dtype=np.int64)


_STRUCTURE = dict(
    batch=_batches(), beta=st.floats(0.0, 5.0), tau=st.floats(0.1, 5.0), lam=st.floats(0.0, 1.0)
)
_NTD_TERMS = (losses._NTD, losses._NTD_MSE)


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def test_structure_tests_cover_every_objective():
    assert set(METHODS) == set(losses._OBJECTIVES)


# 30 examples for each of the 6 objectives and 3 properties, about 0.2 s apiece
@pytest.mark.parametrize("method", METHODS)
class TestObjectiveStructure:
    """Structure of every row of `losses._OBJECTIVES`, over random logits,
    labels, beta, tau and lambda."""

    @settings(max_examples=30, deadline=None)
    @given(**_STRUCTURE)
    def test_ntd_terms_leave_true_class_gradient_alone(self, method, batch, beta, tau, lam):
        z_l, z_g, y, _ = batch
        cfg = LossConfig(method, beta=beta, tau=tau, interp_lambda=lam)
        rows = np.arange(len(y))
        terms = losses._OBJECTIVES[method](cfg)
        for _, term in terms:
            if term in _NTD_TERMS:
                _, grad = term(z_l, None, z_g, y, tau)
                assert _bits(grad[rows, y]) == _bits(np.zeros(len(y)))
        if all(term in (losses._CE, *_NTD_TERMS) for _, term in terms):
            # adding beta * 0.0 leaves cross-entropy's true-class gradient bit for bit
            _, grad = batch_loss_and_grad(cfg, z_l, y, z_g)
            _, ce_grad = losses._ce_rows(losses._softmaxes(z_l, 1.0), y)
            assert _bits(grad[rows, y]) == _bits(ce_grad[rows, y])

    @settings(max_examples=30, deadline=None)
    @given(**_STRUCTURE)
    def test_row_permutation_permutes_bits(self, method, batch, beta, tau, lam):
        z_l, z_g, y, perm = batch
        cfg = LossConfig(method, beta=beta, tau=tau, interp_lambda=lam)
        loss, grad = batch_loss_and_grad(cfg, z_l, y, z_g)
        p_loss, p_grad = batch_loss_and_grad(cfg, z_l[perm], y[perm], z_g[perm])
        assert _bits(p_loss, p_grad) == _bits(loss[perm], grad[perm])

    @settings(max_examples=30, deadline=None)
    @given(**_STRUCTURE)
    def test_ce_and_kl_gradient_rows_sum_to_zero(self, method, batch, beta, tau, lam):
        z_l, z_g, y, _ = batch
        cfg = LossConfig(method, beta=beta, tau=tau, interp_lambda=lam)
        c = z_l.shape[1]
        eps = np.finfo(np.float64).eps
        # softmax minus one-hot, and softmax minus softmax over tau: each row sums to 0
        _, ce_grad = losses._ce_rows(losses._softmaxes(z_l, 1.0), y)
        assert np.all(np.abs(ce_grad.sum(axis=1)) <= 4 * c * eps)
        _, kl_grad = losses._kl_rows(losses._softmaxes(z_l, tau), z_g, tau)
        assert np.all(np.abs(kl_grad.sum(axis=1)) <= 4 * c * eps / tau)
        terms = losses._OBJECTIVES[method](cfg)
        if not any(term is losses._NTD_MSE for _, term in terms):
            # the whole objective is CE, KL and not-true KL, each summing to 0
            _, grad = batch_loss_and_grad(cfg, z_l, y, z_g)
            scale = sum(abs(weight) if term is losses._CE else weight / tau  # kd: 1 - beta < 0
                        for weight, term in terms)
            assert np.all(np.abs(grad.sum(axis=1)) <= 8 * c * eps * (1 + scale))


@settings(deadline=None)
@given(batch=_STRUCTURE["batch"], tau=_STRUCTURE["tau"])
def test_interp_endpoints_compose_terms(batch, tau):
    z_l, z_g, y, _ = batch
    ce_loss, ce_grad = losses._ce_rows(losses._softmaxes(z_l, 1.0), y)
    for lam, term_loss, term_grad in (
        (0.0, *losses._kl_rows(losses._softmaxes(z_l, tau), z_g, tau)),
        (1.0, *losses._ntd_rows(z_l, z_g, y, tau)),
    ):
        cfg = LossConfig("kd_ntd_interp", tau=tau, interp_lambda=lam)
        loss, grad = batch_loss_and_grad(cfg, z_l, y, z_g)
        assert _bits(loss, grad) == _bits(ce_loss + 1.0 * term_loss, ce_grad + 1.0 * term_grad)
    # lambda = 1 is fedntd at beta = 1
    fedntd = batch_loss_and_grad(LossConfig("fedntd", beta=1.0, tau=tau), z_l, y, z_g)
    assert _bits(*fedntd) == _bits(loss, grad)


# The row terms and objectives written out in full: every division by tau,
# every weight multiply and np.mean, and no softmax shared between terms.
# batch_loss_and_grad skips what is an identity and shares what is computed
# the same way on the same input, so it must give these bits exactly.
def _ref_log_softmax(z, tau):
    s = z / tau
    s = s - s.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _ref_ce(z, y):
    logp = _ref_log_softmax(z, 1.0)
    grad = np.exp(logp)
    grad[np.arange(len(z)), y] -= 1.0
    return -logp[np.arange(len(z)), y], grad


def _ref_kl(z_l, z_g, tau):
    logp_l, logp_g = _ref_log_softmax(z_l, tau), _ref_log_softmax(z_g, tau)
    q_g = np.exp(logp_g)
    terms = np.where(q_g >= 1e-15, q_g * (logp_g - logp_l), 0.0)
    return terms.sum(axis=1), (np.exp(logp_l) - q_g) / tau


def _ref_ntd(z_l, z_g, y, tau):
    n, c = z_l.shape
    mask = np.arange(c) != y[:, None]
    loss, grad_nt = _ref_kl(z_l[mask].reshape(n, c - 1), z_g[mask].reshape(n, c - 1), tau)
    grad = np.zeros((n, c))
    grad[mask] = grad_nt.ravel()
    return loss, grad


def _ref_ntd_mse(z_l, z_g, y):
    c = z_l.shape[1]
    diff = np.where(np.arange(c) != y[:, None], z_l - z_g, 0.0)
    return (diff * diff).sum(axis=1) / (c - 1), 2.0 * diff / (c - 1)


def _ref_objective(cfg, z_l, y, z_g):
    b, tau, lam = cfg.beta, cfg.tau, cfg.interp_lambda
    kl, ntd = _ref_kl(z_l, z_g, tau), _ref_ntd(z_l, z_g, y, tau)
    ce_weight, terms = {
        "fedavg": (1.0, []),
        "fedprox": (1.0, []),
        "fedntd": (1.0, [(b, ntd)] if b else []),
        "fedntd_mse": (1.0, [(b, _ref_ntd_mse(z_l, z_g, y))] if b else []),
        "kd": (1.0 - b, [(b * tau * tau, kl)]),
        "kd_ntd_interp": (1.0, [(w, term) for w, term in ((1.0 - lam, kl), (lam, ntd)) if w]),
    }[cfg.method]
    loss, grad = _ref_ce(z_l, y)
    loss, grad = ce_weight * loss, ce_weight * grad
    for weight, (term_loss, term_grad) in terms:
        loss, grad = loss + weight * term_loss, grad + weight * term_grad
    return loss, grad


def _parity_batch(seed):
    """20 rows over 10 classes, some teacher probabilities below the KL floor."""
    rng = np.random.default_rng(seed)
    z_l, z_g = rng.normal(0.0, 4.0, (2, 20, 10))
    z_g[:5] *= 10.0
    return z_l, z_g, rng.integers(0, 10, 20)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("tau", [1.0, 2.5])
def test_batch_objective_bits_match_the_written_out_terms(method, tau):
    z_l, z_g, y = _parity_batch(0)
    for beta in (0.0, 1.0, 0.7):
        for lam in (0.0, 0.5, 1.0):
            cfg = LossConfig(method, beta=beta, tau=tau, interp_lambda=lam)
            got = batch_loss_and_grad(cfg, z_l, y, z_g)
            assert _bits(*got) == _bits(*_ref_objective(cfg, z_l, y, z_g)), (beta, lam)
            # the per-client batch mean local training takes is np.mean's
            rows = got[0].reshape(4, 5)
            assert _bits(rows.sum(axis=1) / 5) == _bits(rows.mean(axis=1))


def test_single_sample_entries_match_the_written_out_terms():
    z_l, z_g, y = _parity_batch(1)
    for i in range(len(y)):
        zl, zg, yi = z_l[i : i + 1], z_g[i : i + 1], y[i : i + 1]
        for tau in (1.0, 2.5):
            assert _bits(*kd_loss_and_grad(zl[0], zg[0], tau)) == _bits(
                *(a[0] for a in _ref_kl(zl, zg, tau)))
            assert _bits(*ntd_loss_and_grad(zl[0], zg[0], yi[0], tau)) == _bits(
                *(a[0] for a in _ref_ntd(zl, zg, yi, tau)))
        assert _bits(*ce_loss_and_grad(zl[0], yi[0])) == _bits(*(a[0] for a in _ref_ce(zl, yi)))
        assert _bits(*ntd_mse_loss_and_grad(zl[0], zg[0], yi[0])) == _bits(
            *(a[0] for a in _ref_ntd_mse(zl, zg, yi)))
