"""Tests for the MLP core: layout, forward, explicit gradients, optimizer."""

import numpy as np
import pytest

from fednsim import model
from fednsim.losses import ce_loss_and_grad
from fednsim.model import (
    MlpConfig,
    backward,
    forward,
    init_params,
    load_params,
    lr_at_round,
    save_params,
    sgd_momentum_step,
    unpack_params,
)


def small_config():
    return MlpConfig(input_dim=4, hidden_dims=(5,), num_classes=3)


class TestConfig:
    def test_param_count(self):
        cfg = small_config()
        assert cfg.param_count() == 4 * 5 + 5 + 5 * 3 + 3


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = small_config()
        a = init_params(cfg, 42)
        b = init_params(cfg, 42)
        assert a.tobytes() == b.tobytes()

    def test_biases_zero(self):
        cfg = small_config()
        params = init_params(cfg, 3)
        for _w, b in unpack_params(cfg, params):
            assert np.all(b == 0.0)

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_params(cfg, 1)
        b = init_params(cfg, 2)
        assert np.any(a != b)

    def test_fan_in_bound(self):
        cfg = MlpConfig(input_dim=16, hidden_dims=(8,), num_classes=4)
        params = init_params(cfg, 0)
        for w, _b in unpack_params(cfg, params):
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.abs(w).max() <= bound


class TestForward:
    def test_zero_params_zero_logits(self):
        cfg = small_config()
        x = np.random.default_rng(0).normal(size=(7, 4))
        logits = forward(cfg, np.zeros(cfg.param_count()), x)
        assert np.all(logits == 0.0)

    def test_identity_single_layer(self):
        cfg = MlpConfig(input_dim=3, hidden_dims=(), num_classes=3)
        params = np.zeros(cfg.param_count())
        w, b = unpack_params(cfg, params)[0]
        w[...] = np.eye(3)
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.allclose(forward(cfg, params, x), x, atol=0)

    def test_matches_reference_matmul(self):
        # independent re-implementation: explicit per-sample loops
        rng = np.random.default_rng(7)
        cfg = MlpConfig(input_dim=6, hidden_dims=(4, 3), num_classes=2)
        params = rng.normal(size=cfg.param_count())
        x = rng.normal(size=(9, 6))
        expected = np.zeros((9, 2))
        layers = unpack_params(cfg, params)
        for i in range(9):
            h = x[i]
            for w, b in layers[:-1]:
                h = np.array([max(float(h @ w[:, j] + b[j]), 0.0) for j in range(w.shape[1])])
            w, b = layers[-1]
            expected[i] = [float(h @ w[:, j] + b[j]) for j in range(w.shape[1])]
        got = forward(cfg, params, x)
        assert np.abs(got - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        cfg = small_config()
        params = init_params(cfg, 0)
        with pytest.raises(ValueError):
            forward(cfg, params, np.zeros((2, 5)))


def central_difference_grad(scalar_fn, params, h=1e-5):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (scalar_fn(up) - scalar_fn(down)) / (2 * h)
    return grad


# Smallest |pre-activation| a ReLU gradient check accepts.  A central-difference
# step h = 1e-5 moves a pre-activation by at most h * max(1, |x|), under 1e-4
# for the unit-normal features drawn here, so it cannot cross the kink.
KINK_MARGIN = 1e-3


def max_relative_error(analytic, numeric, floor=1e-6):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / scale).max())


class TestBackward:
    def test_zero_upstream_zero_grad(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        params = init_params(cfg, 0)
        x = rng.normal(size=(3, 4))
        hidden = []
        forward(cfg, params, x, hidden)
        grad = backward(cfg, params, x, hidden, np.zeros((3, 3)))
        assert np.all(grad == 0.0)

    def test_single_linear_layer_outer_product(self):
        cfg = MlpConfig(input_dim=3, hidden_dims=(), num_classes=2)
        rng = np.random.default_rng(1)
        params = rng.normal(size=cfg.param_count())
        x = rng.normal(size=(1, 3))
        g = rng.normal(size=(1, 2))
        grad = backward(cfg, params, x, [], g)
        gw, gb = unpack_params(cfg, grad)[0]
        assert np.allclose(gw, np.outer(x[0], g[0]), atol=1e-15)
        assert np.allclose(gb, g[0], atol=1e-15)

    def test_gradient_check_sweep(self):
        # 50 random (config, params, batch) triples against central differences
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            depth = int(rng.integers(0, 3))
            cfg = MlpConfig(
                input_dim=int(rng.integers(2, 6)),
                hidden_dims=tuple(int(rng.integers(2, 6)) for _ in range(depth)),
                num_classes=int(rng.integers(2, 5)),
            )
            params = rng.normal(scale=0.8, size=cfg.param_count())
            nb = int(rng.integers(1, 6))
            feats = rng.normal(size=(nb, cfg.input_dim))
            labels = rng.integers(0, cfg.num_classes, size=nb)

            def scalar_loss(p):
                logits = forward(cfg, p, feats)
                return float(
                    np.mean([ce_loss_and_grad(z, int(y))[0] for z, y in zip(logits, labels)])
                )

            hidden = []
            logits = forward(cfg, params, feats, hidden)
            dl_dz = np.stack(
                [ce_loss_and_grad(z, int(y))[1] for z, y in zip(logits, labels)]
            )
            analytic = backward(cfg, params, feats, hidden, dl_dz)
            numeric = central_difference_grad(scalar_loss, params)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    @pytest.mark.parametrize("objective", ["ce", "fedntd", "fedprox", "kd_interp"])
    def test_gradient_check_composed_objectives(self, objective):
        # parameter-level check of backward through every training objective
        from fednsim.losses import (
            fedntd_objective,
            fedprox_penalty,
            kd_ntd_interp_objective,
        )

        def logit_loss(z, z_teacher, y):
            if objective == "fedntd":
                return fedntd_objective(z, z_teacher, y, 0.9, 1.4)
            if objective == "kd_interp":
                return kd_ntd_interp_objective(z, z_teacher, y, 0.4, 2.0)
            return ce_loss_and_grad(z, y)  # ce; fedprox adds a parameter term

        rng = np.random.default_rng({"ce": 1, "fedntd": 2, "fedprox": 3, "kd_interp": 4}[objective])
        worst = 0.0
        checked = 0
        while checked < 50:
            cfg = MlpConfig(
                input_dim=int(rng.integers(2, 5)),
                hidden_dims=(int(rng.integers(2, 5)),),
                num_classes=int(rng.integers(2, 4)),
            )
            params = rng.normal(scale=0.8, size=cfg.param_count())
            anchor = rng.normal(scale=0.8, size=cfg.param_count())
            nb = int(rng.integers(1, 4))
            feats = rng.normal(size=(nb, cfg.input_dim))
            labels = rng.integers(0, cfg.num_classes, size=nb)
            w1, b1 = unpack_params(cfg, params)[0]
            if np.abs(feats @ w1 + b1).min() < KINK_MARGIN:
                continue  # a difference step could cross the ReLU kink: redraw
            checked += 1
            teacher = forward(cfg, anchor, feats)

            def scalar_loss(p):
                logits = forward(cfg, p, feats)
                total = sum(
                    logit_loss(logits[r], teacher[r], int(labels[r]))[0]
                    for r in range(nb)
                ) / nb
                if objective == "fedprox":
                    total += fedprox_penalty(p, anchor, 0.3)[0]
                return total

            hidden = []
            logits = forward(cfg, params, feats, hidden)
            dl_dz = np.stack(
                [logit_loss(logits[r], teacher[r], int(labels[r]))[1] for r in range(nb)]
            )
            analytic = backward(cfg, params, feats, hidden, dl_dz)
            if objective == "fedprox":
                analytic = analytic + fedprox_penalty(params, anchor, 0.3)[1]
            numeric = central_difference_grad(scalar_loss, params)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_shape_check(self):
        cfg = small_config()
        params = init_params(cfg, 0)
        x = np.zeros((2, 4))
        hidden = []
        forward(cfg, params, x, hidden)
        with pytest.raises(ValueError):
            backward(cfg, params, x, hidden, np.zeros((2, 4)))


class TestStacked:
    """A (K, P) stack of models must give each model's solo results bit for bit."""

    def test_stack_matches_each_model_alone(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cfg = MlpConfig(
                input_dim=int(rng.integers(1, 9)),
                hidden_dims=tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(0, 3)))),
                num_classes=int(rng.integers(2, 11)),
            )
            k, nb = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            params = rng.normal(size=(k, cfg.param_count()))
            x = rng.normal(size=(k, nb, cfg.input_dim))
            g = rng.normal(size=(k, nb, cfg.num_classes))
            hidden = []
            logits = forward(cfg, params, x, hidden)
            grad = backward(cfg, params, x, hidden, g)
            teacher = forward(cfg, params[0], x)
            for i in range(k):
                solo_hidden = []
                solo = forward(cfg, params[i], x[i], solo_hidden)
                assert logits[i].tobytes() == solo.tobytes()
                solo_grad = backward(cfg, params[i], x[i], solo_hidden, g[i])
                assert grad[i].tobytes() == solo_grad.tobytes()
                assert teacher[i].tobytes() == forward(cfg, params[0], x[i]).tobytes()

    def test_backward_writes_into_out(self):
        cfg = small_config()
        rng = np.random.default_rng(3)
        params = rng.normal(size=(2, cfg.param_count()))
        x = rng.normal(size=(2, 4, 4))
        hidden = []
        forward(cfg, params, x, hidden)
        out = np.full_like(params, np.nan)
        g = rng.normal(size=(2, 4, 3))
        assert backward(cfg, params, x, hidden, g, out=out) is out
        assert out.tobytes() == backward(cfg, params, x, hidden, g).tobytes()


def _sgd_allocating(params, grad, velocity, lr, momentum, weight_decay):
    # the step as written before it reused a scratch buffer
    params, grad, velocity = params.copy(), grad.copy(), velocity.copy()
    if weight_decay != 0.0:
        grad += weight_decay * params
    velocity *= momentum
    velocity += grad
    np.multiply(velocity, lr, out=grad)
    params -= grad
    return params, velocity


def _with_nonfinite(rng, shape):
    a = rng.normal(size=shape)
    flat = a.reshape(-1)
    picks = rng.choice(flat.size, size=6, replace=False)
    flat[picks] = [np.nan, np.inf, -np.inf, -np.nan, np.inf, np.nan]
    return a


class TestSgdMomentum:
    def test_no_force_no_motion(self):
        p = np.array([1.0, -2.0])
        v = np.zeros(2)
        p2, v2 = sgd_momentum_step(
            p.copy(), np.zeros(2), v.copy(), lr=0.1, momentum=0.9, weight_decay=0.0
        )
        assert np.array_equal(p2, p)
        assert np.array_equal(v2, v)

    def test_single_step_arithmetic(self):
        p, v = np.array([1.0]), np.zeros(1)
        p2, v2 = sgd_momentum_step(p, np.array([1.0]), v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert np.allclose(p2, [0.9], atol=1e-15)
        assert np.allclose(v2, [1.0], atol=1e-15)

    def test_two_steps_momentum_accumulates(self):
        p, v = np.array([1.0]), np.zeros(1)
        sgd_momentum_step(p, np.array([1.0]), v, 0.1, 0.9, 0.0)
        before = p.copy()
        sgd_momentum_step(p, np.array([1.0]), v, 0.1, 0.9, 0.0)
        # v2 = 0.9 * 1 + 1 = 1.9, so the second update subtracts 0.19
        assert np.allclose(before - p, [0.19], atol=1e-15)

    def test_weight_decay_coupled(self):
        p, v = np.array([2.0]), np.zeros(1)
        p2, v2 = sgd_momentum_step(p, np.array([0.0]), v, 1.0, 0.0, 0.5)
        assert np.allclose(v2, [1.0])  # decay contributes 0.5 * 2.0 to the force
        assert np.allclose(p2, [1.0])

    @pytest.mark.parametrize("lr", [0.0, 0.1])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["params", "grad"])
    def test_nonfinite_input_leaves_params_nonfinite(self, lr, momentum, weight_decay, bad, where):
        # local_train judges divergence once, after the session: that is
        # exact only because no step turns a non-finite value finite again
        p, g = np.array([1.0, -2.0]), np.array([0.5, 0.25])
        (p if where == "params" else g)[1] = bad
        with np.errstate(invalid="ignore"):
            sgd_momentum_step(p, g, np.zeros(2), lr, momentum, weight_decay)
        assert np.isfinite(p).tolist() == [True, False]

    @pytest.mark.parametrize("block", [16, model._BLOCK])  # 16: 50 columns in 4 blocks, 1 ragged
    @pytest.mark.parametrize("with_scratch", [True, False])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-5, 0.3])
    @pytest.mark.parametrize("shape", [(50,), (1, 50), (3, 50), (4, 50)])
    def test_scratch_gives_the_allocating_bits(self, weight_decay, shape, with_scratch, block,
                                               monkeypatch):
        # the blocked passes give the bits of the whole-vector formula
        monkeypatch.setattr(model, "_BLOCK", block)
        rng = np.random.default_rng(8)
        for trial in range(20):
            p, g, v = (_with_nonfinite(rng, shape) if trial % 2 else rng.normal(size=shape)
                       for _ in range(3))
            scratch = np.full(shape, np.nan) if with_scratch else None
            with np.errstate(invalid="ignore"):
                ref_p, ref_v = _sgd_allocating(p, g, v, 0.05, 0.9, weight_decay)
                sgd_momentum_step(p, g, v, 0.05, 0.9, weight_decay, scratch)
            assert p.tobytes() == ref_p.tobytes() and v.tobytes() == ref_v.tobytes()

    def test_updates_in_place(self):
        p, v = np.array([1.0, 2.0]), np.zeros(2)
        p2, v2 = sgd_momentum_step(p, np.array([1.0, 1.0]), v, 0.5, 0.9, 0.0)
        assert p2 is p and v2 is v
        assert np.array_equal(p, [0.5, 1.5])

    def test_zero_lr_is_noop(self):
        p = np.array([1.0, 2.0])
        p2, _ = sgd_momentum_step(p.copy(), np.array([3.0, 4.0]), np.zeros(2), 0.0, 0.9, 0.0)
        assert np.array_equal(p2, p)


class TestLrSchedule:
    def test_values(self):
        assert lr_at_round(0.01, 0, 0.99) == 0.01
        assert abs(lr_at_round(0.01, 1, 0.99) - 0.0099) < 1e-18
        assert abs(lr_at_round(0.01, 2, 0.99) - 0.009801) < 1e-18

    def test_rejects_negative_round(self):
        with pytest.raises(ValueError):
            lr_at_round(0.01, -1, 0.99)

    @pytest.mark.parametrize("t,decay", [(0, 0.99), (3, 1.0), (200, 0.01), (10**6, 0.5)])
    def test_infinite_lr0_rejected(self, t, decay):
        # no schedule starts at inf: decay**t underflows to 0 in the last two, and inf * 0 is NaN
        with pytest.raises(ValueError, match=r"^lr0 must be finite and >= 0, got inf$"):
            lr_at_round(np.inf, t, decay)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, 99)
        path = tmp_path / "model.fntd"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.tobytes() == params.tobytes()
