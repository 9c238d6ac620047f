"""Tests for client sampling, local training, aggregation, and the round loop."""

import dataclasses
import mmap
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from fednsim import federation
from fednsim.config import parse_config_text
from fednsim.data import ClientData, Dataset, make_partition, PartitionSpec, synth_dataset
from fednsim.federation import (
    ClientUpdate,
    DivergenceError,
    FederationConfig,
    aggregate,
    local_train,
    run_federation,
    sample_clients,
)
from fednsim.losses import LossConfig, ce_loss_and_grad
from fednsim.model import MlpConfig, init_params, unpack_params
from fednsim.runio import write_round_csv, write_summary_json


def logs_bit_identical(a, b) -> bool:
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            if va.tobytes() != vb.tobytes():
                return False
        elif va != vb:
            return False
    return True


def tiny_setup(method="fedavg", classes=3, clients=4, **fed_kwargs):
    dataset = synth_dataset(classes, 24, 4, 3.0, seed=0)
    testset = synth_dataset(classes, 12, 4, 3.0, seed=0, split=1)
    partition = make_partition(dataset, PartitionSpec("sharding", clients, 2, seed=0))
    mlp = MlpConfig(input_dim=4, hidden_dims=(6,), num_classes=classes)
    defaults = dict(
        rounds=3, local_epochs=2, batch_size=8, sampling_ratio=1.0,
        loss=LossConfig(method=method), lr0=0.05, master_seed=11,
    )
    defaults.update(fed_kwargs)
    fed = FederationConfig(**defaults)
    return fed, mlp, dataset, partition, testset


POOL_CONFIG = """\
data = synth
synth_classes = 4
synth_per_class = 15
synth_test_per_class = 6
synth_dim = 6
synth_separation = 2.0
partition = dirichlet
clients = 8
dirichlet_alpha = 20.0
hidden_dims = 8,8
mu = 0.5
rounds = 4
local_epochs = 2
batch_size = 3
sampling_ratio = 0.5
lr0 = 0.05
seed = 0
"""


def pool_setup(method):
    """A dirichlet run whose every round trains 2 or 3 lockstep groups, some of K = 2 or 3.

    Returns (cfg, train, test, partition, mlp)."""
    cfg = parse_config_text(POOL_CONFIG + f"method = {method}\n", "pool")
    train = synth_dataset(cfg.synth_classes, cfg.synth_per_class, cfg.synth_dim,
                          cfg.synth_separation, cfg.seed, split=0)
    test = synth_dataset(cfg.synth_classes, cfg.synth_test_per_class, cfg.synth_dim,
                         cfg.synth_separation, cfg.seed, split=1)
    partition = make_partition(train, cfg.partition_spec())
    return cfg, train, test, partition, cfg.mlp_config(train.dim, train.num_classes)


def round_groups(cfg, partition) -> list[list[list[int]]]:
    """Each round's lockstep groups, as lists of client ids."""
    sizes = {c.client_id: len(c) for c in partition}
    eligible = [cid for cid, n in sizes.items() if n > 0]
    rounds = []
    for t in range(1, cfg.rounds + 1):
        groups: dict[int, list[int]] = {}
        for cid in sample_clients(cfg.clients, cfg.sampling_ratio, t, cfg.seed, eligible):
            groups.setdefault(sizes[cid], []).append(cid)
        rounds.append(list(groups.values()))
    return rounds


def set_workers(monkeypatch, n):
    """Caps the threads a round's groups train on at n (1: on the calling thread)."""
    monkeypatch.setattr(federation, "_workers", lambda groups: min(groups, n))


def record_threads(monkeypatch) -> list[tuple[threading.Thread, bool]]:
    """Wraps federation.local_train; the list gets (thread, mapped) of every call."""
    threads = []
    real = federation.local_train

    def recorded(*args, **kwargs):
        threads.append((threading.current_thread(), kwargs.get("mapped", False)))
        return real(*args, **kwargs)

    monkeypatch.setattr(federation, "local_train", recorded)
    return threads


def spread_sessions(monkeypatch, cfg, partition, workers):
    """Wraps federation.local_train so that every worker of a round trains one of its sessions.

    The first min(groups, workers) sessions of each round wait for each other
    before they train; a worker held in one cannot take another, so they run
    on as many workers."""
    barriers = {t: threading.Barrier(min(len(groups), workers), timeout=60)
                for t, groups in enumerate(round_groups(cfg, partition), 1)}
    started = Counter()
    lock = threading.Lock()
    real = federation.local_train

    def spread(w, clients, dataset, fed, mlp, round_t, **kwargs):
        with lock:
            started[round_t] += 1
            waits = started[round_t] <= barriers[round_t].parties
        if waits:
            barriers[round_t].wait()
        return real(w, clients, dataset, fed, mlp, round_t, **kwargs)

    monkeypatch.setattr(federation, "local_train", spread)


def record_scoring(monkeypatch):
    """Wraps federation.local_train and federation.predict.

    Returns (trained, forwards): `trained` maps id(params) of every update to
    (params, thread that trained it, client id), holding params so that no
    id is reused; `forwards` gets (round of the latest session, thread,
    params) of every test-set forward."""
    trained, forwards = {}, []
    latest_round = [0]
    real_train, real_predict = federation.local_train, federation.predict

    def train(w, clients, dataset, fed, mlp, round_t, **kwargs):
        latest_round[0] = round_t
        updates = real_train(w, clients, dataset, fed, mlp, round_t, **kwargs)
        for u in updates:
            trained[id(u.params)] = (u.params, threading.current_thread(), u.client_id)
        return updates

    def predict(mlp, params, testset, out=None):
        forwards.append((latest_round[0], threading.current_thread(), params))
        return real_predict(mlp, params, testset, out=out)

    monkeypatch.setattr(federation, "local_train", train)
    monkeypatch.setattr(federation, "predict", predict)
    return trained, forwards


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(8, 1.0, 1, 0) == list(range(8))

    def test_ratio_sample_size_and_range(self):
        ids = sample_clients(100, 0.1, 3, 42)
        assert len(ids) == 10
        assert len(set(ids)) == 10
        assert all(0 <= i < 100 for i in ids)
        assert ids == sorted(ids)

    def test_deterministic_per_round(self):
        assert sample_clients(50, 0.2, 7, 9) == sample_clients(50, 0.2, 7, 9)
        assert sample_clients(50, 0.2, 7, 9) != sample_clients(50, 0.2, 8, 9)

    def test_minimum_one_client(self):
        assert len(sample_clients(3, 0.01, 1, 0)) == 1

    def test_eligible_pool_respected(self):
        ids = sample_clients(10, 1.0, 1, 0, eligible=[2, 5, 7])
        assert ids == [2, 5, 7]


class TestLocalTrain:
    def test_mapped_session_same_bits(self):
        fed, mlp, dataset, partition, _ = tiny_setup(method="fedprox")
        w0 = init_params(mlp, 1)
        plain = local_train(w0, partition[:3], dataset, fed, mlp, 2)
        mapped = local_train(w0, partition[:3], dataset, fed, mlp, 2, mapped=True)
        assert [u.params.tobytes() for u in plain] == [u.params.tobytes() for u in mapped]
        assert [u.mean_loss for u in plain] == [u.mean_loss for u in mapped]
        owners = []
        for update in (plain[0], mapped[0]):
            base = update.params
            while isinstance(base, np.ndarray):
                base = base.base
            owners.append(type(base.obj if isinstance(base, memoryview) else base))
        assert owners == [type(None), mmap.mmap]

    def test_zero_lr_keeps_params(self):
        fed, mlp, dataset, partition, _ = tiny_setup(lr0=0.0)
        w0 = init_params(mlp, 1)
        [update] = local_train(w0, [partition[0]], dataset, fed, mlp, round_t=1)
        assert np.array_equal(update.params, w0)
        assert update.sample_count == len(partition[0])

    def test_fedavg_equals_fedntd_beta_zero_bitwise(self):
        fed_a, mlp, dataset, partition, _ = tiny_setup(method="fedavg")
        fed_b = dataclasses.replace(fed_a, loss=LossConfig(method="fedntd", beta=0.0))
        w0 = init_params(mlp, 1)
        [ua] = local_train(w0, [partition[1]], dataset, fed_a, mlp, round_t=2)
        [ub] = local_train(w0, [partition[1]], dataset, fed_b, mlp, round_t=2)
        assert ua.params.tobytes() == ub.params.tobytes()

    def test_single_step_linear_model_hand_oracle(self):
        mlp = MlpConfig(input_dim=2, hidden_dims=(), num_classes=2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2))
        labels = np.array([1])
        dataset_cls = synth_dataset(2, 1, 2, 0.0, seed=0)  # placeholder, replaced below
        dataset_cls.features = x
        dataset_cls.labels = labels
        client = ClientData(0, np.array([0]))
        fed = FederationConfig(
            rounds=1, local_epochs=1, batch_size=1, sampling_ratio=1.0,
            loss=LossConfig("fedavg"), lr0=0.1, momentum=0.0, weight_decay=0.0,
            master_seed=0,
        )
        w0 = init_params(mlp, 3)
        [update] = local_train(w0, [client], dataset_cls, fed, mlp, round_t=1)

        w_mat, b = unpack_params(mlp, w0)[0]
        z = x[0] @ w_mat + b
        _, dz = ce_loss_and_grad(z, 1)
        expected = w0.copy()
        ew, eb = unpack_params(mlp, expected)[0]
        ew[...] = w_mat - 0.1 * np.outer(x[0], dz)
        eb[...] = b - 0.1 * dz
        assert np.allclose(update.params, expected, atol=1e-15)

    def test_teacher_frozen_at_incoming_weights(self):
        # two single-sample steps: the second step's teacher must still be w0
        from fednsim.losses import fedntd_objective
        from fednsim.model import backward, forward
        from fednsim.rng import NS_CLIENT_SHUFFLE, stream

        mlp = MlpConfig(input_dim=3, hidden_dims=(), num_classes=3)
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(2, 3))
        labels = np.array([0, 2])
        dataset = synth_dataset(3, 1, 3, 0.0, seed=0)
        dataset.features, dataset.labels = feats, labels
        client = ClientData(0, np.array([0, 1]))
        fed = FederationConfig(
            rounds=1, local_epochs=1, batch_size=1, sampling_ratio=1.0,
            loss=LossConfig("fedntd", beta=1.0, tau=1.0),
            lr0=0.1, momentum=0.0, weight_decay=0.0, master_seed=4,
        )
        w0 = init_params(mlp, 6)
        [update] = local_train(w0, [client], dataset, fed, mlp, round_t=1)

        order = client.indices[stream(4, NS_CLIENT_SHUFFLE, 1, 0).permutation(2)]
        w = w0.copy()
        for idx in order:
            x = feats[idx : idx + 1]
            hidden = []
            z_l = forward(mlp, w, x, hidden)[0]
            z_g = forward(mlp, w0, x)[0]  # teacher pinned to the round start
            _, dz = fedntd_objective(z_l, z_g, int(labels[idx]), 1.0, 1.0)
            w = w - 0.1 * backward(mlp, w, x, hidden, dz[None, :])
        assert np.allclose(update.params, w, atol=1e-15)

    def test_momentum_resets_each_session(self):
        # two identical sessions from the same start give identical results
        fed, mlp, dataset, partition, _ = tiny_setup()
        w0 = init_params(mlp, 1)
        [u1] = local_train(w0, [partition[0]], dataset, fed, mlp, round_t=1)
        [u2] = local_train(w0, [partition[0]], dataset, fed, mlp, round_t=1)
        assert u1.params.tobytes() == u2.params.tobytes()

    def test_empty_client_rejected(self):
        fed, mlp, dataset, _, _ = tiny_setup()
        empty = ClientData(9, np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="no samples"):
            local_train(init_params(mlp, 0), [empty], dataset, fed, mlp, 1)

    def test_divergence_reported_with_location(self):
        fed, mlp, dataset, partition, _ = tiny_setup(lr0=1e150, weight_decay=0.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            local_train(init_params(mlp, 0), [partition[2]], dataset, fed, mlp, round_t=4)
        assert err.value.round_t == 4
        assert err.value.client_id == 2
        assert err.value.nonfinite == "loss and parameters"
        assert str(err.value) == "non-finite loss and parameters at round 4, client 2"

    def test_nonfinite_last_step_diverges(self):
        # one step per session: only the returned parameters show the blow-up
        fed, mlp, dataset, partition, _ = tiny_setup(lr0=np.inf, local_epochs=1, batch_size=100)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            local_train(init_params(mlp, 0), [partition[3], partition[1]], dataset, fed, mlp, 2)
        assert (err.value.round_t, err.value.client_id) == (2, 1)

    @pytest.mark.parametrize("method", ["fedntd", "fedprox", "kd_ntd_interp"])
    def test_lockstep_equals_training_alone(self, method):
        # equal-sized clients trained together give each client's solo bytes
        fed, mlp, dataset, partition, _ = tiny_setup(method=method, batch_size=5)
        w0 = init_params(mlp, 1)
        together = local_train(w0, [partition[2], partition[0], partition[3]], dataset, fed, mlp, 2)
        assert [u.client_id for u in together] == [0, 2, 3]
        for update in together:
            [alone] = local_train(w0, [partition[update.client_id]], dataset, fed, mlp, 2)
            assert update.params.tobytes() == alone.params.tobytes()
            assert update.mean_loss == alone.mean_loss

    def test_unequal_sizes_rejected(self):
        fed, mlp, dataset, _, _ = tiny_setup()
        clients = [ClientData(0, np.arange(6)), ClientData(1, np.arange(6, 13))]
        with pytest.raises(ValueError, match="equally many"):
            local_train(init_params(mlp, 0), clients, dataset, fed, mlp, 1)

    @pytest.mark.parametrize("weight_decay,nonfinite", [
        (1e-5, "loss and parameters"),
        (0.0, "parameters"),
    ])
    def test_nonfinite_parameters_with_finite_loss_diverge(self, weight_decay, nonfinite):
        # a dead hidden unit with bias -inf keeps the loss finite; the
        # non-finite parameter must still be reported as divergence.  Its
        # gradient is 0, so without weight decay the bias stays -inf and the
        # loss finite all session; weight decay turns it into -inf + inf = NaN,
        # which then reaches the loss.
        fed, mlp, dataset, partition, _ = tiny_setup(method="fedntd", weight_decay=weight_decay)
        w0 = init_params(mlp, 0)
        _w1, b1 = unpack_params(mlp, w0)[0]
        b1[0] = -np.inf
        client = partition[1]
        from fednsim.losses import batch_loss_and_grad
        from fednsim.model import forward

        x = dataset.features[client.indices]
        losses, _ = batch_loss_and_grad(
            fed.loss, forward(mlp, w0, x), dataset.labels[client.indices], forward(mlp, w0, x)
        )
        assert np.isfinite(losses).all()
        with pytest.raises(DivergenceError) as err:
            local_train(w0, [client], dataset, fed, mlp, round_t=3)
        assert (err.value.round_t, err.value.client_id) == (3, 1)
        assert err.value.nonfinite == nonfinite
        assert str(err.value) == f"non-finite {nonfinite} at round 3, client 1"

    def test_nonfinite_loss_with_finite_parameters_diverges(self, monkeypatch):
        # only client 3's summed loss turns non-finite; every gradient and
        # parameter stays finite, and client 1 trains alongside untouched
        fed, mlp, dataset, partition, _ = tiny_setup()
        real = federation.batch_loss_and_grad

        def last_row_inf(cfg, z_l, y, z_g):
            losses, dl_dz = real(cfg, z_l, y, z_g)
            losses[-1] = np.inf  # rows run client by client, ascending id
            return losses, dl_dz

        monkeypatch.setattr(federation, "batch_loss_and_grad", last_row_inf)
        with pytest.raises(DivergenceError) as err:
            local_train(init_params(mlp, 0), [partition[3], partition[1]], dataset, fed, mlp, 5)
        assert (err.value.round_t, err.value.client_id) == (5, 3)
        assert err.value.nonfinite == "loss"
        assert str(err.value) == "non-finite loss at round 5, client 3"


class TestAggregate:
    def test_single_update_unchanged(self):
        p = np.array([1.0, -2.0, 3.0])
        out = aggregate([ClientUpdate(0, p.copy(), 5, 0.0)])
        assert np.array_equal(out, p)

    def test_size_weighted_arithmetic(self):
        updates = [
            ClientUpdate(0, np.array([0.0]), 1, 0.0),
            ClientUpdate(1, np.array([4.0]), 3, 0.0),
        ]
        assert np.allclose(aggregate(updates, "size_weighted"), [3.0], atol=1e-15)

    def test_equal_sizes_match_uniform(self):
        rng = np.random.default_rng(0)
        updates = [ClientUpdate(i, rng.normal(size=20), 7, 0.0) for i in range(5)]
        a = aggregate(updates, "size_weighted")
        b = aggregate(updates, "uniform")
        assert np.abs(a - b).max() < 1e-15

    def test_order_invariant(self):
        rng = np.random.default_rng(1)
        updates = [ClientUpdate(i, rng.normal(size=10), i + 1, 0.0) for i in range(6)]
        shuffled = [updates[i] for i in [3, 0, 5, 1, 4, 2]]
        assert aggregate(updates).tobytes() == aggregate(shuffled).tobytes()

    def test_weights_normalized(self):
        # identical params with wildly different sizes must come back unchanged
        p = np.linspace(-1, 1, 12)
        updates = [ClientUpdate(i, p.copy(), size, 0.0) for i, size in enumerate([1, 999, 50])]
        out = aggregate(updates, "size_weighted")
        assert np.abs(out - p).max() <= 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("mode", ["size_weighted", "uniform"])
    @pytest.mark.parametrize("nonfinite", [False, True])
    def test_matches_allocating_sum_bitwise(self, mode, nonfinite):
        rng = np.random.default_rng(6)
        block = rng.normal(size=(5, 400))  # updates are rows of one stacked block
        if nonfinite:
            block[0, 3], block[2, 3], block[4, 10] = np.inf, -np.inf, np.nan
        updates = [ClientUpdate(i, block[i], int(rng.integers(1, 90)), 0.0) for i in range(5)]
        total = sum(u.sample_count for u in updates)
        with np.errstate(invalid="ignore"):
            ref = np.zeros(400)  # the sum as written with a temporary per update
            for u in updates:
                ref += (u.sample_count / total if mode == "size_weighted" else 1 / 5) * u.params
            assert aggregate(updates, mode).tobytes() == ref.tobytes()


class TestRunFederation:
    def test_zero_lr_returns_initial_params(self):
        fed, mlp, dataset, _, testset = tiny_setup(clients=1, rounds=1, lr0=0.0)
        partition = make_partition(dataset, PartitionSpec("iid", 1, seed=0))
        result = run_federation(fed, mlp, dataset, partition, testset)
        assert np.array_equal(result.final_params, init_params(mlp, fed.master_seed))

    def test_bit_identical_reruns(self):
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd")
        a = run_federation(fed, mlp, dataset, partition, testset)
        b = run_federation(fed, mlp, dataset, partition, testset)
        assert a.final_params.tobytes() == b.final_params.tobytes()
        assert len(a.logs) == len(b.logs)
        for la, lb in zip(a.logs, b.logs):
            assert logs_bit_identical(la, lb)

    def test_threads_do_not_change_results(self):
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)
        seq = run_federation(fed, mlp, dataset, partition, testset, threads=1)
        par = run_federation(fed, mlp, dataset, partition, testset, threads=4)
        assert seq.final_params.tobytes() == par.final_params.tobytes()
        assert [l.train_loss for l in seq.logs] == [l.train_loss for l in par.logs]
        with pytest.raises(ValueError, match="threads"):
            run_federation(fed, mlp, dataset, partition, testset, threads=0)

    def test_beta_zero_trajectory_equals_fedavg(self):
        fed_a, mlp, dataset, partition, testset = tiny_setup(method="fedavg", sampling_ratio=0.5)
        fed_b = dataclasses.replace(fed_a, loss=LossConfig(method="fedntd", beta=0.0))
        ra = run_federation(fed_a, mlp, dataset, partition, testset)
        rb = run_federation(fed_b, mlp, dataset, partition, testset)
        assert ra.final_params.tobytes() == rb.final_params.tobytes()

    def test_iid_partition_balanced_accuracy(self):
        # separable blobs, IID split: no class should lag far behind
        dataset = synth_dataset(4, 60, 6, 6.0, seed=2)
        testset = synth_dataset(4, 40, 6, 6.0, seed=2, split=1)
        partition = make_partition(dataset, PartitionSpec("iid", 6, seed=2))
        mlp = MlpConfig(input_dim=6, hidden_dims=(12,), num_classes=4)
        fed = FederationConfig(
            rounds=15, local_epochs=2, batch_size=20, sampling_ratio=1.0,
            loss=LossConfig("fedavg"), lr0=0.1, master_seed=3,
        )
        result = run_federation(fed, mlp, dataset, partition, testset)
        final = result.logs[-1].class_acc
        assert final.min() > 0.4
        assert final.max() <= 2 * final.min()

    def test_eval_stride_logs_final_round(self):
        fed, mlp, dataset, partition, testset = tiny_setup(rounds=5, eval_stride=2)
        result = run_federation(fed, mlp, dataset, partition, testset)
        assert [log.t for log in result.logs] == [2, 4, 5]

    def test_dimension_mismatch_rejected(self):
        fed, mlp, dataset, partition, testset = tiny_setup()
        bad_mlp = MlpConfig(input_dim=5, hidden_dims=(6,), num_classes=3)
        with pytest.raises(ValueError, match="input_dim"):
            run_federation(fed, bad_mlp, dataset, partition, testset)

    def test_empty_clients_kept_but_never_trained(self):
        dataset = synth_dataset(3, 8, 4, 3.0, seed=1)
        testset = synth_dataset(3, 8, 4, 3.0, seed=1, split=1)
        partition = [
            ClientData(0, np.arange(12)),
            ClientData(1, np.empty(0, dtype=np.int64)),  # e.g. a dirichlet loser
            ClientData(2, np.arange(12, 24)),
        ]
        mlp = MlpConfig(input_dim=4, hidden_dims=(5,), num_classes=3)
        fed = FederationConfig(
            rounds=3, local_epochs=1, batch_size=6, sampling_ratio=1.0,
            loss=LossConfig("fedavg"), lr0=0.05, master_seed=0,
        )
        result = run_federation(fed, mlp, dataset, partition, testset)
        assert len(result.logs) == 3  # full-participation rounds train only ids 0 and 2

    def test_testset_missing_a_class_rejected_before_training(self, monkeypatch):
        fed, mlp, dataset, partition, testset = tiny_setup(rounds=5, eval_stride=5)
        keep = testset.labels != 2
        lacking = Dataset(testset.features[keep], testset.labels[keep], 3)
        calls = []
        monkeypatch.setattr(federation, "local_train", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"testset has no samples for classes \[2\]"):
            run_federation(fed, mlp, dataset, partition, lacking)
        assert calls == []

    def test_checkpoint_callback_cadence(self):
        fed, mlp, dataset, partition, testset = tiny_setup(rounds=4)
        seen = []
        run_federation(
            fed, mlp, dataset, partition, testset,
            checkpoint_stride=2, checkpoint_fn=lambda t, w: seen.append(t),
        )
        assert seen == [2, 4]


def diverging_setup():
    # samples 12.. have features 1e50 times larger: a client made of them
    # diverges within its first epoch, while a client holding samples 0..11
    # survives one epoch and diverges in the second
    base = synth_dataset(3, 12, 4, 3.0, seed=0)
    perm = np.random.default_rng(0).permutation(len(base))
    feats = base.features[perm]
    feats[12:] *= 1e50
    dataset = Dataset(feats, base.labels[perm], 3)
    mlp = MlpConfig(input_dim=4, hidden_dims=(6,), num_classes=3)

    def fed(epochs):
        return FederationConfig(
            rounds=1, local_epochs=epochs, batch_size=4, sampling_ratio=1.0,
            lr0=1e50, weight_decay=0.0, master_seed=0,
        )

    return dataset, mlp, fed


def diverges(w0, client, dataset, fed, mlp) -> bool:
    try:
        local_train(w0, [client], dataset, fed, mlp, 1)
    except DivergenceError:
        return True
    return False


class TestDivergenceNamesLowestClient:
    def test_lockstep_names_lowest_id_not_first_in_step_order(self):
        dataset, mlp, fed = diverging_setup()
        w0 = init_params(mlp, 0)
        clients = [ClientData(0, np.arange(12)), ClientData(1, np.arange(12, 24))]
        with np.errstate(all="ignore"):
            # client 1 diverges in epoch 1, client 0 only in epoch 2
            assert [diverges(w0, c, dataset, fed(1), mlp) for c in clients] == [False, True]
            assert diverges(w0, clients[0], dataset, fed(2), mlp)
            with pytest.raises(DivergenceError) as err:
                local_train(w0, clients, dataset, fed(2), mlp, 1)
        assert err.value.client_id == 0

    def test_round_names_lowest_id_across_size_groups(self):
        # clients 0 and 2 (12 samples) train as one group, client 1 (11) alone;
        # clients 1 and 2 diverge, so the round must name client 1
        dataset, mlp, fed = diverging_setup()
        partition = [
            ClientData(0, np.arange(12)),
            ClientData(1, np.arange(12, 23)),
            ClientData(2, np.arange(24, 36)),
        ]
        w0 = init_params(mlp, fed(1).master_seed)
        testset = synth_dataset(3, 4, 4, 3.0, seed=0, split=1)
        with np.errstate(all="ignore"):
            assert [diverges(w0, c, dataset, fed(1), mlp) for c in partition] == [False, True, True]
            with pytest.raises(DivergenceError) as err:
                run_federation(fed(1), mlp, dataset, partition, testset)
        assert (err.value.round_t, err.value.client_id) == (1, 1)


class TestFederationConfigValidation:
    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            FederationConfig(sampling_ratio=0.0)

    def test_bad_aggregation(self):
        with pytest.raises(ValueError):
            FederationConfig(aggregation="median")

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            FederationConfig(rounds=0)

    def test_nan_weight_decay(self):
        with pytest.raises(ValueError, match="weight_decay"):
            FederationConfig(weight_decay=float("nan"))


class TestGroupPool:
    """Rounds of two or more lockstep groups train them on a thread pool."""

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0))
        assert federation._workers(1) == 1
        assert federation._workers(10**6) == cpus

    @pytest.mark.parametrize("method", ["fedprox", "fedntd"])
    def test_outputs_identical_at_1_2_3_workers(self, method, monkeypatch, tmp_path):
        cfg, train, test, partition, mlp = pool_setup(method)
        rounds = round_groups(cfg, partition)
        assert min(map(len, rounds)) >= 2 and max(map(len, rounds)) == 3
        assert all(max(map(len, groups)) >= 2 for groups in rounds)
        threads = record_threads(monkeypatch)
        before = set(threading.enumerate())
        outputs = []
        for n in (1, 2, 3):
            set_workers(monkeypatch, n)
            threads.clear()
            result = run_federation(cfg.federation_config(), mlp, train, partition, test)
            assert set(threading.enumerate()) == before  # the pool is joined
            assert len(threads) == sum(map(len, rounds))  # one call per group
            # sessions run in mapped memory iff the round has two or more workers
            assert all(mapped == (n >= 2) for _, mapped in threads)
            assert n >= 2 or all(t is threading.main_thread() for t, _ in threads)
            out = tmp_path / str(n)
            out.mkdir()
            write_round_csv(result.logs, out / "rounds.csv", mlp.num_classes)
            write_summary_json(result.logs, cfg, out / "summary.json", "rounds.csv")
            outputs.append(((out / "rounds.csv").read_bytes(),
                            (out / "summary.json").read_bytes(),
                            result.final_params.tobytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_divergence_in_concurrent_groups_names_lowest_id(self, monkeypatch):
        # the round of test_round_names_lowest_id_across_size_groups, with both
        # groups in flight at once: each waits for the other before it trains
        dataset, mlp, fed = diverging_setup()
        partition = [
            ClientData(0, np.arange(12)),
            ClientData(1, np.arange(12, 23)),
            ClientData(2, np.arange(24, 36)),
        ]
        testset = synth_dataset(3, 4, 4, 3.0, seed=0, split=1)
        set_workers(monkeypatch, 2)
        barrier = threading.Barrier(2, timeout=60)
        real = federation.local_train

        def together(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", together)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_federation(fed(1), mlp, dataset, partition, testset)
        assert (err.value.round_t, err.value.client_id) == (1, 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_exception_reaches_caller(self, workers, monkeypatch):
        # round 1 has three groups: the first diverges, the second and third
        # fail; the second's failure is raised, as a loop over the groups in
        # order meets it, and no helper thread is left running.  The failures
        # may happen on the calling thread, which is one of the workers.
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        first, second, third = (group[0] for group in round_groups(cfg, partition)[0])
        set_workers(monkeypatch, workers)
        real = federation.local_train
        failed_on = []

        def failing(w, clients, *rest, **kwargs):
            cid = clients[0].client_id
            if cid == first:
                raise DivergenceError(1, cid, "loss")
            if cid in (second, third):
                failed_on.append(threading.current_thread())
                raise (OSError if cid == second else KeyError)(f"injected at {cid}")
            return real(w, clients, *rest, **kwargs)

        monkeypatch.setattr(federation, "local_train", failing)
        before = set(threading.enumerate())
        with pytest.raises(OSError, match=f"injected at {second}"):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert set(threading.enumerate()) == before
        assert failed_on and (workers > 1 or all(t is threading.main_thread() for t in failed_on))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_updates_scored_on_the_thread_that_trained_them(self, workers, monkeypatch):
        cfg, train, test, partition, mlp = pool_setup("fedntd")
        set_workers(monkeypatch, workers)
        spread_sessions(monkeypatch, cfg, partition, workers)
        trained, forwards = record_scoring(monkeypatch)
        run_federation(cfg.federation_config(), mlp, train, partition, test)
        # every round is logged: each update gets one forward, on its trainer's thread
        scored = [(thread, trained[id(params)][1]) for _, thread, params in forwards
                  if id(params) in trained]
        clients = sum(len(group) for groups in round_groups(cfg, partition) for group in groups)
        assert len(scored) == len(trained) == clients
        assert all(thread is trainer for thread, trainer in scored)
        trainers = {trainer for _, trainer, _ in trained.values()}
        assert threading.main_thread() in trainers and len(trainers) >= 2

    @pytest.mark.parametrize("stride", [1, 2])
    def test_eval_forwards_per_logged_round(self, stride, monkeypatch):
        # 2 + K forwards when the previous round was not logged, else 1 + K
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        set_workers(monkeypatch, 2)
        _, forwards = record_scoring(monkeypatch)
        fed = dataclasses.replace(cfg.federation_config(), eval_stride=stride)
        run_federation(fed, mlp, train, partition, test)
        sampled = [sum(map(len, groups)) for groups in round_groups(cfg, partition)]
        logged = [t for t in range(1, fed.rounds + 1) if t % stride == 0]
        expected = {t: (1 if t - 1 in logged else 2) + sampled[t - 1] for t in logged}
        assert Counter(t for t, _, _ in forwards) == expected

    def test_keyboard_interrupt_on_calling_thread(self, monkeypatch):
        # round 1 has three groups on two workers; the calling thread's session is
        # interrupted while the helper holds the other, so the third never starts
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        assert len(round_groups(cfg, partition)[0]) == 3
        set_workers(monkeypatch, 2)
        joining = threading.Event()
        real_join = threading.Thread.join

        def join(thread, *args, **kwargs):
            joining.set()
            return real_join(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "join", join)
        real = federation.local_train
        sessions = []

        def interrupted(*args, **kwargs):
            sessions.append(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            joining.wait(60)  # the helper holds its session until the caller joins it
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", interrupted)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert joining.is_set() and set(threading.enumerate()) == before
        assert len(sessions) == 2 and threading.main_thread() in sessions

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helper_scoring_failure_reaches_caller_in_group_order(self, workers, monkeypatch):
        # every update a helper scores in round 1 fails, naming its group; the
        # failure of the first such group in group order is raised
        cfg, train, test, partition, mlp = pool_setup("fedntd")
        group_of = {cid: g for g, group in enumerate(round_groups(cfg, partition)[0])
                    for cid in group}
        set_workers(monkeypatch, workers)
        spread_sessions(monkeypatch, cfg, partition, workers)
        trained, _ = record_scoring(monkeypatch)
        recorded_predict = federation.predict
        failed = []

        def failing(mlp, params, testset, out=None):
            owner = trained.get(id(params))
            if owner and owner[1] is not threading.main_thread():
                failed.append(group_of[owner[2]])
                raise OSError(f"injected in group {group_of[owner[2]]}")
            return recorded_predict(mlp, params, testset, out=out)

        monkeypatch.setattr(federation, "predict", failing)
        before = set(threading.enumerate())
        with pytest.raises(OSError) as err:
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert failed and str(err.value) == f"injected in group {min(failed)}"
        assert set(threading.enumerate()) == before

    def test_many_groups_on_more_workers_than_cores(self, monkeypatch):
        # every client in its own group, six workers on fewer cores, and a
        # switch interval that interleaves the workers at nearly every bytecode:
        # each group is still handed out once, and the bits stay the same
        text = (POOL_CONFIG.replace("dirichlet_alpha = 20.0", "dirichlet_alpha = 0.5")
                .replace("sampling_ratio = 0.5", "sampling_ratio = 1.0") + "method = fedprox\n")
        cfg = parse_config_text(text, "stress")
        train = synth_dataset(cfg.synth_classes, cfg.synth_per_class, cfg.synth_dim,
                              cfg.synth_separation, cfg.seed, split=0)
        test = synth_dataset(cfg.synth_classes, cfg.synth_test_per_class, cfg.synth_dim,
                             cfg.synth_separation, cfg.seed, split=1)
        partition = make_partition(train, cfg.partition_spec())
        mlp = cfg.mlp_config(train.dim, train.num_classes)
        rounds = round_groups(cfg, partition)
        assert min(map(len, rounds)) >= 6
        set_workers(monkeypatch, 1)
        alone = run_federation(cfg.federation_config(), mlp, train, partition, test)
        set_workers(monkeypatch, 6)
        trained = Counter()
        real = federation.local_train

        def counted(w, clients, dataset, fed, mlp, round_t, **kwargs):
            trained.update((round_t, c.client_id) for c in clients)
            return real(w, clients, dataset, fed, mlp, round_t, **kwargs)

        monkeypatch.setattr(federation, "local_train", counted)
        before = set(threading.enumerate())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = run_federation(cfg.federation_config(), mlp, train, partition, test)
        finally:
            sys.setswitchinterval(interval)
        assert set(threading.enumerate()) == before
        assert trained == Counter((t, cid) for t, groups in enumerate(rounds, 1)
                                  for group in groups for cid in group)
        assert stressed.final_params.tobytes() == alone.final_params.tobytes()
        assert all(logs_bit_identical(a, b) for a, b in zip(stressed.logs, alone.logs))

    def test_single_group_round_starts_no_thread(self, monkeypatch):
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)
        assert len({len(c) for c in partition}) == 1  # equal shards: one group a round

        def no_start(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        threads = record_threads(monkeypatch)
        run_federation(fed, mlp, dataset, partition, testset)
        assert len(threads) == fed.rounds
        assert all(t is threading.main_thread() and not mapped for t, mapped in threads)
