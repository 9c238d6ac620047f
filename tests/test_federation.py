"""Tests for client sampling, local training, aggregation, and the round loop."""

import dataclasses

import numpy as np
import pytest

from fednsim import federation
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

    def test_nonfinite_parameters_with_finite_loss_diverge(self):
        # a dead hidden unit with bias -inf keeps the loss finite; the
        # non-finite parameter must still be reported as divergence
        fed, mlp, dataset, partition, _ = tiny_setup(method="fedntd")
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
