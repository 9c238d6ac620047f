"""Tests for client sampling, local training, aggregation, and the round loop."""

import dataclasses
import hashlib
import json
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
import time
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
    """Caps the processes a run trains on at n (1: the calling process alone)."""
    monkeypatch.setattr(federation, "_workers", lambda sessions: min(sessions, n))


def blas_count() -> int:
    return federation._blas_threads()[0]()


@pytest.fixture
def blas_two():
    """Sets numpy's BLAS to two threads for the test, so that a pool's pin to
    one shows; the test may check that the count is 2 again after a run."""
    get, put = federation._blas_threads()
    saved = get()
    put(2)
    yield
    put(saved)


class CallLog:
    """Records appended by any process of a run, one JSON line each.

    A line goes to an O_APPEND file in one write, so the lines of processes
    writing at once do not mix."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def add(self, **record):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, (json.dumps(record) + "\n").encode())
        finally:
            os.close(fd)

    def read(self) -> list[dict]:
        return [json.loads(line) for line in self.path.read_text().splitlines()]

    def clear(self):
        self.path.write_text("")


def record_sessions(monkeypatch, log: CallLog):
    """Wraps federation.local_train; `log` gets the process, round, client ids,
    whether rows of the shared block were given (`out`) and the BLAS thread
    count of every call."""
    real = federation.local_train

    def recorded(w, clients, dataset, fed, mlp, round_t, **kwargs):
        log.add(pid=os.getpid(), round=round_t, ids=[c.client_id for c in clients],
                out=kwargs.get("out") is not None, blas=blas_count())
        return real(w, clients, dataset, fed, mlp, round_t, **kwargs)

    monkeypatch.setattr(federation, "local_train", recorded)


def session_count(groups: list[list[int]], workers: int) -> int:
    """Sessions a round of these groups trains as: while there are fewer than
    workers, the largest group of two or more clients is split in half."""
    return max(len(groups), min(workers, sum(map(len, groups))))


def spread_sessions(monkeypatch, cfg, partition, workers):
    """Wraps federation.local_train so that every worker of a round trains one of its sessions.

    The first min(clients, workers) sessions of each round wait for each
    other before they train; a worker held in one cannot take another, so
    they run on as many workers.  The barriers and counters are made here,
    before the run forks its helpers, so that every process shares them."""
    ctx = multiprocessing.get_context("fork")
    parties = {t: min(sum(map(len, groups)), workers)
               for t, groups in enumerate(round_groups(cfg, partition), 1)}
    barriers = {t: ctx.Barrier(n, timeout=60) for t, n in parties.items()}
    started = {t: ctx.Value("i", 0) for t in parties}
    real = federation.local_train

    def spread(w, clients, dataset, fed, mlp, round_t, **kwargs):
        with started[round_t].get_lock():
            started[round_t].value += 1
            waits = started[round_t].value <= parties[round_t]
        if waits:
            barriers[round_t].wait()
        return real(w, clients, dataset, fed, mlp, round_t, **kwargs)

    monkeypatch.setattr(federation, "local_train", spread)


def digest(params) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()


def record_scoring(monkeypatch, log: CallLog):
    """Wraps federation.local_train, federation.predict, federation._run_task
    and federation._evaluate_round.

    `log` gets a record of every trained update, {"pid", "round", "cid",
    "params": digest}, and of every test-set forward, {"pid", "round",
    "params", "evaluate": whether `_evaluate_round` made it}."""
    current = {"round": 0, "evaluate": False}  # of this process
    real_train, real_predict = federation.local_train, federation.predict
    real_task, real_evaluate = federation._run_task, federation._evaluate_round

    def train(w, clients, dataset, fed, mlp, round_t, **kwargs):
        updates = real_train(w, clients, dataset, fed, mlp, round_t, **kwargs)
        for u in updates:
            log.add(pid=os.getpid(), round=round_t, cid=u.client_id, params=digest(u.params))
        return updates

    def predict(mlp, params, testset, out=None):
        log.add(pid=os.getpid(), round=current["round"], params=digest(params),
                evaluate=current["evaluate"])
        return real_predict(mlp, params, testset, out=out)

    def task(task, **kwargs):
        current["round"] = task.round_t
        return real_task(task, **kwargs)

    def evaluate(t, *args):
        current.update(round=t, evaluate=True)
        try:
            return real_evaluate(t, *args)
        finally:
            current["evaluate"] = False

    monkeypatch.setattr(federation, "local_train", train)
    monkeypatch.setattr(federation, "predict", predict)
    monkeypatch.setattr(federation, "_run_task", task)
    monkeypatch.setattr(federation, "_evaluate_round", evaluate)


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
    def test_out_rows_same_bits(self):
        # a session given rows of a larger shared block trains in them, with
        # the bits of a session that allocates its own
        fed, mlp, dataset, partition, _ = tiny_setup(method="fedprox")
        w0 = init_params(mlp, 1)
        plain = local_train(w0, partition[:3], dataset, fed, mlp, 2)
        block = np.frombuffer(mmap.mmap(-1, 8 * 5 * w0.size), dtype=np.float64).reshape(5, -1)
        block[0] = w0
        rows = block[2:5]
        placed = local_train(block[0], partition[:3], dataset, fed, mlp, 2, out=rows)
        assert [u.params.tobytes() for u in plain] == [u.params.tobytes() for u in placed]
        assert [u.mean_loss for u in plain] == [u.mean_loss for u in placed]
        assert all(np.shares_memory(u.params, rows[k]) for k, u in enumerate(placed))
        assert rows.tobytes() == b"".join(u.params.tobytes() for u in plain)
        assert block[0].tobytes() == w0.tobytes() and not block[1].any()
        with pytest.raises(ValueError, match="out has shape"):
            local_train(w0, partition[:3], dataset, fed, mlp, 2, out=block[1:3])

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


def test_divergence_error_survives_pickle():
    err = pickle.loads(pickle.dumps(DivergenceError(5, 3, "loss and parameters")))
    assert type(err) is DivergenceError
    assert (err.round_t, err.client_id, err.nonfinite) == (5, 3, "loss and parameters")
    assert str(err) == "non-finite loss and parameters at round 5, client 3"


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
    """A run trains its rounds on the calling process and forked helper processes."""

    def test_worker_count(self):
        cpus = len(os.sched_getaffinity(0))
        assert federation._workers(1) == 1
        assert federation._workers(10**6) == cpus

    def test_one_worker_without_fork_blas_control_or_a_single_thread(self, monkeypatch):
        monkeypatch.setattr(federation, "_blas_threads", lambda: None)
        assert federation._workers(10**6) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        assert federation._workers(10**6) == 1
        monkeypatch.undo()
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert federation._workers(10**6) == 1
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()
        assert federation._workers(10**6) == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("method", ["fedprox", "fedntd"])
    def test_outputs_identical_at_1_2_3_workers(self, method, monkeypatch, tmp_path, blas_two):
        cfg, train, test, partition, mlp = pool_setup(method)
        rounds = round_groups(cfg, partition)
        assert min(map(len, rounds)) >= 2 and max(map(len, rounds)) == 3
        assert all(max(map(len, groups)) >= 2 for groups in rounds)
        log = CallLog(tmp_path / "sessions")
        record_sessions(monkeypatch, log)
        outputs = []
        for n in (1, 2, 3):
            set_workers(monkeypatch, n)
            log.clear()
            result = run_federation(cfg.federation_config(), mlp, train, partition, test)
            assert multiprocessing.active_children() == []  # the pool is ended
            assert blas_count() == 2  # and the calling process's BLAS count restored
            calls = log.read()
            # one call per session, every one training into rows of the shared block
            # with BLAS on one thread; at 3 workers two-group rounds split a group
            assert len(calls) == sum(session_count(groups, n) for groups in rounds)
            assert all(call["out"] for call in calls)
            assert all(call["blas"] == (2 if n == 1 else 1) for call in calls)
            assert n >= 2 or {call["pid"] for call in calls} == {os.getpid()}
            out = tmp_path / str(n)
            out.mkdir()
            write_round_csv(result.logs, out / "rounds.csv", mlp.num_classes)
            write_summary_json(result.logs, cfg, out / "summary.json", "rounds.csv")
            outputs.append(((out / "rounds.csv").read_bytes(),
                            (out / "summary.json").read_bytes(),
                            result.final_params.tobytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_single_group_splits_over_the_workers(self, monkeypatch, tmp_path):
        # 3 equal clients a round form one lockstep group, which two workers
        # train as 2 + 1 clients, one session each, with the bits of one worker
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)
        assert len({len(c) for c in partition}) == 1
        set_workers(monkeypatch, 1)
        alone = run_federation(fed, mlp, dataset, partition, testset)
        set_workers(monkeypatch, 2)
        barriers = [multiprocessing.get_context("fork").Barrier(2, timeout=60)
                    for _ in range(fed.rounds)]
        real = federation.local_train

        def together(w, clients, dataset, fed, mlp, round_t, **kwargs):
            barriers[round_t - 1].wait()
            return real(w, clients, dataset, fed, mlp, round_t, **kwargs)

        monkeypatch.setattr(federation, "local_train", together)
        log = CallLog(tmp_path / "sessions")
        record_sessions(monkeypatch, log)
        split = run_federation(fed, mlp, dataset, partition, testset)
        calls = log.read()
        assert [sorted(map(len, (c["ids"] for c in calls if c["round"] == t)))
                for t in range(1, fed.rounds + 1)] == [[1, 2]] * fed.rounds
        assert all({c["pid"] for c in calls if c["round"] == t} != {os.getpid()}
                   for t in range(1, fed.rounds + 1))
        assert split.final_params.tobytes() == alone.final_params.tobytes()
        assert all(logs_bit_identical(a, b) for a, b in zip(split.logs, alone.logs))

    def test_one_worker_starts_no_process(self, monkeypatch, tmp_path):
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)

        def no_start(process):
            raise AssertionError(f"process {process.name} started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
        set_workers(monkeypatch, 1)
        log = CallLog(tmp_path / "sessions")
        record_sessions(monkeypatch, log)
        run_federation(fed, mlp, dataset, partition, testset)
        calls = log.read()
        assert [c["round"] for c in calls] == list(range(1, fed.rounds + 1))  # one group a round
        assert all(c["pid"] == os.getpid() and c["out"] for c in calls)

    def test_divergence_in_concurrent_groups_names_lowest_id(self, monkeypatch, blas_two):
        # the round of test_round_names_lowest_id_across_size_groups, with both
        # groups in flight at once, one on each process: each waits for the
        # other before it trains, and the helper's DivergenceError comes back pickled
        dataset, mlp, fed = diverging_setup()
        partition = [
            ClientData(0, np.arange(12)),
            ClientData(1, np.arange(12, 23)),
            ClientData(2, np.arange(24, 36)),
        ]
        testset = synth_dataset(3, 4, 4, 3.0, seed=0, split=1)
        set_workers(monkeypatch, 2)
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=60)
        real = federation.local_train

        def together(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", together)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_federation(fed(1), mlp, dataset, partition, testset)
        assert (err.value.round_t, err.value.client_id) == (1, 1)
        assert multiprocessing.active_children() == [] and blas_count() == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_exception_reaches_caller(self, workers, monkeypatch, tmp_path, blas_two):
        # round 1 has three groups: the first diverges, the second and third
        # fail; the second's failure is raised, as a loop over the groups in
        # order meets it, and no helper process is left running.  The failures
        # may happen on the calling process, which is one of the workers.
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        first, second, third = (group[0] for group in round_groups(cfg, partition)[0])
        set_workers(monkeypatch, workers)
        real = federation.local_train
        failed_on = CallLog(tmp_path / "failed")

        def failing(w, clients, *rest, **kwargs):
            cid = clients[0].client_id
            if cid == first:
                raise DivergenceError(1, cid, "loss")
            if cid in (second, third):
                failed_on.add(pid=os.getpid())
                raise (OSError if cid == second else KeyError)(f"injected at {cid}")
            return real(w, clients, *rest, **kwargs)

        monkeypatch.setattr(federation, "local_train", failing)
        with pytest.raises(OSError, match=f"injected at {second}"):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert multiprocessing.active_children() == [] and blas_count() == 2
        pids = {record["pid"] for record in failed_on.read()}
        assert pids and (workers > 1 or pids == {os.getpid()})

    @pytest.mark.parametrize("workers", [2, 3])
    def test_updates_scored_on_the_process_that_trained_them(self, workers, monkeypatch,
                                                             tmp_path):
        cfg, train, test, partition, mlp = pool_setup("fedntd")
        set_workers(monkeypatch, workers)
        spread_sessions(monkeypatch, cfg, partition, workers)
        log = CallLog(tmp_path / "calls")
        record_scoring(monkeypatch, log)
        run_federation(cfg.federation_config(), mlp, train, partition, test)
        records = log.read()
        trained = {(r["round"], r["params"]): r["pid"] for r in records if "cid" in r}
        # every round is logged: each update gets one forward, on its trainer's process
        scored = [(r["pid"], trained[r["round"], r["params"]]) for r in records
                  if "evaluate" in r and (r["round"], r["params"]) in trained]
        clients = sum(len(group) for groups in round_groups(cfg, partition) for group in groups)
        assert len(scored) == len(trained) == clients
        assert all(pid == trainer for pid, trainer in scored)
        trainers = set(trained.values())
        assert os.getpid() in trainers and len(trainers) >= 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_eval_forwards_per_logged_round(self, stride, workers, monkeypatch, tmp_path):
        # 2 + K forwards when the previous round was not logged, else 1 + K;
        # w_in's is made during the round, so _evaluate_round, on the calling
        # process, makes one: w_out's
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        set_workers(monkeypatch, workers)
        log = CallLog(tmp_path / "calls")
        record_scoring(monkeypatch, log)
        fed = dataclasses.replace(cfg.federation_config(), eval_stride=stride)
        run_federation(fed, mlp, train, partition, test)
        sampled = [sum(map(len, groups)) for groups in round_groups(cfg, partition)]
        logged = [t for t in range(1, fed.rounds + 1) if t % stride == 0]
        expected = {t: (1 if t - 1 in logged else 2) + sampled[t - 1] for t in logged}
        forwards = [r for r in log.read() if "evaluate" in r]
        assert Counter(r["round"] for r in forwards) == expected
        assert Counter(r["round"] for r in forwards if r["evaluate"]) == dict.fromkeys(logged, 1)
        assert all(r["pid"] == os.getpid() for r in forwards if r["evaluate"])

    def test_keyboard_interrupt_in_calling_process(self, monkeypatch, tmp_path, blas_two):
        # round 1 has three groups on two workers; the calling process's session
        # is interrupted while the helper holds the other, so the third never
        # starts, and the helper is terminated rather than waited for
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        assert len(round_groups(cfg, partition)[0]) == 3
        set_workers(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        both, never = ctx.Barrier(2, timeout=60), ctx.Event()
        sessions = CallLog(tmp_path / "sessions")

        def interrupted(*args, **kwargs):
            sessions.add(pid=os.getpid())
            both.wait()
            if os.getpid() == parent:
                raise KeyboardInterrupt
            never.wait(60)

        parent = os.getpid()
        monkeypatch.setattr(federation, "local_train", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == [] and blas_count() == 2
        pids = [record["pid"] for record in sessions.read()]
        assert len(pids) == 2 and parent in pids

    def test_helpers_ignore_sigint(self, monkeypatch, tmp_path):
        # a SIGINT sent to a helper mid-session changes nothing
        fed, mlp, dataset, partition, testset = tiny_setup(method="fedavg", sampling_ratio=0.75)
        set_workers(monkeypatch, 1)
        alone = run_federation(fed, mlp, dataset, partition, testset)
        set_workers(monkeypatch, 2)
        real = federation.local_train
        parent = os.getpid()

        def poked(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", poked)
        try:
            poked_run = run_federation(fed, mlp, dataset, partition, testset)
        except KeyboardInterrupt:
            pytest.fail("a helper's SIGINT interrupted the run")
        assert poked_run.final_params.tobytes() == alone.final_params.tobytes()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helper_scoring_failure_reaches_caller_in_group_order(self, workers, monkeypatch,
                                                                  tmp_path):
        # every update a helper scores in round 1 fails, naming its group; the
        # failure of the first such group in group order is raised
        cfg, train, test, partition, mlp = pool_setup("fedntd")
        group_of = {cid: g for g, group in enumerate(round_groups(cfg, partition)[0])
                    for cid in group}
        set_workers(monkeypatch, workers)
        spread_sessions(monkeypatch, cfg, partition, workers)
        trained = {}  # id(params) -> client id, of the updates this process trained
        real_train, real_predict = federation.local_train, federation.predict
        parent = os.getpid()
        failed = CallLog(tmp_path / "failed")

        def remembered(*args, **kwargs):
            updates = real_train(*args, **kwargs)
            trained.update((id(u.params), u.client_id) for u in updates)
            return updates

        def failing(mlp, params, testset, out=None):
            if os.getpid() != parent and id(params) in trained:
                group = group_of[trained[id(params)]]
                failed.add(group=group)
                raise OSError(f"injected in group {group}")
            return real_predict(mlp, params, testset, out=out)

        monkeypatch.setattr(federation, "local_train", remembered)
        monkeypatch.setattr(federation, "predict", failing)
        with pytest.raises(OSError) as err:
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        groups = [record["group"] for record in failed.read()]
        assert groups and str(err.value) == f"injected in group {min(groups)}"
        assert multiprocessing.active_children() == []

    def test_many_groups_on_more_workers_than_cores(self, monkeypatch, tmp_path):
        # every client in its own group and six workers on fewer cores, all
        # taking sessions from one shared counter: each group is still handed
        # out once, and the bits stay the same
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
        log = CallLog(tmp_path / "sessions")
        record_sessions(monkeypatch, log)
        stressed = run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert multiprocessing.active_children() == []
        calls = log.read()
        assert Counter((c["round"], cid) for c in calls for cid in c["ids"]) == Counter(
            (t, cid) for t, groups in enumerate(rounds, 1) for group in groups for cid in group)
        assert len({c["pid"] for c in calls}) >= 2
        assert stressed.final_params.tobytes() == alone.final_params.tobytes()
        assert all(logs_bit_identical(a, b) for a, b in zip(stressed.logs, alone.logs))


class TestPoolCleanup:
    """However a pooled run ends, it leaves no process behind and gives the
    calling process its BLAS thread count back."""

    @pytest.mark.parametrize("ending", ["normal", "divergence", "oserror"])
    def test_run_ends_clean(self, ending, monkeypatch, tmp_path, blas_two):
        # with both processes training in round 1, every session fails: a
        # DivergenceError names its session's lowest id, an OSError names it
        # too, and the lowest id wins either way, from whichever process
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        lowest = min(min(group) for group in round_groups(cfg, partition)[0])
        set_workers(monkeypatch, 2)
        raised = CallLog(tmp_path / "raised")
        real = federation.local_train
        before = set(threading.enumerate())

        def failing(w, clients, *rest, **kwargs):
            cid = clients[0].client_id
            if ending != "normal":
                raised.add(pid=os.getpid(), cid=cid)
                if ending == "divergence":
                    raise DivergenceError(rest[-1], cid, "parameters")
                raise OSError(f"injected at {cid}")
            return real(w, clients, *rest, **kwargs)

        monkeypatch.setattr(federation, "local_train", failing)
        spread_sessions(monkeypatch, cfg, partition, 2)  # sessions wait before they fail
        if ending == "normal":
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        elif ending == "divergence":
            with pytest.raises(DivergenceError) as err:
                run_federation(cfg.federation_config(), mlp, train, partition, test)
            assert (err.value.round_t, err.value.client_id, err.value.nonfinite) == (
                1, lowest, "parameters")
        else:
            with pytest.raises(OSError, match=f"injected at {lowest}$"):
                run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert multiprocessing.active_children() == [] and blas_count() == 2
        assert set(threading.enumerate()) == before
        if ending != "normal":
            assert len({record["pid"] for record in raised.read()}) == 2

    def test_helper_death_is_a_clean_error(self, monkeypatch, blas_two):
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        set_workers(monkeypatch, 2)
        real = federation.local_train
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", dying)
        with pytest.raises(federation.WorkerError, match=r"exited with code 1 in round 1$"):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert multiprocessing.active_children() == [] and blas_count() == 2

    def test_helper_exception_pickle_cannot_rebuild(self, monkeypatch):
        # it comes back as a RuntimeError that names it, not as an unpickling error
        cfg, train, test, partition, mlp = pool_setup("fedprox")
        set_workers(monkeypatch, 2)
        parent = os.getpid()
        real = federation.local_train

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise TwoArgumentError("first", "second")
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", failing)
        spread_sessions(monkeypatch, cfg, partition, 2)
        with pytest.raises(RuntimeError, match="^TwoArgumentError: first and second$"):
            run_federation(cfg.federation_config(), mlp, train, partition, test)
        assert multiprocessing.active_children() == []


class TwoArgumentError(Exception):
    """pickle writes it, but cannot read it back: __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")
