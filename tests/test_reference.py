"""A plain reference for the round loop: training and scoring.

`reference_run` trains each round's sampled clients one at a time, in
ascending id, each with a plain loop of its own on (P,) vectors
(`reference_train`), then aggregates: no `local_train`, no lockstep
groups, no process pool, no shared parameter block and no reused
buffers.  Every logged round is scored from scratch with the `metrics`
functions: the incoming model again in every logged round, each update
from its own predictions.  `run_federation` must end on the same
parameters and log the same rounds, bit for bit, at every worker count:
on the golden configs, and on small random ones that hypothesis draws.  The check pins no digest,
so it holds on any BLAS kernel.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednsim.cli import load_run
from fednsim.config import ExperimentConfig
from fednsim.data import PARTITION_STRATEGIES, in_local_distribution, out_local_distribution
from fednsim.federation import ClientUpdate, aggregate, run_federation, sample_clients
from fednsim.losses import METHODS, batch_loss_and_grad, fedprox_penalty
from fednsim.metrics import (
    RoundLog,
    class_wise_accuracy,
    distribution_distance,
    masked_accuracy,
    normalized_accuracy_vector,
    overall_accuracy,
    predict,
    weight_divergence,
)
from fednsim.model import backward, forward, init_params, lr_at_round, sgd_momentum_step
from fednsim.rng import NS_CLIENT_SHUFFLE, stream

from test_federation import set_workers
from test_golden import CASES, _config, has_shared_and_lone_sizes_in_one_round


def reference_run(fed, mlp, train, partition, test):
    """Final parameters and round logs of the plain round loop."""
    clients = {c.client_id: c for c in partition}
    eligible = [cid for cid, c in clients.items() if len(c) > 0]
    w = init_params(mlp, fed.master_seed)
    logs = []
    for t in range(1, fed.rounds + 1):
        ids = sample_clients(len(partition), fed.sampling_ratio, t, fed.master_seed, eligible)
        updates = [reference_train(w, clients[cid], train, fed, mlp, t) for cid in ids]
        w_in, w = w, aggregate(updates, fed.aggregation)
        if t % fed.eval_stride == 0 or t == fed.rounds:
            logs.append(score_round(t, mlp, train, test, clients, w_in, w, updates))
    return w, logs


def reference_train(w_global, client, train, fed, mlp, t):
    """Round t's session of one client: E epochs of its own shuffled
    mini-batches, one momentum-SGD step each, from zero momentum."""
    rng = stream(fed.master_seed, NS_CLIENT_SHUFFLE, t, client.client_id)
    lr = lr_at_round(fed.lr0, t - 1, fed.lr_decay)
    w, velocity = w_global.copy(), np.zeros_like(w_global)
    total, steps = 0.0, 0
    for _epoch in range(fed.local_epochs):
        order = client.indices[rng.permutation(len(client))]
        for start in range(0, len(order), fed.batch_size):
            batch = order[start : start + fed.batch_size]
            x, y = train.features[batch], train.labels[batch]
            hidden = []
            z = forward(mlp, w, x, hidden)
            z_g = forward(mlp, w_global, x) if fed.loss.needs_teacher else None
            losses, dl_dz = batch_loss_and_grad(fed.loss, z, y, z_g)
            loss = losses.sum() / len(y)
            grad = backward(mlp, w, x, hidden, dl_dz)
            if fed.loss.proximal:
                prox_loss, prox_grad = fedprox_penalty(w, w_global, fed.loss.mu)
                loss += prox_loss
                grad += prox_grad
            sgd_momentum_step(w, grad, velocity, lr, fed.momentum, fed.weight_decay)
            total += loss
            steps += 1
    return ClientUpdate(client.client_id, w, len(client), float(total / steps))


def score_round(t, mlp, train, test, clients, w_in, w_out, updates):
    """Round t's log, every model scored from its own predictions."""
    try:
        a_g = normalized_accuracy_vector(class_wise_accuracy(predict(mlp, w_in, test), test))
    except ValueError:  # the incoming model got every test sample wrong
        a_g = None
    in_accs, out_accs, wdivs, ddists = [], [], [], []
    for update in updates:  # ascending client id
        acc = class_wise_accuracy(predict(mlp, update.params, test), test)
        p = in_local_distribution(clients[update.client_id], train)
        in_accs.append(masked_accuracy(acc, p))
        out_accs.append(masked_accuracy(acc, out_local_distribution(p)))
        wdivs.append(weight_divergence(w_in, update.params))
        ddists.append(float("nan") if a_g is None else distribution_distance(a_g, p))
    pred_out = predict(mlp, w_out, test)
    return RoundLog(
        t=t,
        global_acc=overall_accuracy(pred_out, test),
        class_acc=class_wise_accuracy(pred_out, test),
        local_in_acc_mean=float(np.mean(in_accs)),
        local_in_acc_std=float(np.std(in_accs)),
        local_out_acc_mean=float(np.mean(out_accs)),
        local_out_acc_std=float(np.std(out_accs)),
        weight_div_mean=float(np.mean(wdivs)),
        dist_dist_mean=float(np.mean(ddists)),
        train_loss=float(np.mean([u.mean_loss for u in updates])),
    )


def assert_matches_reference(inputs, monkeypatch):
    """`run_federation` on `inputs` equals `reference_run`, bit for bit, at 1, 2 and 3 workers."""
    want_params, want_logs = reference_run(*inputs)
    for workers in (1, 2, 3):
        set_workers(monkeypatch, workers)
        result = run_federation(*inputs)
        assert result.final_params.tobytes() == want_params.tobytes(), f"{workers} workers"
        assert [log.t for log in result.logs] == [log.t for log in want_logs]
        for got, want in zip(result.logs, want_logs):
            for field in fields(RoundLog):
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name),
                                      equal_nan=True), (workers, got.t, field.name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_federation_matches_the_reference(name, monkeypatch):
    assert_matches_reference(load_run(_config(name)), monkeypatch)


@st.composite
def small_configs(draw):
    """A run of a few rounds on a few tiny clients, under any strategy and method."""
    strategy = draw(st.sampled_from(PARTITION_STRATEGIES))
    clients = draw(st.integers(2, 6))
    shards = draw(st.integers(1, 2))
    # sharding needs the samples to cut into clients * shards equal shards
    per_class = (clients * shards * draw(st.integers(1, 2)) if strategy == "sharding"
                 else draw(st.integers(2, 8)))
    return ExperimentConfig(
        synth_classes=draw(st.integers(2, 4)), synth_per_class=per_class,
        synth_test_per_class=3, synth_dim=3, hidden_dims=(4,), partition=strategy,
        clients=clients, shards_per_client=shards,
        dirichlet_alpha=draw(st.sampled_from([0.2, 1.0, 20.0])),  # 0.2 may leave clients empty
        method=draw(st.sampled_from(METHODS)), tau=draw(st.sampled_from([1.0, 2.0])),
        sampling_ratio=draw(st.floats(0.3, 1.0)), rounds=draw(st.integers(1, 6)),
        eval_stride=draw(st.integers(1, 3)), local_epochs=1, batch_size=draw(st.integers(2, 5)),
        lr0=0.05, seed=draw(st.integers(0, 2**16)),
    )


# 3 of 5 iid clients of sizes 5, 5, 5, 5, 4 a round, every second round logged
_MIXED = ExperimentConfig(synth_classes=3, synth_per_class=8, synth_test_per_class=3,
                          synth_dim=3, hidden_dims=(4,), partition="iid", clients=5,
                          method="fedntd", sampling_ratio=0.6, rounds=3, eval_stride=2,
                          local_epochs=1, batch_size=3, lr0=0.05, seed=1)


def test_mixed_example_has_shared_and_lone_sizes_in_one_round():
    assert has_shared_and_lone_sizes_in_one_round(_MIXED)


@settings(max_examples=40, deadline=None)
@example(cfg=_MIXED)
@given(cfg=small_configs())
def test_random_small_runs_match_the_reference(cfg):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(load_run(cfg), monkeypatch)
