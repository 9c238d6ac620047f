"""A plain reference for the round loop: training and scoring.

`reference_run` trains each round's sampled clients one at a time, in
ascending id, with `local_train`, then aggregates: no lockstep groups, no
process pool, no shared parameter block and no reused buffers.  Every
logged round is scored from scratch with the `metrics` functions: the
incoming model again in every logged round, each update from its own
predictions.  `run_federation` must end on the same parameters and log
the same rounds, bit for bit, at every worker count.  The check pins no
digest, so it holds on any BLAS kernel.
"""

from dataclasses import fields

import numpy as np
import pytest

from fednsim.cli import load_run
from fednsim.data import in_local_distribution, out_local_distribution
from fednsim.federation import aggregate, local_train, run_federation, sample_clients
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
from fednsim.model import init_params

from test_federation import set_workers
from test_golden import CASES, _config


def reference_run(fed, mlp, train, partition, test):
    """Final parameters and round logs of the plain round loop."""
    clients = {c.client_id: c for c in partition}
    eligible = [cid for cid, c in clients.items() if len(c) > 0]
    w = init_params(mlp, fed.master_seed)
    logs = []
    for t in range(1, fed.rounds + 1):
        ids = sample_clients(len(partition), fed.sampling_ratio, t, fed.master_seed, eligible)
        updates = [local_train(w, [clients[cid]], train, fed, mlp, t)[0] for cid in ids]
        w_in, w = w, aggregate(updates, fed.aggregation)
        if t % fed.eval_stride == 0 or t == fed.rounds:
            logs.append(score_round(t, mlp, train, test, clients, w_in, w, updates))
    return w, logs


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_federation_matches_the_reference(name, monkeypatch):
    inputs = load_run(_config(name))
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
