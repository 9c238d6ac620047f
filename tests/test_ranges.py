"""Range parity: each ranged quantity is checked by one rule.

For every quantity, the config dataclass that carries it and every public
function that takes it reject the same values with a ValueError naming the
quantity, and accept the same edge values.
"""

import numpy as np
import pytest

from fednsim.config import ExperimentConfig
from fednsim.data import (
    Dataset,
    PartitionSpec,
    dirichlet_partition,
    iid_partition,
    shard_partition,
    synth_dataset,
)
from fednsim.federation import (
    ClientUpdate,
    FederationConfig,
    aggregate,
    run_federation,
    sample_clients,
    sample_count,
)
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
from fednsim.model import MAX_FLOATS, MlpConfig, lr_at_round, sgd_momentum_step
from fednsim.verify import SplitInstance, run_all, smoothness_violation

NAN, INF = float("nan"), float("inf")
Z_L = np.array([0.3, -1.2, 2.0])
Z_G = np.array([1.0, 0.5, -0.4])
DS = synth_dataset(2, 10, 2, 1.0, seed=0)  # 20 samples


def _sgd(**settings):
    step = dict(lr=0.1, momentum=0.9, weight_decay=1e-5) | settings
    params, grad, velocity = np.ones(4), np.full(4, 0.5), np.zeros(4)
    return sgd_momentum_step(params, grad, velocity, **step)


def _run(threads):
    fed = FederationConfig(rounds=1, local_epochs=1)  # one client, trained once
    return run_federation(fed, MlpConfig(2, (2,), 2), DS, iid_partition(DS, 2, 0), DS, threads)


def _split(tau):
    z = np.arange(6.0).reshape(3, 2)
    return SplitInstance(z, -z, np.array([0, 1, 0]), tau=tau)


# (quantity, message pattern, rejected values, accepted edge values, {entry point: call})
TABLE = [
    ("lr0", r"\blr0? must", [NAN, -0.1, -INF], [0.0, INF], {
        "FederationConfig": lambda v: FederationConfig(lr0=v),
        "lr_at_round": lambda v: lr_at_round(v, 3),
        "sgd_momentum_step": lambda v: _sgd(lr=v),
    }),
    ("momentum", "momentum", [NAN, -0.1, 1.0, INF], [0.0, 0.999], {
        "FederationConfig": lambda v: FederationConfig(momentum=v),
        "sgd_momentum_step": lambda v: _sgd(momentum=v),
    }),
    ("weight_decay", "weight_decay", [NAN, -1e-9, -INF], [0.0, INF], {
        "FederationConfig": lambda v: FederationConfig(weight_decay=v),
        "sgd_momentum_step": lambda v: _sgd(weight_decay=v),
    }),
    ("lr_decay", "lr_decay", [NAN, 0.0, -1.0, 1.5, INF], [1.0, 1e-3], {
        "FederationConfig": lambda v: FederationConfig(lr_decay=v),
        "lr_at_round": lambda v: lr_at_round(0.1, 3, v),
    }),
    ("aggregation", "unknown aggregation", ["mean", ""], ["uniform", "size_weighted"], {
        "FederationConfig": lambda v: FederationConfig(aggregation=v),
        "aggregate": lambda v: aggregate([ClientUpdate(0, np.ones(2), 1, 0.0)], v),
    }),
    # 2**63 and 10**21 are more rounds and epochs than one array could count
    ("rounds", r"\brounds(, local_epochs,.*)? must", [0, -1, 2**63, 10**21], [1, MAX_FLOATS], {
        "FederationConfig": lambda v: FederationConfig(rounds=v),
    }),
    ("local_epochs", r"\blocal_epochs.* must", [0, -1, 2**63, 10**21], [1, MAX_FLOATS], {
        "FederationConfig": lambda v: FederationConfig(local_epochs=v),
    }),
    ("sampling_ratio", "sampling_ratio", [0.0, -0.1, 1.5, NAN, INF], [1.0, 1e-3], {
        "FederationConfig": lambda v: FederationConfig(sampling_ratio=v),
        "sample_count": lambda v: sample_count(10, v, 10),
        "sample_clients": lambda v: sample_clients(10, v, 1, 0),
    }),
    ("threads", r"\bthreads must be >= 1", [0, -1], [1], {
        "run_federation": _run,
    }),
    ("method", "unknown method", ["nope", ""], ["fedavg", "kd_ntd_interp"], {
        "LossConfig": lambda v: LossConfig(method=v),
    }),
    ("beta", "beta must be finite and >= 0", [NAN, -0.1, INF, -INF], [0.0, 1e6], {
        "LossConfig": lambda v: LossConfig(beta=v),
        "ExperimentConfig": lambda v: ExperimentConfig(beta=v),
        "fedntd_objective": lambda v: fedntd_objective(Z_L, Z_G, 1, v, 1.0),
    }),
    ("interp_lambda", r"interp_lambda must be in \[0, 1\]", [NAN, -0.1, 1.5, INF], [0.0, 1.0], {
        "LossConfig": lambda v: LossConfig(interp_lambda=v),
        "kd_ntd_interp_objective": lambda v: kd_ntd_interp_objective(Z_L, Z_G, 1, v, 1.0),
    }),
    ("tau", "tau must be finite and > 0", [NAN, 0.0, -1.0, INF, -INF], [1e6, 1e-3], {
        "LossConfig": lambda v: LossConfig(tau=v),
        "softmax_temp": lambda v: softmax_temp(Z_L, v),
        "not_true_softmax": lambda v: not_true_softmax(Z_L, 1, v),
        "kd_loss_and_grad": lambda v: kd_loss_and_grad(Z_L, Z_G, v),
        "ntd_loss_and_grad": lambda v: ntd_loss_and_grad(Z_L, Z_G, 1, v),
        "fedntd_objective": lambda v: fedntd_objective(Z_L, Z_G, 1, 1.0, v),
        "kd_ntd_interp_objective": lambda v: kd_ntd_interp_objective(Z_L, Z_G, 1, 0.5, v),
        "SplitInstance": _split,
    }),
    ("mu", r"\bmu must be finite and >= 0", [NAN, -0.1, INF], [0.0, 1e6], {
        "LossConfig": lambda v: LossConfig(mu=v),
        "fedprox_penalty": lambda v: fedprox_penalty(Z_L, Z_G, v),
    }),
    ("input_dim", "input_dim must be >= 1", [0, -1], [1], {
        "MlpConfig": lambda v: MlpConfig(v, (), 2),
    }),
    ("hidden_dims", "hidden dims must be >= 1", [(0,), (4, -1)], [(), (1,)], {
        "MlpConfig": lambda v: MlpConfig(2, v, 2),
        "ExperimentConfig": lambda v: ExperimentConfig(hidden_dims=v),
    }),
    ("num_classes", "num_classes must be >= 2", [1, 0, -1], [2], {
        "MlpConfig": lambda v: MlpConfig(2, (), v),
    }),
    ("checkpoint_stride", "checkpoint_stride must be >= 0", [-1], [0, 1], {
        "ExperimentConfig": lambda v: ExperimentConfig(checkpoint_stride=v),
    }),
    # 2**62 and 10**21 are more clients than one array can hold
    ("clients", r"\bclients must", [0, -1, 2**62, 10**21], [1], {
        "PartitionSpec": lambda v: PartitionSpec(clients=v),
        "shard_partition": lambda v: shard_partition(DS, v, 2, 0),
        "dirichlet_partition": lambda v: dirichlet_partition(DS, v, 0.5, 0),
        "iid_partition": lambda v: iid_partition(DS, v, 0),
    }),
    ("shards_per_client", "shards_per_client", [0, -1], [1], {
        "PartitionSpec": lambda v: PartitionSpec(shards_per_client=v),
        "shard_partition": lambda v: shard_partition(DS, 2, v, 0),
    }),
    ("alpha", "alpha", [0.0, -1.0, NAN, INF], [1e-3, 1e6], {
        "PartitionSpec": lambda v: PartitionSpec(alpha=v),
        "dirichlet_partition": lambda v: dirichlet_partition(DS, 2, v, 0),
    }),
    ("separation", "separation must be finite and >= 0", [NAN, -0.1, INF, -INF], [0.0, 1e6], {
        "ExperimentConfig": lambda v: ExperimentConfig(synth_separation=v),
        "synth_dataset": lambda v: synth_dataset(2, 3, 2, v, 0),
    }),
    # 2**62 and 10**21 make more features than one array can hold
    ("synth_classes", "synthetic counts", [1, 0, -1, 2**62, 10**21], [2], {
        "ExperimentConfig.synth_classes": lambda v: ExperimentConfig(synth_classes=v),
        "synth_dataset.num_classes": lambda v: synth_dataset(v, 3, 2, 1.0, 0),
    }),
    ("synth_counts", "synthetic counts", [0, -1, 2**62, 10**21], [1], {
        "ExperimentConfig.synth_per_class": lambda v: ExperimentConfig(synth_per_class=v),
        "ExperimentConfig.synth_test_per_class": lambda v: ExperimentConfig(
            synth_test_per_class=v),
        "ExperimentConfig.synth_dim": lambda v: ExperimentConfig(synth_dim=v),
        "synth_dataset.per_class_n": lambda v: synth_dataset(2, v, 2, 1.0, 0),
        "synth_dataset.dim": lambda v: synth_dataset(2, 3, v, 1.0, 0),
    }),
    ("trials", r"\btrials must be >= 1", [0, -1], [1], {
        "run_all": lambda v: run_all(trials=v),
        "smoothness_violation": lambda v: smoothness_violation(1.7, 5, v),
    }),
    ("labels", "labels out of range", [-1, 3, 2**70], [0, 2], {
        "Dataset": lambda v: Dataset(np.zeros((1, 2)), [v], 3),
        "batch_loss_and_grad": lambda v: batch_loss_and_grad(
            LossConfig("fedntd"), Z_L[None], [v], Z_G[None]),
        "ce_loss_and_grad": lambda v: ce_loss_and_grad(Z_L, v),
        "not_true_softmax": lambda v: not_true_softmax(Z_L, v, 1.0),
        "ntd_loss_and_grad": lambda v: ntd_loss_and_grad(Z_L, Z_G, v, 1.0),
        "ntd_mse_loss_and_grad": lambda v: ntd_mse_loss_and_grad(Z_L, Z_G, v),
        "fedntd_objective": lambda v: fedntd_objective(Z_L, Z_G, v, 1.0, 1.0),
        "kd_ntd_interp_objective": lambda v: kd_ntd_interp_objective(Z_L, Z_G, v, 0.5, 1.0),
    }),
]


def _cases(values_at: int):
    return [
        pytest.param(pattern, call, value, id=f"{quantity}-{entry}-{value}")
        for quantity, pattern, *values, calls in TABLE
        for entry, call in calls.items()
        for value in values[values_at]
    ]


@pytest.mark.parametrize("pattern,call,value", _cases(0))
def test_every_entry_point_rejects_the_same_values(pattern, call, value):
    with pytest.raises(ValueError, match=pattern):
        call(value)


@pytest.mark.parametrize("pattern,call,value", _cases(1))
def test_every_entry_point_accepts_the_same_edges(pattern, call, value):
    with np.errstate(all="ignore"):  # lr or weight_decay = inf diverges, as the README says
        call(value)
