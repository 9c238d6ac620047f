"""Range parity: each ranged quantity is checked by one rule.

For every quantity, the config dataclass that carries it and every public
function that takes it reject the same values with a ValueError naming the
quantity, and accept the same edge values.  Every count and seed is an
integer, by the one count rule: NaN and 2.5 are rejected wherever one enters.
Every real setting is a real number, by the one real rule: "x", None, 1j and
an array are rejected wherever one enters, and so are NaN and, where no bound is
given above, inf.
"""

import re
from typing import get_type_hints

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
from fednsim.model import MAX_FLOATS, MlpConfig, init_params, lr_at_round, sgd_momentum_step
from fednsim.verify import SplitInstance, run_all, smoothness_violation, symmetric_family

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
    ("lr0", r"\blr0? must be finite and >= 0", [NAN, -0.1, -INF, INF], [0.0, 1e308], {
        "FederationConfig": lambda v: FederationConfig(lr0=v),
        "lr_at_round": lambda v: lr_at_round(v, 3, 0.99),
        "sgd_momentum_step": lambda v: _sgd(lr=v),
    }),
    ("momentum", "momentum", [NAN, -0.1, 1.0, INF], [0.0, 0.999], {
        "FederationConfig": lambda v: FederationConfig(momentum=v),
        "sgd_momentum_step": lambda v: _sgd(momentum=v),
    }),
    ("weight_decay", "weight_decay must be finite and >= 0", [NAN, -1e-9, -INF, INF],
     [0.0, 1e308], {
        "FederationConfig": lambda v: FederationConfig(weight_decay=v),
        "sgd_momentum_step": lambda v: _sgd(weight_decay=v),
    }),
    ("lr_decay", "lr_decay", [NAN, 0.0, -1.0, 1.5, INF], [1.0, 1e-3], {
        "FederationConfig": lambda v: FederationConfig(lr_decay=v),
        "lr_at_round": lambda v: lr_at_round(0.1, 3, v),
    }),
    ("aggregation", "unknown aggregation", ["mean", "", None], ["uniform", "size_weighted"], {
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
    ("lam", r"^lam must be finite and > 0", [NAN, 0.0, -1.0, INF, -INF], [1e-3, 1e6], {
        "smoothness_violation": lambda v: smoothness_violation(v, 5, 1, 0),
    }),
    ("threads", r"\bthreads must be >= 1", [0, -1], [1], {
        "run_federation": _run,
    }),
    ("method", "unknown method", ["nope", "", None], ["fedavg", "kd_ntd_interp"], {
        "LossConfig": lambda v: LossConfig(method=v),
    }),
    ("strategy", "^unknown strategy", ["nope", "", None], ["iid", "dirichlet"], {
        "PartitionSpec": lambda v: PartitionSpec(v),
        "ExperimentConfig": lambda v: ExperimentConfig(partition=v),
    }),
    ("data", "^unknown data", ["nope", "", None], ["synth", "idx"], {
        "ExperimentConfig": lambda v: ExperimentConfig(data=v),
    }),
    ("family_kind", "^unknown family kind", ["nope", "", None], ["vertices", "permutations"], {
        "symmetric_family": lambda v: symmetric_family(3, v),
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
        "smoothness_violation": lambda v: smoothness_violation(1.7, v, 1, 0),
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
        "sample_count": lambda v: sample_count(v, 0.5, 1),
        "sample_clients": lambda v: sample_clients(v, 0.5, 1, 0),
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
        "run_all": lambda v: run_all(v, 0),
        "smoothness_violation": lambda v: smoothness_violation(1.7, 5, v, 0),
    }),
    ("batch_size", r"\bbatch_size must be >= 1", [0, -1], [1, 10**21], {
        "FederationConfig": lambda v: FederationConfig(batch_size=v),
    }),
    ("eval_stride", r"\beval_stride must be >= 1", [0, -1], [1, 10**21], {
        "FederationConfig": lambda v: FederationConfig(eval_stride=v),
    }),
    ("round_index", "round index must be >= 0", [-1, -(10**21)], [0, 10**21], {
        "lr_at_round": lambda v: lr_at_round(0.1, v, 0.99),
    }),
    ("dataset_classes", "num_classes must be >= 1", [0, -1], [1, 3], {
        "Dataset": lambda v: Dataset(np.zeros((1, 2)), [0], v),
    }),
    # a seed is any integer: every stream keys on it modulo 2**64
    ("seed", "seed", [], [-1, 0, 2**70], {
        "FederationConfig": lambda v: FederationConfig(master_seed=v),
        "PartitionSpec": lambda v: PartitionSpec(seed=v),
        "ExperimentConfig": lambda v: ExperimentConfig(seed=v),
        "shard_partition": lambda v: shard_partition(DS, 2, 2, v),
        "dirichlet_partition": lambda v: dirichlet_partition(DS, 2, 0.5, v),
        "iid_partition": lambda v: iid_partition(DS, 2, v),
        "synth_dataset": lambda v: synth_dataset(2, 3, 2, 1.0, v),
        "init_params": lambda v: init_params(MlpConfig(2, (), 2), v),
        "sample_clients": lambda v: sample_clients(3, 0.5, 1, v),
        "smoothness_violation": lambda v: smoothness_violation(1.7, 5, 1, v),
        "run_all": lambda v: run_all(1, v),
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
    call(value)


# The count rule: (the name a message starts with, a call that sets the count
# or seed to the value).  "Class.field" keys are the dataclasses' own fields;
# ExperimentConfig hands its seed to FederationConfig's master_seed first.
INTEGERS = {
    "FederationConfig.rounds": ("rounds", lambda v: FederationConfig(rounds=v)),
    "FederationConfig.local_epochs": ("local_epochs", lambda v: FederationConfig(local_epochs=v)),
    "FederationConfig.batch_size": ("batch_size", lambda v: FederationConfig(batch_size=v)),
    "FederationConfig.eval_stride": ("eval_stride", lambda v: FederationConfig(eval_stride=v)),
    "FederationConfig.master_seed": ("master_seed", lambda v: FederationConfig(master_seed=v)),
    "PartitionSpec.clients": ("clients", lambda v: PartitionSpec(clients=v)),
    "PartitionSpec.shards_per_client": ("shards_per_client",
                                        lambda v: PartitionSpec(shards_per_client=v)),
    "PartitionSpec.seed": ("seed", lambda v: PartitionSpec(seed=v)),
    "MlpConfig.input_dim": ("input_dim", lambda v: MlpConfig(v, (), 2)),
    "MlpConfig.hidden_dims": ("hidden dims", lambda v: MlpConfig(2, (4, v), 2)),
    "MlpConfig.num_classes": ("num_classes", lambda v: MlpConfig(2, (), v)),
    "ExperimentConfig.synth_classes": ("synthetic counts: classes",
                                       lambda v: ExperimentConfig(synth_classes=v)),
    "ExperimentConfig.synth_per_class": ("synthetic counts: per class",
                                         lambda v: ExperimentConfig(synth_per_class=v)),
    "ExperimentConfig.synth_test_per_class": ("synthetic counts: per class",
                                              lambda v: ExperimentConfig(synth_test_per_class=v)),
    "ExperimentConfig.synth_dim": ("synthetic counts: dims",
                                   lambda v: ExperimentConfig(synth_dim=v)),
    "ExperimentConfig.clients": ("clients", lambda v: ExperimentConfig(clients=v)),
    "ExperimentConfig.shards_per_client": ("shards_per_client",
                                           lambda v: ExperimentConfig(shards_per_client=v)),
    "ExperimentConfig.hidden_dims": ("hidden dims", lambda v: ExperimentConfig(hidden_dims=(v,))),
    "ExperimentConfig.rounds": ("rounds", lambda v: ExperimentConfig(rounds=v)),
    "ExperimentConfig.local_epochs": ("local_epochs", lambda v: ExperimentConfig(local_epochs=v)),
    "ExperimentConfig.batch_size": ("batch_size", lambda v: ExperimentConfig(batch_size=v)),
    "ExperimentConfig.seed": ("master_seed", lambda v: ExperimentConfig(seed=v)),
    "ExperimentConfig.eval_stride": ("eval_stride", lambda v: ExperimentConfig(eval_stride=v)),
    "ExperimentConfig.checkpoint_stride": ("checkpoint_stride",
                                           lambda v: ExperimentConfig(checkpoint_stride=v)),
    "Dataset.num_classes": ("num_classes", lambda v: Dataset(np.zeros((1, 2)), [0], v)),
    "synth_dataset.num_classes": ("synthetic counts: classes",
                                  lambda v: synth_dataset(v, 3, 2, 1.0, 0)),
    "synth_dataset.per_class_n": ("synthetic counts: per class",
                                  lambda v: synth_dataset(2, v, 2, 1.0, 0)),
    "synth_dataset.dim": ("synthetic counts: dims", lambda v: synth_dataset(2, 3, v, 1.0, 0)),
    "shard_partition.clients": ("clients", lambda v: shard_partition(DS, v, 2, 0)),
    "shard_partition.shards_per_client": ("shards_per_client",
                                          lambda v: shard_partition(DS, 2, v, 0)),
    "shard_partition.seed": ("seed", lambda v: shard_partition(DS, 2, 2, v)),
    "dirichlet_partition.clients": ("clients", lambda v: dirichlet_partition(DS, v, 0.5, 0)),
    "dirichlet_partition.seed": ("seed", lambda v: dirichlet_partition(DS, 2, 0.5, v)),
    "iid_partition.clients": ("clients", lambda v: iid_partition(DS, v, 0)),
    "iid_partition.seed": ("seed", lambda v: iid_partition(DS, 2, v)),
    "lr_at_round.t": ("round index", lambda v: lr_at_round(0.1, v, 0.99)),
    "run_federation.threads": ("threads", _run),
    "run_all.trials": ("trials", lambda v: run_all(v, 0)),
    "run_all.seed": ("seed", lambda v: run_all(3, v)),
    "smoothness_violation.num_classes": ("num_classes", lambda v: smoothness_violation(1.7, v, 3, 0)),
    "smoothness_violation.trials": ("trials", lambda v: smoothness_violation(1.7, 5, v, 0)),
    "smoothness_violation.seed": ("seed", lambda v: smoothness_violation(1.7, 5, 3, v)),
    "synth_dataset.seed": ("seed", lambda v: synth_dataset(2, 3, 2, 1.0, v)),
    "init_params.seed": ("seed", lambda v: init_params(MlpConfig(2, (), 2), v)),
    "sample_count.clients": ("clients", lambda v: sample_count(v, 0.5, 1)),
    "sample_clients.clients": ("clients", lambda v: sample_clients(v, 0.5, 1, 0)),
    "sample_clients.master_seed": ("master_seed", lambda v: sample_clients(3, 0.5, 1, v)),
}


def test_every_count_field_has_an_integer_row():
    # a count or seed added to a config dataclass later cannot skip the count rule
    counts = {f"{cls.__name__}.{name}"
              for cls in (FederationConfig, PartitionSpec, MlpConfig, ExperimentConfig)
              for name, hint in get_type_hints(cls).items() if hint in (int, tuple[int, ...])}
    assert counts <= set(INTEGERS), counts - set(INTEGERS)


@pytest.mark.parametrize("entry", INTEGERS)
@pytest.mark.parametrize("value", [NAN, 2.5])
def test_every_count_and_seed_is_an_integer(entry, value):
    name, call = INTEGERS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {value}$"):
        call(value)


# The real rule: (the name a message starts with, a call that sets the setting to the
# value), for every real entry point of TABLE and every float field of the four config
# dataclasses.  ExperimentConfig builds LossConfig, then FederationConfig, then PartitionSpec.
REALS = {
    "FederationConfig.lr0": ("lr0", lambda v: FederationConfig(lr0=v)),
    "lr_at_round.lr0": ("lr0", lambda v: lr_at_round(v, 3, 0.99)),
    "sgd_momentum_step.lr": ("lr", lambda v: _sgd(lr=v)),
    "FederationConfig.momentum": ("momentum", lambda v: FederationConfig(momentum=v)),
    "sgd_momentum_step.momentum": ("momentum", lambda v: _sgd(momentum=v)),
    "FederationConfig.weight_decay": ("weight_decay", lambda v: FederationConfig(weight_decay=v)),
    "sgd_momentum_step.weight_decay": ("weight_decay", lambda v: _sgd(weight_decay=v)),
    "FederationConfig.lr_decay": ("lr_decay", lambda v: FederationConfig(lr_decay=v)),
    "lr_at_round.decay": ("lr_decay", lambda v: lr_at_round(0.1, 3, v)),
    "FederationConfig.sampling_ratio": ("sampling_ratio",
                                        lambda v: FederationConfig(sampling_ratio=v)),
    "sample_count.ratio": ("sampling_ratio", lambda v: sample_count(10, v, 10)),
    "sample_clients.ratio": ("sampling_ratio", lambda v: sample_clients(10, v, 1, 0)),
    "LossConfig.beta": ("beta", lambda v: LossConfig(beta=v)),
    "fedntd_objective.beta": ("beta", lambda v: fedntd_objective(Z_L, Z_G, 1, v, 1.0)),
    "LossConfig.interp_lambda": ("interp_lambda", lambda v: LossConfig(interp_lambda=v)),
    "kd_ntd_interp_objective.lam": ("interp_lambda",
                                    lambda v: kd_ntd_interp_objective(Z_L, Z_G, 1, v, 1.0)),
    "LossConfig.tau": ("tau", lambda v: LossConfig(tau=v)),
    "softmax_temp.tau": ("tau", lambda v: softmax_temp(Z_L, v)),
    "not_true_softmax.tau": ("tau", lambda v: not_true_softmax(Z_L, 1, v)),
    "kd_loss_and_grad.tau": ("tau", lambda v: kd_loss_and_grad(Z_L, Z_G, v)),
    "ntd_loss_and_grad.tau": ("tau", lambda v: ntd_loss_and_grad(Z_L, Z_G, 1, v)),
    "fedntd_objective.tau": ("tau", lambda v: fedntd_objective(Z_L, Z_G, 1, 1.0, v)),
    "kd_ntd_interp_objective.tau": ("tau", lambda v: kd_ntd_interp_objective(Z_L, Z_G, 1, 0.5, v)),
    "SplitInstance.tau": ("tau", _split),
    "LossConfig.mu": ("mu", lambda v: LossConfig(mu=v)),
    "fedprox_penalty.mu": ("mu", lambda v: fedprox_penalty(Z_L, Z_G, v)),
    "PartitionSpec.alpha": ("alpha", lambda v: PartitionSpec(alpha=v)),
    "dirichlet_partition.alpha": ("alpha", lambda v: dirichlet_partition(DS, 2, v, 0)),
    "synth_dataset.separation": ("separation", lambda v: synth_dataset(2, 3, 2, v, 0)),
    "smoothness_violation.lam": ("lam", lambda v: smoothness_violation(v, 5, 1, 0)),
    "ExperimentConfig.synth_separation": ("synth_separation",
                                          lambda v: ExperimentConfig(synth_separation=v)),
    "ExperimentConfig.dirichlet_alpha": ("alpha", lambda v: ExperimentConfig(dirichlet_alpha=v)),
    "ExperimentConfig.sampling_ratio": ("sampling_ratio",
                                        lambda v: ExperimentConfig(sampling_ratio=v)),
    "ExperimentConfig.lr0": ("lr0", lambda v: ExperimentConfig(lr0=v)),
    "ExperimentConfig.momentum": ("momentum", lambda v: ExperimentConfig(momentum=v)),
    "ExperimentConfig.weight_decay": ("weight_decay", lambda v: ExperimentConfig(weight_decay=v)),
    "ExperimentConfig.lr_decay": ("lr_decay", lambda v: ExperimentConfig(lr_decay=v)),
    "ExperimentConfig.beta": ("beta", lambda v: ExperimentConfig(beta=v)),
    "ExperimentConfig.tau": ("tau", lambda v: ExperimentConfig(tau=v)),
    "ExperimentConfig.mu": ("mu", lambda v: ExperimentConfig(mu=v)),
    "ExperimentConfig.interp_lambda": ("interp_lambda",
                                       lambda v: ExperimentConfig(interp_lambda=v)),
}


def test_every_float_field_has_a_real_row():
    # a real setting added to a config dataclass later cannot skip the real rule
    reals = {f"{cls.__name__}.{name}"
             for cls in (FederationConfig, LossConfig, PartitionSpec, ExperimentConfig)
             for name, hint in get_type_hints(cls).items() if hint is float}
    assert reals <= set(REALS), reals - set(REALS)


@pytest.mark.parametrize("entry", REALS)
@pytest.mark.parametrize("value", ["x", None, 1j, np.array([1.0, 2.0])],
                         ids=["x", "None", "1j", "array"])
def test_every_real_setting_is_a_real_number(entry, value):
    name, call = REALS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, got "
                                         f"{re.escape(repr(value))}$"):
        call(value)
