"""Synchronous federated round loop.

Each round: sample clients, train every sampled client locally from the
incoming global parameters, aggregate by parameter averaging, evaluate.
Sampled clients of equal size train in lockstep, as one stack of
parameter vectors.  Clients draw their batch order from private
per-(round, client) RNG streams, every matrix product stays one BLAS call
per client, and aggregation sums in ascending client id, so each client's
update is bit-identical to training it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ClientData, Dataset, in_local_distribution, out_local_distribution
from .losses import LossConfig, batch_loss_and_grad, fedprox_penalty
from .metrics import (
    RoundLog,
    class_wise_accuracy,
    distribution_distance,
    masked_accuracy,
    normalized_accuracy_vector,
    overall_accuracy,
    predict,
    weight_divergence,
)
from .model import (
    MlpConfig,
    backward,
    forward,
    init_params,
    layer_buffers,
    lr_at_round,
    sgd_momentum_step,
)
from .rng import NS_CLIENT_SHUFFLE, NS_ROUND_SAMPLE, stream

AGGREGATION_MODES = ("size_weighted", "uniform")


class DivergenceError(RuntimeError):
    """Local training produced a non-finite loss, gradient or parameter."""

    def __init__(self, round_t: int, client_id: int):
        super().__init__(
            f"non-finite loss, gradient or parameters at round {round_t}, client {client_id}"
        )
        self.round_t = round_t
        self.client_id = client_id


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = 50
    local_epochs: int = 5
    batch_size: int = 50
    sampling_ratio: float = 0.1
    loss: LossConfig = field(default_factory=LossConfig)
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    lr_decay: float = 0.99
    aggregation: str = "size_weighted"
    master_seed: int = 0
    eval_stride: int = 1

    def __post_init__(self):
        if min(self.rounds, self.local_epochs, self.batch_size, self.eval_stride) < 1:
            raise ValueError("rounds, local_epochs, batch_size and eval_stride must be >= 1")
        if not (0.0 < self.sampling_ratio <= 1.0):
            raise ValueError(f"sampling_ratio must be in (0, 1], got {self.sampling_ratio}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"unknown aggregation {self.aggregation!r}, expected one of {AGGREGATION_MODES}"
            )
        if not (self.lr0 >= 0.0):
            raise ValueError(f"lr0 must be >= 0, got {self.lr0}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


@dataclass
class ClientUpdate:
    client_id: int
    params: np.ndarray
    sample_count: int
    mean_loss: float


@dataclass
class FederationResult:
    final_params: np.ndarray
    logs: list[RoundLog]


def sample_clients(
    clients: int, ratio: float, round_t: int, master_seed: int, eligible=None
) -> list[int]:
    """max(1, round(ratio * clients)) distinct ids, sorted ascending.

    The draw comes from a stream keyed by (seed, round), so the sample for
    a round does not depend on anything else that happened.  `eligible`
    restricts the pool (empty clients are never trained); the target count
    is still based on the full client count.
    """
    pool = np.arange(clients) if eligible is None else np.asarray(sorted(eligible))
    count = min(max(1, round(ratio * clients)), len(pool))
    rng = stream(master_seed, NS_ROUND_SAMPLE, round_t)
    picked = rng.choice(pool, size=count, replace=False)
    return sorted(int(i) for i in picked)


@np.errstate(over="ignore", invalid="ignore")  # a diverging session computes through NaN
def local_train(
    w_global: np.ndarray,
    clients: list[ClientData],
    dataset: Dataset,
    fed: FederationConfig,
    mlp: MlpConfig,
    round_t: int,
) -> list[ClientUpdate]:
    """Run E local epochs of mini-batch momentum SGD from the global weights.

    The clients must hold equally many samples; they train in lockstep:
    parameters and momentum buffers are stacked as (K, P), each step feeds
    one (K, B, d) batch, and each client keeps its own shuffle stream.
    Momentum starts at zero and is discarded afterwards.  For distillation
    methods the teacher logits come from the frozen incoming global weights.
    Updates come back in ascending client id; their parameters are rows of
    one stacked block.

    Raises DivergenceError when a client ends the session with a non-finite
    summed loss or parameters, naming the lowest such client id.  That is
    the lowest id whose loss, gradient or parameters turned non-finite at
    any step, the client a one-client-at-a-time loop in ascending id would
    stop at: a non-finite gradient makes the velocity and then the
    parameters non-finite (even at lr = 0, as 0 * inf is NaN), non-finite
    values never turn finite again, and no step mixes rows of the stack.
    """
    clients = sorted(clients, key=lambda c: c.client_id)
    n = len(clients[0])
    if n == 0:
        raise ValueError(f"client {clients[0].client_id} has no samples")
    if any(len(c) != n for c in clients):
        raise ValueError("clients trained in lockstep must hold equally many samples")
    ids = [c.client_id for c in clients]
    rngs = [stream(fed.master_seed, NS_CLIENT_SHUFFLE, round_t, cid) for cid in ids]
    indices = np.stack([c.indices for c in clients])
    lr = lr_at_round(fed.lr0, round_t - 1, fed.lr_decay)
    w = np.repeat(w_global[None, :], len(clients), axis=0)
    # momentum, gradient, and scratch for the proximal gradient and then the
    # weight-decay product: (K, P) each, one allocation for the session
    velocity, grad, scratch = np.zeros((3, *w.shape))
    loss_total = np.zeros(len(clients))
    needs_teacher = fed.loss.needs_teacher
    steps = 0
    for _epoch in range(fed.local_epochs):
        orders = np.take_along_axis(indices, np.stack([r.permutation(n) for r in rngs]), axis=1)
        for start in range(0, n, fed.batch_size):
            idx = orders[:, start : start + fed.batch_size]
            x = dataset.features[idx]
            y = dataset.labels[idx]
            hidden = []
            z_l = forward(mlp, w, x, hidden)
            z_g = forward(mlp, w_global, x) if needs_teacher else None
            # the loss kernels are row-wise, so they may see all K*B rows at once
            losses, dl_dz = batch_loss_and_grad(
                fed.loss, z_l.reshape(-1, mlp.num_classes), y.reshape(-1),
                None if z_g is None else z_g.reshape(-1, mlp.num_classes),
            )
            batch_loss = losses.reshape(len(ids), -1).mean(axis=1)
            backward(mlp, w, x, hidden, dl_dz.reshape(z_l.shape), out=grad)
            if fed.loss.proximal:
                prox_loss, prox_grad = fedprox_penalty(w, w_global, fed.loss.mu, out=scratch)
                batch_loss += prox_loss
                grad += prox_grad
            sgd_momentum_step(w, grad, velocity, lr, fed.momentum, fed.weight_decay, scratch)
            loss_total += batch_loss
            steps += 1
    ok = np.isfinite(loss_total) & np.isfinite(w).all(axis=1)
    if not ok.all():
        raise DivergenceError(round_t, ids[int(np.argmin(ok))])
    return [ClientUpdate(cid, w[k], n, float(loss_total[k] / steps)) for k, cid in enumerate(ids)]


def aggregate(updates: list[ClientUpdate], mode: str = "size_weighted") -> np.ndarray:
    """Parameter averaging over client updates.

    size_weighted weighs by local sample counts; uniform is a plain mean.
    Summation runs in ascending client id so the result does not depend on
    the order updates arrive in.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation {mode!r}")
    updates = sorted(updates, key=lambda u: u.client_id)
    length = updates[0].params.shape
    if any(u.params.shape != length for u in updates):
        raise ValueError("updates have mismatched parameter lengths")
    if mode == "size_weighted":
        total = sum(u.sample_count for u in updates)
        weights = [u.sample_count / total for u in updates]
    else:
        weights = [1.0 / len(updates)] * len(updates)
    out = np.zeros_like(updates[0].params)
    term = np.empty_like(out)
    for weight, update in zip(weights, updates):
        out += np.multiply(update.params, weight, out=term)
    return out


@np.errstate(over="ignore", invalid="ignore")  # divergence raises DivergenceError instead
def run_federation(
    fed: FederationConfig,
    mlp: MlpConfig,
    dataset: Dataset,
    partition: list[ClientData],
    testset: Dataset,
    threads: int = 1,
    checkpoint_stride: int = 0,
    checkpoint_fn=None,
) -> FederationResult:
    """Run the full synchronous loop and log metrics every eval_stride rounds.

    The final round is always logged.  `checkpoint_fn(t, params)` fires
    every `checkpoint_stride` rounds when given.  Each round trains its
    sampled clients in lockstep groups of equal size.  `threads` must be
    >= 1 and changes nothing: training runs on the calling thread.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if dataset.dim != mlp.input_dim or testset.dim != mlp.input_dim:
        raise ValueError("dataset feature width does not match the model input_dim")
    if dataset.num_classes != mlp.num_classes or testset.num_classes != mlp.num_classes:
        raise ValueError("dataset class count does not match the model num_classes")

    clients = {c.client_id: c for c in partition}
    eligible = [c.client_id for c in partition if len(c) > 0]
    if not eligible:
        raise ValueError("every client is empty")
    dists = {
        cid: in_local_distribution(clients[cid], dataset) for cid in eligible
    }

    w = init_params(mlp, fed.master_seed)
    logs: list[RoundLog] = []
    w_acc = None  # class-wise accuracy of w, when the round that made w logged it
    for t in range(1, fed.rounds + 1):
        ids = sample_clients(len(partition), fed.sampling_ratio, t, fed.master_seed, eligible)
        groups: dict[int, list[ClientData]] = {}
        for cid in ids:
            groups.setdefault(len(clients[cid]), []).append(clients[cid])
        updates: list[ClientUpdate] = []
        diverged: list[DivergenceError] = []
        for group in groups.values():
            try:
                updates += local_train(w, group, dataset, fed, mlp, t)
            except DivergenceError as err:
                diverged.append(err)
        if diverged:
            raise min(diverged, key=lambda err: err.client_id)
        updates.sort(key=lambda u: u.client_id)

        w_in, w = w, aggregate(updates, fed.aggregation)

        if t % fed.eval_stride == 0 or t == fed.rounds:
            logs.append(_evaluate_round(t, mlp, testset, w_in, w, updates, dists, w_acc))
        w_acc = logs[-1].class_acc if logs and logs[-1].t == t else None
        if checkpoint_stride > 0 and checkpoint_fn is not None and t % checkpoint_stride == 0:
            checkpoint_fn(t, w)
    return FederationResult(w, logs)


def _evaluate_round(
    t: int,
    mlp: MlpConfig,
    testset: Dataset,
    w_in: np.ndarray,
    w_out: np.ndarray,
    updates: list[ClientUpdate],
    dists: dict[int, np.ndarray],
    incoming_acc: np.ndarray | None,
) -> RoundLog:
    """Scores the round with one test-set forward per model: w_out, w_in and each update.

    `updates` come in ascending client id.  `incoming_acc`, the class-wise
    accuracy of w_in when the previous round logged it, saves w_in's
    forward.  All forwards of the round write into one set of layer
    buffers, and every weight divergence into one parameter-sized buffer;
    both are dropped when the round is scored.
    """
    buffers = layer_buffers(mlp, testset.features.shape[:-1])
    pred_out = predict(mlp, w_out, testset, out=buffers)
    if incoming_acc is None:
        incoming_acc = class_wise_accuracy(predict(mlp, w_in, testset, out=buffers), testset)
    try:
        a_g = normalized_accuracy_vector(incoming_acc)
    except ValueError:  # incoming model got every test sample wrong
        a_g = None

    diff = np.empty_like(w_in)
    in_accs, out_accs, wdivs, ddists = [], [], [], []
    for update in updates:
        p = dists[update.client_id]
        acc = class_wise_accuracy(predict(mlp, update.params, testset, out=buffers), testset)
        in_accs.append(masked_accuracy(acc, p))
        out_accs.append(masked_accuracy(acc, out_local_distribution(p)))
        wdivs.append(weight_divergence(w_in, update.params, out=diff))
        ddists.append(distribution_distance(a_g, p) if a_g is not None else float("nan"))
    return RoundLog(
        t=t,
        global_acc=overall_accuracy(pred_out, testset),
        class_acc=class_wise_accuracy(pred_out, testset),
        local_in_acc_mean=float(np.mean(in_accs)),
        local_in_acc_std=float(np.std(in_accs)),
        local_out_acc_mean=float(np.mean(out_accs)),
        local_out_acc_std=float(np.std(out_accs)),
        weight_div_mean=float(np.mean(wdivs)),
        dist_dist_mean=float(np.mean(ddists)),
        train_loss=float(np.mean([u.mean_loss for u in updates])),
    )
