"""Synchronous federated round loop.

Each round: sample clients, train every sampled client locally from the
incoming global parameters, aggregate by parameter averaging, evaluate.
Sampled clients of equal size train in lockstep, as one stack of
parameter vectors, and a round whose clients form two or more such groups
trains the groups concurrently on a thread pool.  Clients draw their batch
order from private per-(round, client) RNG streams, every matrix product
stays one BLAS call per client, groups share no state, and aggregation sums
in ascending client id, so each client's update is bit-identical to
training it alone, whatever the number of threads.
"""

from __future__ import annotations

import mmap
import os
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


def _session_array(shape: tuple[int, ...], mapped: bool) -> np.ndarray:
    """A zeroed float64 array; with `mapped`, in its own private anonymous mapping.

    A mapping is unmapped, and its memory given back to the OS, when the
    array and every view of it are dropped.  Memory from the allocator
    stays in the malloc arena of the thread that freed it, so sessions
    trained on pool threads would leave a session's worth of arrays
    resident in each thread's arena.  On the calling thread the allocator
    is cheaper: it reuses the previous session's pages, where a new mapping
    needs every page faulted in.  A session writes every page, so the
    mapping is populated at once (MAP_POPULATE, where the OS has it), which
    costs less system time than a fault per page.
    """
    if not mapped:
        return np.zeros(shape)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, 8 * int(np.prod(shape)), flags=flags)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


@np.errstate(over="ignore", invalid="ignore")  # a diverging session computes through NaN
def local_train(
    w_global: np.ndarray,
    clients: list[ClientData],
    dataset: Dataset,
    fed: FederationConfig,
    mlp: MlpConfig,
    round_t: int,
    mapped: bool = False,
) -> list[ClientUpdate]:
    """Run E local epochs of mini-batch momentum SGD from the global weights.

    The clients must hold equally many samples; they train in lockstep:
    parameters and momentum buffers are stacked as (K, P), each step feeds
    one (K, B, d) batch, and each client keeps its own shuffle stream.
    Momentum starts at zero and is discarded afterwards.  For distillation
    methods the teacher logits come from the frozen incoming global weights.
    Updates come back in ascending client id; their parameters are rows of
    one stacked block.  With `mapped`, as on the round's thread pool, that
    block and the session's work arrays live in private mappings that go
    back to the OS when they are dropped (`_session_array`).

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
    w = _session_array((len(clients), w_global.size), mapped)
    w[...] = w_global
    # momentum, gradient, and scratch for the proximal gradient and then the
    # weight-decay product: (K, P) each, one allocation for the session
    velocity, grad, scratch = _session_array((3, *w.shape), mapped)
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


def _workers(groups: int) -> int:
    """Threads to train a round's `groups` lockstep groups: one per group, at
    most one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(groups, cpus)


def _train_groups(
    w: np.ndarray,
    groups: list[list[ClientData]],
    dataset: Dataset,
    fed: FederationConfig,
    mlp: MlpConfig,
    round_t: int,
) -> list[ClientUpdate]:
    """Trains every lockstep group from `w`; updates come back in ascending client id.

    With one worker (`_workers`) the groups train one after another on the
    calling thread; with more, on a thread pool that is joined before this
    returns, each session in mapped memory (see `_session_array`).
    Outcomes are read in group order either way: the first exception other
    than DivergenceError is raised as a loop over the groups would meet it,
    and otherwise the DivergenceError of the lowest client id.
    """
    updates: list[ClientUpdate] = []
    diverged: list[DivergenceError] = []

    def collect(train) -> None:  # train() returns one group's updates
        try:
            updates.extend(train())
        except DivergenceError as err:
            diverged.append(err)

    workers = _workers(len(groups))
    if workers < 2:
        for group in groups:
            collect(lambda: local_train(w, group, dataset, fed, mlp, round_t))
    else:
        # imported here: the import adds ~0.4 MB to runs whose rounds all have one group
        from concurrent.futures import ThreadPoolExecutor

        # the largest groups (clients x samples) first: the round does not end on
        # one long group, and the largest sessions run while few updates are held
        order = sorted(range(len(groups)), key=lambda i: -len(groups[i]) * len(groups[i][0]))
        with ThreadPoolExecutor(workers) as pool:
            futures = {i: pool.submit(local_train, w, groups[i], dataset, fed, mlp, round_t,
                                      mapped=True)
                       for i in order}
        for i in range(len(groups)):
            collect(futures[i].result)
    if diverged:
        raise min(diverged, key=lambda err: err.client_id)
    updates.sort(key=lambda u: u.client_id)
    return updates


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
    sampled clients in lockstep groups of equal size.  A round with one
    group trains it on the calling thread; a round with several trains them
    on a pool of min(groups, CPUs) threads (`_train_groups`), with the same
    bits.  `threads` must be >= 1 and changes nothing.

    The testset must hold every class, since each logged round scores the
    models class by class; one that lacks a class is rejected before any
    training.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if dataset.dim != mlp.input_dim or testset.dim != mlp.input_dim:
        raise ValueError("dataset feature width does not match the model input_dim")
    if dataset.num_classes != mlp.num_classes or testset.num_classes != mlp.num_classes:
        raise ValueError("dataset class count does not match the model num_classes")
    missing = np.flatnonzero(testset.class_counts() == 0)
    if missing.size:
        raise ValueError(f"testset has no samples for classes {missing.tolist()}")

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
        updates = _train_groups(w, list(groups.values()), dataset, fed, mlp, t)

        w_out = aggregate(updates, fed.aggregation)

        if t % fed.eval_stride == 0 or t == fed.rounds:
            logs.append(_evaluate_round(t, mlp, testset, w, w_out, updates, dists, w_acc))
        # drop the clients' parameters and the incoming model before the next round trains
        del updates
        w = w_out
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
