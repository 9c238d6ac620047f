"""Synchronous federated round loop.

Each round: sample clients, train every sampled client locally from the
incoming global parameters, aggregate by parameter averaging, evaluate.
Sampled clients of equal size train in lockstep, as one stack of
parameter vectors.  A run trains its rounds on a pool of processes, at
most one per CPU: the calling process and helpers forked from it when the
run starts, which share one block of parameter rows (`_train_groups`).  A
round's sessions, its lockstep groups, the largest split in half when
there are fewer groups than workers, go to whichever worker is free, and
in a logged round each worker also scores the updates it trained on the
test set.  Clients draw their batch order from private per-(round,
client) RNG streams, every matrix product stays one BLAS call per client,
sessions share no state, and aggregation sums in ascending client id, so
each client's update and its score are bit-identical to training it
alone, whatever the number of workers.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import ClientData, Dataset, client_distributions
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
    MAX_FLOATS,
    MlpConfig,
    _check_choice,
    _check_count,
    _check_real,
    _check_sgd,
    _column_blocks,
    backward,
    forward,
    init_params,
    lr_at_round,
    sgd_momentum_step,
    unpack_params,
)
from .rng import NS_CLIENT_SHUFFLE, NS_ROUND_SAMPLE, cpus, stream

AGGREGATION_MODES = ("size_weighted", "uniform")


def _check_aggregation(mode: str) -> None:
    """The one rule for an aggregation mode."""
    _check_choice("aggregation", mode, AGGREGATION_MODES)


def _check_sampling(ratio: float) -> None:
    """The one valid range of the client sampling ratio."""
    _check_real("sampling_ratio", ratio, 0, 1, low_open=True)


class DivergenceError(RuntimeError):
    """A local session ended with a non-finite summed loss or parameters.

    `nonfinite` says which: "loss", "parameters" or "loss and parameters".
    """

    def __init__(self, round_t: int, client_id: int, nonfinite: str):
        super().__init__(f"non-finite {nonfinite} at round {round_t}, client {client_id}")
        self.round_t = round_t
        self.client_id = client_id
        self.nonfinite = nonfinite

    def __reduce__(self):  # a helper process sends it back pickled
        return type(self), (self.round_t, self.client_id, self.nonfinite)


class WorkerError(RuntimeError):
    """A helper process of the training pool ended before it replied."""


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
        _check_count("rounds", self.rounds, high=MAX_FLOATS)  # as many as one array could count
        _check_count("local_epochs", self.local_epochs, high=MAX_FLOATS)
        _check_count("batch_size", self.batch_size)
        _check_count("eval_stride", self.eval_stride)
        _check_count("master_seed", self.master_seed, low=None)
        _check_sampling(self.sampling_ratio)
        _check_aggregation(self.aggregation)
        _check_sgd(self.lr0, self.momentum, self.weight_decay, self.lr_decay, lr_name="lr0")


@dataclass
class ClientUpdate:
    client_id: int
    params: np.ndarray | None  # None in a session's reply (`_run_task`): they sit in the block
    sample_count: int
    mean_loss: float
    class_acc: np.ndarray | None = None  # test-set accuracy per class, in a logged round


@dataclass
class FederationResult:
    final_params: np.ndarray
    logs: list[RoundLog]


def sample_count(clients: int, ratio: float, eligible: int) -> int:
    """How many clients every round samples: max(1, round(ratio * clients)),
    at most the `eligible` count."""
    _check_count("clients", clients, high=MAX_FLOATS)
    _check_sampling(ratio)
    return min(max(1, round(ratio * clients)), eligible)


def sample_clients(
    clients: int, ratio: float, round_t: int, master_seed: int, eligible=None
) -> list[int]:
    """max(1, round(ratio * clients)) distinct ids, sorted ascending.

    The draw comes from a stream keyed by (seed, round), so the sample for
    a round does not depend on anything else that happened.  `eligible`
    restricts the pool (empty clients are never trained); the target count
    is still based on the full client count.
    """
    count = sample_count(clients, ratio, clients if eligible is None else len(eligible))
    _check_count("master_seed", master_seed, low=None)
    pool = np.arange(clients) if eligible is None else np.asarray(sorted(eligible))
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
    out: np.ndarray | None = None,
) -> list[ClientUpdate]:
    """Run E local epochs of mini-batch momentum SGD from the global weights.

    The clients must hold equally many samples; they train in lockstep:
    parameters and momentum buffers are stacked as (K, P), each step feeds
    one (K, B, d) batch, and each client keeps its own shuffle stream.
    Momentum starts at zero and is discarded afterwards.  For distillation
    methods the teacher logits come from the frozen incoming global weights.
    Updates come back in ascending client id; their parameters are the rows
    of one (K, P) block: `out` when given, as rows of the pool's shared
    block (`_train_groups`), which the session then trains in place.

    Raises DivergenceError when a client ends the session with a non-finite
    summed loss or parameters, naming the lowest such client id and which
    of the two went non-finite.  That is the lowest id whose loss, gradient
    or parameters turned non-finite at any step, the client a
    one-client-at-a-time loop in ascending id would stop at: a non-finite
    gradient makes the velocity and then the parameters non-finite (even at
    lr = 0, as 0 * inf is NaN), non-finite values never turn finite again,
    and no step mixes rows of the stack.
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
    if out is not None and out.shape != (len(clients), w_global.size):
        raise ValueError(f"out has shape {out.shape}, expected {(len(clients), w_global.size)}")
    w = np.empty((len(clients), w_global.size)) if out is None else out
    w[...] = w_global
    # momentum, gradient, and scratch for the proximal gradient and then the
    # weight-decay product: (K, P) each, one allocation for the session
    velocity, grad, scratch = np.zeros((3, *w.shape))
    w_layers, grad_layers, teacher_layers = (unpack_params(mlp, a) for a in (w, grad, w_global))
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
            z_l = forward(mlp, w, x, hidden, layers=w_layers)
            z_g = forward(mlp, w_global, x, layers=teacher_layers) if needs_teacher else None
            # the loss kernels are row-wise, so they may see all K*B rows at once
            losses, dl_dz = batch_loss_and_grad(
                fed.loss, z_l.reshape(-1, mlp.num_classes), y.reshape(-1),
                None if z_g is None else z_g.reshape(-1, mlp.num_classes),
            )
            batch_loss = losses.reshape(len(ids), -1).sum(axis=1) / y.shape[1]  # as np.mean does
            backward(mlp, w, x, hidden, dl_dz.reshape(z_l.shape), out=grad,
                     layers=w_layers, grad_layers=grad_layers)
            if fed.loss.proximal:
                prox_loss, prox_grad = fedprox_penalty(w, w_global, fed.loss.mu, out=scratch)
                batch_loss += prox_loss
                grad += prox_grad
            sgd_momentum_step(w, grad, velocity, lr, fed.momentum, fed.weight_decay, scratch)
            loss_total += batch_loss
            steps += 1
    finite = {"loss": np.isfinite(loss_total), "parameters": np.isfinite(w).all(axis=1)}
    ok = finite["loss"] & finite["parameters"]
    if not ok.all():
        k = int(np.argmin(ok))
        nonfinite = " and ".join(name for name, row_ok in finite.items() if not row_ok[k])
        raise DivergenceError(round_t, ids[k], nonfinite)
    return [ClientUpdate(cid, w[k], n, float(loss_total[k] / steps)) for k, cid in enumerate(ids)]


def aggregate(updates: list[ClientUpdate], mode: str) -> np.ndarray:
    """Parameter averaging over client updates.

    size_weighted weighs by local sample counts; uniform is a plain mean.
    Summation runs in ascending client id so the result does not depend on
    the order updates arrive in, one cache block of columns at a time.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    _check_aggregation(mode)
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
    for cols in _column_blocks(out.shape[-1]):
        block = out[..., cols]
        term = np.empty_like(block)
        for weight, update in zip(weights, updates):
            block += np.multiply(update.params[..., cols], weight, out=term)
    return out


@functools.cache
def _numpy_blas() -> tuple | None:
    """(get_num_threads, set_num_threads, kernel name or None) of the OpenBLAS
    that numpy calls, or None where it calls none.  A lookup on the handle of
    the extension module that runs numpy's matrix products searches it and the
    libraries it links alone, never another OpenBLAS loaded, such as scipy's.
    Builds give the names a prefix and suffix: `scipy_openblas_{name}64_`, say."""
    package = "numpy._core" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core"
    lib = ctypes.CDLL(sys.modules[f"{package}._multiarray_umath"].__file__)
    for form in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        get, put, core = (getattr(lib, form.format(name), None)
                          for name in ("get_num_threads", "set_num_threads", "get_corename"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            if core is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
            return get, put, None if core is None else core().decode()
    return None


def blas_core() -> str | None:
    """The kernel numpy's OpenBLAS picked at runtime (`SkylakeX`, say), or None."""
    return None if (blas := _numpy_blas()) is None else blas[2]


def _workers(clients: int) -> int:
    """Processes to train a run on whose rounds each sample `clients`
    clients: one per client, at most one per CPU this process may run on.

    1, the calling process alone, off Linux, the one platform the pool is
    tested on; where the OS cannot fork; where this process runs other
    threads, since a fork copies none of them and a lock one of them holds
    would stay held in the helper; or where numpy's BLAS thread count cannot
    be set, since each process would run BLAS on as many threads as there
    are CPUs and they would contend for them.
    """
    if (sys.platform != "linux" or not hasattr(os, "fork") or threading.active_count() > 1
            or _numpy_blas() is None):
        return 1
    return min(clients, cpus())


class _Pool:
    """The calling process and `workers - 1` helper processes forked from it,
    none at one worker.

    `run` hands out a round's tasks from one counter all workers share, and
    `do_task(task)` runs one.  Only tasks and their outcomes, results or
    exceptions, cross the pipes, so both must be small and picklable.

    While the pool is open, numpy's BLAS runs on one thread in every
    process, at every worker count: so that the processes do not contend
    for the CPUs, and so that a run's bits do not depend on the BLAS thread
    count, which changes how OpenBLAS splits a large product's sums.  The
    calling process gets its count back when the pool closes.  Helpers
    ignore SIGINT, so a KeyboardInterrupt reaches the calling process
    alone.  Leaving the context closes the pool: a helper waiting for work
    reads end-of-file and exits, and when an exception is leaving too every
    helper is terminated at once, whatever it is doing.
    """

    def __init__(self, workers: int, do_task):
        self.workers = workers
        self._do_task = do_task
        self._next = None  # the task counter all workers share, made when the pool opens
        self._helpers: list[multiprocessing.process.BaseProcess] = []
        self._conns = []
        self._blas_count = None

    def __enter__(self) -> "_Pool":
        try:
            blas = _numpy_blas()
            if blas is not None:
                self._blas_count = blas[0]()
                blas[1](1)
            # where the OS cannot fork, `_workers` gives one worker, and the counter needs no fork
            ctx = multiprocessing.get_context("fork" if hasattr(os, "fork") else None)
            self._next = ctx.Value("q", 0)
            for _ in range(self.workers - 1):
                self._start_helper(ctx)
        except BaseException:
            self._close(abort=True)
            raise
        return self

    def _start_helper(self, ctx) -> None:
        """Forks one helper, which starts with SIGINT blocked and unblocks it once it ignores it."""
        conn, helper_end = ctx.Pipe()
        self._conns.append(conn)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            helper = ctx.Process(target=self._serve, args=(helper_end, self._conns[:]), daemon=True)
            helper.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        self._helpers.append(helper)
        helper_end.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._close(abort=exc_type is not None)

    def _close(self, abort: bool) -> None:
        if abort:  # a helper may be in the middle of a task
            for helper in self._helpers:
                helper.terminate()
        for conn in self._conns:
            conn.close()
        for helper in self._helpers:
            helper.join()
            helper.close()
        if self._blas_count is not None:
            _numpy_blas()[1](self._blas_count)

    def _serve(self, conn, inherited) -> None:
        """A helper's loop: runs its share of each round's tasks and sends back their outcomes."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for other in inherited:  # the calling process's ends of the pipes, this one's too
            other.close()
        try:
            while True:
                done = self._take(conn.recv(), BaseException)
                conn.send({i: _portable(outcome) for i, outcome in done.items()})
        except (EOFError, ConnectionError):  # the calling process closed the pool
            return

    def _take(self, tasks: list, caught: type[BaseException]) -> dict:
        """Runs tasks taken from the shared counter until none is left; returns
        each one's result, or the `caught` exception it raised, by index."""
        done = {}
        while True:
            with self._next.get_lock():
                i = self._next.value
                self._next.value = i + 1
            if i >= len(tasks):
                return done
            try:
                done[i] = self._do_task(tasks[i])
            except caught as err:
                done[i] = err

    def run(self, round_t: int, tasks: list) -> list:
        """Every task's outcome, in task order: its result or the Exception it raised.

        Tasks are handed out in order, each to the first worker free to
        take it.  Any other BaseException on the calling process, such as
        a KeyboardInterrupt, propagates, and closing the pool then
        terminates the helpers.  Raises WorkerError, naming the round, when
        a helper has died.
        """
        self._next.value = 0
        for helper, conn in zip(self._helpers, self._conns):
            try:
                conn.send(tasks)
            except ConnectionError:
                raise self._lost(helper, round_t) from None
        done = self._take(tasks, Exception)
        for helper, conn in zip(self._helpers, self._conns):
            try:
                done.update(conn.recv())
            except (EOFError, ConnectionError):
                raise self._lost(helper, round_t) from None
        return [done[i] for i in range(len(tasks))]

    @staticmethod
    def _lost(helper, round_t: int) -> WorkerError:
        helper.join()
        return WorkerError(f"training process {helper.pid} exited with code {helper.exitcode} "
                           f"in round {round_t}")


def _portable(outcome):
    """The outcome, or for an exception that does not come back whole
    through pickle, a RuntimeError that names it."""
    if isinstance(outcome, BaseException):
        try:
            pickle.loads(pickle.dumps(outcome))
        except Exception:
            return RuntimeError(f"{type(outcome).__name__}: {outcome}")
    return outcome


class _Task(NamedTuple):
    """One unit of a round's work: train the clients `ids` in lockstep into
    block rows `row`, `row + 1`, ..., and score the updates when `scored`;
    with no ids, score the incoming model in row 0."""

    round_t: int
    row: int
    ids: tuple[int, ...]
    scored: bool


def _run_task(task: _Task, block: np.ndarray, clients: dict[int, ClientData], dataset: Dataset,
              fed: FederationConfig, mlp: MlpConfig, testset: Dataset):
    """Runs one task on whichever worker took it, from the incoming model in row 0.

    Returns the incoming model's class-wise accuracy for a task with no ids;
    otherwise `local_train`'s updates with `params` None, as they are in the
    block, and when scored with `class_acc`, which depends on that update
    alone, so it is the same wherever it is made.
    """
    w_in = block[0]
    if not task.ids:
        return class_wise_accuracy(predict(mlp, w_in, testset), testset)
    trained = local_train(w_in, [clients[cid] for cid in task.ids], dataset, fed, mlp,
                          task.round_t, out=block[task.row : task.row + len(task.ids)])
    if task.scored:
        for u in trained:
            u.class_acc = class_wise_accuracy(predict(mlp, u.params, testset), testset)
    return [replace(u, params=None) for u in trained]


def _cost(session: list[ClientData]) -> int:
    return len(session) * len(session[0])


def _train_groups(
    pool: _Pool,
    block: np.ndarray,
    sampled: list[ClientData],
    round_t: int,
    scored: bool,
) -> tuple[list[ClientUpdate], np.ndarray | None]:
    """Trains the round's sampled clients from the incoming model in row 0 of `block`.

    Returns the updates in ascending client id, each with its block row as
    `params`, and when `scored` the incoming model's class-wise accuracy,
    else None.  Clients of equal size make one lockstep session; while
    there are fewer sessions than min(workers, clients), the largest of two
    or more clients is split in half by client id (a client's bits do not
    depend on who trains beside it).  Sessions are handed out largest
    (clients x samples) first, so that the round does not end on one long
    session, and each trains into its own rows.  With `scored`, as in a
    logged round, the worker that trained a session then scores each of its
    updates on the test set (`ClientUpdate.class_acc`), and w_in's scoring
    is one more task, last.

    Outcomes are read in session order, ascending lowest client id, w_in's
    last: the first exception other than DivergenceError is raised as a
    loop over the sessions would meet it, and otherwise the DivergenceError
    of the lowest client id.
    """
    groups: dict[int, list[ClientData]] = {}
    for client in sampled:
        groups.setdefault(len(client), []).append(client)
    sessions = list(groups.values())
    while len(sessions) < min(pool.workers, len(sampled)):
        big = max(range(len(sessions)), key=lambda k: (len(sessions[k]) > 1, _cost(sessions[k])))
        half = (len(sessions[big]) + 1) // 2
        sessions[big : big + 1] = [sessions[big][:half], sessions[big][half:]]
    tasks, row = [], 1
    for session in sorted(sessions, key=_cost, reverse=True):
        tasks.append(_Task(round_t, row, tuple(c.client_id for c in session), scored))
        row += len(session)
    if scored:
        tasks.append(_Task(round_t, 0, (), True))
    outcomes = pool.run(round_t, tasks)

    updates: list[ClientUpdate] = []
    diverged: list[DivergenceError] = []
    w_in_acc = None
    for task, outcome in sorted(zip(tasks, outcomes), key=lambda p: (not p[0].ids, p[0].ids[:1])):
        if isinstance(outcome, DivergenceError):
            diverged.append(outcome)
        elif isinstance(outcome, BaseException):
            raise outcome
        elif not task.ids:
            w_in_acc = outcome
        else:
            updates += (replace(u, params=block[task.row + k]) for k, u in enumerate(outcome))
    if diverged:
        raise min(diverged, key=lambda err: err.client_id)
    updates.sort(key=lambda u: u.client_id)
    return updates, w_in_acc


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
    sampled clients in lockstep groups of equal size, as sessions on a pool
    of `_workers(clients a round)` processes: the calling process and
    helpers forked from it once, here, and ended before this returns
    (`_Pool`, `_train_groups`), with the same bits at every worker count.
    numpy's BLAS runs on one thread for the whole run, at every worker
    count, so the bits do not depend on its thread setting either.
    In a logged round each worker scores the updates it trained, right
    after training them, and one of them scores the incoming model, so a
    round's log depends on that round's models alone.  `threads` must be
    >= 1 and changes nothing.

    The testset must hold every class, since each logged round scores the
    models class by class; one that lacks a class is rejected before any
    training.  Raises WorkerError when a helper process dies.
    """
    _check_count("threads", threads)
    if dataset.dim != mlp.input_dim or testset.dim != mlp.input_dim:
        raise ValueError("dataset feature width does not match the model input_dim")
    if dataset.num_classes != mlp.num_classes or testset.num_classes != mlp.num_classes:
        raise ValueError("dataset class count does not match the model num_classes")
    if missing := testset.missing_classes():
        raise ValueError(f"testset has no samples for classes {missing}")

    clients = {c.client_id: c for c in partition}
    dists = client_distributions(dataset, partition)
    eligible = list(dists)
    if not eligible:
        raise ValueError("every client is empty")

    w = init_params(mlp, fed.master_seed)
    sampled = sample_count(len(partition), fed.sampling_ratio, len(eligible))
    # row 0 holds the round's incoming model, the rows after it the sampled clients' updates
    block = np.frombuffer(mmap.mmap(-1, 8 * (sampled + 1) * w.size), dtype=np.float64)
    block = block.reshape(sampled + 1, w.size)
    w_in = block[0]
    run_task = functools.partial(_run_task, block=block, clients=clients, dataset=dataset,
                                 fed=fed, mlp=mlp, testset=testset)
    logs: list[RoundLog] = []
    with _Pool(_workers(sampled), run_task) as pool:
        for t in range(1, fed.rounds + 1):
            w_in[...] = w
            ids = sample_clients(len(partition), fed.sampling_ratio, t, fed.master_seed, eligible)
            logged = t % fed.eval_stride == 0 or t == fed.rounds
            updates, w_in_acc = _train_groups(pool, block, [clients[cid] for cid in ids], t,
                                              logged)
            w = aggregate(updates, fed.aggregation)
            if logged:
                logs.append(_evaluate_round(t, mlp, testset, w_in, w, updates, dists, w_in_acc))
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
    dists: dict[int, tuple[np.ndarray, np.ndarray]],
    incoming_acc: np.ndarray,
) -> RoundLog:
    """Scores the round from w_out's test-set forward.

    `updates` come in ascending client id, each with its class-wise
    accuracy, which the worker that trained it measured (`_train_groups`),
    and `dists` each client's (p, p~).  `incoming_acc` is w_in's class-wise
    accuracy, which one of the workers measured during this round.
    """
    pred_out = predict(mlp, w_out, testset)
    try:
        a_g = normalized_accuracy_vector(incoming_acc)
    except ValueError:  # incoming model got every test sample wrong
        a_g = None

    in_accs, out_accs, wdivs, ddists = [], [], [], []
    for update in updates:
        p, p_out = dists[update.client_id]
        in_accs.append(masked_accuracy(update.class_acc, p))
        out_accs.append(masked_accuracy(update.class_acc, p_out))
        wdivs.append(weight_divergence(w_in, update.params))
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
