"""Span recorder for the traced benchmark run.

`Recorder.install()` replaces fednsim functions at the module attributes
their callers look up (``federation.forward`` for training forwards,
``metrics.forward`` for evaluation forwards, and so on) with wrappers that
record, per span name: calls, seconds, self seconds (seconds minus the time
of nested recorded spans), rows and computed bytes.  The totals are kept
in memory per thread and merged by `layer_metrics()` after the run.
`uninstall()` puts every original back.  The wrappers pass arguments and
results through untouched, so tracing changes no output byte.
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time

from fednsim import cli, config, data, federation, metrics, model, runio

_F8 = 8  # bytes per float64
_FIELDS = ("calls", "s", "self_s", "rows", "bytes")


def _rows(position):
    return lambda args: (args[position].shape[0], 0)


def _sgd_bytes(args):
    # computed minimum traffic: read params, grad, velocity; write params, velocity
    return 0, 5 * _F8 * args[0].size


def _aggregate_bytes(args):
    # computed minimum traffic: read every client vector once, write the average
    updates = args[0]
    return 0, (len(updates) + 1) * _F8 * updates[0].params.size


def _checkpoint_bytes(args):
    # exact file size: 16-byte header plus the float64 payload
    return 0, 16 + _F8 * args[1].size


# (module, attribute, span name, work counter).  A name of None marks the
# training forward, which is split into local and teacher spans at call time.
_TARGETS = [
    (federation, "forward", None, _rows(2)),
    (metrics, "forward", "model.forward.eval", _rows(2)),
    (federation, "backward", "model.backward", None),
    (federation, "sgd_momentum_step", "model.sgd_momentum_step", _sgd_bytes),
    (federation, "batch_loss_and_grad", "losses.batch_loss_and_grad", _rows(1)),
    (federation, "fedprox_penalty", "losses.fedprox_penalty", None),
    (federation, "aggregate", "federation.aggregate", _aggregate_bytes),
    (federation, "init_params", "model.init_params", None),
    (federation, "class_wise_accuracy", "metrics.class_wise_accuracy", None),
    (federation, "masked_accuracy", "metrics.masked_accuracy", None),
    (federation, "overall_accuracy", "metrics.overall_accuracy", None),
    (federation, "weight_divergence", "metrics.weight_divergence", None),
    (federation, "stream", "rng.stream", None),
    (model, "stream", "rng.stream", None),
    (data, "stream", "rng.stream", None),
    (config, "parse_config", "config.parse_config", None),
    (cli, "parse_config", "config.parse_config", None),
    (data, "synth_dataset", "data.synth_dataset", None),
    (cli, "synth_dataset", "data.synth_dataset", None),
    (data, "make_partition", "data.make_partition", None),
    (cli, "make_partition", "data.make_partition", None),
    (model, "save_params", "model.save_params", _checkpoint_bytes),
    (cli, "save_params", "model.save_params", _checkpoint_bytes),
    (runio, "write_round_csv", "runio.write_round_csv", None),
    (cli, "write_round_csv", "runio.write_round_csv", None),
    (runio, "write_summary_json", "runio.write_summary_json", None),
    (cli, "write_summary_json", "runio.write_summary_json", None),
]


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # child seconds of each open span
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])  # one value per _FIELDS entry
        self.teacher = None  # w_global of the local_train call open on this thread
        # (round, start, end, cpu seconds of this thread) per local_train call
        self.clients: list[tuple[int, float, float, float]] = []


class Recorder:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._originals: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _timed(self, st, name, fn, args, kwargs, work):
        st.stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            nested = st.stack.pop()
            if st.stack:
                st.stack[-1] += t1 - t0
            s = st.stats[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - nested
            if work is not None:
                rows, nbytes = work(args)
                s[3] += rows
                s[4] += nbytes

    def _wrap(self, name, fn, work):
        def wrapper(*args, **kwargs):
            st = self._state()
            span = name
            if span is None:
                span = "model.forward.teacher" if args[1] is st.teacher else "model.forward.local"
            return self._timed(st, span, fn, args, kwargs, work)

        return wrapper

    def _wrap_local_train(self, fn):
        # local_train(w_global, client, dataset, fed, mlp, round_t)
        def wrapper(*args, **kwargs):
            st = self._state()
            st.teacher = args[0]
            t0, c0 = perf_counter(), thread_time()
            try:
                return self._timed(st, "federation.local_train", fn, args, kwargs, None)
            finally:
                st.clients.append((args[5], t0, perf_counter(), thread_time() - c0))
                st.teacher = None

        return wrapper

    def install(self) -> None:
        for module, attr, name, work in _TARGETS:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), work))
        self._patch(federation, "local_train", self._wrap_local_train(federation.local_train))

    def _patch(self, module, attr, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def layer_metrics(self, eval_rounds: int, threads: int) -> dict[str, float]:
        """Figures of the finished run: `<span>.<field>` for every span name and
        field, plus the derived sums and ratios."""
        names = {name for _, _, name, _ in _TARGETS if name}
        names |= {"model.forward.local", "model.forward.teacher", "federation.local_train"}
        totals = {name: [0, 0.0, 0.0, 0, 0] for name in names}
        by_round = defaultdict(list)  # round -> [(start, end, cpu)] of its local_train calls
        for st in self._states:
            for name, s in st.stats.items():
                totals[name] = [a + b for a, b in zip(totals[name], s)]
            for round_t, *span in st.clients:
                by_round[round_t].append(span)

        out = {f"{name}.{field}": value
               for name, t in totals.items() for field, value in zip(_FIELDS, t)}
        out["model.forward.s"] = sum(totals[f"model.forward.{k}"][1] for k in ("local", "teacher", "eval"))
        out["losses.s"] = totals["losses.batch_loss_and_grad"][1] + totals["losses.fedprox_penalty"][1]
        out["metrics.forwards_per_eval_round"] = totals["model.forward.eval"][0] / eval_rounds
        # Busy time is thread CPU time, which leaves out waiting for the GIL, so
        # threads that only take turns do not both count as busy.  A round's
        # train phase runs from its first local_train start to its last end.
        busy = sum(cpu for spans in by_round.values() for _, _, cpu in spans)
        phase = sum(max(e for _, e, _ in spans) - min(b for b, _, _ in spans)
                    for spans in by_round.values())
        out["federation.thread_busy_share"] = busy / (phase * threads)
        out["federation.straggler_ratio"] = statistics.median(
            max(times) / statistics.fmean(times)
            for times in ([end - start for start, end, _ in spans] for spans in by_round.values())
        )
        return out
