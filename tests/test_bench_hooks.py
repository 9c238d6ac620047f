"""Guards for the benchmark tracer's hooks into fednsim.

perfbench/spans.py wraps fednsim functions at the module attributes their
callers look up.  These tests load it read-only and check that every hooked
attribute exists, that install() and uninstall() round-trip, and that a
traced run still counts what the benchmark reports, also when a round's
lockstep groups train, and are scored, on worker threads.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fednsim import federation

from test_federation import pool_setup, round_groups, set_workers, spread_sessions, tiny_setup

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _hooks(spans):
    return [(module, attr) for module, attr, _, _ in spans._TARGETS] + [(federation, "local_train")]


def test_every_hooked_attribute_exists(spans):
    missing = [f"{m.__name__}.{a}" for m, a in _hooks(spans) if not hasattr(m, a)]
    assert missing == []


def test_install_uninstall_round_trip(spans):
    originals = [getattr(m, a) for m, a in _hooks(spans)]
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert all(getattr(m, a) is not o for (m, a), o in zip(_hooks(spans), originals))
    finally:
        recorder.uninstall()
    assert all(getattr(m, a) is o for (m, a), o in zip(_hooks(spans), originals))


def test_traced_run_counts_and_changes_nothing(spans):
    # 3 of 4 clients a round, fedntd, 3 rounds all logged: round 1 scores w_out,
    # w_in and 3 locals; rounds 2 and 3 take w_in's accuracy from the previous log
    fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)
    plain = federation.run_federation(fed, mlp, dataset, partition, testset)
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced = federation.run_federation(fed, mlp, dataset, partition, testset)
    finally:
        recorder.uninstall()
    assert traced.final_params.tobytes() == plain.final_params.tobytes()
    layers = recorder.layer_metrics(len(traced.logs), 1)
    assert fed.rounds == 3 and fed.eval_stride == 1
    assert layers["metrics.forwards_per_eval_round"] == (2 + 3 + 2 * (1 + 3)) / 3
    assert layers["federation.local_train.calls"] >= fed.rounds
    # teacher forwards are told apart by local_train's argument 0
    assert layers["model.forward.teacher.calls"] == layers["model.forward.local.calls"] > 0
    assert np.isfinite(layers["federation.straggler_ratio"])


def test_traced_multi_group_run_on_worker_threads(spans, monkeypatch):
    # fedntd on dirichlet clients: every round trains 2 or 3 groups on 2 threads
    cfg, train, test, partition, mlp = pool_setup("fedntd")
    fed = cfg.federation_config()
    set_workers(monkeypatch, 2)
    plain = federation.run_federation(fed, mlp, train, partition, test)
    spread_sessions(monkeypatch, cfg, partition, 2)  # both workers train in every round
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced = federation.run_federation(fed, mlp, train, partition, test)
    finally:
        recorder.uninstall()
    assert traced.final_params.tobytes() == plain.final_params.tobytes()
    layers = recorder.layer_metrics(len(traced.logs), 1)
    rounds = round_groups(cfg, partition)
    groups = sum(map(len, rounds))
    clients = sum(len(group) for groups_t in rounds for group in groups_t)
    assert groups > cfg.rounds and fed.eval_stride == 1
    assert layers["federation.local_train.calls"] == groups
    # every round is logged: each worker scores the updates it trained, and the
    # calling thread (the one that aggregates) also scores w_out, and w_in once
    trainers = [st for st in recorder._states if st.stats["federation.local_train"][0]]
    assert len(trainers) == 1 + cfg.rounds  # the calling thread and each round's helper
    assert all(st.stats["model.forward.eval"][0] >= st.stats["federation.local_train"][0]
               for st in trainers)
    assert layers["model.forward.eval.calls"] == clients + cfg.rounds + 1
    # each worker thread tells its teacher forwards apart by its own local_train argument
    assert layers["model.forward.teacher.calls"] == layers["model.forward.local.calls"] > 0
    assert layers["model.forward.teacher.rows"] == layers["model.forward.local.rows"]
    assert layers["model.backward.calls"] == layers["model.forward.local.calls"]
