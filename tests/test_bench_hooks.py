"""Guards for the benchmark tracer's hooks into fednsim.

perfbench/spans.py wraps fednsim functions at the module attributes their
callers look up.  These tests load it read-only and check that every hooked
attribute exists, that install() and uninstall() round-trip, and that a
traced run still counts what the benchmark reports.  The tracer records in
the calling process alone, so its exact counts are pinned on a run of one
worker; on a run whose sessions also train on a helper process, tracing
must still change no output byte.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fednsim import cli, federation

from test_federation import (
    POOL_CONFIG, pool_setup, round_groups, set_workers, spread_sessions, tiny_setup,
)

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


def test_traced_run_counts_and_changes_nothing(spans, monkeypatch):
    # 3 of 4 clients a round, fedntd, 3 rounds all logged, on the calling
    # process alone: every round scores w_out, w_in and 3 locals
    fed, mlp, dataset, partition, testset = tiny_setup(method="fedntd", sampling_ratio=0.75)
    set_workers(monkeypatch, 1)
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
    assert layers["metrics.forwards_per_eval_round"] == 2 + 3
    assert layers["federation.local_train.calls"] == fed.rounds  # one group a round
    # teacher forwards are told apart by local_train's argument 0
    assert layers["model.forward.teacher.calls"] == layers["model.forward.local.calls"] > 0
    assert layers["model.forward.teacher.rows"] == layers["model.forward.local.rows"]
    assert np.isfinite(layers["federation.straggler_ratio"])


_EXERCISED = {  # method: spans a one-worker run of it must record
    method: {"model.forward.local", "model.forward.eval", "metrics.class_wise_accuracy",
             "metrics.masked_accuracy", "metrics.overall_accuracy", "metrics.weight_divergence",
             "federation.aggregate", "model.init_params", "rng.stream", extra}
    for method, extra in (("fedprox", "losses.fedprox_penalty"),
                          ("fedntd", "model.forward.teacher"))
}


@pytest.mark.parametrize("method", sorted(_EXERCISED))
def test_every_exercised_span_records_calls(spans, method, monkeypatch):
    # a kernel that fednsim stops calling through its hooked attribute would
    # leave its span, and the benchmark's figure of it, at zero
    fed, mlp, dataset, partition, testset = tiny_setup(method=method, sampling_ratio=0.75)
    set_workers(monkeypatch, 1)
    recorder = spans.Recorder()
    recorder.install()
    try:
        result = federation.run_federation(fed, mlp, dataset, partition, testset)
    finally:
        recorder.uninstall()
    layers = recorder.layer_metrics(len(result.logs), 1)
    assert {name: layers[f"{name}.calls"] for name in _EXERCISED[method]
            if layers[f"{name}.calls"] < 1} == {}
    other = "model.forward.teacher" if method == "fedprox" else "losses.fedprox_penalty"
    assert layers[f"{other}.calls"] == 0


def test_traced_run_on_worker_processes_changes_nothing(spans, monkeypatch):
    # fedntd on dirichlet clients: every round trains 2 or 3 groups on 2
    # processes, and the helper's spans stay in the helper
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
    assert all(a.class_acc.tobytes() == b.class_acc.tobytes()
               for a, b in zip(traced.logs, plain.logs))
    layers = recorder.layer_metrics(len(traced.logs), 1)
    # the calling process trained at least one session a round, the helper the others
    sessions = sum(map(len, round_groups(cfg, partition)))
    assert cfg.rounds <= layers["federation.local_train.calls"] <= sessions - cfg.rounds
    # the calling process tells its teacher forwards apart by its own local_train argument
    assert layers["model.forward.teacher.calls"] == layers["model.forward.local.calls"] > 0
    assert layers["model.forward.teacher.rows"] == layers["model.forward.local.rows"]
    assert layers["model.backward.calls"] == layers["model.forward.local.calls"]


def test_cli_run_set_up_is_traced(spans, monkeypatch, tmp_path):
    # the cli workload's trace sees its set-up at cli's attributes: one
    # synthesis of each split and one partition
    config = tmp_path / "pool.cfg"
    config.write_text(POOL_CONFIG)
    set_workers(monkeypatch, 1)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        recorder.uninstall()
    layers = recorder.layer_metrics(1, 1)
    assert layers["data.synth_dataset.calls"] == 2
    assert layers["data.make_partition.calls"] == 1
