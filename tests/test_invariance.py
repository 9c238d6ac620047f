"""The determinism contract: a run is a pure function of (config, seed).

One config runs through `fednsim run` along each axis that must not change
a byte of its outputs (rounds.csv, summary.json and the final checkpoint):

- a rerun;
- the worker count, `federation._workers` 1, 2 and 3;
- numpy's BLAS thread setting, `OPENBLAS_NUM_THREADS` 1 and 2, in child
  processes, since OpenBLAS reads it when it loads.  The children run at
  one worker, where no helper is forked and only the pool's own pin keeps
  the setting out of the bits;
- the CPUs the synthetic splits are drawn on, `rng.cpus()` 1 and 2.

The config reaches the OpenBLAS paths whose sums two threads split
otherwise than one: every training step and test-set forward multiplies
784-deep products, on batches of 20 and a 1,000-row test set.  Its test
split is large enough to be drawn in parts, and some of its rounds train
two lockstep groups, one of three clients, which 2 and 3 workers split
differently.  Each axis is one test: it compares each value's outputs with
the first value's, and a failure names the axis, the value and the first
round and column that differ (`runs.difference`).
"""

from collections import Counter

import pytest
from children import run_child
from runs import difference, run_digests

from fednsim import cli, federation, rng
from fednsim.config import parse_config_text

CONFIG = """\
data = synth
synth_classes = 4
synth_per_class = 60
synth_test_per_class = 250
synth_dim = 784
synth_separation = 2.0
partition = dirichlet
clients = 8
dirichlet_alpha = 20.0
hidden_dims = 64
method = fedprox
mu = 0.5
rounds = 4
local_epochs = 2
batch_size = 20
sampling_ratio = 0.5
lr0 = 0.05
seed = 3
checkpoint_stride = 4
"""

AXES = {"rerun": (1, 2), "workers": (1, 2, 3), "blas_threads": (1, 2), "cpus": (1, 2)}

_ONE_WORKER_RUN = """\
from fednsim import cli, federation
federation._workers = lambda clients: 1
os.chdir(sys.argv[1])
sys.exit(cli.main(["run", sys.argv[2], "--out", "run"]))
"""


def _run(axis: str, value: int, config, out, monkeypatch):
    """Runs `config` through `fednsim run` in directory `out` at `axis` =
    `value`; returns the directory of its outputs."""
    out.mkdir()
    if axis == "blas_threads":
        child = run_child(_ONE_WORKER_RUN, str(out), str(config),
                          env={"OPENBLAS_NUM_THREADS": str(value)})
        assert child.returncode == 0, child.stderr
        return out / "run"
    with monkeypatch.context() as patch:
        patch.chdir(out)  # summary.json echoes the relative out_dir
        if axis == "workers":
            patch.setattr(federation, "_workers", lambda clients: min(clients, value))
        elif axis == "cpus":
            patch.setattr(rng, "cpus", lambda: value)
        assert cli.main(["run", str(config), "--out", "run"]) == 0
    return out / "run"


@pytest.mark.parametrize("axis", AXES)
def test_a_run_is_the_same_bytes_along_each_axis(axis, tmp_path, monkeypatch, blas_two):
    # the runs in this process start at two BLAS threads, so that a run at one worker
    # that kept the setting would show on the workers axis too
    config = tmp_path / "invariance.cfg"
    config.write_text(CONFIG)
    first, *others = AXES[axis]
    runs = {value: _run(axis, value, config, tmp_path / f"{axis}-{value}", monkeypatch)
            for value in AXES[axis]}
    pins = run_digests(runs[first])
    assert len(pins[0]) == 3  # rounds.csv, summary.json and the final checkpoint
    for value in others:
        where = difference(pins, runs[value])
        assert where is None, f"{axis} {value} against {axis} {first}: {where}"


def test_the_config_splits_groups_and_draws_in_parts():
    cfg = parse_config_text(CONFIG, "invariance")
    _, _, _, partition, test = cli.load_run(cfg)
    sizes = {c.client_id: len(c) for c in partition}
    eligible = [cid for cid, n in sizes.items() if n > 0]
    rounds = [sorted(Counter(sizes[cid] for cid in federation.sample_clients(
        cfg.clients, cfg.sampling_ratio, t, cfg.seed, eligible)).values())
        for t in range(1, cfg.rounds + 1)]
    assert [1, 3] in rounds  # a group of three that 2 and 3 workers split otherwise
    assert test.features.size >= 2 * rng._PART_DRAWS  # two parts at two CPUs
