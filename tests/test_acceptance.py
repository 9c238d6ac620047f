"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Criterion 7 trains 6 desk-scale federations and takes ~1.5 minutes;
everything else finishes in seconds.
"""

import dataclasses
import json
import time

import numpy as np

from fednsim import federation
from fednsim.cli import main as cli_main
from fednsim.data import (
    dirichlet_partition,
    make_partition,
    out_local_distribution,
    PartitionSpec,
    shard_partition,
    synth_dataset,
)
from fednsim.federation import (
    ClientUpdate,
    FederationConfig,
    aggregate,
    run_federation,
)
from fednsim.losses import (
    LossConfig,
    ce_loss_and_grad,
    fedntd_objective,
    kd_loss_and_grad,
    kd_ntd_interp_objective,
    ntd_loss_and_grad,
    ntd_mse_loss_and_grad,
)
from fednsim.metrics import forgetting_measure
from fednsim.model import MlpConfig
from fednsim.rng import stream
from fednsim.verify import (
    check_diversity_curve,
    check_uniform_argmin,
    kl_split_discrepancy,
    mse_split_discrepancy,
    random_diversity_instance,
    random_split_instance,
    smoothness_violation,
)

from test_model import central_difference_grad, max_relative_error


def _pass(number: int, message: str) -> None:
    print(f"ACCEPTANCE PASS [{number:2d}] {message}")


def test_c01_split_identities_quantitative():
    start = time.perf_counter()
    rng = stream(2024, 7, 1)
    kl_worst = mse_worst = 0.0
    for _ in range(100):
        inst = random_split_instance(rng)
        assert inst.z_local.shape[0] <= 64 and inst.num_classes <= 10
        kl_worst = max(kl_worst, kl_split_discrepancy(inst))
        mse_worst = max(mse_worst, mse_split_discrepancy(inst))
    elapsed = time.perf_counter() - start
    assert kl_worst < 1e-9
    assert mse_worst < 1e-9
    assert elapsed < 5.0
    _pass(1, f"KL/MSE split identities: max discrepancy {max(kl_worst, mse_worst):.2e} "
             f"< 1e-9 over 100 instances in {elapsed:.2f}s")


def test_c02_diversity_curve_quantitative():
    start = time.perf_counter()
    rng = stream(2024, 7, 2)
    gap_worst = inc_worst = excess_worst = -np.inf
    for _ in range(50):
        inst = random_diversity_instance(rng)
        report = check_diversity_curve(inst)
        gap_worst = max(gap_worst, report.max_closed_form_gap)
        inc_worst = max(inc_worst, report.max_increase)
        excess_worst = max(excess_worst, report.max_slope_excess)
        assert report.monotone
        assert report.slope_ok
    elapsed = time.perf_counter() - start
    assert gap_worst < 1e-9
    assert inc_worst <= 1e-12
    assert excess_worst <= 1e-6
    assert elapsed < 5.0
    _pass(2, f"diversity curve: closed form gap {gap_worst:.2e} < 1e-9, nonincreasing, "
             f"slope bound met over 50 instances in {elapsed:.2f}s")


def test_c03_uniform_argmin_property():
    start = time.perf_counter()
    for classes, subdivisions in ((2, 50), (3, 51)):
        for kind in ("vertices", "permutations"):
            report = check_uniform_argmin(classes, kind, subdivisions)
            assert report.grid_step <= 0.02
            assert report.argmin_distance <= report.grid_step
            assert report.uniform_excess <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _pass(3, f"uniform argmin within one grid step (0.02) for C in {{2,3}}, "
             f"both symmetric families, in {elapsed:.2f}s")


def test_c04_ntd_gradient_structure_exact():
    rng = stream(2024, 7, 4)
    cases = {
        "ce": lambda z_l, z_g, y, tau: ce_loss_and_grad(z_l, y),
        "kd": lambda z_l, z_g, y, tau: kd_loss_and_grad(z_l, z_g, tau),
        "ntd": lambda z_l, z_g, y, tau: ntd_loss_and_grad(z_l, z_g, y, tau),
        "ntd_mse": lambda z_l, z_g, y, tau: ntd_mse_loss_and_grad(z_l, z_g, y),
        "fedntd": lambda z_l, z_g, y, tau: fedntd_objective(z_l, z_g, y, 1.0, tau),
        "interp": lambda z_l, z_g, y, tau: kd_ntd_interp_objective(z_l, z_g, y, 0.4, tau),
    }
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 11))
        y = int(rng.integers(0, c))
        tau = float(rng.uniform(0.5, 3.0))
        z_l = rng.normal(scale=2.0, size=c)
        z_g = rng.normal(scale=2.0, size=c)
        _, ntd_grad = ntd_loss_and_grad(z_l, z_g, y, tau)
        assert ntd_grad[y] == 0.0 and not np.signbit(ntd_grad[y])  # bitwise +0.0
        for fn in cases.values():
            _, analytic = fn(z_l, z_g, y, tau)
            numeric = central_difference_grad(lambda z: fn(z, z_g, y, tau)[0], z_l)
            worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4
    _pass(4, f"true-class gradient bitwise 0.0; all loss gradients match central "
             f"differences (worst rel err {worst:.2e} < 1e-4, 50 instances)")


def test_c05_degenerate_equivalence_exact():
    dataset = synth_dataset(4, 30, 5, 3.0, seed=9)
    testset = synth_dataset(4, 20, 5, 3.0, seed=9, split=1)
    partition = make_partition(dataset, PartitionSpec("sharding", 6, 2, seed=9))
    mlp = MlpConfig(input_dim=5, hidden_dims=(8,), num_classes=4)
    fed_avg = FederationConfig(
        rounds=4, local_epochs=2, batch_size=10, sampling_ratio=0.5,
        loss=LossConfig("fedavg"), lr0=0.05, master_seed=21,
    )
    fed_ntd0 = dataclasses.replace(fed_avg, loss=LossConfig("fedntd", beta=0.0))
    res_avg = run_federation(fed_avg, mlp, dataset, partition, testset)
    res_ntd = run_federation(fed_ntd0, mlp, dataset, partition, testset)
    assert res_avg.final_params.tobytes() == res_ntd.final_params.tobytes()
    for la, lb in zip(res_avg.logs, res_ntd.logs):
        assert la.class_acc.tobytes() == lb.class_acc.tobytes()
        assert la.train_loss == lb.train_loss
        assert la.weight_div_mean == lb.weight_div_mean

    rng = np.random.default_rng(0)
    updates = [ClientUpdate(i, rng.normal(size=40), 25, 0.0) for i in range(8)]
    gap = np.abs(
        aggregate(updates, "size_weighted") - aggregate(updates, "uniform")
    ).max()
    assert gap <= 1e-15
    _pass(5, f"beta=0 trajectory bit-identical to plain averaging; equal-size "
             f"aggregation modes agree to {gap:.1e} <= 1e-15")


def test_c06_partition_invariants_exact():
    dataset = synth_dataset(2, 10, 3, 1.0, seed=0)  # |D| = 20
    parts = shard_partition(dataset, clients=2, shards_per_client=2, seed=0)
    assert len(dataset) // (2 * 2) == 5  # shard size
    assert all(len(p) == 10 for p in parts)  # client size
    union = np.concatenate([p.indices for p in parts])
    assert sorted(union.tolist()) == list(range(20))

    big = synth_dataset(6, 50, 2, 1.0, seed=1)
    for seed in range(20):
        dparts = dirichlet_partition(big, clients=9, alpha=0.4, seed=seed)
        all_idx = np.concatenate([p.indices for p in dparts])
        assert len(all_idx) == len(big)
        assert len(set(all_idx.tolist())) == len(big)

    rng = np.random.default_rng(5)
    for _ in range(50):
        c = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(c) * rng.uniform(0.2, 4.0))
        q = out_local_distribution(p)
        assert abs(q.sum() - 1.0) <= 1e-12
    uniform = np.full(7, 1 / 7)
    assert np.abs(out_local_distribution(uniform) - uniform).max() <= 1e-12
    _pass(6, "sharding 20/2/2 gives shard 5 / client 10; dirichlet exact partitions "
             "over 20 seeds; complement distribution on simplex, uniform fixed point")


def _directional_run(method: str, seed: int) -> dict:
    train = synth_dataset(10, 500, 32, 2.0, seed=seed, split=0)
    test = synth_dataset(10, 200, 32, 2.0, seed=seed, split=1)
    partition = make_partition(train, PartitionSpec("sharding", 20, 2, seed=seed))
    mlp = MlpConfig(input_dim=32, hidden_dims=(64, 64), num_classes=10)
    fed = FederationConfig(
        rounds=50, local_epochs=5, batch_size=50, sampling_ratio=0.5,
        loss=LossConfig(method=method, beta=1.0, tau=1.0),
        lr0=0.05, master_seed=seed,
    )
    result = run_federation(fed, mlp, train, partition, test)
    history = [log.class_acc for log in result.logs]
    return {
        "final_acc": result.logs[-1].global_acc,
        "forgetting": forgetting_measure(history),
        "final_out_acc": result.logs[-1].local_out_acc_mean,
    }


def test_c07_directional_heterogeneity_desk_scale():
    start = time.perf_counter()
    seeds = (1, 2, 3)
    means = {}
    for method in ("fedavg", "fedntd"):
        runs = [_directional_run(method, seed) for seed in seeds]
        means[method] = {key: float(np.mean([r[key] for r in runs])) for key in runs[0]}
    elapsed = time.perf_counter() - start
    avg, ntd = means["fedavg"], means["fedntd"]
    assert ntd["final_acc"] >= avg["final_acc"]
    assert ntd["forgetting"] <= avg["forgetting"]
    assert ntd["final_out_acc"] >= avg["final_out_acc"]
    assert elapsed < 300.0
    _pass(7, f"desk-scale direction: acc {ntd['final_acc']:.3f} >= {avg['final_acc']:.3f}, "
             f"forgetting {ntd['forgetting']:.3f} <= {avg['forgetting']:.3f}, "
             f"out-local acc {ntd['final_out_acc']:.3f} >= {avg['final_out_acc']:.3f} "
             f"(3 seeds, {elapsed:.0f}s)")


def test_c08_forgetting_oracle_exact():
    history = [np.array([0.9, 0.2]), np.array([0.5, 0.8])]
    got = forgetting_measure(history)
    expected = ((0.9 - 0.5) + (0.2 - 0.8)) / 2  # direct-evaluation oracle
    assert got == expected
    assert abs(got - (-0.1)) < 1e-15
    constant = [np.array([0.37, 0.81, 0.55])] * 6
    assert forgetting_measure(constant) == 0.0
    _pass(8, "forgetting hand example matches the direct-evaluation oracle "
             "(-0.1 up to f64 representation); constant histories give exactly 0.0")


def test_c09_cli_determinism_bytes(tmp_path, monkeypatch):
    config = tmp_path / "exp.cfg"
    out = tmp_path / "out"
    config.write_text(
        "data = synth\nsynth_classes = 4\nsynth_per_class = 30\n"
        "synth_test_per_class = 20\nsynth_dim = 6\nsynth_separation = 2.5\n"
        "partition = sharding\nclients = 6\nshards_per_client = 2\n"
        "hidden_dims = 10\nmethod = fedntd\nrounds = 4\nlocal_epochs = 2\n"
        "batch_size = 10\nsampling_ratio = 0.5\nlr0 = 0.05\nseed = 13\n"
        f"out_dir = {out}\n"
    )
    snapshots = []
    for threads in ("1", "8", "1"):
        assert cli_main(["run", str(config), "--threads", threads]) == 0
        snapshots.append(
            ((out / "rounds.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    assert snapshots[0] == snapshots[1] == snapshots[2]
    json.loads(snapshots[0][1])  # summary stays valid JSON

    # unequal dirichlet clients: rounds of several lockstep groups, which
    # train as several sessions; the size of the training pool must not change a byte either
    dirichlet = tmp_path / "dirichlet.cfg"
    dirichlet.write_text(
        config.read_text().replace("partition = sharding", "partition = dirichlet")
        + "dirichlet_alpha = 0.5\n"
    )
    real_workers, client_counts = federation._workers, []
    snapshots = []
    for threads, cap in (("1", 1), ("8", 2), ("1", 3), ("8", None)):  # None: min(clients, CPUs)
        def workers(clients, cap=cap):
            client_counts.append(clients)
            return real_workers(clients) if cap is None else min(clients, cap)

        monkeypatch.setattr(federation, "_workers", workers)
        assert cli_main(["run", str(dirichlet), "--threads", threads]) == 0
        snapshots.append(
            ((out / "rounds.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    assert max(client_counts) >= 3
    assert snapshots[0] == snapshots[1] == snapshots[2] == snapshots[3]
    _pass(9, "repeat runs, thread counts 1/8 and training pools of 1/2/3/min(clients, CPUs) "
             "processes produce byte-identical rounds.csv and summary.json (dirichlet "
             f"rounds of {max(client_counts)} clients)")


def test_c10_smoothness_bound_quantitative():
    worst = smoothness_violation(2.3, 6, trials=100, seed=3)
    assert worst <= 1e-9
    _pass(10, f"quadratic mixture bound violation {worst:.2e} <= 1e-9 over 100 trials")
