"""Golden digests: five small runs must reproduce pinned output bytes.

Each case runs the `run` pipeline (config, synthetic data, partition,
federation, CSV and summary writers) and pins the sha256 of rounds.csv,
summary.json and the final float64 parameters.  A refactor of the training
or evaluation path must leave all three unchanged.  Each case also pins an
8-hex sha256 prefix of every rounds.csv data row, by its round, so that a
failure names the first round that broke, or, when every row holds, the
outputs that differ.  The digests were taken
with numpy 2.4 on OpenBLAS 0.3.31 (x86-64), whose runtime-selected kernel
was `SkylakeX` (AVX-512), and they hold for that kernel only: another
kernel (`OPENBLAS_CORETYPE=Haswell`, say) or another BLAS build may round
matrix products differently, so a failure names the build it ran on and the
kernel its OpenBLAS picked at runtime.
"""

import hashlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fednsim.cli import load_run
from fednsim.config import parse_config_text
from fednsim.federation import blas_core, run_federation, sample_clients
from fednsim.runio import write_round_csv, write_summary_json

_COMMON = """\
data = synth
synth_dim = 6
synth_separation = 2.0
hidden_dims = 8,8
"""

CASES = {
    # iid, fedntd, evaluation every 2nd round (the last round is always logged)
    "iid_fedntd_stride": (
        """\
synth_classes = 4
synth_per_class = 24
synth_test_per_class = 10
partition = iid
clients = 6
method = fedntd
beta = 0.7
tau = 2.0
rounds = 5
local_epochs = 2
batch_size = 5
sampling_ratio = 0.5
lr0 = 0.05
eval_stride = 2
seed = 3
""",
        {
            "rounds.csv": "7e4debfe06f83127e9dfe0f705343fd86acd9d0e75b08122e2ab636c77e65d05",
            "summary.json": "ccac6702ca30df1a22095ccaab90ff369596c77decd3eba0f28d1ebecf704a48",
            "final_params": "246c4e474170f01e92a31fe0378736f3b54500b30a0925a59ef55a4841adeef5",
        },
        {2: "96c00a97", 4: "373c3850", 5: "e9a7ca0a"},
    ),
    # sharding, KL + not-true interpolation
    "sharding_kd_ntd_interp": (
        """\
synth_classes = 3
synth_per_class = 20
synth_test_per_class = 8
partition = sharding
clients = 5
shards_per_client = 2
method = kd_ntd_interp
interp_lambda = 0.3
rounds = 4
local_epochs = 2
batch_size = 5
sampling_ratio = 0.6
lr0 = 0.08
seed = 7
""",
        {
            "rounds.csv": "10e8477217a33d1d6a28c21482965ae1a99efefb9b3aa729ea483852f0613e0e",
            "summary.json": "ff62813b024aa9a4781eb0511978ec1d8fe4c70449875981a39a08e15bf7164c",
            "final_params": "da2a16abf336a9ac4a507189a51e1b0e90947d5b870a3f3f1f4ce17d542d8636",
        },
        {1: "8c4bd1a8", 2: "e1ea6680", 3: "f71474e4", 4: "ef1e6693"},
    ),
    # dirichlet, fedprox; rounds mix clients that share a size with clients that do not
    "dirichlet_fedprox_mixed": (
        """\
synth_classes = 4
synth_per_class = 15
synth_test_per_class = 6
partition = dirichlet
clients = 8
dirichlet_alpha = 20.0
method = fedprox
mu = 0.5
rounds = 4
local_epochs = 2
batch_size = 3
sampling_ratio = 0.5
lr0 = 0.05
seed = 0
""",
        {
            "rounds.csv": "7ec92ee959d3cfe7aa8ab1d4d1a6d262db724e932701df6fa3ee442197ad15d1",
            "summary.json": "e851eb820a28d4cd57227132bbbae268fe186cecba19201e3bf009f09500f6a0",
            "final_params": "58e14f4dff0f49517c192bbe082b09c766979cab4e4433ac84337cdddfbebac1",
        },
        {1: "0370000b", 2: "6adb8bb0", 3: "4f41967c", 4: "87127427"},
    ),
    # dirichlet, not-true logit MSE, evaluation every 3rd round
    "dirichlet_fedntd_mse_stride": (
        """\
synth_classes = 4
synth_per_class = 15
synth_test_per_class = 6
partition = dirichlet
clients = 8
dirichlet_alpha = 5.0
method = fedntd_mse
beta = 0.5
rounds = 5
local_epochs = 1
batch_size = 4
sampling_ratio = 0.5
lr0 = 0.05
eval_stride = 3
seed = 2
""",
        {
            "rounds.csv": "9c08f2b80f82fb8a8f1ddcaf216e66f014c97f075f214290511b421d5f9ce01b",
            "summary.json": "f91f5e31d51593db12aaf39d34b1a71e25b384c1658882e3a5f15120568b5ead",
            "final_params": "d320e826aaa21918ace2523fc0c2ecf936b5489721091f71f8b65505ecc33155",
        },
        {3: "eb5f5072", 5: "f62064dd"},
    ),
    # sharding, fedntd at beta = 1 and tau = 1 (the desk benchmark's objective), every round logged
    "sharding_fedntd_unit": (
        """\
synth_classes = 4
synth_per_class = 20
synth_test_per_class = 8
partition = sharding
clients = 8
shards_per_client = 2
method = fedntd
beta = 1.0
tau = 1.0
rounds = 4
local_epochs = 2
batch_size = 5
sampling_ratio = 0.5
lr0 = 0.05
seed = 5
""",
        {
            "rounds.csv": "8b0953bdbc9b6b1f363258f6760d52209444fe4a984ad0139c49f7630cceaf0c",
            "summary.json": "19922ad725658cc9fb5ffdb39a5abb43f2596b7124408608690c0e4b39627187",
            "final_params": "941a1c89322b0c4c641c949db4dbd996ecb9e93a637ea2c24ef5b9e108c58e20",
        },
        {1: "0b3b5a85", 2: "e78b4d9f", 3: "b2f8845a", 4: "2ab60046"},
    ),
}


def _config(name):
    return replace(parse_config_text(_COMMON + CASES[name][0], name), out_dir="golden")


def run_digests(name, out_dir) -> dict[str, str]:
    """Runs case `name`, writes its outputs under `out_dir`, returns their sha256."""
    cfg = _config(name)
    fed, mlp, train, partition, test = load_run(cfg)
    result = run_federation(fed, mlp, train, partition, test)
    write_round_csv(result.logs, out_dir / "rounds.csv", mlp.num_classes)
    write_summary_json(result.logs, cfg, out_dir / "summary.json", "rounds.csv")
    return {
        "rounds.csv": hashlib.sha256((out_dir / "rounds.csv").read_bytes()).hexdigest(),
        "summary.json": hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest(),
        "final_params": hashlib.sha256(result.final_params.astype("<f8").tobytes()).hexdigest(),
    }


def _blas_build() -> str:
    """numpy's version, its BLAS build and the kernel that BLAS runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        build = f"numpy {np.__version__}, BLAS unknown"
    return f"{build}, OpenBLAS core {blas_core() or 'unknown'}"


def row_digests(csv_path) -> dict[int, str]:
    """The 8-hex sha256 prefix of each rounds.csv data row, by its round."""
    rows = Path(csv_path).read_text().splitlines()[1:]
    return {int(row.split(",", 1)[0]): hashlib.sha256(row.encode()).hexdigest()[:8] for row in rows}


def first_difference(name, rows: dict[int, str], got: dict[str, str]) -> str:
    """Where case `name`'s outputs first leave its pins: the first round whose
    rounds.csv row differs, else the outputs whose digests differ."""
    _, digests, pinned_rows = CASES[name]
    for t in sorted(rows.keys() | pinned_rows.keys()):
        if rows.get(t) != pinned_rows.get(t):
            return f"rounds.csv first differs at round {t}"
    return "every rounds.csv row matches; " + ", ".join(
        key for key in digests if got[key] != digests[key]) + " differ"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    got = run_digests(name, tmp_path)
    rows = row_digests(tmp_path / "rounds.csv")
    assert (got, rows) == CASES[name][1:], (
        f"{name}: {first_difference(name, rows, got)} "
        f"(ran on {_blas_build()}; pinned on numpy 2.4, OpenBLAS 0.3.31, OpenBLAS core SkylakeX)"
    )


def test_a_failure_names_the_first_round_that_differs():
    _, digests, rows = CASES["iid_fedntd_stride"]
    assert first_difference("iid_fedntd_stride", {**rows, 4: "00000000", 5: "00000000"},
                            digests) == "rounds.csv first differs at round 4"
    assert first_difference("iid_fedntd_stride", {2: rows[2]}, digests) == (
        "rounds.csv first differs at round 4")
    assert first_difference("iid_fedntd_stride", rows, {**digests, "final_params": "0"}) == (
        "every rounds.csv row matches; final_params differ")


def test_a_failure_names_the_openblas_core():
    core = blas_core()
    assert core  # this numpy calls an OpenBLAS that names its kernel
    assert _blas_build().endswith(f", OpenBLAS core {core}")


def has_shared_and_lone_sizes_in_one_round(cfg) -> bool:
    """Whether a round of `cfg` samples two clients of one size and one of a
    size no other sampled client has."""
    _, _, _, partition, _ = load_run(cfg)
    sizes = {c.client_id: len(c) for c in partition}
    eligible = [cid for cid, n in sizes.items() if n > 0]
    mixed = []
    for t in range(1, cfg.rounds + 1):
        ids = sample_clients(cfg.clients, cfg.sampling_ratio, t, cfg.seed, eligible)
        counts = Counter(sizes[i] for i in ids).values()
        mixed.append(max(counts) >= 2 and min(counts) == 1)
    return any(mixed)


def test_mixed_case_has_shared_and_lone_sizes_in_one_round():
    assert has_shared_and_lone_sizes_in_one_round(_config("dirichlet_fedprox_mixed"))
