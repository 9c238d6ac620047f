"""Golden digests: five small runs must reproduce pinned output bytes.

Each case runs the `run` pipeline (config, synthetic data, partition,
federation, CSV and summary writers) and pins the sha256 of rounds.csv,
summary.json and the final float64 parameters.  A refactor of the training
or evaluation path must leave all three unchanged.  Each case also pins an
8-hex sha256 prefix of every rounds.csv data row, and a 2-hex prefix of
each of its cells, by its round, so that a failure names the first round
that broke and its first column that differs, or, when every row holds,
the outputs that differ.

The pins were taken with numpy 2.4 on OpenBLAS 0.3.31 (x86-64) and are kept
per kernel, the one OpenBLAS selects at runtime (`federation.blas_core()`):
kernels may round matrix products differently.  `SkylakeX` (AVX-512) is
the kernel an AVX-512 machine picks; the `Haswell` (AVX2), `Sandybridge`
(AVX) and `Katmai` (SSE, what `OPENBLAS_CORETYPE=Prescott` selects) pins
were taken in a child process with `OPENBLAS_CORETYPE` set to the kernel's
name.  A kernel without pins, or
another BLAS build, fails every case with a message naming the kernel and
the build.
"""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from children import run_child
from runs import difference, first_difference

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
    "iid_fedntd_stride": """\
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
    # sharding, KL + not-true interpolation
    "sharding_kd_ntd_interp": """\
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
    # dirichlet, fedprox; rounds mix clients that share a size with clients that do not
    "dirichlet_fedprox_mixed": """\
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
    # dirichlet, not-true logit MSE, evaluation every 3rd round
    "dirichlet_fedntd_mse_stride": """\
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
    # sharding, fedntd at beta = 1 and tau = 1 (the desk benchmark's objective), every round logged
    "sharding_fedntd_unit": """\
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
}

# Each kernel's pins, newest instruction set first: case -> (the sha256 of each
# output, the digest of each rounds.csv data row, the digests of its cells).
PINS = {
    "SkylakeX": {
        "iid_fedntd_stride": (
            {
                "rounds.csv": "7e4debfe06f83127e9dfe0f705343fd86acd9d0e75b08122e2ab636c77e65d05",
                "summary.json": "ccac6702ca30df1a22095ccaab90ff369596c77decd3eba0f28d1ebecf704a48",
                "final_params": "246c4e474170f01e92a31fe0378736f3b54500b30a0925a59ef55a4841adeef5",
            },
            {2: "96c00a97", 4: "373c3850", 5: "e9a7ca0a"},
            {
                2: "d4bf8a81f3d28f1526eb87c814",
                4: "4bc48a8181d2ac421cd2cff92b",
                5: "efe0228181b448206ce5fe45ec",
            },
        ),
        "sharding_kd_ntd_interp": (
            {
                "rounds.csv": "10e8477217a33d1d6a28c21482965ae1a99efefb9b3aa729ea483852f0613e0e",
                "summary.json": "ff62813b024aa9a4781eb0511978ec1d8fe4c70449875981a39a08e15bf7164c",
                "final_params": "da2a16abf336a9ac4a507189a51e1b0e90947d5b870a3f3f1f4ce17d542d8636",
            },
            {1: "8c4bd1a8", 2: "e1ea6680", 3: "f71474e4", 4: "ef1e6693"},
            {
                1: "6be98a8ad0d28aa38a0792f3",
                2: "d492d08aa319613a00b5f71d",
                3: "4e18d04252f2c16579779aec",
                4: "4b0742cea3f24691e236e73f",
            },
        ),
        "dirichlet_fedprox_mixed": (
            {
                "rounds.csv": "7ec92ee959d3cfe7aa8ab1d4d1a6d262db724e932701df6fa3ee442197ad15d1",
                "summary.json": "e851eb820a28d4cd57227132bbbae268fe186cecba19201e3bf009f09500f6a0",
                "final_params": "58e14f4dff0f49517c192bbe082b09c766979cab4e4433ac84337cdddfbebac1",
            },
            {1: "0370000b", 2: "6adb8bb0", 3: "4f41967c", 4: "87127427"},
            {
                1: "6ba3e98ae9e98fe76f86d9e089",
                2: "d448d2cfcfe954c28fe1aecf7b",
                3: "4e95d2cfcf7b7e160143d30270",
                4: "4b48cf8a7be92098a0ba913db5",
            },
        ),
        "dirichlet_fedntd_mse_stride": (
            {
                "rounds.csv": "9c08f2b80f82fb8a8f1ddcaf216e66f014c97f075f214290511b421d5f9ce01b",
                "summary.json": "f91f5e31d51593db12aaf39d34b1a71e25b384c1658882e3a5f15120568b5ead",
                "final_params": "d320e826aaa21918ace2523fc0c2ecf936b5489721091f71f8b65505ecc33155",
            },
            {3: "eb5f5072", 5: "f62064dd"},
            {3: "4ea38ae98a7bef50de261412b5", 5: "efa38ae98a7b51ff439594ffb9"},
        ),
        "sharding_fedntd_unit": (
            {
                "rounds.csv": "8b0953bdbc9b6b1f363258f6760d52209444fe4a984ad0139c49f7630cceaf0c",
                "summary.json": "19922ad725658cc9fb5ffdb39a5abb43f2596b7124408608690c0e4b39627187",
                "final_params": "941a1c89322b0c4c641c949db4dbd996ecb9e93a637ea2c24ef5b9e108c58e20",
            },
            {1: "0b3b5a85", 2: "e78b4d9f", 3: "b2f8845a", 4: "2ab60046"},
            {
                1: "6b828ad2ce8a0686cf581fd2ad",
                2: "d4408a8ad052b51d69aecd9c7f",
                3: "4e408a52d08a590e6af47ed013",
                4: "4b408a52d08ae998cf5866fa17",
            },
        ),
    },
    "Haswell": {
        "iid_fedntd_stride": (
            {
                "rounds.csv": "0ea4a493091455686e6171058813f13d860a43a507014e2840dc51c55ace8819",
                "summary.json": "ccac6702ca30df1a22095ccaab90ff369596c77decd3eba0f28d1ebecf704a48",
                "final_params": "4dfa3848929ec863c6f11a3e2c429ad27a03b225f90ae5270802fada5b769732",
            },
            {2: "31e1e135", 4: "e20e782d", 5: "384a39cc"},
            {
                2: "d4bf8a81f3d28f1526ebf8c814",
                4: "4bc48a8181d2ac421cd2e1f92b",
                5: "efe0228181b448206ce5fe45f2",
            },
        ),
        "sharding_kd_ntd_interp": (
            {
                "rounds.csv": "6c90e6cd7cf6b83e476c5b0c7060b64e6681717fe880fb29aa8898b573097fbb",
                "summary.json": "ff62813b024aa9a4781eb0511978ec1d8fe4c70449875981a39a08e15bf7164c",
                "final_params": "e62a9425f498869dfea2c1af99aca0a6f442242f2e53dbf6a276abcda7072ef4",
            },
            {1: "8c4bd1a8", 2: "e1ea6680", 3: "3efa2588", 4: "ef1e6693"},
            {
                1: "6be98a8ad0d28aa38a0792f3",
                2: "d492d08aa319613a00b5f71d",
                3: "4e18d04252f2c165792f9aec",
                4: "4b0742cea3f24691e236e73f",
            },
        ),
        "dirichlet_fedprox_mixed": (
            {
                "rounds.csv": "e71196c117ae28271be28ad908c5b4239846915dad1bd071345bb92402a8bf58",
                "summary.json": "e851eb820a28d4cd57227132bbbae268fe186cecba19201e3bf009f09500f6a0",
                "final_params": "77b881a9e1144192d95d963d50b25a53ac69a6cca2d0fe3664ea4b279f6b4ed7",
            },
            {1: "0370000b", 2: "6adb8bb0", 3: "a169db33", 4: "b96bd2ff"},
            {
                1: "6ba3e98ae9e98fe76f86d9e089",
                2: "d448d2cfcfe954c28fe1aecf7b",
                3: "4e95d2cfcf7b7e1601434f0229",
                4: "4b48cf8a7be92098a0baa93db5",
            },
        ),
        "dirichlet_fedntd_mse_stride": (
            {
                "rounds.csv": "9c08f2b80f82fb8a8f1ddcaf216e66f014c97f075f214290511b421d5f9ce01b",
                "summary.json": "f91f5e31d51593db12aaf39d34b1a71e25b384c1658882e3a5f15120568b5ead",
                "final_params": "9b1821a17a5f5403f712f62a5af90ea7c968a105d4a25111f9397588a957110d",
            },
            {3: "eb5f5072", 5: "f62064dd"},
            {3: "4ea38ae98a7bef50de261412b5", 5: "efa38ae98a7b51ff439594ffb9"},
        ),
        "sharding_fedntd_unit": (
            {
                "rounds.csv": "0996722499cfee0f2ad46ea2b780911c0b2bb5e06a9632a3bc6083be02b44b16",
                "summary.json": "19922ad725658cc9fb5ffdb39a5abb43f2596b7124408608690c0e4b39627187",
                "final_params": "60fb966e647d694d4ddffb816ada97d6758c952d309dd3998f4161b4d6a1262e",
            },
            {1: "0b3b5a85", 2: "e78b4d9f", 3: "b2f8845a", 4: "0111f3ff"},
            {
                1: "6b828ad2ce8a0686cf581fd2ad",
                2: "d4408a8ad052b51d69aecd9c7f",
                3: "4e408a52d08a590e6af47ed013",
                4: "4b408a52d08ae998cf586ffa17",
            },
        ),
    },
    "Sandybridge": {
        "iid_fedntd_stride": (
            {
                "rounds.csv": "9f840c561cd47a3fe07a7cede72874e35d1dfb67d58a7ede63d5152e9d3618b7",
                "summary.json": "ccac6702ca30df1a22095ccaab90ff369596c77decd3eba0f28d1ebecf704a48",
                "final_params": "acc39584749c1995c208e38617fb03b8de1f39bf5d5474039a373d7c3cf3f9b9",
            },
            {2: "96c00a97", 4: "e20e782d", 5: "b6f37286"},
            {
                2: "d4bf8a81f3d28f1526eb87c814",
                4: "4bc48a8181d2ac421cd2e1f92b",
                5: "efe0228181b448206ce5fe4551",
            },
        ),
        "sharding_kd_ntd_interp": (
            {
                "rounds.csv": "b368cd868976a811a9dddaea777618ce750d2898c6621a8670306c32a8532b24",
                "summary.json": "ff62813b024aa9a4781eb0511978ec1d8fe4c70449875981a39a08e15bf7164c",
                "final_params": "8e1ef275c443db509a91a634ce13fe0d590f5145766b19396334f983e7792089",
            },
            {1: "8c4bd1a8", 2: "e1ea6680", 3: "5be91d74", 4: "ee49dd42"},
            {
                1: "6be98a8ad0d28aa38a0792f3",
                2: "d492d08aa319613a00b5f71d",
                3: "4e18d04252f2c16579029aec",
                4: "4b0742cea3f24691e287e767",
            },
        ),
        "dirichlet_fedprox_mixed": (
            {
                "rounds.csv": "7ec92ee959d3cfe7aa8ab1d4d1a6d262db724e932701df6fa3ee442197ad15d1",
                "summary.json": "e851eb820a28d4cd57227132bbbae268fe186cecba19201e3bf009f09500f6a0",
                "final_params": "0eee9e1cfb5c72f65ada1eba662c2e64f3f103c2041e7dac840a7896246f1d76",
            },
            {1: "0370000b", 2: "6adb8bb0", 3: "4f41967c", 4: "87127427"},
            {
                1: "6ba3e98ae9e98fe76f86d9e089",
                2: "d448d2cfcfe954c28fe1aecf7b",
                3: "4e95d2cfcf7b7e160143d30270",
                4: "4b48cf8a7be92098a0ba913db5",
            },
        ),
        "dirichlet_fedntd_mse_stride": (
            {
                "rounds.csv": "ccac4e9219352ad867ad0d7992ba9098bd349ca34cbf549189925dd44cf29b08",
                "summary.json": "f91f5e31d51593db12aaf39d34b1a71e25b384c1658882e3a5f15120568b5ead",
                "final_params": "5c510f09f7784d358087a591893fe51a14d4431327a3c0dc641b4be081bf551e",
            },
            {3: "b7be0206", 5: "f62064dd"},
            {3: "4ea38ae98a7bef50de26a712b5", 5: "efa38ae98a7b51ff439594ffb9"},
        ),
        "sharding_fedntd_unit": (
            {
                "rounds.csv": "2198ad31c80d7e951c9f316a462620a766113ac38ba261e299cc36e36c6961b7",
                "summary.json": "19922ad725658cc9fb5ffdb39a5abb43f2596b7124408608690c0e4b39627187",
                "final_params": "d055928a14d2b4a562787a3fc6efeeddbabdb1e0722ee8e586d1b82f4a938f3a",
            },
            {1: "15191d6b", 2: "e78b4d9f", 3: "b2f8845a", 4: "0111f3ff"},
            {
                1: "6b828ad2ce8a0686cf5868d2ad",
                2: "d4408a8ad052b51d69aecd9c7f",
                3: "4e408a52d08a590e6af47ed013",
                4: "4b408a52d08ae998cf586ffa17",
            },
        ),
    },
    "Katmai": {
        "iid_fedntd_stride": (
            {
                "rounds.csv": "51bdd5a1b7e2258b8b3b2444fa283eb3b6d619f52c70e13f5b7dbb112cbf090e",
                "summary.json": "ccac6702ca30df1a22095ccaab90ff369596c77decd3eba0f28d1ebecf704a48",
                "final_params": "aa9ffd8c33f4779fefca2d96400240f046f3ecc8c8600fe172a6ff50bac76679",
            },
            {2: "96c00a97", 4: "373c3850", 5: "b6f37286"},
            {
                2: "d4bf8a81f3d28f1526eb87c814",
                4: "4bc48a8181d2ac421cd2cff92b",
                5: "efe0228181b448206ce5fe4551",
            },
        ),
        "sharding_kd_ntd_interp": (
            {
                "rounds.csv": "c1ec5767e1b91b4d7398ce9bb2d0f3f68d42ca182dbb9c6fae7e4e86a5da8a83",
                "summary.json": "ff62813b024aa9a4781eb0511978ec1d8fe4c70449875981a39a08e15bf7164c",
                "final_params": "b3820f79795f9ba84ceb4541ae2b26b96a38af0e77fea979dcb03d4047dc835c",
            },
            {1: "8c4bd1a8", 2: "e1ea6680", 3: "3efa2588", 4: "af477a20"},
            {
                1: "6be98a8ad0d28aa38a0792f3",
                2: "d492d08aa319613a00b5f71d",
                3: "4e18d04252f2c165792f9aec",
                4: "4b0742cea3f24691e287e73f",
            },
        ),
        "dirichlet_fedprox_mixed": (
            {
                "rounds.csv": "eb87a3ace9bf58478f280704555816ecf8aa25fa2b2094c35a2afe52f08878a3",
                "summary.json": "e851eb820a28d4cd57227132bbbae268fe186cecba19201e3bf009f09500f6a0",
                "final_params": "75449661e19c817ec39f2d61031184254e63c39d5884495f78dbbf5f146ba4f4",
            },
            {1: "0370000b", 2: "6adb8bb0", 3: "4f41967c", 4: "a7ade63e"},
            {
                1: "6ba3e98ae9e98fe76f86d9e089",
                2: "d448d2cfcfe954c28fe1aecf7b",
                3: "4e95d2cfcf7b7e160143d30270",
                4: "4b48cf8a7be92098a0ba913dad",
            },
        ),
        "dirichlet_fedntd_mse_stride": (
            {
                "rounds.csv": "ccac4e9219352ad867ad0d7992ba9098bd349ca34cbf549189925dd44cf29b08",
                "summary.json": "f91f5e31d51593db12aaf39d34b1a71e25b384c1658882e3a5f15120568b5ead",
                "final_params": "d9cc1a451abe79fb708d8199acb4e07d2ae9f9da46dac6f0b7e5b6c753bad3de",
            },
            {3: "b7be0206", 5: "f62064dd"},
            {3: "4ea38ae98a7bef50de26a712b5", 5: "efa38ae98a7b51ff439594ffb9"},
        ),
        "sharding_fedntd_unit": (
            {
                "rounds.csv": "2198ad31c80d7e951c9f316a462620a766113ac38ba261e299cc36e36c6961b7",
                "summary.json": "19922ad725658cc9fb5ffdb39a5abb43f2596b7124408608690c0e4b39627187",
                "final_params": "c8a0fe5d436bd94e96d5dc03d0520afb75277601bcda536a8af292da308dd5c7",
            },
            {1: "15191d6b", 2: "e78b4d9f", 3: "b2f8845a", 4: "0111f3ff"},
            {
                1: "6b828ad2ce8a0686cf5868d2ad",
                2: "d4408a8ad052b51d69aecd9c7f",
                3: "4e408a52d08a590e6af47ed013",
                4: "4b408a52d08ae998cf586ffa17",
            },
        ),
    },
}

def _config(name):
    return replace(parse_config_text(_COMMON + CASES[name], name), out_dir="golden")


def golden_difference(core, name, out_dir) -> str | None:
    """Runs case `name` into `out_dir`: None when its rounds.csv, summary.json
    and float64 final parameters hold `core`'s pins, else where they first
    differ (`runs.difference`)."""
    cfg = _config(name)
    fed, mlp, train, partition, test = load_run(cfg)
    result = run_federation(fed, mlp, train, partition, test)
    write_round_csv(result.logs, out_dir / "rounds.csv", mlp.num_classes)
    write_summary_json(result.logs, cfg, out_dir / "summary.json", "rounds.csv")
    (out_dir / "final_params").write_bytes(result.final_params.astype("<f8").tobytes())
    return difference(PINS[core][name], out_dir)


def _blas_build() -> str:
    """numpy's version, its BLAS build and the kernel that BLAS runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        build = f"numpy {np.__version__}, BLAS unknown"
    return f"{build}, OpenBLAS core {blas_core() or 'unknown'}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    core = blas_core()
    assert core in PINS, (f"{name}: no pins for OpenBLAS core {core} (ran on {_blas_build()}; "
                          f"pinned cores: {', '.join(PINS)})")
    assert (where := golden_difference(core, name, tmp_path)) is None, (
        f"{name}: {where} (ran on {_blas_build()}; "
        f"pinned on numpy 2.4, OpenBLAS 0.3.31, OpenBLAS core {core})"
    )


_KERNEL_CHILD = """\
import pathlib
from test_golden import CASES, blas_core, golden_difference
core = blas_core()
print(json.dumps([core, {name: golden_difference(core, name, pathlib.Path(sys.argv[1], name))
                         for name in CASES}]))
"""


def test_the_pins_of_every_kernel_after_this_one_hold_in_a_child(tmp_path):
    """PINS lists kernels newest instruction set first, so a machine that runs
    one kernel can also run each listed after it; each of those runs every
    case in a child process with `OPENBLAS_CORETYPE` set."""
    cores = list(PINS)
    for core in cores[cores.index(blas_core()) + 1:] if blas_core() in cores else []:
        for name in CASES:
            (tmp_path / core / name).mkdir(parents=True)
        child = run_child(_KERNEL_CHILD, str(tmp_path / core), env={"OPENBLAS_CORETYPE": core})
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [core, dict.fromkeys(CASES)], core


def test_a_failure_names_the_first_round_and_column_that_differ():
    pins = PINS["SkylakeX"]["iid_fedntd_stride"]
    digests, rows, cells = pins
    header = ["round", "global_acc", "acc_class_0"]
    changed = {**cells, 4: cells[4][:2] + "xx" + cells[4][4:]}
    assert first_difference(pins, (digests, {**rows, 4: "0", 5: "0"}, changed), header) == (
        "rounds.csv first differs at round 4, column global_acc")
    assert first_difference(pins, (digests, {2: rows[2]}, {2: cells[2]}), header) == (
        "rounds.csv first differs at round 4")
    assert first_difference(pins, (digests, {**rows, 4: "0"}, cells), header) == (
        "rounds.csv first differs at round 4")
    assert first_difference(pins, (
        {**digests, "final_params": "0"}, rows, cells), header) == (
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
