"""Tests for the command-line interface: subcommands, exit codes, determinism."""

import json
import multiprocessing
import os
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from fednsim import federation
from fednsim.cli import main
from fednsim.config import ExperimentConfig
from fednsim.model import load_params

TINY_CONFIG = """\
data = synth
synth_classes = 3
synth_per_class = 20
synth_test_per_class = 15
synth_dim = 6
synth_separation = 3.0
partition = sharding
clients = 4
shards_per_client = 1
hidden_dims = 8
method = fedntd
rounds = 3
local_epochs = 1
batch_size = 10
sampling_ratio = 1.0
lr0 = 0.05
seed = 5
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestRunCommand:
    def test_run_writes_outputs(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", tiny_config, "--out", out) == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["logged_rounds"] == 3

    def test_repeat_runs_byte_identical(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", tiny_config, "--out", out_a) == 0
        assert run_cli("run", tiny_config, "--out", out_b) == 0
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
        # summaries differ only in the echoed out_dir; compare with it patched out
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa["config"]["out_dir"] = sb["config"]["out_dir"] = ""
        sa["config_hash"] = sb["config_hash"] = ""
        assert sa == sb

    def test_thread_counts_byte_identical(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "t1", tmp_path / "t2"
        assert run_cli("run", tiny_config, "--out", out_a, "--threads", 1) == 0
        assert run_cli("run", tiny_config, "--out", out_b, "--threads", 4) == 0
        assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()

    def test_seed_override_changes_results(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("run", tiny_config, "--out", out_a) == 0
        assert run_cli("run", tiny_config, "--out", out_b, "--seed", 6) == 0
        assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()

    def test_nonpositive_threads_flag_exit_1(self, tiny_config, tmp_path, capsys):
        assert run_cli("run", tiny_config, "--out", tmp_path / "o", "--threads", -5) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--threads" in err
        assert not (tmp_path / "o").exists()

    def test_indivisible_sharding_exit_1(self, tmp_path, capsys):
        # the default 1000 samples do not split into 3 * 2 equal shards
        path = tmp_path / "shard.cfg"
        path.write_text("partition = sharding\nclients = 3\nshards_per_client = 2\n")
        assert run_cli("run", path, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "clients" in err and "shards_per_client" in err
        assert run_cli("partition", path, "--stats") == 1

    def test_checkpoints_written(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + "checkpoint_stride = 2\n")
        out = tmp_path / "ck"
        assert run_cli("run", path, "--out", out) == 0
        assert (out / "checkpoint_round_00002.fntd").exists()
        assert not (out / "checkpoint_round_00003.fntd").exists()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("beta = -1\n")
        assert run_cli("run", path) == 1
        assert "beta" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert run_cli("run", tmp_path / "missing.cfg") == 1

    def test_dead_helper_process_exit_1(self, tiny_config, tmp_path, monkeypatch, capsys):
        # a helper process that dies mid-round is an error naming the round, not
        # an internal error, and leaves no process behind
        monkeypatch.setattr(federation, "_workers", lambda sessions: min(sessions, 2))
        real, parent = federation.local_train, os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(federation, "local_train", dying)
        assert run_cli("run", tiny_config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training process \d+ exited with code 1 in round 1\n", err)
        assert multiprocessing.active_children() == []

    def test_divergence_exit_2(self, tmp_path, capsys):
        import numpy as np

        path = tmp_path / "explode.cfg"
        path.write_text(TINY_CONFIG.replace("lr0 = 0.05", "lr0 = 1e150"))
        with np.errstate(all="ignore"):
            assert run_cli("run", path, "--out", tmp_path / "x") == 2

    def test_divergence_prints_no_numpy_warnings(self, tmp_path, capsys):
        path = tmp_path / "explode.cfg"
        path.write_text(TINY_CONFIG.replace("lr0 = 0.05", "lr0 = 1e150"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("run", path, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite .* client \d+\n", err)

    def test_blown_up_finite_model_warns(self, tmp_path, capsys):
        # one round at lr0 = 1e150 ends with huge but finite parameters: the run
        # finishes (exit 0) and warns on stderr with the largest magnitude
        path = tmp_path / "huge.cfg"
        path.write_text(TINY_CONFIG.replace("lr0 = 0.05", "lr0 = 1e150")
                        .replace("rounds = 3", "rounds = 1") + "checkpoint_stride = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("run", path, "--out", tmp_path / "h") == 0
        out, err = capsys.readouterr()
        assert out.startswith("finished 1 rounds")
        largest = np.abs(load_params(tmp_path / "h" / "checkpoint_round_00001.fntd")).max()
        assert largest > np.sqrt(np.finfo(np.float64).max)
        assert err == (f"warning: largest final parameter magnitude {largest:.3g} exceeds "
                       "1.34e+154, past which a product of two parameters overflows\n")

    def test_ordinary_run_prints_no_warning(self, tiny_config, tmp_path, capsys):
        assert run_cli("run", tiny_config, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().err == ""


# Every config key fed each boundary value through `fednsim run`.  A value is
# rejected (exit 1, naming the key and its line) unless listed here; a listed
# value runs, and lr0 or weight_decay = inf diverges (exit 2).
BOUNDARY_VALUES = ("0", "-1", "nan", "inf")
BOUNDARY_ACCEPTED = {
    "synth_separation": {"0"},
    "lr0": {"0", "inf"},
    "momentum": {"0"},
    "weight_decay": {"0", "inf"},
    "beta": {"0"},
    "mu": {"0"},
    "interp_lambda": {"0"},
    "seed": {"0", "-1"},
    "checkpoint_stride": {"0"},
    # paths have no range; with data = synth the idx paths go unread
    **{key: set(BOUNDARY_VALUES) for key in (
        "idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels", "out_dir",
    )},
}
BOUNDARY_BASE = {
    "synth_classes": "3", "synth_per_class": "4", "synth_test_per_class": "2", "synth_dim": "3",
    "clients": "2", "hidden_dims": "4", "rounds": "2", "local_epochs": "1", "batch_size": "4",
    "sampling_ratio": "1.0",
}


class TestConfigBoundaries:
    @pytest.mark.parametrize(
        "key,value", [(f.name, v) for f in fields(ExperimentConfig) for v in BOUNDARY_VALUES]
    )
    def test_boundary_value(self, key, value, tmp_path, monkeypatch, capsys):
        lines = ["# boundary case", f"{key} = {value}"]
        lines += [f"{k} = {v}" for k, v in BOUNDARY_BASE.items() if k != key]
        path = tmp_path / "edge.cfg"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", path)
        err = capsys.readouterr().err
        assert "internal error" not in err
        if value not in BOUNDARY_ACCEPTED.get(key, ()):
            assert code == 1
            assert err.startswith(f"error: {path}:2: {key}: ")
        elif (key, value) in {("lr0", "inf"), ("weight_decay", "inf")}:
            assert code == 2 and err.startswith("error: non-finite")
        else:
            assert code == 0 and err == ""


class TestIdxDataSource:
    def test_run_from_idx_files(self, tmp_path):
        import numpy as np

        from test_data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        # 2x2 images whose mean brightness encodes the class
        train_imgs = np.where(rng.uniform(size=(40, 2, 2)) < 0.5, 40, 210).astype(np.uint8)
        train_labels = (train_imgs.mean(axis=(1, 2)) > 125).astype(np.uint8)
        test_imgs = np.where(rng.uniform(size=(16, 2, 2)) < 0.5, 40, 210).astype(np.uint8)
        test_labels = (test_imgs.mean(axis=(1, 2)) > 125).astype(np.uint8)
        write_idx_images(tmp_path / "train-images", train_imgs)
        write_idx_labels(tmp_path / "train-labels", train_labels)
        write_idx_images(tmp_path / "test-images", test_imgs)
        write_idx_labels(tmp_path / "test-labels", test_labels)

        config = tmp_path / "idx.cfg"
        config.write_text(
            "data = idx\n"
            f"idx_train_images = {tmp_path / 'train-images'}\n"
            f"idx_train_labels = {tmp_path / 'train-labels'}\n"
            f"idx_test_images = {tmp_path / 'test-images'}\n"
            f"idx_test_labels = {tmp_path / 'test-labels'}\n"
            "partition = iid\nclients = 2\nhidden_dims = 4\n"
            "rounds = 2\nlocal_epochs = 1\nbatch_size = 10\n"
            "sampling_ratio = 1.0\nlr0 = 0.1\nseed = 3\n"
        )
        out = tmp_path / "out"
        assert run_cli("run", config, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["logged_rounds"] == 2

    def test_bad_idx_file_exit_1(self, tmp_path):
        config = tmp_path / "idx.cfg"
        (tmp_path / "garbage").write_bytes(b"\x00" * 8)
        config.write_text(
            "data = idx\n"
            + "".join(
                f"idx_{k} = {tmp_path / 'garbage'}\n"
                for k in ("train_images", "train_labels", "test_images", "test_labels")
            )
        )
        assert run_cli("run", config) == 1

    @pytest.mark.parametrize("command", ["run", "partition"])
    @pytest.mark.parametrize("case", ["narrower_test_images", "test_set_missing_a_class"])
    def test_unpaired_test_set_exit_1(self, case, command, tmp_path, capsys):
        import numpy as np

        from test_data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        train_labels = np.arange(30, dtype=np.uint8) % 3
        test_labels = np.arange(12, dtype=np.uint8) % (3 if case == "narrower_test_images" else 2)
        test_shape = (12, 2, 1) if case == "narrower_test_images" else (12, 2, 2)
        write_idx_images(tmp_path / "train-images", rng.integers(0, 256, (30, 2, 2), np.uint8))
        write_idx_labels(tmp_path / "train-labels", train_labels)
        write_idx_images(tmp_path / "test-images", rng.integers(0, 256, test_shape, np.uint8))
        write_idx_labels(tmp_path / "test-labels", test_labels)
        config = tmp_path / "idx.cfg"
        config.write_text("data = idx\n" + "".join(
            f"idx_{k}_{part} = {tmp_path / f'{k}-{part}'}\n"
            for k in ("train", "test") for part in ("images", "labels")
        ) + "partition = iid\nclients = 2\nrounds = 1\n")
        assert run_cli(command, config) == 1
        err = capsys.readouterr().err
        bad = tmp_path / ("test-images" if case == "narrower_test_images" else "test-labels")
        assert err.startswith("error:") and str(bad) in err, err
        assert "internal error" not in err


class TestPartitionCommand:
    def test_stats_output(self, tiny_config, capsys):
        assert run_cli("partition", tiny_config, "--stats") == 0
        out = capsys.readouterr().out
        assert "client 0:" in out
        assert "summary:" in out

    def test_json_export(self, tiny_config, tmp_path):
        target = tmp_path / "partition.json"
        assert run_cli("partition", tiny_config, "--out", target) == 0
        obj = json.loads(target.read_text())
        assert len(obj) == 4
        assert all("p_tilde" in entry for entry in obj.values())


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, capsys):
        assert run_cli("verify", "--trials", 10) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines)
        assert any("kl_split_identity" in l for l in lines)

    def test_zero_trials_exit_1(self, capsys):
        assert run_cli("verify", "--trials", 0) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--trials" in err


class TestMetricsCommand:
    def test_recomputes_from_csv(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", tiny_config, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("metrics", out / "rounds.csv") == 0
        text = capsys.readouterr().out
        assert "forgetting_F" in text
        assert "cosine_to_previous" in text

    def test_missing_csv_exit_1(self, tmp_path):
        assert run_cli("metrics", tmp_path / "nope.csv") == 1

    def test_header_only_csv_exit_1(self, tmp_path, capsys):
        from fednsim.runio import write_round_csv

        path = tmp_path / "rounds.csv"
        write_round_csv([], path, num_classes=3)
        assert run_cli("metrics", path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rounds.csv" in err and "no rounds" in err

    @pytest.mark.parametrize("edit", ["header", "cell"])
    def test_malformed_csv_exit_1(self, tiny_config, tmp_path, capsys, edit):
        out = tmp_path / "out"
        assert run_cli("run", tiny_config, "--out", out) == 0
        path = out / "rounds.csv"
        lines = path.read_text().splitlines()
        if edit == "header":
            lines[0] = lines[0].replace("global_acc", "global")
        else:
            lines[1] = lines[1].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("metrics", path) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestFileBoundaries:
    @pytest.mark.parametrize("case", [
        "metrics_not_utf8", "metrics_directory", "config_not_utf8",
        "idx_directory", "out_is_file", "out_under_file",
        "partition_out_directory", "partition_out_under_file",
    ])
    def test_unreadable_or_uncreatable_path_exit_1(self, case, tiny_config, tmp_path, capsys):
        bad = tmp_path / "bad"
        if case in ("metrics_directory", "idx_directory", "partition_out_directory"):
            bad.mkdir()
        elif case in ("metrics_not_utf8", "config_not_utf8"):
            bad.write_bytes(b"rounds = 3\n\xff\xfe\n")
        else:
            bad.write_text("a file\n")
        if case.startswith("metrics"):
            argv = ("metrics", bad)
        elif case == "config_not_utf8":
            argv = ("run", bad)
        elif case == "idx_directory":
            config = tmp_path / "idx.cfg"
            config.write_text("data = idx\n" + "".join(
                f"idx_{k} = {bad}\n"
                for k in ("train_images", "train_labels", "test_images", "test_labels")
            ))
            argv = ("run", config)
        elif case.startswith("partition"):
            argv = ("partition", tiny_config, "--out",
                    bad if case == "partition_out_directory" else bad / "p.json")
        else:
            argv = ("run", tiny_config, "--out", bad if case == "out_is_file" else bad / "sub")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err, err


class TestUsage:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments_exit_1(self):
        assert main([]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()
