"""Tests for the command-line interface: subcommands, exit codes, determinism."""

import errno
import hashlib
import json
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from fednsim import cli, federation
from fednsim.cli import main
from fednsim.config import IDX_KEYS, parse_config
from fednsim.model import MAX_FLOATS, load_params

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

    def test_seed_override_changes_results(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("run", tiny_config, "--out", out_a) == 0
        assert run_cli("run", tiny_config, "--out", out_b, "--seed", 6) == 0
        assert (out_a / "rounds.csv").read_bytes() != (out_b / "rounds.csv").read_bytes()

    def test_nonpositive_threads_flag_exit_1(self, tiny_config, tmp_path, capsys):
        assert run_cli("run", tiny_config, "--out", tmp_path / "o", "--threads", -5) == 1
        assert capsys.readouterr().err == "error: --threads must be >= 1, got -5\n"
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

    def test_config_line_without_equals_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = 2\n  rounds 3  # a comment = no key\n")
        assert run_cli("run", path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: expected 'key = value', got 'rounds 3  # a comment = no key'\n")

    def test_missing_config_exit_1(self, tmp_path):
        assert run_cli("run", tmp_path / "missing.cfg") == 1

    def test_dead_helper_process_exit_1(self, tiny_config, tmp_path, monkeypatch, capsys):
        # a helper process that dies mid-round is an error naming the round, not
        # an internal error, and leaves no process behind
        monkeypatch.setattr(federation, "_workers", lambda sessions: min(sessions, 2))
        real, parent = federation.local_train, os.getpid()
        helper_started = multiprocessing.get_context("fork").Event()  # shared by the fork

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                helper_started.set()
                os._exit(1)
            # this process holds its session until the helper has taken one, so
            # that it cannot take every session of round 1 and leave none to die in
            helper_started.wait(60)
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

    @pytest.mark.parametrize("command,data", [("run", "synth"), ("partition", "synth"),
                                              ("run", "idx"), ("partition", "idx")],
                             ids=["run", "partition", "run-idx", "partition-idx"])
    def test_data_too_large_for_memory_exit_1(self, command, data, tiny_config, tmp_path,
                                             monkeypatch, capsys):
        # what numpy raises for synth_dim = 100000000000, without allocating it
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB for an array")

        def bare(*args, **kwargs):  # a MemoryError may carry no text
            raise MemoryError()

        if data == "idx":
            tiny_config.write_text(TINY_CONFIG.replace("data = synth", "data = idx") + "".join(
                f"{key} = {tmp_path / key}\n" for key in IDX_KEYS))
            monkeypatch.setattr(cli, "read_idx", bare)
        else:
            monkeypatch.setattr(cli, "synth_dataset", too_large)
        argv = ["run", tiny_config, "--out", tmp_path / "o"] if command == "run" else [
            "partition", tiny_config, "--stats"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err == {
            "synth": ("error: out of memory (Unable to allocate 2.18 TiB for an array); the "
                      "array sizes are set by synth_classes, synth_per_class, "
                      "synth_test_per_class, synth_dim, hidden_dims, clients, sampling_ratio\n"),
            "idx": ("error: out of memory; the array sizes are set by idx_train_images, "
                    "idx_train_labels, idx_test_images, idx_test_labels, hidden_dims, clients, "
                    "sampling_ratio\n"),
        }[data]

    @pytest.mark.parametrize("failing", ["load_run", "parse_config", "read_round_csv"])
    def test_out_of_memory_names_the_keys_of_the_parsed_config(self, failing, tiny_config,
                                                              monkeypatch, capsys):
        parsed = []

        def parse_once(path):
            parsed.append(path)
            return parse_config(path)

        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "parse_config", parse_once)
        monkeypatch.setattr(cli, failing, no_memory)
        argv = ["metrics", tiny_config] if failing == "read_round_csv" else [
            "partition", tiny_config]
        assert run_cli(*argv) == 1
        # only a config that was parsed names keys; metrics takes none
        keys = ("; the array sizes are set by synth_classes, synth_per_class, "
                "synth_test_per_class, synth_dim, hidden_dims, clients, sampling_ratio")
        assert capsys.readouterr().err == (
            f"error: out of memory{keys if failing == 'load_run' else ''}\n")
        assert len(parsed) == (1 if failing == "load_run" else 0)

    @pytest.mark.parametrize("key,value", [("synth_dim", "4611686018427387904"),
                                           ("synth_dim", "1000000000000000000000"),
                                           ("hidden_dims", "4611686018427387904")])
    def test_more_than_an_array_can_hold_exit_1(self, key, value, tmp_path, capsys):
        # rejected from the counts alone, before numpy is asked for the array
        lines = TINY_CONFIG.splitlines()
        lineno = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
        lines[lineno - 1] = f"{key} = {value}"
        path = tmp_path / "huge.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("run", path, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: {key}: ")
        assert f" {MAX_FLOATS} " in err and err.count("\n") == 1

    def test_shared_block_too_large_for_memory_exit_1(self, tiny_config, tmp_path, monkeypatch,
                                                      capsys):
        def no_memory(*args):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(federation.mmap, "mmap", no_memory)
        assert run_cli("run", tiny_config, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory ([Errno {errno.ENOMEM}] ")
        assert err.endswith("hidden_dims, clients, sampling_ratio\n")

    def test_other_os_error_stays_internal(self, tiny_config, tmp_path, monkeypatch, capsys):
        def denied(*args):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))

        monkeypatch.setattr(federation.mmap, "mmap", denied)
        assert run_cli("run", tiny_config, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("internal error:")


# IDX data that a run cannot use: (train images shape, train classes, test
# images shape, test classes, the file the error names).  Labels cycle
# through the classes.
UNUSABLE_IDX = {
    "narrower_test_images": ((30, 2, 2), 3, (12, 2, 1), 3, "test-images"),
    "zero_pixel_training_images": ((30, 0, 2), 3, (12, 2, 2), 3, "train-images"),
    "test_set_missing_a_class": ((30, 2, 2), 3, (12, 2, 2), 2, "test-labels"),
    "one_class": ((30, 2, 2), 1, (12, 2, 2), 1, "train-labels"),
    "zero_pixel_images": ((30, 0, 2), 3, (12, 0, 2), 3, "train-images"),
    "no_training_images": ((0, 2, 2), 3, (12, 2, 2), 3, "train-images"),
}


class TestIdxDataSource:
    def test_run_from_idx_files(self, tmp_path):
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
    @pytest.mark.parametrize("case", sorted(UNUSABLE_IDX))
    def test_unpaired_test_set_exit_1(self, case, command, tmp_path, capsys):
        from test_data import write_idx_images, write_idx_labels

        train_shape, train_classes, test_shape, test_classes, named = UNUSABLE_IDX[case]
        rng = np.random.default_rng(0)
        for k, shape, classes in (("train", train_shape, train_classes),
                                  ("test", test_shape, test_classes)):
            write_idx_images(tmp_path / f"{k}-images", rng.integers(0, 256, shape, np.uint8))
            write_idx_labels(tmp_path / f"{k}-labels", np.arange(shape[0]) % classes)
        config = tmp_path / "idx.cfg"
        config.write_text("data = idx\n" + "".join(
            f"idx_{k}_{part} = {tmp_path / f'{k}-{part}'}\n"
            for k in ("train", "test") for part in ("images", "labels")
        ) + "partition = iid\nclients = 2\nrounds = 1\n")
        assert run_cli(command, config) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path / named) in err, err
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

    def test_stats_and_export_bytes_pinned(self, tmp_path, capsys):
        # two empty clients among them: their stats line and their zero vectors
        config = tmp_path / "dirichlet.cfg"
        config.write_text("synth_classes = 3\nsynth_per_class = 10\nsynth_test_per_class = 5\n"
                          "synth_dim = 4\npartition = dirichlet\ndirichlet_alpha = 0.05\n"
                          "clients = 6\nseed = 2\n")
        target = tmp_path / "partition.json"
        assert run_cli("partition", config, "--stats", "--out", target) == 0
        assert capsys.readouterr().out == (
            "strategy=dirichlet clients=6 dataset_size=30\n"
            "client 0: size=2 p=[0.000 0.000 1.000] p_tilde=[0.500 0.500 0.000]\n"
            "client 1: size=6 p=[0.667 0.000 0.333] p_tilde=[0.167 0.500 0.333]\n"
            "client 2: size=16 p=[0.000 0.625 0.375] p_tilde=[0.500 0.188 0.312]\n"
            "client 3: size=6 p=[1.000 0.000 0.000] p_tilde=[0.000 0.500 0.500]\n"
            "client 4: size=0\n"
            "client 5: size=0\n"
            "summary: sizes min/median/max = 0/4/16, median classes per client = 1, "
            "mean L1 distance from uniform = 1.0000\n")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "ff09a2093012e1ebb705d9d11949efd4a62ee13e597817f4339accaf06b2f22c")

    def test_json_to_stdout_is_the_json_alone(self, tiny_config, capfd):
        # the confirmation goes to stderr, so that stdout parses
        assert run_cli("partition", tiny_config, "--out", "/dev/stdout") == 0
        out, err = capfd.readouterr()
        assert len(json.loads(out)) == 4
        assert err == "wrote partition to /dev/stdout\n"


class TestVerifyCommand:
    def test_passes_and_prints_lines(self, capsys):
        assert run_cli("verify", "--trials", 10) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert all(l.startswith("PASS") for l in lines)
        assert any("kl_split_identity" in l for l in lines)

    def test_zero_trials_exit_1(self, capsys):
        assert run_cli("verify", "--trials", 0) == 1
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"


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

    def test_single_round_csv_has_no_forgetting(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", tiny_config, "--out", out) == 0
        path = out / "rounds.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        capsys.readouterr()
        assert run_cli("metrics", path) == 0
        assert capsys.readouterr().out == ("rounds logged: 1 (final round 1)\n"
                                           "forgetting_F undefined for a single logged round\n")

    # edit -> the error it ends in
    MALFORMED = {
        "header": "unexpected CSV header",
        "cell": "holds a non-number",
        "no_class_columns": "unexpected CSV header",
        "round_repeated": "has round 1; rounds must be >= 1 and strictly increasing",
        "cell_missing": "row has 11 cells, expected 12",
    }

    @pytest.mark.parametrize("edit", MALFORMED)
    def test_malformed_csv_exit_1(self, tiny_config, tmp_path, capsys, edit):
        out = tmp_path / "out"
        assert run_cli("run", tiny_config, "--out", out) == 0
        path = out / "rounds.csv"
        lines = path.read_text().splitlines()
        if edit == "header":
            lines[0] = lines[0].replace("global_acc", "global")
        elif edit == "cell":
            lines[1] = lines[1].replace(",", ",x", 1)
        elif edit == "no_class_columns":  # a header and rows without the class columns
            keep = [i for i, name in enumerate(lines[0].split(",")) if "acc_class_" not in name]
            lines = [",".join(line.split(",")[i] for i in keep) for line in lines]
        elif edit == "cell_missing":
            lines[2] = lines[2].rsplit(",", 1)[0]
        else:
            lines[2] = "1," + lines[2].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("metrics", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and self.MALFORMED[edit] in err, err
        assert err.count("\n") == 1, err


class TestFileBoundaries:
    # case -> (what `bad` is: a directory, a file of text or bytes, or nothing; argv, with
    # {bad}, {cfg} and {idx}, a config of IDX files at `bad`, filled in; the whole error
    # line, or None for any naming `bad`)
    CASES = {
        "metrics_not_utf8": (b"rounds = 3\n\xff\xfe\n", ["metrics", "{bad}"], None),
        "metrics_directory": ("dir", ["metrics", "{bad}"], None),
        "config_not_utf8": (b"rounds = 3\n\xff\xfe\n", ["run", "{bad}"], None),
        "idx_directory": ("dir", ["run", "{idx}"], None),
        "out_is_file": ("a file\n", ["run", "{cfg}", "--out", "{bad}"],
                        "error: cannot create output directory {bad}: File exists"),
        "out_under_file": ("a file\n", ["run", "{cfg}", "--out", "{bad}/sub"],
                           "error: cannot create output directory {bad}/sub: Not a directory"),
        "out_dev_full": (None, ["run", "{cfg}", "--out", "/dev/full"],
                         "error: cannot create output directory /dev/full: File exists"),
        "partition_out_directory": ("dir", ["partition", "{cfg}", "--out", "{bad}"],
                                    "error: cannot write {bad}: Is a directory"),
        "partition_out_under_file": ("a file\n", ["partition", "{cfg}", "--out", "{bad}/p.json"],
                                     "error: cannot write {bad}/p.json: Not a directory"),
        "partition_out_missing_parent": (
            None, ["partition", "{cfg}", "--out", "{bad}/p.json"],
            "error: cannot write {bad}/p.json: No such file or directory"),
        "partition_out_dev_full": (None, ["partition", "{cfg}", "--out", "/dev/full"],
                                   "error: cannot write /dev/full: No space left on device"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_unreadable_or_uncreatable_path_exit_1(self, case, tiny_config, tmp_path, capsys):
        kind, argv, line = self.CASES[case]
        bad = tmp_path / "bad"
        if kind == "dir":
            bad.mkdir()
        elif isinstance(kind, bytes):
            bad.write_bytes(kind)
        elif kind is not None:
            bad.write_text(kind)
        idx = tmp_path / "idx.cfg"
        idx.write_text("data = idx\n" + "".join(
            f"idx_{k} = {bad}\n" for k in ("train_images", "train_labels", "test_images",
                                            "test_labels")))
        assert run_cli(*(arg.format(bad=bad, cfg=tiny_config, idx=idx) for arg in argv)) == 1
        err = capsys.readouterr().err
        if line is None:
            assert err.startswith("error:") and str(bad) in err, err
        else:
            assert err == line.format(bad=bad) + "\n"

    @pytest.mark.parametrize("name", ["checkpoint_round_00001.fntd", "rounds.csv", "summary.json"])
    def test_unwritable_output_exit_1(self, name, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_CONFIG + "checkpoint_stride = 1\n")
        bad = tmp_path / "out" / name
        bad.mkdir(parents=True)  # a directory where the run writes a file
        assert run_cli("run", config, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad}:"), err


class TestUsage:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments_exit_1(self):
        assert main([]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()
