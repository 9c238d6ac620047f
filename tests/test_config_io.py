"""Tests for config parsing/serialization/hashing and metric persistence."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednsim.config import (
    ConfigError,
    ExperimentConfig,
    config_dict,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)
from fednsim.data import PartitionSpec
from fednsim.federation import FederationConfig
from fednsim.losses import LossConfig
from fednsim.metrics import RoundLog, forgetting_measure
from fednsim.runio import read_round_csv, write_round_csv, write_summary_json


class TestParseConfig:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()
        assert cfg.method == "fedavg"
        assert cfg.local_epochs == 5
        assert cfg.batch_size == 50
        assert cfg.momentum == 0.9
        assert cfg.lr_decay == 0.99
        assert cfg.weight_decay == 1e-5
        assert cfg.beta == 1.0
        assert cfg.tau == 1.0
        assert cfg.mu == 0.1

    def test_component_defaults_match_the_experiment_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.federation_config() == FederationConfig()
        assert cfg.partition_spec() == PartitionSpec()
        assert cfg.loss_config() == LossConfig()

    def test_readme_defaults_table_matches_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Key | Default | Meaning |\n| --- | --- | --- |\n", 1)[1]
        defaults = config_dict(ExperimentConfig())
        order = list(defaults)
        documented = {}
        for row in table.split("\n\n", 1)[0].splitlines():
            key_cell, default_cell = row.split(" | ")[:2]
            keys = re.findall(r"`(\w+)`", key_cell)
            if "…" in key_cell:  # a range of keys sharing one row
                keys = order[order.index(keys[0]):order.index(keys[-1]) + 1]
            for key in keys:
                documented[key] = default_cell.strip("`")
        want = {
            key: ",".join(map(str, value)) if isinstance(value, list) else str(value) or "empty"
            for key, value in defaults.items()
        }
        assert list(documented) == order
        assert documented == want

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# experiment\n\nrounds = 7  # short\n")
        assert cfg.rounds == 7

    def test_range_error_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"beta"):
            parse_config_text("beta = -1")
        with pytest.raises(ConfigError, match=r":3:"):
            parse_config_text("rounds = 5\ntau = 1.0\nbeta = -1\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match=r":2: unknown key 'bata'"):
            parse_config_text("rounds = 5\nbata = 1\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config_text("rounds = five")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("rounds = 5\nrounds = 6\n")

    def test_idx_paths_required_for_idx_data(self):
        with pytest.raises(ConfigError, match="idx_train_images"):
            parse_config_text("data = idx")

    def test_component_ranges_name_key_and_line(self):
        cases = {
            "partition = iid\ndirichlet_alpha = 0\n": ":2: dirichlet_alpha:",
            "rounds = 3\ntau = inf\n": ":2: tau:",
            "hidden_dims = 4,0\n": ":1: hidden_dims:",
            "synth_classes = 1\n": ":1: synth_classes:",
            "# two bad keys: the first in line order is named\nmu = inf\nrounds = 0\n": ":2: mu:",
        }
        for text, where in cases.items():
            with pytest.raises(ConfigError, match=where):
                parse_config_text(text)

    def test_hidden_dims_list(self):
        assert parse_config_text("hidden_dims = 32,16,8").hidden_dims == (32, 16, 8)
        assert parse_config_text("hidden_dims = ").hidden_dims == ()


class TestSerializeRoundTrip:
    def test_benchmark_block_round_trips(self):
        text = (
            "clients = 100\n"
            "sampling_ratio = 0.1\n"
            "local_epochs = 3\n"
            "batch_size = 50\n"
            "partition = sharding\n"
            "shards_per_client = 2\n"
        )
        cfg = parse_config_text(text)
        again = parse_config_text(serialize_config(cfg))
        assert cfg == again

    def test_serialize_parse_is_identity_for_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_float_values_round_trip_exactly(self):
        cfg = ExperimentConfig(lr0=0.1 / 3, tau=1.7e-3)
        again = parse_config_text(serialize_config(cfg))
        assert again.lr0 == cfg.lr0
        assert again.tau == cfg.tau


_PATHS = st.text(alphabet="abcXYZ019_-./", min_size=1, max_size=12)
_NAMES = st.text(alphabet="abcXYZ019_-./", max_size=12)


def _floats(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


VALID_VALUES = dict(
    data=st.sampled_from(("synth", "idx")),
    # classes x per class x dim (at most 10**17) stays within the features one array holds
    synth_classes=st.integers(2, 10**4),
    synth_per_class=st.integers(1, 10**4),
    synth_test_per_class=st.integers(1, 10**4),
    synth_dim=st.integers(1, 10**9),
    synth_separation=_floats(0.0),
    idx_train_images=_PATHS,
    idx_train_labels=_PATHS,
    idx_test_images=_PATHS,
    idx_test_labels=_PATHS,
    partition=st.sampled_from(("iid", "sharding", "dirichlet")),
    clients=st.integers(1, 10**9),
    shards_per_client=st.integers(1, 10**9),
    dirichlet_alpha=_floats(0.0, exclude_min=True),
    hidden_dims=st.lists(st.integers(1, 10**6), max_size=4).map(tuple),
    method=st.sampled_from(("fedavg", "fedprox", "fedntd", "fedntd_mse", "kd", "kd_ntd_interp")),
    rounds=st.integers(1, 10**9),
    local_epochs=st.integers(1, 10**9),
    batch_size=st.integers(1, 10**9),
    sampling_ratio=_floats(0.0, 1.0, exclude_min=True),
    lr0=_floats(0.0),
    momentum=_floats(0.0, 1.0, exclude_max=True),
    weight_decay=_floats(0.0),
    lr_decay=_floats(0.0, 1.0, exclude_min=True),
    beta=_floats(0.0),
    tau=_floats(0.0, exclude_min=True),
    mu=_floats(0.0),
    interp_lambda=_floats(0.0, 1.0),
    aggregation=st.sampled_from(("size_weighted", "uniform")),
    seed=st.integers(-(2**70), 2**70),
    eval_stride=st.integers(1, 10**9),
    checkpoint_stride=st.integers(0, 10**9),
    out_dir=_NAMES,
)


@settings(max_examples=200, deadline=None)
@given(st.builds(ExperimentConfig, **VALID_VALUES))
def test_random_valid_config_round_trips(cfg):
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_valid_values_cover_every_key():
    assert set(VALID_VALUES) == {f.name for f in fields(ExperimentConfig)}


class TestConfigHash:
    def test_insensitive_to_whitespace_and_comments(self):
        a = parse_config_text("rounds = 5\nbeta = 2.0\n")
        b = parse_config_text("# hi\n\n  rounds   =  5\nbeta=2.0   # inline\n")
        assert config_hash(a) == config_hash(b)

    def test_changes_with_any_semantic_field(self):
        base = ExperimentConfig()
        seen = {config_hash(base)}
        for variant in (
            ExperimentConfig(rounds=51),
            ExperimentConfig(beta=1.5),
            ExperimentConfig(method="fedntd"),
            ExperimentConfig(hidden_dims=(64,)),
            ExperimentConfig(seed=1),
        ):
            h = config_hash(variant)
            assert h not in seen
            seen.add(h)


def make_log(t, class_acc, **over):
    values = dict(
        t=t,
        global_acc=0.5,
        class_acc=np.asarray(class_acc, dtype=np.float64),
        local_in_acc_mean=0.8,
        local_in_acc_std=0.05,
        local_out_acc_mean=0.3,
        local_out_acc_std=0.1,
        weight_div_mean=2.5,
        dist_dist_mean=0.7,
        train_loss=1.2,
    )
    values.update(over)
    return RoundLog(**values)


class TestRoundCsv:
    def test_empty_logs_header_only(self, tmp_path):
        path = tmp_path / "rounds.csv"
        write_round_csv([], path, num_classes=3)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("round,global_acc,acc_class_0")

    def test_two_class_schema(self, tmp_path):
        path = tmp_path / "rounds.csv"
        write_round_csv([make_log(1, [0.5, 0.6])], path, num_classes=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 11
        assert len(lines[1].split(",")) == 11

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        scalars = [f.name for f in fields(RoundLog) if f.name not in ("t", "class_acc")]
        logs = [
            make_log(t, rng.uniform(size=4), **{k: float(rng.uniform() * 10.0**t) for k in scalars})
            for t in range(1, 6)
        ]
        # a round whose incoming model got every test sample wrong logs a NaN
        # distance; signed zeros and infinities must come back as they went
        logs.append(make_log(
            6, [0.0, -0.0, 1.0, 0.25], dist_dist_mean=float("nan"), local_in_acc_std=-0.0,
            weight_div_mean=float("inf"), train_loss=-float("inf"),
        ))
        path = tmp_path / "rounds.csv"
        write_round_csv(logs, path, num_classes=4)
        loaded = read_round_csv(path)
        assert len(loaded) == len(logs)
        for orig, back in zip(logs, loaded):
            assert type(back.t) is int and back.t == orig.t
            for f in fields(RoundLog)[1:]:
                got, want = np.asarray(getattr(back, f.name)), np.asarray(getattr(orig, f.name))
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), f.name

    def test_rejects_clashing_class_count(self, tmp_path):
        with pytest.raises(ValueError, match="class count"):
            write_round_csv([make_log(1, [0.5, 0.6])], tmp_path / "x.csv", num_classes=3)


class TestSummaryJson:
    def test_constant_run_zero_forgetting(self, tmp_path):
        logs = [make_log(t, [0.5, 0.5]) for t in (1, 2, 3)]
        path = tmp_path / "summary.json"
        write_summary_json(logs, ExperimentConfig(), path, "rounds.csv")
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert obj["forgetting_F"] == 0.0

    def test_forgetting_matches_metric_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        logs = [make_log(t, rng.uniform(size=3)) for t in range(1, 8)]
        path = tmp_path / "summary.json"
        write_summary_json(logs, ExperimentConfig(), path, "rounds.csv")
        obj = json.loads(path.read_text())
        expected = forgetting_measure([log.class_acc for log in logs])
        assert obj["forgetting_F"] == expected

    def test_manifest_fields_present(self, tmp_path):
        logs = [make_log(1, [0.5, 0.5]), make_log(2, [0.6, 0.4])]
        cfg = ExperimentConfig(seed=7)
        path = tmp_path / "summary.json"
        write_summary_json(logs, cfg, path, "rounds.csv")
        obj = json.loads(path.read_text())
        assert obj["config_hash"] == config_hash(cfg)
        assert obj["master_seed"] == 7
        assert obj["round_csv"] == "rounds.csv"
        assert obj["version"]
        assert obj["config"]["seed"] == 7
        assert obj["peak_accuracy"] >= obj["final_accuracy"] or True  # fields exist
        assert "final_accuracy" in obj and "peak_accuracy" in obj

    def test_single_round_forgetting_null(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json([make_log(1, [0.5, 0.5])], ExperimentConfig(), path, "rounds.csv")
        assert json.loads(path.read_text())["forgetting_F"] is None

    def test_empty_run_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_summary_json([], ExperimentConfig(), tmp_path / "s.json", "rounds.csv")


class TestParseConfigFile:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_reads_from_disk(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("rounds = 9\nmethod = fedntd\n")
        cfg = parse_config(path)
        assert cfg.rounds == 9
        assert cfg.method == "fedntd"
