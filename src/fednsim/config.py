"""Experiment configuration: flat key = value files.

The format is deliberately flat and diff-friendly: one `key = value` per
line, `#` comments, blank lines allowed.  Unknown keys, bad types, and
out-of-range values are reported with the key name and line number.
Each key is parsed by its field's type.  A key that a component config
owns takes its default from it, and each range is checked once, by the
dataclass that carries the field.  Serialization emits every key
in a fixed order so that parse -> serialize -> parse is the identity and
the config hash is whitespace- and comment-insensitive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import get_type_hints

from .data import PartitionSpec, _check_separation, _check_synth_counts
from .federation import FederationConfig
from .losses import LossConfig
from .model import MlpConfig, _check_choice, _check_count, read_file

DATA_SOURCES = ("synth", "idx")
IDX_KEYS = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")
# the keys that size a run's arrays, by data source, which an out-of-memory error names
SIZE_KEYS = {
    "synth": ("synth_classes", "synth_per_class", "synth_test_per_class", "synth_dim",
              "hidden_dims", "clients", "sampling_ratio"),
    "idx": (*IDX_KEYS, "hidden_dims", "clients", "sampling_ratio"),
}


class ConfigError(ValueError):
    pass


# Each component field with the key that holds it: the key of the same name,
# but for three renames.  federation_config() passes in FederationConfig.loss.
_RENAMED = {"strategy": "partition", "alpha": "dirichlet_alpha", "master_seed": "seed"}
_COMPONENT_KEYS = {
    component: tuple((f.name, _RENAMED.get(f.name, f.name))
                     for f in fields(component) if f.name != "loss")
    for component in (LossConfig, FederationConfig, PartitionSpec)
}


@dataclass
class ExperimentConfig:
    # dataset source
    data: str = "synth"
    synth_classes: int = 10
    synth_per_class: int = 100
    synth_test_per_class: int = 100
    synth_dim: int = 32
    synth_separation: float = 3.0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    # partition
    partition: str = PartitionSpec.strategy
    clients: int = PartitionSpec.clients
    shards_per_client: int = PartitionSpec.shards_per_client
    dirichlet_alpha: float = PartitionSpec.alpha
    # model
    hidden_dims: tuple[int, ...] = (64, 64)
    # federation
    method: str = LossConfig.method
    rounds: int = FederationConfig.rounds
    local_epochs: int = FederationConfig.local_epochs
    batch_size: int = FederationConfig.batch_size
    sampling_ratio: float = FederationConfig.sampling_ratio
    lr0: float = FederationConfig.lr0
    momentum: float = FederationConfig.momentum
    weight_decay: float = FederationConfig.weight_decay
    lr_decay: float = FederationConfig.lr_decay
    beta: float = LossConfig.beta
    tau: float = LossConfig.tau
    mu: float = LossConfig.mu
    interp_lambda: float = LossConfig.interp_lambda
    aggregation: str = FederationConfig.aggregation
    seed: int = FederationConfig.master_seed
    # bookkeeping
    eval_stride: int = FederationConfig.eval_stride
    checkpoint_stride: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        _check_choice("data", self.data, DATA_SOURCES)
        for per_class in (self.synth_per_class, self.synth_test_per_class):
            _check_synth_counts(self.synth_classes, per_class, self.synth_dim)
        _check_separation(self.synth_separation, "synth_separation")
        _check_count("checkpoint_stride", self.checkpoint_stride, 0)
        # the component configs check every other key
        self.federation_config()
        self.partition_spec()
        self.mlp_config(self.synth_dim, self.synth_classes)

    def _component(self, component, **given):
        return component(**{name: getattr(self, key) for name, key in _COMPONENT_KEYS[component]},
                         **given)

    def loss_config(self) -> LossConfig:
        return self._component(LossConfig)

    def federation_config(self) -> FederationConfig:
        return self._component(FederationConfig, loss=self.loss_config())

    def partition_spec(self) -> PartitionSpec:
        return self._component(PartitionSpec)

    def mlp_config(self, input_dim: int, num_classes: int) -> MlpConfig:
        return MlpConfig(input_dim=input_dim, hidden_dims=self.hidden_dims, num_classes=num_classes)


def _parse_dims(raw: str) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(int(part, 10) for part in raw.split(","))


_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _parse_dims}
# every key, in field order, with its parser
_KEY_PARSERS = {key: _PARSERS[hint] for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values = {}
    seen_lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})"
            )
        try:
            values[key] = _KEY_PARSERS[key](raw_value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: {key}: cannot parse {raw_value!r}"
            ) from None
        seen_lines[key] = lineno
    try:
        cfg = ExperimentConfig(**values)
    except ValueError:
        # name the first key, in line order, whose value breaks a range on top of the defaults
        checked = {}
        for key, value in values.items():
            checked[key] = value
            try:
                ExperimentConfig(**checked)
            except ValueError as exc:
                raise ConfigError(f"{source}:{seen_lines[key]}: {key}: {exc}") from None
        raise
    if cfg.data == "idx":
        for key in IDX_KEYS:
            if not getattr(cfg, key):
                raise ConfigError(f"{source}: {key} is required when data = idx")
    return cfg


def parse_config(path) -> ExperimentConfig:
    return parse_config_text(read_file(path, "config", ConfigError, "utf-8"), source=str(path))


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text: every key once, fixed order, normalized values."""
    lines = [f"{name} = {_format_value(getattr(cfg, name))}" for name in _KEY_PARSERS]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the canonical serialization."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def config_dict(cfg: ExperimentConfig) -> dict:
    """Plain dict echo with JSON-friendly values, in canonical key order."""
    out = {}
    for name in _KEY_PARSERS:
        value = getattr(cfg, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out
