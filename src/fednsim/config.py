"""Experiment configuration: flat key = value files.

The format is deliberately flat and diff-friendly: one `key = value` per
line, `#` comments, blank lines allowed.  Unknown keys, bad types, and
out-of-range values are reported with the key name and line number.
Each key is parsed by its field's type, and each range is checked once,
by the dataclass that carries the field.  Serialization emits every key
in a fixed order so that parse -> serialize -> parse is the identity and
the config hash is whitespace- and comment-insensitive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import get_type_hints

from .data import PartitionSpec, _check_separation
from .federation import FederationConfig
from .losses import LossConfig
from .model import MlpConfig

DATA_SOURCES = ("synth", "idx")
IDX_KEYS = ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels")


class ConfigError(ValueError):
    pass


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
    partition: str = "iid"
    clients: int = 10
    shards_per_client: int = 2
    dirichlet_alpha: float = 0.5
    # model
    hidden_dims: tuple[int, ...] = (64, 64)
    # federation
    method: str = "fedavg"
    rounds: int = 50
    local_epochs: int = 5
    batch_size: int = 50
    sampling_ratio: float = 0.1
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    lr_decay: float = 0.99
    beta: float = 1.0
    tau: float = 1.0
    mu: float = 0.1
    interp_lambda: float = 0.5
    aggregation: str = "size_weighted"
    seed: int = 0
    # bookkeeping
    eval_stride: int = 1
    checkpoint_stride: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        if self.data not in DATA_SOURCES:
            raise ValueError(f"data must be one of {', '.join(DATA_SOURCES)}, got {self.data!r}")
        if min(self.synth_per_class, self.synth_test_per_class) < 1:
            raise ValueError("synth_per_class and synth_test_per_class must be >= 1")
        _check_separation(self.synth_separation, "synth_separation")
        if self.checkpoint_stride < 0:
            raise ValueError(f"checkpoint_stride must be >= 0, got {self.checkpoint_stride}")
        # the component configs check every other key
        self.federation_config()
        self.partition_spec()
        self.mlp_config(self.synth_dim, self.synth_classes)

    def loss_config(self) -> LossConfig:
        return LossConfig(
            method=self.method,
            beta=self.beta,
            tau=self.tau,
            mu=self.mu,
            interp_lambda=self.interp_lambda,
        )

    def federation_config(self) -> FederationConfig:
        return FederationConfig(
            rounds=self.rounds,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            sampling_ratio=self.sampling_ratio,
            loss=self.loss_config(),
            lr0=self.lr0,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            lr_decay=self.lr_decay,
            aggregation=self.aggregation,
            master_seed=self.seed,
            eval_stride=self.eval_stride,
        )

    def partition_spec(self) -> PartitionSpec:
        return PartitionSpec(
            strategy=self.partition,
            clients=self.clients,
            shards_per_client=self.shards_per_client,
            alpha=self.dirichlet_alpha,
            seed=self.seed,
        )

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
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


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
