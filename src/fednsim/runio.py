"""Metric persistence: the per-round CSV and the run summary JSON.

Floats are written with `repr`, the shortest decimal that round-trips to
the same binary value, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_dict, config_hash
from .metrics import RoundLog, forgetting_measure


class RoundCsvError(ValueError):
    """A round CSV that cannot be read back."""


def _fmt(value: float) -> str:
    return repr(float(value))


def csv_header(num_classes: int) -> list[str]:
    return (
        ["round", "global_acc"]
        + [f"acc_class_{c}" for c in range(num_classes)]
        + [
            "local_in_acc_mean",
            "local_in_acc_std",
            "local_out_acc_mean",
            "local_out_acc_std",
            "weight_div_mean",
            "dist_dist_mean",
            "train_loss",
        ]
    )


def write_round_csv(logs: list[RoundLog], path, num_classes: int) -> None:
    lines = [",".join(csv_header(num_classes))]
    for log in logs:
        if log.class_acc.shape != (num_classes,):
            raise ValueError("round log class count does not match the header")
        row = (
            [str(log.t), _fmt(log.global_acc)]
            + [_fmt(a) for a in log.class_acc]
            + [
                _fmt(log.local_in_acc_mean),
                _fmt(log.local_in_acc_std),
                _fmt(log.local_out_acc_mean),
                _fmt(log.local_out_acc_std),
                _fmt(log.weight_div_mean),
                _fmt(log.dist_dist_mean),
                _fmt(log.train_loss),
            ]
        )
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_round_csv(path) -> list[RoundLog]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line.rstrip("\n") for line in f if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise RoundCsvError(f"cannot read round CSV {path}: {exc}") from None
    if not lines:
        raise RoundCsvError(f"{path}: empty round CSV")
    header = lines[0].split(",")
    class_cols = [i for i, name in enumerate(header) if name.startswith("acc_class_")]
    expected = csv_header(len(class_cols))
    if header != expected:
        raise RoundCsvError(f"{path}: unexpected CSV header")
    logs = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise RoundCsvError(f"{path}: row has {len(cells)} cells, expected {len(header)}")
        try:
            t, values = int(cells[0]), [float(c) for c in cells[1:]]
        except ValueError:
            raise RoundCsvError(f"{path}: row {line!r} holds a non-number") from None
        n = len(class_cols)
        logs.append(
            RoundLog(
                t=t,
                global_acc=values[0],
                class_acc=np.array(values[1 : 1 + n]),
                local_in_acc_mean=values[1 + n],
                local_in_acc_std=values[2 + n],
                local_out_acc_mean=values[3 + n],
                local_out_acc_std=values[4 + n],
                weight_div_mean=values[5 + n],
                dist_dist_mean=values[6 + n],
                train_loss=values[7 + n],
            )
        )
    return logs


def summary_dict(logs: list[RoundLog], cfg: ExperimentConfig, csv_name: str, summary_name: str) -> dict:
    if not logs:
        raise ValueError("cannot summarize an empty run")
    history = [log.class_acc for log in logs]
    return {
        "final_accuracy": logs[-1].global_acc,
        "peak_accuracy": max(log.global_acc for log in logs),
        "forgetting_F": forgetting_measure(history) if len(history) >= 2 else None,
        "rounds": cfg.rounds,
        "logged_rounds": len(logs),
        "final_round": logs[-1].t,
        "config": config_dict(cfg),
        "config_hash": config_hash(cfg),
        "master_seed": cfg.seed,
        "version": __version__,
        "round_csv": csv_name,
        "summary_json": summary_name,
    }


def write_summary_json(logs: list[RoundLog], cfg: ExperimentConfig, path, csv_name: str) -> None:
    obj = summary_dict(logs, cfg, csv_name, str(path).rsplit("/", 1)[-1])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
