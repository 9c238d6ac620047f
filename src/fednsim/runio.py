"""Metric persistence: the per-round CSV and the run summary JSON.

Floats are written with `repr`, the shortest decimal that round-trips to
the same binary value, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_dict, config_hash
from .metrics import RoundLog, forgetting_measure
from .model import read_file, write_file


class RoundCsvError(ValueError):
    """A round CSV that cannot be read back."""


# RoundLog's fields in order: t (the "round" column), global_acc, class_acc
# (one column per class), then the scalar columns.
_FIELDS = [f.name for f in fields(RoundLog)]


def _fmt(value: float) -> str:
    return repr(float(value))


def csv_header(num_classes: int) -> list[str]:
    return ["round", _FIELDS[1]] + [f"acc_class_{c}" for c in range(num_classes)] + _FIELDS[3:]


def write_round_csv(logs: list[RoundLog], path, num_classes: int) -> None:
    lines = [",".join(csv_header(num_classes))]
    for log in logs:
        if log.class_acc.shape != (num_classes,):
            raise ValueError("round log class count does not match the header")
        t, global_acc, class_acc, *tail = (getattr(log, name) for name in _FIELDS)
        lines.append(",".join([str(t)] + [_fmt(v) for v in (global_acc, *class_acc, *tail)]))
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_round_csv(path) -> list[RoundLog]:
    text = read_file(path, "round CSV", RoundCsvError, "utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RoundCsvError(f"{path}: empty round CSV")
    header = lines[0].split(",")
    class_cols = [i for i, name in enumerate(header) if name.startswith("acc_class_")]
    expected = csv_header(len(class_cols))
    if header != expected or not class_cols:
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
        if t <= (logs[-1].t if logs else 0):
            raise RoundCsvError(f"{path}: row {line!r} has round {t}; rounds must be >= 1 "
                                "and strictly increasing")
        n = len(class_cols)
        logs.append(RoundLog(t, values[0], np.array(values[1 : 1 + n]), *values[1 + n :]))
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
    write_file(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))
