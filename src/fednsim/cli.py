"""Command-line interface.

Subcommands:
  run        train under a config file and write rounds.csv / summary.json
  partition  build a partition and print stats or export it as JSON
  verify     run the numerical verification suite
  metrics    recompute forgetting and drift series from a stored CSV

Exit codes: 0 success, 1 bad configuration or usage (a run too large for
memory and an output that cannot be written among them), 2 runtime
failure (including a failing verification check).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import IDX_KEYS, SIZE_KEYS, ConfigError, ExperimentConfig, parse_config
from .data import (
    Dataset,
    IdxFormatError,
    PartitionError,
    client_distributions,
    export_partition_json,
    make_partition,
    read_idx,
    synth_dataset,
)
from .federation import DivergenceError, WorkerError, _check_threads, run_federation
from .metrics import accuracy_cosine_similarity, forgetting_measure
from .model import OutputError, open_file, save_params
from .runio import RoundCsvError, read_round_csv, write_round_csv, write_summary_json
from .verify import _check_trials, run_all


# Above this magnitude a product of two parameters overflows float64.
_BLOWN_UP = float(np.sqrt(np.finfo(np.float64).max))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fednsim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a federated training experiment")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (>= 1); no effect: a run trains on "
                            "one process per CPU, with the same bits")
    run_p.add_argument("--out", default=None, help="override the output directory")

    part_p = sub.add_parser("partition", help="build and inspect a client partition")
    part_p.add_argument("config", help="path to a key = value config file")
    part_p.add_argument("--stats", action="store_true", help="print per-client stats")
    part_p.add_argument("--out", default=None, help="write the partition as JSON")

    ver_p = sub.add_parser("verify", help="run the numerical verification suite")
    ver_p.add_argument("--trials", type=int, default=100, help="random instances per identity check")
    ver_p.add_argument("--seed", type=int, default=0)

    met_p = sub.add_parser("metrics", help="recompute metrics from a round CSV")
    met_p.add_argument("round_csv", help="path to a rounds.csv written by `run`")
    return parser


def load_run(cfg: ExperimentConfig) -> tuple:
    """`run_federation`'s inputs under `cfg`, in its order: (fed, mlp, train,
    partition, test).  IDX data is a ConfigError naming its keys and files
    when the test set does not pair with the training set or the model
    cannot take the data (images of no pixels, labels of one class)."""
    if cfg.data == "synth":
        train = synth_dataset(cfg.synth_classes, cfg.synth_per_class, cfg.synth_dim,
                              cfg.synth_separation, cfg.seed, split=0)
        test = synth_dataset(cfg.synth_classes, cfg.synth_test_per_class, cfg.synth_dim,
                             cfg.synth_separation, cfg.seed, split=1)
        mlp = cfg.mlp_config(train.dim, train.num_classes)
    else:
        train = read_idx(cfg.idx_train_images, cfg.idx_train_labels)
        test = read_idx(cfg.idx_test_images, cfg.idx_test_labels)
        # a run scores the model on every class of the test set, at the training width
        if test.dim != train.dim:
            raise ConfigError(
                f"idx_train_images {cfg.idx_train_images} and idx_test_images "
                f"{cfg.idx_test_images}: images of {train.dim} and {test.dim} pixels"
            )
        classes = max(train.num_classes, test.num_classes)
        train = Dataset(train.features, train.labels, classes)
        test = Dataset(test.features, test.labels, classes)
        if missing := test.missing_classes():
            raise ConfigError(
                f"idx_test_labels {cfg.idx_test_labels}: no test samples for classes {missing}"
            )
        try:
            mlp = cfg.mlp_config(train.dim, classes)
        except ValueError as exc:  # MlpConfig owns the model's ranges
            files = ", ".join(f"{key} {getattr(cfg, key)}" for key in IDX_KEYS)
            raise ConfigError(f"the model for {files}: {exc}") from None
    return cfg.federation_config(), mlp, train, make_partition(train, cfg.partition_spec()), test


def _check_flag(check, value) -> None:
    """Runs the owner's range `check` on a flag's value; its ValueError, which
    starts with the option's name, becomes a ConfigError naming the flag."""
    try:
        check(value)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from None


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    _check_flag(_check_threads, args.threads)

    fed, mlp, train, partition, test = load_run(cfg)

    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at that path or above it
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    def checkpoint(t: int, params: np.ndarray) -> None:
        save_params(out_dir / f"checkpoint_round_{t:05d}.fntd", params)

    result = run_federation(
        fed, mlp, train, partition, test,
        threads=args.threads,
        checkpoint_stride=cfg.checkpoint_stride,
        checkpoint_fn=checkpoint,
    )
    csv_path = out_dir / "rounds.csv"
    write_round_csv(result.logs, csv_path, mlp.num_classes)
    write_summary_json(result.logs, cfg, out_dir / "summary.json", csv_path.name)
    final = result.logs[-1]
    print(f"finished {cfg.rounds} rounds: accuracy {final.global_acc:.4f}, "
          f"outputs in {out_dir}")
    # divergence is judged by finiteness only, so a model blown up to huge but
    # finite parameters finishes; say so, without changing any output
    largest = float(np.abs(result.final_params).max())
    if largest > _BLOWN_UP:
        print(f"warning: largest final parameter magnitude {largest:.3g} exceeds "
              f"{_BLOWN_UP:.3g}, past which a product of two parameters overflows",
              file=sys.stderr)
    return 0


def _cmd_partition(args, cfg: ExperimentConfig) -> int:
    _, _, train, partition, _ = load_run(cfg)  # rejects what `run` rejects
    dists = client_distributions(train, partition)

    if args.stats:
        print(f"strategy={cfg.partition} clients={cfg.clients} dataset_size={len(train)}")
        sizes = np.array([len(c) for c in partition])
        classes_per_client = []
        l1_from_uniform = []
        uniform = np.full(train.num_classes, 1.0 / train.num_classes)
        for client in partition:
            if client.client_id not in dists:
                print(f"client {client.client_id}: size=0")
                continue
            p, p_t = dists[client.client_id]
            classes_per_client.append(int(np.count_nonzero(p)))
            l1_from_uniform.append(float(np.abs(p - uniform).sum()))
            p_str = " ".join(f"{v:.3f}" for v in p)
            pt_str = " ".join(f"{v:.3f}" for v in p_t)
            print(f"client {client.client_id}: size={len(client)} p=[{p_str}] p_tilde=[{pt_str}]")
        print(
            f"summary: sizes min/median/max = {sizes.min()}/{int(np.median(sizes))}/{sizes.max()}"
            f", median classes per client = {int(np.median(classes_per_client))}"
            f", mean L1 distance from uniform = {np.mean(l1_from_uniform):.4f}"
        )
    if args.out is not None:
        export_partition_json(args.out, partition, dists, train.num_classes)
        print(f"wrote partition to {args.out}", file=sys.stderr)  # stdout may be the JSON
    return 0


def _cmd_verify(args, _) -> int:
    _check_flag(_check_trials, args.trials)
    results = run_all(trials=args.trials, seed=args.seed)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


def _cmd_metrics(args, _) -> int:
    logs = read_round_csv(args.round_csv)
    if not logs:
        raise RoundCsvError(f"{args.round_csv}: no rounds logged")
    history = [log.class_acc for log in logs]
    print(f"rounds logged: {len(logs)} (final round {logs[-1].t})")
    if len(history) >= 2:
        print(f"forgetting_F = {forgetting_measure(history)!r}")
    else:
        print("forgetting_F undefined for a single logged round")
    for prev, cur in zip(logs, logs[1:]):
        cos = accuracy_cosine_similarity(prev.class_acc, cur.class_acc)
        print(f"round {cur.t}: cosine_to_previous = {cos!r}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "partition": _cmd_partition,
    "verify": _cmd_verify,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return 0 if exc.code in (0, None) else 1
    cfg = None  # run and partition take a config, which is parsed once, here
    try:
        if "config" in args:
            cfg = parse_config(args.config)
        code = _COMMANDS[args.command](args, cfg)
        sys.stdout.flush()  # a closed stdout pipe fails here, not at exit
        return code
    except (ConfigError, IdxFormatError, PartitionError, RoundCsvError, WorkerError,
            OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError as exc:  # stdout's reader has gone; what stdout still holds
        # goes to the null device, not to a second error when the interpreter exits
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        with open_file(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, MemoryError) or getattr(exc, "errno", None) == errno.ENOMEM:
            detail = f" ({exc})" if str(exc) else ""
            if cfg is not None:
                detail += f"; the array sizes are set by {', '.join(SIZE_KEYS[cfg.data])}"
            print(f"error: out of memory{detail}", file=sys.stderr)
            return 1
        print(f"internal error: {exc}", file=sys.stderr)  # pragma: no cover - safety net
        return 2


if __name__ == "__main__":
    sys.exit(main())
