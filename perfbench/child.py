"""One fednsim run of a benchmark workload, in a fresh process.

    python3 child.py CONFIG --seed N --entry api|cli --threads K
                     --trace 0|1 --result FILE

Runs in the current directory and writes the run's outputs under ./out.
The `api` entry drives config.parse_config, data.synth_dataset,
data.make_partition, federation.run_federation and runio.write_*; the `cli`
entry drives cli.main(["run", ...]).  After the run, the set-up (parse,
synthesis, partition, init) is repeated untraced, at least 5 times and for
SETUP_SECONDS, so that setup_s is a median of many repeats.  The result file
holds the timings, output digests and, with --trace 1, the layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from fednsim import cli, config, data, federation, model, runio

OUT = Path("out")
SETUP_SECONDS = 0.5


def _setup(cfg_path: str, seed: int):
    cfg = replace(config.parse_config(cfg_path), seed=seed, out_dir=str(OUT))
    train = data.synth_dataset(cfg.synth_classes, cfg.synth_per_class, cfg.synth_dim,
                               cfg.synth_separation, cfg.seed, split=0)
    test = data.synth_dataset(cfg.synth_classes, cfg.synth_test_per_class, cfg.synth_dim,
                              cfg.synth_separation, cfg.seed, split=1)
    partition = data.make_partition(train, cfg.partition_spec())
    mlp = cfg.mlp_config(train.dim, train.num_classes)
    return cfg, train, test, partition, mlp


def _run_api(cfg_path: str, seed: int, threads: int):
    """Returns (round seconds, final params) and writes the outputs."""
    cfg, train, test, partition, mlp = _setup(cfg_path, seed)
    OUT.mkdir()
    stamps = [perf_counter()]
    result = federation.run_federation(
        cfg.federation_config(), mlp, train, partition, test, threads=threads,
        checkpoint_stride=1, checkpoint_fn=lambda t, w: stamps.append(perf_counter()),
    )
    runio.write_round_csv(result.logs, OUT / "rounds.csv", mlp.num_classes)
    runio.write_summary_json(result.logs, cfg, OUT / "summary.json", "rounds.csv")
    model.save_params(OUT / "final_params.fntd", result.final_params)
    return np.diff(stamps).tolist(), result.final_params


def _run_cli(cfg_path: str, seed: int, threads: int):
    """Returns (round seconds, final params); cli.main writes the outputs.

    Round times are the gaps between the checkpoint files' modification
    times, so round 1, which has no earlier checkpoint, is not timed.
    """
    code = cli.main(["run", cfg_path, "--seed", str(seed), "--threads", str(threads),
                     "--out", str(OUT)])
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    ckpts = sorted(OUT.glob("checkpoint_round_*.fntd"))
    stamps = [p.stat().st_mtime_ns * 1e-9 for p in ckpts]
    return np.diff(stamps).tolist(), model.load_params(ckpts[-1])


def _check_outputs(cfg_path: str, seed: int, final_params: np.ndarray) -> float:
    """Validates the written outputs and returns the final accuracy."""
    cfg = replace(config.parse_config(cfg_path), seed=seed, out_dir=str(OUT))
    mlp = cfg.mlp_config(cfg.synth_dim, cfg.synth_classes)
    logs = runio.read_round_csv(OUT / "rounds.csv")
    expected = [t for t in range(1, cfg.rounds + 1) if t % cfg.eval_stride == 0 or t == cfg.rounds]
    if [log.t for log in logs] != expected:
        raise ValueError("rounds.csv does not log the expected rounds")
    summary = json.loads((OUT / "summary.json").read_text())
    final_acc = logs[-1].global_acc
    if summary["final_accuracy"] != final_acc or summary["config_hash"] != config.config_hash(cfg):
        raise ValueError("summary.json disagrees with rounds.csv or the config")
    if final_params.shape != (mlp.param_count(),) or not np.isfinite(final_params).all():
        raise ValueError("final parameters have the wrong length or are not finite")
    if not final_acc > 1.0 / cfg.synth_classes:
        raise ValueError(f"final accuracy {final_acc} is not above chance")
    return final_acc


def _digests(final_params: np.ndarray) -> dict[str, str]:
    return {
        "rounds.csv": hashlib.sha256((OUT / "rounds.csv").read_bytes()).hexdigest(),
        "summary.json": hashlib.sha256((OUT / "summary.json").read_bytes()).hexdigest(),
        "final_params": hashlib.sha256(final_params.astype("<f8").tobytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--entry", choices=("api", "cli"), required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    run = _run_api if args.entry == "api" else _run_cli
    t0 = perf_counter()
    try:
        round_s, final_params = run(args.config, args.seed, args.threads)
    finally:
        wall_s = perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    final_acc = _check_outputs(args.config, args.seed, final_params)
    setup_s = []
    while len(setup_s) < 5 or sum(setup_s) < SETUP_SECONDS:
        t = perf_counter()
        cfg, _train, _test, _partition, mlp = _setup(args.config, args.seed)
        model.init_params(mlp, cfg.seed)
        setup_s.append(perf_counter() - t)

    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "round_s": round_s,
        "peak_rss_mb": peak_rss_mb,
        "final_acc": final_acc,
        "digests": _digests(final_params),
    }
    if recorder is not None:
        eval_rounds = len(runio.read_round_csv(OUT / "rounds.csv"))
        result["layers"] = recorder.layer_metrics(eval_rounds, args.threads)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
