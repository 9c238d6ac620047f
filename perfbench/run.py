"""fednsim benchmark: closed-loop `fednsim` runs on named workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each run is one whole federated run (config to outputs written) in a fresh
child process, one at a time, with OPENBLAS_NUM_THREADS=1.  Runs start
while the next one is expected to finish within --seconds (at least one).
The workload seed is passed to the run as its seed.

--trace 0 prints the end-to-end metrics.  --trace 1 makes untraced runs
and then one traced run, and prints the per-layer metrics and the tracing
overhead.  Every run's rounds.csv, summary.json and final parameters are
hashed; a run whose digests differ from the first run of the invocation
counts as failed, as does a run that exits non-zero or whose outputs fail
the checks in child.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0  # one workload's runs must end within 180 s


@dataclass(frozen=True)
class Workload:
    config: str
    entry: str  # "api": run_federation + runio.write_*; "cli": cli.main(["run", ...])
    threads: int  # client threads, at most nproc


WORKLOADS = {
    "desk_shard_ntd": Workload("desk_shard_ntd.cfg", "api", 1),
    "wide_dirichlet_prox": Workload("wide_dirichlet_prox.cfg", "api", 1),
    "cli_iid_interp_ckpt": Workload("cli_iid_interp_ckpt.cfg", "cli", 2),
}

# How each unit is to be read, printed beside every metric.
KIND = {
    "count": "count, exact repeat",
    "bytes": "count, computed from array sizes",
    "fraction": "deterministic per seed",
}


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:42s} {value!r:>24} {unit:8s} [{KIND.get(unit, 'measured')}]{note}")


def _source_id() -> tuple[str, int]:
    """sha256 over src/**/*.py (paths and bytes) and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        body = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + body)
        lines += body.count(b"\n")
    return digest.hexdigest(), lines


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _metadata(src_sha: str, src_lines: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": "1",
        "git_commit": _git_commit(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
    }


def _run_child(name: str, wl: Workload, seed: int, trace: int, timeout: float) -> dict:
    """One fednsim run in a fresh process; returns its result or {"error": ...}."""
    work = HERE / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_file = work / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    threads = min(wl.threads, len(os.sched_getaffinity(0)))
    cmd = [sys.executable, str(HERE / "child.py"), str(HERE / "workloads" / wl.config),
           "--seed", str(seed), "--entry", wl.entry, "--threads", str(threads),
           "--trace", str(trace), "--result", str(result_file)]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "elapsed": perf_counter() - t0}
    elapsed = perf_counter() - t0
    if proc.returncode != 0 or not result_file.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"exit code {proc.returncode}: {tail[0]}", "elapsed": elapsed}
    result = json.loads(result_file.read_text())
    shutil.rmtree(work)
    result["elapsed"] = elapsed
    result["traced"] = bool(trace)
    return result


def _check_digests(runs: list[dict]) -> None:
    """Marks runs whose digests differ from the first good run's as failed."""
    good = [run for run in runs if "error" not in run]
    for run in good[1:]:
        if run["digests"] != good[0]["digests"]:
            which = "traced run" if run["traced"] else "repeat"
            run["error"] = f"{which} digests differ from the first run's"


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _end_to_end(runs: list[dict]) -> dict[str, dict]:
    rounds = [s for r in runs for s in r["round_s"]]
    return {
        "wall_s": _summary([r["wall_s"] for r in runs]),
        "setup_s": _summary([s for r in runs for s in r["setup_s"]]),
        "round_s_p50": _summary(rounds),
        "round_s_p80": {"median": statistics.quantiles(rounds, n=5)[3], "n": len(rounds)},
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in runs]),
        "final_acc": _summary([r["final_acc"] for r in runs]),
    }


def bench_workload(spec: dict, name: str, seed: int, seconds: float, trace: int,
                   meta: dict) -> dict | None:
    wl = WORKLOADS[name]
    runs: list[dict] = []
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        left = HARD_LIMIT_S - elapsed
        est = max((r["elapsed"] for r in runs), default=0.0)
        if runs and (est > left or (not trace and elapsed + est > seconds)):
            break
        # --trace 1: untraced runs while there is room for one more and the traced one
        trace_next = bool(trace) and bool(runs) and elapsed + 2 * est > seconds
        runs.append(_run_child(name, wl, seed, int(trace_next), left))
        if trace_next or "error" in runs[-1]:
            break
    _check_digests(runs)

    failed = [r for r in runs if "error" in r]
    good = [r for r in runs if "error" not in r and not r["traced"]]
    print(f"workload {name} seed {seed}: {len(runs)} runs, {len(failed)} failed "
          f"(failed_share {len(failed) / len(runs)!r})")
    for r in failed:
        print(f"  FAILED: {r['error']}", file=sys.stderr)
    traced = next((r for r in runs if "layers" in r), None)
    if not good or (trace and traced is None):
        return None
    digests = good[0]["digests"]
    print("  digests " + " ".join(f"{k}={v}" for k, v in digests.items()))

    e2e = _end_to_end(good)
    out = {"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": {},
           "workload": name, "seed": seed, "meta": meta, "digests": digests, "end_to_end": e2e}
    if not trace:
        for m in spec["end_to_end"]:
            s = e2e[m["name"]]
            note = f" n={s['n']}" + (f" q1 {s['q1']!r} q3 {s['q3']!r}" if "q1" in s else "")
            _print_metric(m["name"], s["median"], m["unit"], note)
            out["metrics"][m["name"]] = {"value": s["median"], "unit": m["unit"]}
    else:
        layers = dict(traced["layers"])
        layers["bench.trace_overhead_s"] = traced["wall_s"] - e2e["wall_s"]["median"]
        print(f"  traced wall_s {traced['wall_s']!r} s, untraced median {e2e['wall_s']['median']!r} s")
        for m in spec["per_layer"]:
            _print_metric(m["name"], layers[m["name"]], m["unit"])
            out["metrics"][m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    out["runs"] = runs
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}_seed{seed}_trace{trace}.json").write_text(json.dumps(out, indent=1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fednsim" / "__init__.py").is_file():
        print(f"error: no fednsim sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    meta = _metadata(*_source_id())
    print("meta " + json.dumps(meta, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = bench_workload(spec, name, args.seed, seconds, args.trace, meta)
        if res is None:
            print(f"error: every run of {name} failed", file=sys.stderr)
            return 1
        results.append(res)

    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{m}" if prefix else m): v
                    for r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
