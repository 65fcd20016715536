"""Command line of the benchmark.

    python -m bench run [--workload W ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--repeat R] [--out FILE] [--smoke]
    python -m bench compare PARENT.json CHANGE.json

``run`` starts one process per workload and run, one after another,
prints every metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero
when an answer was wrong or a run failed.  ``compare`` applies the
paired rule and each metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A workload process that runs longer than this is stopped and failed.
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    """The environment of a workload process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # The server's dispatcher and replica threads share two cores here;
    # BLAS worker threads would oversubscribe them and add run-to-run
    # noise.
    for name in THREAD_VARS:
        env.setdefault(name, "1")
    # A native kernel, if REPRO_KERNEL asks for one, compiles inside the
    # checkout (the process runs from its root) rather than in the system
    # temporary directory.
    env.setdefault("REPRO_KERNEL_CACHE", "bench/results/kernel-cache")
    return env


def _run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload run in its own process; its record, or SystemExit."""
    cmd = [
        sys.executable, "-m", "bench.workloads", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {workload} seed {seed} ran past {RUN_TIMEOUT_S:.0f}s")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_run(run: dict) -> None:
    status = "ok" if run["correct"] else "WRONG ANSWERS"
    print(
        f"{run['workload']} seed={run['seed']} trace={run['trace']}: {status}, "
        f"{run['attempted']} attempted, {run['failed']} failed "
        f"{run['failures'] or ''}".rstrip()
    )
    for name, metric in run["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {metric['unit']}")
    if not run["checks"].get("loadgen_lag_ok", True):
        print("  warning: load generator lag p95 above 5 ms; the run under-offered load")


def cmd_run(args) -> int:
    from bench import record

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _bench_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = record.environment(ROOT, _child_env(), THREAD_VARS)
    runs = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for i in range(args.repeat):
            run = _run_one(workload, args.seed + i, seconds, args.trace, args.smoke)
            run["environment"] = {**env, "kernel": run.pop("kernel")}
            _print_run(run)
            runs.append(run)
    if args.out:
        record.append(Path(args.out), runs)
    single = len({r["workload"] for r in runs}) == 1
    metrics = {}
    for workload, entry in _group(runs).items():
        summary = record.summarize(entry)[f"trace{args.trace}"]
        for name, s in summary.items():
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _group(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def cmd_compare(args) -> int:
    from bench import record

    bench = _bench_spec()
    rows = record.compare(record.load(args.parent), record.load(args.change), bench)
    regressed = False
    for workload, row in rows.items():
        cells = []
        for name, v in row["end_to_end"].items():
            pct = "" if v["change_pct"] is None else f" {v['change_pct']:+.1f}%"
            cells.append(f"{name} {v['status']}{pct} ({v['wins']}/{v['pairs']})")
            regressed |= v["status"] == "regressed"
        print(f"{workload:14s} " + " | ".join(cells))
    for workload, row in rows.items():
        if row["per_layer"]:
            print(f"\n{workload} per-layer medians (parent -> change):")
        for name, v in row["per_layer"].items():
            print(f"  {name:32s} {v['parent_median']:.6g} -> {v['change_median']:.6g} {v['unit']}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    workloads = [w["name"] for w in _bench_spec()["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", choices=workloads,
                     help="repeatable; default: every workload")
    run.add_argument("--seed", type=int, default=0,
                     help="seed of the request and mutation streams (repeat i uses seed+i)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured window per run (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: the traced pass, reporting per-layer metrics")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument("--out", help="append the runs to this record file")
    run.add_argument("--smoke", action="store_true",
                     help="the tiny dataset, for the self-test")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="paired comparison of two record files")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
