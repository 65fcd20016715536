"""Run records: environment, repeats, median and IQR, and the paired compare.

A record file holds every run of every workload with the environment it
ran in, plus a per-metric summary (median, quartiles, IQR and repeat
count) for each workload and pass.  ``python -m bench run --out FILE``
appends to FILE, so runs of a parent and a change made alternately in
two checkouts build up the pairs that ``python -m bench compare`` needs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

SCHEMA = "repro-bench/1"
#: The paired rule: at least this many pairs before a gain is claimed,
MIN_PAIRS = 10
#: and the change must win at least this share of them.
WIN_SHARE = 0.9


def _git(root: Path, *args: str) -> str | None:
    """Output of a git command in ``root``; None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path, env: dict, thread_vars=()) -> dict:
    """Where a run happened: code version, machine and settings.

    ``env`` is the environment the workload processes run with.
    """
    import numpy

    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_env": {k: v for k, v in sorted(env.items()) if k.startswith("REPRO_")},
        "threads": {k: env.get(k) for k in thread_vars},
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR as ``statistics.quantiles(n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Per pass (``trace0``/``trace1``), per metric: spread and unit."""
    out: dict = {}
    for run in runs:
        bucket = out.setdefault(f"trace{run['trace']}", {})
        for name, metric in run["metrics"].items():
            if metric["value"] is not None:
                bucket.setdefault(name, {"unit": metric["unit"], "values": []})
                bucket[name]["values"].append(metric["value"])
    return {
        key: {
            name: {"unit": m["unit"], **spread(m["values"])}
            for name, m in metrics.items()
        }
        for key, metrics in out.items()
    }


def load(path: Path) -> dict:
    record = json.loads(Path(path).read_text())
    if record.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} record")
    return record


def append(path: Path, runs: list[dict]) -> dict:
    """Add runs to the record at ``path`` (created if missing)."""
    path = Path(path)
    record = load(path) if path.exists() else {"schema": SCHEMA, "workloads": {}}
    for run in runs:
        entry = record["workloads"].setdefault(run["workload"], {"runs": []})
        entry["runs"].append(run)
    for entry in record["workloads"].values():
        entry["summary"] = summarize(entry["runs"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


# ----------------------------------------------------------------------
# Paired comparison
# ----------------------------------------------------------------------
def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one end-to-end metric on one workload.

    * ``improved``: at least ``MIN_PAIRS`` pairs, the change wins
      ``WIN_SHARE`` of them (ties count for neither side), and the
      medians differ by more than the parent's IQR.
    * ``unresolved``: either side's IQR exceeds the bound (as a share of
      its median) and not every change run beats every parent run.
    * ``regressed``: the change's median is worse than the parent's by
      more than the bound.
    * ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    worse_share = -sign * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    wide = max(
        p["iqr"] / abs(p["median"]) if p["median"] else 0.0,
        c["iqr"] / abs(c["median"]) if c["median"] else 0.0,
    ) > bound
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (c["median"] - p["median"]) > p["iqr"]
    ):
        status = "improved"
    elif wide and not all_better:
        status = "unresolved"
    elif worse_share > bound:
        status = "regressed"
    else:
        status = "unchanged"
    return {
        "status": status,
        "parent_median": p["median"],
        "change_median": c["median"],
        "change_pct": 100.0 * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else None,
        "pairs": len(pairs),
        "wins": wins,
    }


def _values(runs: list[dict], trace: int, name: str) -> list[float]:
    return [
        r["metrics"][name]["value"] for r in runs
        if r["trace"] == trace and r["metrics"].get(name, {}).get("value") is not None
    ]


def compare(parent: dict, change: dict, bench: dict) -> dict:
    """Workload -> end-to-end verdicts and per-layer median changes.

    Runs pair up by position within each workload: the i-th parent run
    with the i-th change run.
    """
    out = {}
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        p_runs = parent["workloads"][workload]["runs"]
        c_runs = change["workloads"][workload]["runs"]
        row = {"end_to_end": {}, "per_layer": {}}
        for metric in bench["end_to_end"]:
            p, c = _values(p_runs, 0, metric["name"]), _values(c_runs, 0, metric["name"])
            if p and c:
                row["end_to_end"][metric["name"]] = verdict(
                    p, c, metric["better"], metric["bound"]
                )
        for metric in bench["per_layer"]:
            p, c = _values(p_runs, 1, metric["name"]), _values(c_runs, 1, metric["name"])
            if p and c:
                pm, cm = statistics.median(p), statistics.median(c)
                row["per_layer"][metric["name"]] = {
                    "parent_median": pm,
                    "change_median": cm,
                    "unit": metric["unit"],
                }
        out[workload] = row
    return out
