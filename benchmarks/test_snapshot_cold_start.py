"""Snapshot cold start: build-from-scratch vs zero-copy mmap load.

The deployment argument for snapshot artifacts (DESIGN.md §9): a serving
process should come up by mapping a published artifact, not by repeating
the offline build.  Each measurement runs in a *fresh* subprocess so
wall time and peak RSS reflect a genuine cold start; the process-shard
rows additionally report the peak RSS across the pool's worker children
(``RUSAGE_CHILDREN``) — snapshot-backed workers mmap one shared copy
instead of unpickling private ones.

Persists ``benchmarks/results/BENCH_snapshot.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from common import DEFAULT_K, DEFAULT_TAU, RESULTS_DIR, get_dataset, get_context

CACHE_BYTES = 1 << 16


def run_probe(body: str, workdir: Path) -> dict:
    """Run a measurement snippet in a fresh interpreter; parse its JSON.

    The snippet gets ``t0`` started for it and must set ``payload``
    (a dict); elapsed seconds and peak RSS are appended automatically.
    """
    script = textwrap.dedent(
        """
        import json, resource, sys, time
        t0 = time.perf_counter()
        {body}
        payload["seconds"] = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        payload["max_rss_kb"] = usage.ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        payload["children_max_rss_kb"] = children.ru_maxrss
        print("PROBE:" + json.dumps(payload))
        """
    ).format(body=textwrap.dedent(body))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("PROBE:")]
    assert line, proc.stdout
    return json.loads(line[-1][len("PROBE:"):])


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Build the pipeline + shard snapshots once; probes cold-start them."""
    from repro.artifacts.sharding import save_shard_snapshots
    from repro.artifacts.snapshot import save_snapshot
    from repro.spec.build import build_pipeline
    from repro.spec.sections import (
        CacheSection,
        DatasetSection,
        IndexSection,
        MetricsSection,
        PipelineSpec,
        ShardSection,
    )

    root = tmp_path_factory.mktemp("snapshot-bench")
    dataset = get_dataset("tiny")
    context = get_context("tiny")
    spec = PipelineSpec(
        dataset=DatasetSection(name="tiny", seed=0),
        index=IndexSection(name="c2lsh"),
        cache=CacheSection(
            method="HC-O", tau=DEFAULT_TAU, cache_bytes=CACHE_BYTES
        ),
        k=DEFAULT_K,
        seed=0,
    )
    pipeline = build_pipeline(spec, dataset=dataset, context=context)
    queries = dataset.query_log.test
    save_snapshot(root / "snap", pipeline, queries=queries)
    (root / "spec.json").write_text(spec.to_json() + "\n")
    np.save(root / "queries.npy", queries)

    for n_shards in (2, 4):
        sharded = dataclasses.replace(
            spec,
            shard=ShardSection(n_shards=n_shards),
            metrics=MetricsSection(enabled=False),
        )
        engine, specs = sharded.build_sharded(dataset=dataset, context=context)
        engine.close()
        with open(root / f"shards-{n_shards}.pkl", "wb") as fh:
            pickle.dump(specs, fh)
        light = save_shard_snapshots(specs, root / f"shard-snap-{n_shards}")
        with open(root / f"shards-{n_shards}-light.pkl", "wb") as fh:
            pickle.dump(light, fh)
    return root


def serial_rows(root: Path) -> list[dict]:
    build = run_probe(
        f"""
        from repro.spec.sections import PipelineSpec
        from repro.spec.build import build_pipeline
        import numpy as np
        spec = PipelineSpec.load({str(root / "spec.json")!r})
        pipeline = build_pipeline(spec)
        queries = np.load({str(root / "queries.npy")!r})
        pipeline.search(queries[0], {DEFAULT_K})
        payload = {{"mode": "build", "shards": 0}}
        """,
        root,
    )
    load = run_probe(
        f"""
        from repro.artifacts.snapshot import load_snapshot
        import numpy as np
        pipeline = load_snapshot({str(root / "snap")!r})
        queries = np.load({str(root / "queries.npy")!r})
        pipeline.search(queries[0], {DEFAULT_K})
        payload = {{"mode": "mmap-load", "shards": 0}}
        """,
        root,
    )
    return [build, load]


def shard_rows(root: Path, n_shards: int) -> list[dict]:
    rows = []
    for mode, pkl in (
        ("build", f"shards-{n_shards}.pkl"),
        ("mmap-load", f"shards-{n_shards}-light.pkl"),
    ):
        rows.append(
            run_probe(
                f"""
                import pickle
                import numpy as np
                from repro.shard.engine import ShardedEngine
                with open({str(root / pkl)!r}, "rb") as fh:
                    specs = pickle.load(fh)
                queries = np.load({str(root / "queries.npy")!r})
                with ShardedEngine(specs, executor="process") as engine:
                    engine.search_many(queries[:4], {DEFAULT_K})
                payload = {{
                    "mode": {mode!r},
                    "shards": {n_shards},
                    "spec_pickle_bytes": sum(
                        len(pickle.dumps(s)) for s in specs
                    ),
                }}
                """,
                root,
            )
        )
    return rows


def run_cold_start(world: Path) -> dict:
    runs = serial_rows(world)
    for n_shards in (2, 4):
        runs.extend(shard_rows(world, n_shards))
    return {"runs": runs}


def test_snapshot_cold_start(benchmark, world):
    payload = benchmark.pedantic(
        lambda: run_cold_start(world), rounds=1, iterations=1
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_snapshot.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    by_key = {(r["shards"], r["mode"]): r for r in payload["runs"]}
    for run in payload["runs"]:
        print(
            f"\nshards={run['shards']} {run['mode']}: "
            f"{run['seconds']:.2f}s rss={run['max_rss_kb']}KB "
            f"children_rss={run['children_max_rss_kb']}KB"
        )
    # Mapping the artifact must beat repeating the offline build.
    assert by_key[(0, "mmap-load")]["seconds"] < by_key[(0, "build")]["seconds"]
    # Snapshot-backed shard specs ship paths, not arrays.
    for n_shards in (2, 4):
        full = by_key[(n_shards, "build")]["spec_pickle_bytes"]
        light = by_key[(n_shards, "mmap-load")]["spec_pickle_bytes"]
        assert light < full // 10
