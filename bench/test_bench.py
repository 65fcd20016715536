"""Self-test of the benchmark: ``pytest bench/``.

Runs every workload in ``--smoke`` mode (the ``tiny`` dataset, about a
second per workload) and checks the parts a wrong benchmark would get
wrong silently: metric names and units, the oracle, failure accounting,
tracing that changes answers, and the paired compare rule.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench import __main__ as cli
from bench import loadgen, record, workloads
from bench.trace import Tracer
from repro.serve import Server, ServeConfig, ThreadedExecutor

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """(workload, trace) -> (completed process, the run's record)."""
    out = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            path = tmp_path_factory.mktemp("rec") / "record.json"
            proc = _cli("run", "--workload", name, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace), "--smoke", "--out", str(path))
            run = record.load(path)["workloads"][name]["runs"][0]
            out[name, trace] = proc, run
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(smoke_runs, name, trace):
    proc, run = smoke_runs[name, trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for metric in specs:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        # the human-readable report names the metric and its unit too
        assert any(
            line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
            for line in proc.stdout.splitlines()
        )
    assert run["verification"]["checked"] == workloads.VERIFY_SAMPLE


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_answers_equal_untraced_answers(smoke_runs, name):
    _, run = smoke_runs[name, 1]
    assert run["checks"]["traced_answers_identical"] is True


def test_ladder_rungs_answer_identically(smoke_runs):
    _, run = smoke_runs["scan-kernel", 1]
    assert run["checks"]["ladder_identical"] is True
    assert run["metrics"]["ladder.shard_ms_per_query"]["value"] > 0


def test_oracle_catches_a_corrupted_answer():
    wl = workloads.WORKLOADS["hot-zipf"]
    stack = workloads.build_stack(wl, workloads.SMOKE)
    points = stack.dataset.points
    engine = stack.engines[0]
    honest = engine.search_many

    def corrupt(queries, k, **kwargs):
        """Swap each answer's last id for the point farthest from the query."""
        results = honest(queries, k, **kwargs)
        out = []
        for query, result in zip(queries, results):
            ids = result.ids.copy()
            ids[-1] = int(np.argmax(np.linalg.norm(points - query, axis=1)))
            out.append(type(result)(ids, result.distances, result.exact_mask,
                                    result.stats, result.outcome))
        return out

    try:
        engine.search_many = corrupt
        queries = workloads.request_stream(wl, stack.dataset, seed=0)
        window = workloads.drive(wl, stack, queries, 0, 0.0, workloads.SMOKE)
        del engine.search_many
        report = workloads.verify(wl, stack, window, 0)
    finally:
        stack.server.close()
    assert report["checked"] == workloads.VERIFY_SAMPLE
    assert report["wrong"] == report["checked"]
    assert sum(r.failure == "wrong" for r in window.reads) == report["wrong"]


def test_failed_requests_enter_the_percentiles_at_the_timeout():
    wl = workloads.WORKLOADS["hot-zipf"]
    stack = workloads.build_stack(wl, workloads.SMOKE)
    stack.server.close()
    # A queue two requests deep sheds most of eight clients' requests.
    server = Server(
        stack.pipelines[0],
        config=ServeConfig(max_queue_depth=2, max_batch=1),
        default_k=workloads.K,
        executor=ThreadedExecutor(),
    )
    queries = workloads.request_stream(wl, stack.dataset, seed=0)
    try:
        window = loadgen.closed_loop(server, lambda i: queries[i], 8, 0.0, 60)
    finally:
        server.close()
    shed = [r for r in window.reads if r.failure == "shed"]
    good = [r for r in window.reads if r.failure is None]
    assert shed and good
    values = workloads.end_to_end(stack, window, setup_s=1.0)
    timeout_ms = loadgen.TIMEOUT_S * 1e3
    share_failed = len(shed) / len(window.reads)
    assert share_failed > 0.05
    assert values["latency_p95_ms"] == timeout_ms
    if share_failed > 0.5:
        assert values["latency_p50_ms"] == timeout_ms
    assert values["goodput_qps"] == pytest.approx(len(good) / window.duration_s)
    assert max(r.latency_s for r in good) < loadgen.TIMEOUT_S


def test_a_wrong_answer_makes_the_command_fail(monkeypatch, capsys):
    def fake_run(workload, seed, seconds, trace, smoke):
        return {
            "workload": workload, "seed": seed, "trace": trace, "kernel": "numpy",
            "correct": False, "attempted": 10, "failed": 1, "failures": {"wrong": 1},
            "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}, "checks": {},
        }

    monkeypatch.setattr(cli, "_run_one", fake_run)
    assert cli.main(["run", "--workload", "hot-zipf", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _cli("run", "--workload", "hot-zipf", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_and_unwrap():
    class Layer:
        def outer(self):
            time.sleep(0.01)
            self.inner()
            for _ in range(3):
                self.leaf()

        def inner(self):
            time.sleep(0.02)

        def leaf(self):
            time.sleep(0.005)

    layer = Layer()
    tracer = Tracer()
    tracer.wrap(layer, "outer", "outer", batch_root=True)
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "leaf", "leaf", fold=True)
    layer.outer()
    tracer.unwrap()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    (outer,) = tracer.named("outer")
    (inner,) = tracer.named("inner")
    assert inner.parent == outer.id and inner.batch == outer.id
    calls, leaf_s = outer.attrs["leaf"]
    assert calls == 3 and tracer.folded("leaf")[0] == 3
    assert outer.self_s == pytest.approx(outer.duration - inner.duration - leaf_s)
    assert 0.009 < outer.self_s < 0.05


def _record(values: list[float]) -> dict:
    runs = [
        {"workload": "w", "trace": 0, "metrics": {"goodput_qps": {"value": v, "unit": "req/s"}}}
        for v in values
    ]
    return {"schema": record.SCHEMA, "workloads": {"w": {"runs": runs}}}


BENCH = {
    "end_to_end": [{"name": "goodput_qps", "unit": "req/s", "better": "higher", "bound": 0.1}],
    "per_layer": [],
}


@pytest.mark.parametrize("parent, change, status", [
    # ten pairs, the change wins all, medians apart by more than the IQR
    ([100 + i % 3 for i in range(10)], [120 + i % 3 for i in range(10)], "improved"),
    # the same gain over nine pairs is not enough to claim it
    ([100 + i % 3 for i in range(9)], [120 + i % 3 for i in range(9)], "unchanged"),
    # the change wins 8 of 10 pairs: no gain claimed
    ([100] * 10, [120] * 8 + [90] * 2, "unchanged"),
    ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)], "regressed"),
    # spread wider than the bound: unresolved, not unchanged
    ([60, 140] * 5, [62, 138] * 5, "unresolved"),
])
def test_compare_applies_the_paired_rule(parent, change, status):
    rows = record.compare(_record(parent), _record(change), BENCH)
    assert rows["w"]["end_to_end"]["goodput_qps"]["status"] == status
