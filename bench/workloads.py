"""The benchmark's five workloads, and one run of one workload.

``python -m bench run`` starts this module once per workload::

    python -m bench.workloads --workload hot-zipf --seed 0 --seconds 8 --trace 0

The process builds the workload's serving stack through the public API
``SETUP_REPEATS`` times (``setup_s`` is the median build), drives a
seeded request stream through the last build for ``--seconds``, checks a
seeded sample of answers against an oracle, and prints one JSON object
as its last line of output.  With ``--trace 1`` it drives the same stream
through two builds, the second one wrapped by :class:`bench.trace.Tracer`,
and reports the per-layer metrics instead of the end-to-end ones.

Every workload serves ``nus-wide-sim`` at half scale (15k points, 150
dimensions, dataset seed 0) with ``k=10`` and an HC-O cache (tau=8,
default kernel).  Each workload cycles through a fixed deck of queries;
``--seed`` sets the order of each cycle and the mutation stream, so the
index, the cache and the mix of requests are the same for every seed.
"""

from __future__ import annotations

import time

PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.cache import NoCache  # noqa: E402
from repro.engine import QueryEngine  # noqa: E402
from repro.eval.methods import WorkloadContext  # noqa: E402
from repro.mutate import MutablePipeline  # noqa: E402
from repro.serve import (  # noqa: E402
    ReplicaPool,
    ReplicaPoolConfig,
    Server,
    ServeConfig,
    ThreadedExecutor,
    server_from_spec,
)
from repro.spec import (  # noqa: E402
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
    ReplicaSection,
    ServeSection,
    ShardSection,
)
from repro.spec.build import resolve_dataset  # noqa: E402

from bench import loadgen  # noqa: E402
from bench.trace import Tracer  # noqa: E402

IMPORTED = time.monotonic()

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "bench" / "results"

K = 10
TAU = 8
MAX_WAIT_US = 2000.0
#: Builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Answers per run compared with the oracle.
VERIFY_SAMPLE = 48
#: Requests in a workload's deck, and in its seeded stream (the closed
#: loop cycles through the stream).
DECK = 100
STREAM_LEN = 4096
#: churn: one insert and one delete of ``WRITE_ROWS`` rows after every
#: ``WRITE_EVERY`` reads, and an ``end_epoch`` fence every ``FENCE_EVERY``.
WRITE_EVERY = 24
WRITE_ROWS = 16
FENCE_EVERY = 72
#: Inserted rows are pool queries plus this much noise (x coordinate std).
INSERT_NOISE = 0.02
#: replica-pool overload probe (traced runs): the pool at 4x max_batch.
OVERLOAD_CLIENTS = 32
OVERLOAD_BATCH = 8


@dataclass(frozen=True)
class Profile:
    """Sizes that differ between a real run and the ``--smoke`` self-test."""

    dataset: str
    scale: float
    #: reads per window, at least; 200 leaves ten samples beyond p95
    min_requests: int
    ladder_requests: int
    overload_requests: int


FULL = Profile("nus-wide-sim", 0.5, 200, 256, 96)
SMOKE = Profile("tiny", 1.0, 60, 32, 32)


@dataclass(frozen=True)
class Workload:
    """One configuration and load; ``BENCHMARK.json`` says why each exists."""

    name: str
    index: str = "c2lsh"
    #: cache bytes as a share of the data file's bytes
    cache_share: float = 0.10
    #: "popular": pool queries in proportion to WL's popularity;
    #: "outside": points outside the query pool (see ``request_deck``)
    requests: str = "popular"
    #: Closed-loop clients four times the batch size keep three batches
    #: queued behind the running one, so each latency spans four batch
    #: times and a stall of the machine under one batch moves the tail
    #: less; batches of four also give twice the batches per window that
    #: batches of eight would.  Both make p95 steadier.
    clients: int = 16
    max_batch: int = 4
    #: > 0: a parallel replica pool of this many engines
    replicas: int = 0
    churn: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hot-zipf"),
        Workload("cold-uniform", requests="outside"),
        # The kernel unpacks every cached code once per batch, so
        # batches of four would cost 60% more CPU per query.
        Workload("scan-kernel", index="linear", cache_share=1.0,
                 requests="outside", clients=32, max_batch=8),
        Workload("churn", churn=True),
        # One batch per replica keeps both busy while the queue stays
        # below max_batch; deeper queues send the dispatcher into a busy
        # loop that starves the replicas past their stall budget (see the
        # overload probe and bench/README.md).
        Workload("replica-pool", clients=8, replicas=2),
    )
}


def load_benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Stack:
    """One build of a workload's serving stack."""

    spec: PipelineSpec
    dataset: object
    context: WorkloadContext
    pipelines: list
    server: Server
    mutable: MutablePipeline | None
    timings: dict

    @property
    def engines(self) -> list[QueryEngine]:
        return [p.engine for p in self.pipelines]


def build_stack(wl: Workload, profile: Profile) -> Stack:
    """Dataset -> index and workload scan -> cache -> server accepting.

    Times each step; the build ends when the server has accepted its
    first request.
    """
    clock = time.monotonic
    t0 = clock()
    section = DatasetSection(name=profile.dataset, seed=0, scale=profile.scale)
    dataset = resolve_dataset(section)
    t1 = clock()
    context = WorkloadContext.prepare(dataset, index_name=wl.index, k=K, seed=0)
    t2 = clock()
    spec = PipelineSpec(
        dataset=section,
        index=IndexSection(name=wl.index),
        cache=CacheSection(
            method="HC-O",
            tau=TAU,
            cache_bytes=int(dataset.file_bytes * wl.cache_share),
        ),
        serve=ServeSection(
            enabled=True, max_batch=wl.max_batch, max_wait_us=MAX_WAIT_US
        ),
        replica=ReplicaSection(
            enabled=wl.replicas > 0, n_replicas=max(1, wl.replicas)
        ),
        k=K,
    )
    mutable = None
    if wl.replicas:
        server, handle = server_from_spec(
            spec,
            dataset=dataset,
            context=context,
            executor=ThreadedExecutor(),
            parallel_replicas=True,
        )
        pipelines = handle.pipelines
        t3 = clock()
    else:
        pipeline = spec.build(dataset=dataset, context=context)
        if wl.churn:
            mutable = MutablePipeline(pipeline)
        pipelines = [pipeline]
        t3 = clock()
        server = Server(
            pipeline,
            config=ServeConfig.from_section(spec.serve),
            default_k=K,
            executor=ThreadedExecutor(),
        )
    ticket = server.submit(dataset.query_log.pool[0])
    t4 = clock()
    ticket.wait(loadgen.TIMEOUT_S)
    timings = {
        "dataset_s": t1 - t0,
        "index_s": t2 - t1,
        "cache_s": t3 - t2,
        "server_s": t4 - t3,
        "total_s": t4 - t0,
    }
    return Stack(spec, dataset, context, pipelines, server, mutable, timings)


# ----------------------------------------------------------------------
# Request and mutation streams
# ----------------------------------------------------------------------
def outside_pool_ids(dataset) -> np.ndarray:
    """Ids of the points that are not in the query pool."""
    pool = {row.tobytes() for row in dataset.query_log.pool}
    return np.flatnonzero([row.tobytes() not in pool for row in dataset.points])


def request_deck(wl: Workload, dataset) -> np.ndarray:
    """The workload's fixed multiset of ``DECK`` queries.

    The deck does not depend on the seed.  Single queries differ in cost
    by more than their mean, so a fresh random sample of a few hundred
    requests per run would move cost per query by several percent from
    seed to seed.  "popular" apportions the deck over the pool in
    proportion to WL's popularity (largest remainder); "outside" is a
    fixed sample of points outside the pool.
    """
    log = dataset.query_log
    if wl.requests == "popular":
        weights = np.bincount(log.workload_idx, minlength=len(log.pool))
        share = weights * DECK / weights.sum()
        counts = np.floor(share).astype(np.int64)
        remainder = DECK - int(counts.sum())
        counts[np.argsort(counts - share, kind="stable")[:remainder]] += 1
        return np.repeat(log.pool, counts, axis=0)
    ids = np.random.default_rng(0).permutation(outside_pool_ids(dataset))
    return dataset.points[ids[:DECK]]


def request_stream(wl: Workload, dataset, seed: int) -> np.ndarray:
    """``STREAM_LEN`` requests: the deck in a fresh seeded order per cycle."""
    deck = request_deck(wl, dataset)
    rng = np.random.default_rng([seed, 1])
    cycles = -(-STREAM_LEN // len(deck))
    order = np.concatenate([rng.permutation(len(deck)) for _ in range(cycles)])
    return deck[order[:STREAM_LEN]]


def churn_writes(stack: Stack, seed: int):
    """``writes(i)``: the fenced mutations to send after the i-th read.

    After every ``WRITE_EVERY`` reads, one insert of ``WRITE_ROWS`` rows
    (pool queries plus noise, quantized to the trained domain) and one
    delete of ``WRITE_ROWS`` ids chosen up front from points outside the
    pool; after every ``FENCE_EVERY`` reads, an ``end_epoch`` fence.  The
    callables look the pipeline's methods up when they run, so a traced
    build records them.
    """
    mp = stack.mutable
    dataset = stack.dataset
    log = dataset.query_log
    outside = outside_pool_ids(dataset)
    groups = min(STREAM_LEN // WRITE_EVERY, len(outside) // WRITE_ROWS // 2)
    rng = np.random.default_rng([seed, 2])
    bases = log.pool[rng.choice(len(log.pool), size=groups * WRITE_ROWS)]
    noise = rng.normal(0.0, INSERT_NOISE * dataset.points.std(), size=bases.shape)
    rows = mp.quantize(bases + noise).reshape(groups, WRITE_ROWS, -1)
    victims = rng.choice(outside, size=(groups, WRITE_ROWS), replace=False)

    def writes(i: int) -> list:
        out = []
        if (i + 1) % WRITE_EVERY == 0:
            group = ((i + 1) // WRITE_EVERY - 1) % groups
            new, dead = rows[group], victims[group]
            out.append(("insert", new, lambda: mp.insert(new)))
            out.append(("delete", dead, lambda: mp.delete(dead)))
        if (i + 1) % FENCE_EVERY == 0:
            out.append(("fence", None, lambda: mp.end_epoch()))
        return out

    return writes


def drive(wl: Workload, stack: Stack, queries: np.ndarray, seed: int,
          seconds: float, profile: Profile) -> loadgen.Window:
    """One measured window of the workload's load on ``stack``."""
    return loadgen.closed_loop(
        stack.server,
        lambda i: queries[i % len(queries)],
        wl.clients,
        seconds,
        profile.min_requests,
        writes=churn_writes(stack, seed) if wl.churn else None,
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def oracle_ids(wl: Workload, stack: Stack, queries: np.ndarray) -> list[np.ndarray]:
    """Answers from a cache-free twin of the stack's index.

    The cache must never change an answer, so the twin answers exactly
    what the cached stack should: a NO-CACHE pipeline over the same
    ``WorkloadContext`` (c2lsh), brute-force kNN (linear scan), or a
    ``NoCache`` engine over the mutated index, point file and live mask
    (churn).
    """
    if stack.mutable is not None:
        mp = stack.mutable
        engine = QueryEngine.for_index(mp.index, mp.point_file, NoCache())
        engine.set_live_mask(mp.data.live)
        return [r.ids for r in engine.search_many(queries, K)]
    if wl.index == "linear":
        points = stack.dataset.points
        return [
            np.argsort(np.linalg.norm(points - q, axis=1), kind="stable")[:K]
            for q in queries
        ]
    twin = dataclasses.replace(
        stack.spec, cache=CacheSection(method="NO-CACHE")
    ).build(dataset=stack.dataset, context=stack.context)
    return [r.ids for r in twin.engine.search_many(queries, K)]


def same_answer(points: np.ndarray, query: np.ndarray, ids, want) -> bool:
    """Equal sorted true distances of the returned and the oracle's ids.

    Distances, not ids, so that ties at the k-th place may break either
    way; the relative tolerance only absorbs summation order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    want = np.asarray(want, dtype=np.int64)
    if len(ids) != len(want) or len(np.unique(ids)) != len(ids):
        return False
    got = np.sort(np.linalg.norm(points[ids] - query, axis=1))
    expected = np.sort(np.linalg.norm(points[want] - query, axis=1))
    return bool(np.allclose(got, expected, rtol=1e-9, atol=0.0))


def _answer(rec: loadgen.Request):
    return rec.response.result if rec.response is not None else None


def verify(wl: Workload, stack: Stack, window: loadgen.Window, seed: int) -> dict:
    """Check a seeded sample of answers; marks wrong reads ``"wrong"``.

    Churn answers depend on the mutations before them, so the churn
    check replays a sample of the read stream through the server after
    the window, and separately checks that no read returned an id a
    delete sent before it removed.
    """
    rng = np.random.default_rng([seed, 3])
    report = {
        "checked": 0, "wrong": 0, "deleted_returned": 0,
        "replayed": 0, "replay_failed": 0,
    }
    if stack.mutable is not None:
        deleted: set[int] = set()
        for rec in window.records:
            if rec.kind == "delete":
                deleted.update(int(i) for i in rec.payload)
            elif rec.kind == "read" and rec.failure is None:
                if deleted.intersection(_answer(rec).ids.tolist()):
                    rec.failure = "wrong"
                    report["deleted_returned"] += 1
        reads = window.reads
        picks = rng.choice(len(reads), size=min(VERIFY_SAMPLE, len(reads)), replace=False)
        replays = [
            loadgen.Request(i, "read", payload=reads[p].payload)
            for i, p in enumerate(sorted(picks))
        ]
        for rec in replays:
            rec.ticket = stack.server.submit(rec.payload)
        for rec in replays:
            try:
                loadgen.finish(rec, rec.ticket.wait(loadgen.TIMEOUT_S))
            except TimeoutError:
                rec.failure = "timeout"
        sample = replays
        report["replayed"] = len(replays)
        points = stack.mutable.point_file.points
    else:
        answered = [r for r in window.reads if r.failure is None]
        picks = rng.choice(len(answered), size=min(VERIFY_SAMPLE, len(answered)), replace=False)
        sample = [answered[p] for p in sorted(picks)]
        points = stack.dataset.points
    if not sample:
        return report
    oracle = oracle_ids(wl, stack, np.stack([r.payload for r in sample]))
    for rec, want in zip(sample, oracle):
        report["checked"] += 1
        if rec.failure is None and same_answer(points, rec.payload, _answer(rec).ids, want):
            continue
        rec.failure = rec.failure or "wrong"
        report["wrong"] += 1
    if stack.mutable is not None:
        report["replay_failed"] = sum(1 for r in sample if r.failure is not None)
    return report


def same_results(a: loadgen.Window, b: loadgen.Window) -> bool:
    """Reads answered in both windows got bit-identical answers."""
    pairs = [
        (x, y) for x, y in zip(a.records, b.records)
        if x.kind == "read" and _answer(x) is not None and _answer(y) is not None
    ]
    return bool(pairs) and all(
        np.array_equal(_answer(x).ids, _answer(y).ids)
        and np.array_equal(_answer(x).distances, _answer(y).distances)
        for x, y in pairs
    )


# ----------------------------------------------------------------------
# End-to-end metrics (untraced pass)
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float | None:
    """Linear-interpolated percentile; None for no samples."""
    values = list(values)
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else None


def mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def modeled_io_ms(stats, disk_config) -> float:
    """The paper's I/O cost of one answer: page reads x modeled latency."""
    return 1e3 * (
        stats.refine_page_reads * disk_config.read_latency_s
        + stats.gen_page_reads * disk_config.seq_read_latency_s
    )


def end_to_end(stack: Stack, window: loadgen.Window, setup_s: float) -> dict:
    """The end-to-end values of one untraced window."""
    reads = window.reads
    good = [r for r in reads if r.failure is None]
    answered = [r for r in reads if _answer(r) is not None]
    disk = stack.context.point_file.disk.config
    return {
        "setup_s": setup_s,
        "goodput_qps": len(good) / window.duration_s,
        "latency_p50_ms": percentile([r.latency_s * 1e3 for r in reads], 50),
        "latency_p95_ms": percentile([r.latency_s * 1e3 for r in reads], 95),
        "cpu_ms_per_query": window.cpu_s * 1e3 / max(1, len(answered)),
        "modeled_io_ms": mean(modeled_io_ms(_answer(r).stats, disk) for r in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced pass)
# ----------------------------------------------------------------------
def _probe_attrs(args, result) -> dict:
    queries, ids = args[0], args[1]
    return {
        "rows": len(np.atleast_2d(queries)),
        "union": len(ids),
        "hits": int(np.count_nonzero(result[0])),
    }


def instrument(stack: Stack, tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of ``stack``."""
    seen: set[tuple[int, str]] = set()

    def wrap(obj, attr, name, **kwargs):
        if (id(obj), attr) not in seen:
            seen.add((id(obj), attr))
            tracer.wrap(obj, attr, name, **kwargs)

    for engine in stack.engines:
        wrap(engine, "search_many", "engine.search_many", batch_root=True,
             observe=lambda args, result: {
                 "rows": len(args[0]),
                 "_keys": [hash(q.tobytes()) for q in args[0]],
             })
        wrap(engine.generate, "run", "engine.generate",
             observe=lambda args, result: {"candidates": len(result)})
        wrap(engine.cache, "lookup_batch", "cache.lookup_batch", observe=_probe_attrs)
        wrap(engine.cache, "lookup", "cache.lookup", observe=_probe_attrs)
        wrap(engine.reduce, "run", "engine.reduce")
        wrap(engine.refine, "run", "engine.refine")
        wrap(engine.point_file, "fetch", "storage.fetch", fold=True)
    mp = stack.mutable
    if mp is not None:
        wrap(mp.index, "insert_many", "index.insert_many",
             observe=lambda args, result: {"rows": len(args[0])})
        wrap(mp, "insert", "mutate.insert")
        wrap(mp, "delete", "mutate.delete")
        wrap(mp, "end_epoch", "mutate.end_epoch")


def link_requests(tracer: Tracer, window: loadgen.Window) -> dict[int, object]:
    """Request id -> the ``engine.search_many`` span that answered it.

    A request is matched to the first batch holding its query that
    started after the request was dispatched; it also gets a
    ``serve.request`` span so the span file explains each request.
    """
    batches = defaultdict(list)
    for span in sorted(tracer.named("engine.search_many"), key=lambda s: s.start):
        for key in span.attrs["_keys"]:
            batches[key].append(span)
    links = {}
    for rec in window.records:
        if rec.response is None:
            continue
        if rec.kind != "read":
            tracer.add("serve.mutation", rec.sent, rec.done_at, request=rec.rid, kind=rec.kind)
            continue
        dispatched = rec.sent + rec.response.queue_wait_s
        span = next(
            (s for s in batches.get(hash(rec.payload.tobytes()), ())
             if s.start >= dispatched),
            None,
        )
        if span is not None:
            links[rec.rid] = span
        tracer.add(
            "serve.request", rec.sent, rec.done_at, request=rec.rid,
            batch=span.id if span is not None else None,
            queue_wait_ms=rec.response.queue_wait_s * 1e3,
            batch_size=rec.response.batch_size,
        )
    return links


def _ms(spans, n: int) -> float:
    return sum(s.duration for s in spans) * 1e3 / max(1, n)


def layer_metrics(stack: Stack, tracer: Tracer, window: loadgen.Window,
                  prefix: int) -> tuple[dict, dict]:
    """Per-layer values and trace checks of one traced window.

    Counts taken from ``QueryStats`` cover the first ``prefix`` reads of
    the stream, which every run sends, so they repeat exactly for a seed.
    """
    reads = window.reads
    answered = [r for r in reads if _answer(r) is not None]
    n = len(answered)
    links = link_requests(tracer, window)

    search = tracer.named("engine.search_many")
    generate = tracer.named("engine.generate")
    probes = tracer.named("cache.lookup_batch") + tracer.named("cache.lookup")
    reduce = tracer.named("engine.reduce")
    refine = tracer.named("engine.refine")
    fetch_calls, fetch_s = tracer.folded("storage.fetch")

    candidates_in_batch = defaultdict(int)
    for span in generate:
        candidates_in_batch[span.batch] += span.attrs["candidates"]
    useful = offered = 0
    for span in tracer.named("cache.lookup_batch"):
        useful += candidates_in_batch[span.batch]
        offered += span.attrs["rows"] * span.attrs["union"]
    probe_s = sum(s.duration for s in probes)

    stats = [_answer(r).stats for r in reads[:prefix] if r.failure is None]
    cands = sum(s.num_candidates for s in stats)
    hits = sum(s.cache_hits for s in stats)

    pickups = [
        (rec.done_at - links[rec.rid].end) * 1e3
        for rec in answered if rec.rid in links
    ]
    search_s = sum(s.duration for s in search)
    phases_s = (
        sum(s.duration for s in generate) + probe_s
        + sum(s.self_s for s in reduce) + sum(s.duration for s in refine)
    )
    inserts = tracer.named("index.insert_many")
    mp = stack.mutable
    values = {
        "serve.queue_wait_ms_p50": percentile(
            [r.response.queue_wait_s * 1e3 for r in answered], 50),
        "serve.queue_wait_ms_p95": percentile(
            [r.response.queue_wait_s * 1e3 for r in answered], 95),
        "serve.batch_size_mean": sum(s.attrs["rows"] for s in search) / max(1, len(search)),
        "loadgen.lag_ms_p95": percentile([r.lag_s * 1e3 for r in window.reads], 95),
        "replica.pickup_ms_p50": percentile(pickups, 50),
        "replica.busy_ratio": search_s / (window.duration_s * len(stack.engines)),
        "engine.generate_ms_per_query": _ms(generate, n),
        "engine.probe_ms_per_query": probe_s * 1e3 / max(1, n),
        "engine.reduce_ms_per_query": sum(s.self_s for s in reduce) * 1e3 / max(1, n),
        "engine.refine_ms_per_query": _ms(refine, n),
        "kernel.bound_pairs_per_s": (
            sum(s.attrs["rows"] * s.attrs["hits"] for s in probes) / probe_s
            if probe_s else 0.0
        ),
        "kernel.useful_pair_ratio": useful / offered if offered else 0.0,
        "cache.hit_ratio": hits / cands if cands else 0.0,
        "cache.prune_ratio": (
            sum(s.pruned + s.confirmed for s in stats) / hits if hits else 0.0
        ),
        "reduce.c_refine_per_query": mean(s.c_refine for s in stats),
        "storage.refine_pages_per_query": mean(s.refine_page_reads for s in stats),
        "storage.gen_pages_per_query": mean(s.gen_page_reads for s in stats),
        "storage.fetch_calls_per_query": fetch_calls / max(1, n),
        "storage.fetch_ms_per_query": fetch_s * 1e3 / max(1, n),
        "index.candidates_per_query": cands / max(1, len(stats)),
        "index.insert_ms_per_row": (
            sum(s.duration for s in inserts) * 1e3
            / max(1, sum(s.attrs["rows"] for s in inserts))
        ),
        "mutate.write_p50_ms": _p50_ms([r for r in window.writes if r.failure is None]),
        "mutate.insert_ms_p50": _span_p50_ms(tracer.named("mutate.insert")),
        "mutate.delete_ms_p50": _span_p50_ms(tracer.named("mutate.delete")),
        "mutate.fence_ms_p50": _span_p50_ms(tracer.named("mutate.end_epoch")),
        "mutate.rebuilds": mp.counters.rebuilds_triggered_total if mp is not None else 0,
    }
    checks = {
        "phase_coverage": phases_s / search_s if search_s else None,
        "linked_requests": len(links),
    }
    return values, checks


def _p50_ms(records) -> float:
    """Median latency in ms; 0 when the workload sends none."""
    return percentile([r.latency_s * 1e3 for r in records], 50) or 0.0


def _span_p50_ms(spans) -> float:
    """Median span duration in ms; 0 when the layer was not called."""
    return percentile([s.duration * 1e3 for s in spans], 50) or 0.0


# ----------------------------------------------------------------------
# Traced-run extras: the shard/serve ladder and the overload probe
# ----------------------------------------------------------------------
def ladder(wl: Workload, stack: Stack, queries: np.ndarray) -> tuple[dict, bool]:
    """The same requests through engine, 2-shard engine and server.

    The difference between neighbouring rungs is the cost of the layer
    added.  Returns per-query milliseconds per rung and whether the
    shard and server answers equal the engine's bit for bit.
    """
    clock = time.monotonic
    n = len(queries)
    chunks = [queries[i:i + wl.max_batch] for i in range(0, n, wl.max_batch)]
    engine = stack.engines[0]
    t0 = clock()
    direct = [r for chunk in chunks for r in engine.search_many(chunk, K)]
    engine_s = clock() - t0
    sharded_spec = dataclasses.replace(
        stack.spec, shard=ShardSection(n_shards=2, executor="process")
    )
    sharded, _ = sharded_spec.build_sharded(dataset=stack.dataset, context=stack.context)
    try:
        t0 = clock()
        shard = [r for chunk in chunks for r in sharded.search_many(chunk, K)]
        shard_s = clock() - t0
    finally:
        sharded.close()
    server = Server(
        stack.pipelines[0],
        config=ServeConfig.from_section(stack.spec.serve),
        default_k=K,
        executor=ThreadedExecutor(),
    )
    try:
        served = loadgen.closed_loop(server, lambda i: queries[i], wl.clients, 0.0, n)
    finally:
        server.close()
    identical = all(
        got is not None
        and np.array_equal(want.ids, got.ids)
        and np.array_equal(want.distances, got.distances)
        for answers in (shard, [_answer(r) for r in served.records])
        for want, got in zip(direct, answers)
    )
    return {
        "ladder.engine_ms_per_query": engine_s * 1e3 / n,
        "ladder.shard_ms_per_query": shard_s * 1e3 / n,
        "ladder.server_ms_per_query": served.duration_s * 1e3 / n,
    }, identical


def overload_probe(stack: Stack, queries: np.ndarray) -> float:
    """Share of brownout answers with the pool at 4x max_batch outstanding.

    A fresh pool over the same replicas, with ``ReplicaPoolConfig``
    defaults (1 s stall budget).
    """
    pool = ReplicaPool(stack.pipelines, config=ReplicaPoolConfig(), parallel=True)
    server = Server(
        pool,
        config=ServeConfig(max_batch=OVERLOAD_BATCH, max_wait_us=MAX_WAIT_US),
        default_k=K,
        executor=ThreadedExecutor(),
    )
    try:
        window = loadgen.closed_loop(
            server, lambda i: queries[i], OVERLOAD_CLIENTS, 0.0, len(queries)
        )
    finally:
        server.close()
        # Stalled dispatches leave their worker threads running; let
        # them finish before the process reports.
        for thread in threading.enumerate():
            if thread.name.startswith("repro-replica"):
                thread.join(loadgen.TIMEOUT_S)
    answers = [_answer(r) for r in window.reads if _answer(r) is not None]
    brownouts = sum(1 for a in answers if a.outcome.reason == "brownout")
    return brownouts / max(1, len(answers))


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def traced_pass(wl: Workload, profile: Profile, stacks: list[Stack],
                queries: np.ndarray, seed: int, seconds: float):
    """The same stream through an untraced and a traced build.

    Returns the traced window, its verification report, the per-layer
    values and the trace checks.  The untraced build's CPU per read is the
    reference for the tracing overhead; afterwards it also serves the
    ladder (``scan-kernel``) and the overload probe (``replica-pool``).
    """
    untraced, stack = stacks
    baseline = drive(wl, untraced, queries, seed, seconds, profile)
    untraced.server.close()
    tracer = Tracer()
    instrument(stack, tracer)
    window = drive(wl, stack, queries, seed, seconds, profile)
    tracer.unwrap()
    verification = verify(wl, stack, window, seed)
    stack.server.close()
    values, checks = layer_metrics(stack, tracer, window, profile.min_requests)
    checks["traced_answers_identical"] = same_results(baseline, window)
    values["trace.overhead_pct"] = 100.0 * (
        (window.cpu_s / len(window.reads)) / (baseline.cpu_s / len(baseline.reads)) - 1.0
    )
    # Layers that only one workload crosses read 0 on the others.
    values.update({
        "ladder.engine_ms_per_query": 0.0,
        "ladder.shard_ms_per_query": 0.0,
        "ladder.server_ms_per_query": 0.0,
        "replica.brownout_ratio": 0.0,
    })
    if wl.index == "linear":
        rungs, checks["ladder_identical"] = ladder(
            wl, untraced, queries[:profile.ladder_requests]
        )
        values.update(rungs)
    if wl.replicas:
        values["replica.brownout_ratio"] = overload_probe(
            untraced, queries[:profile.overload_requests]
        )
    tracer.write_jsonl(RESULTS_DIR / f"{wl.name}.spans.jsonl")
    return window, verification, values, checks


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, drive, check and measure one workload; the run's record."""
    wl = WORKLOADS[name]
    profile = SMOKE if smoke else FULL
    started = _now()
    keep = 2 if trace else 1
    stacks: list[Stack] = []
    builds: list[dict] = []
    for rep in range(SETUP_REPEATS):
        stack = build_stack(wl, profile)
        builds.append(stack.timings)
        if rep < SETUP_REPEATS - keep:
            stack.server.close()
            del stack
            gc.collect()
        else:
            stacks.append(stack)
    setup = {key: statistics.median(b[key] for b in builds) for key in builds[0]}
    queries = request_stream(wl, stacks[0].dataset, seed)
    stack = stacks[-1]
    if trace:
        window, verification, values, checks = traced_pass(
            wl, profile, stacks, queries, seed, seconds
        )
        values.update({
            f"setup.{key}": setup[key]
            for key in ("dataset_s", "index_s", "cache_s", "server_s")
        })
    else:
        window = drive(wl, stack, queries, seed, seconds, profile)
        verification = verify(wl, stack, window, seed)
        stack.server.close()
        values = end_to_end(stack, window, (IMPORTED - PROCESS_START) + setup["total_s"])
        checks = {}
    checks["loadgen_lag_ok"] = percentile(
        [r.lag_s * 1e3 for r in window.reads], 95) <= 5.0

    spec = load_benchmark_spec()
    failures = Counter(
        r.failure.split(":")[0] for r in window.records if r.failure is not None
    )
    correct = (
        verification["wrong"] == 0
        and verification["deleted_returned"] == 0
        and checks.get("traced_answers_identical", True)
        and checks.get("ladder_identical", True)
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "started": started,
        "finished": _now(),
        "kernel": stack.engines[0].kernel_name,
        "correct": bool(correct),
        "attempted": len(window.records) + verification["replayed"],
        "failed": sum(failures.values()) + verification["replay_failed"],
        "failures": dict(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
        "samples": {
            "reads": len(window.reads),
            "writes": len(window.writes),
            "window_s": window.duration_s,
            "setup_builds": [b["total_s"] for b in builds],
        },
        "verification": verification,
        "checks": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
