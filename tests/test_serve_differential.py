"""Differential harness: micro-batched serving is bit-identical to
per-query ``search()`` for any arrival interleaving.

The guarantee, per (index family x cache mode) cell and bound kernel:
answers served through the :class:`~repro.serve.Server`'s queue and
dynamic micro-batcher — under seeded random arrival times, random pump
interleavings and random batching parameters — equal the answers a twin
engine produces by calling ``search()`` once per query, in ids,
distances *and* ``exact_mask``.

The twin replays queries in the server's service order (FIFO admission
order), which makes the comparison exact even for the LRU cell, whose
dynamic cache state depends on execution order.  Every randomized input
derives from ``SEED`` below; assertion messages carry the cell name,
kernel and schedule seed so failures reproduce with
``np.random.default_rng(seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import (
    ApproximateCache,
    CachePolicy,
    ExactCache,
    LeafNodeCache,
)
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.core.kernels import native_available
from repro.engine.engine import QueryEngine
from repro.index.idistance import IDistanceIndex
from repro.index.linear_scan import LinearScanIndex
from repro.index.vafile import VAFileIndex
from repro.lsh.c2lsh import C2LSHIndex, C2LSHParams, calibrate_base_radius
from repro.serve import ManualClock, ServeConfig, Server
from repro.storage.disk import DiskConfig, SimulatedDisk
from repro.storage.pointfile import PointFile

SEED = 20260807
N_POINTS = 260
DIM = 5
K = 5
N_QUERIES = 10
SCHEDULE_SEEDS = (1, 2, 3)
CACHE_BYTES = 1 << 11
KERNELS = ("decode", "numpy") + (("native",) if native_available()[0] else ())
C2LSH_PARAMS = {"beta": 1.0, "n_hashes": 16}


@dataclass(frozen=True)
class Cell:
    """One (index family x cache mode) entry of the guarantee matrix."""

    name: str
    index_name: str
    cache: str  # hc-hff | exact-hff | exact-lru | leaf
    index_params: dict = field(default_factory=dict)
    kernels: tuple = (None,)  # exact caches compute distances, not bounds


CELLS = (
    Cell("linear~hc-hff", "linear", "hc-hff", kernels=KERNELS),
    Cell(
        "c2lsh~hc-hff", "c2lsh", "hc-hff",
        index_params=C2LSH_PARAMS, kernels=KERNELS,
    ),
    Cell("vafile~hc-hff", "vafile", "hc-hff", kernels=KERNELS),
    Cell("linear~exact-hff", "linear", "exact-hff"),
    Cell("linear~exact-lru", "linear", "exact-lru"),
    Cell("idistance~leaf", "idistance", "leaf", kernels=KERNELS),
)

CASES = [
    (cell, kernel)
    for cell in CELLS
    for kernel in cell.kernels
]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(SEED)
    points = rng.normal(size=(N_POINTS, DIM))
    queries = rng.normal(size=(N_QUERIES, DIM))
    frequencies = rng.integers(0, 9, size=N_POINTS).astype(np.int64)
    encoder = GlobalHistogramEncoder(
        build_equidepth(ValueDomain.from_points(points), 16), DIM
    )
    return {
        "points": points,
        "queries": queries,
        "frequencies": frequencies,
        "encoder": encoder,
    }


def make_engine(cell: Cell, data) -> QueryEngine:
    """A fresh engine for this cell; twin builds are byte-identical."""
    points = data["points"]
    if cell.index_name == "idistance":
        index = IDistanceIndex(points, seed=0, value_bytes=4)
        cache = LeafNodeCache(data["encoder"], CACHE_BYTES)
        freqs = index.leaf_access_frequencies(data["queries"], K)
        cache.populate_by_frequency(freqs, index.leaf_contents)
        return QueryEngine.for_tree(index, cache)
    if cell.index_name == "linear":
        index = LinearScanIndex(N_POINTS)
    elif cell.index_name == "c2lsh":
        index = C2LSHIndex(
            points,
            params=C2LSHParams(**cell.index_params),
            seed=0,
            base_radius=calibrate_base_radius(points, seed=0),
        )
    elif cell.index_name == "vafile":
        index = VAFileIndex(points, bits=6)
    else:
        raise ValueError(cell.index_name)
    if cell.cache == "hc-hff":
        cache = ApproximateCache(
            data["encoder"], CACHE_BYTES, N_POINTS, CachePolicy.HFF
        )
        cache.populate_hff(data["frequencies"], points)
    elif cell.cache == "exact-hff":
        cache = ExactCache(
            DIM, CACHE_BYTES, N_POINTS, value_bytes=4, policy=CachePolicy.HFF
        )
        cache.populate_hff(data["frequencies"], points)
    elif cell.cache == "exact-lru":
        cache = ExactCache(
            DIM, CACHE_BYTES, N_POINTS, value_bytes=4, policy=CachePolicy.LRU
        )
    else:
        raise ValueError(cell.cache)
    point_file = PointFile(points, disk=SimulatedDisk(DiskConfig()))
    return QueryEngine.for_index(index, point_file, cache)


def random_schedule(rng: np.random.Generator) -> tuple[ServeConfig, list]:
    """Seeded batching parameters plus an arrival interleaving.

    The schedule is a list of events: ``("advance", seconds)``,
    ``("submit", query_index)`` and ``("pump",)`` — covering bursts
    (several submits, no time), paced trickles (advances between
    submits) and opportunistic partial flushes (interleaved pumps).
    """
    config = ServeConfig(
        max_queue_depth=64,
        max_batch=int(rng.integers(1, 6)),
        max_wait_us=float(rng.choice([0.0, 500.0, 2000.0])),
    )
    order = rng.permutation(N_QUERIES)
    events: list = []
    for idx in order:
        if rng.random() < 0.7:
            events.append(("advance", float(rng.uniform(0.0, 0.002))))
        events.append(("submit", int(idx)))
        if rng.random() < 0.5:
            events.append(("pump",))
    return config, events


def serve_schedule(engine: QueryEngine, config: ServeConfig, events) -> list:
    """Run one interleaving; returns (query_index, result) in FIFO
    service order."""
    clock = ManualClock()
    server = Server(engine, config=config, default_k=K, clock=clock)
    tickets: list = []  # (query_index, ticket), in submission order
    queries = serve_schedule.queries
    for event in events:
        if event[0] == "advance":
            clock.advance(event[1])
        elif event[0] == "submit":
            tickets.append((event[1], server.submit(queries[event[1]])))
        else:
            server.pump()
    server.close()  # drains whatever the schedule left queued
    assert all(t.done for _, t in tickets), "a request was dropped"
    return [(idx, t.response.result) for idx, t in tickets]


@pytest.mark.parametrize(
    ("cell", "kernel"),
    CASES,
    ids=[f"{c.name}-{k or 'exact'}" for c, k in CASES],
)
def test_serve_matches_per_query_search(
    cell: Cell, kernel, data, force_kernel
) -> None:
    serve_schedule.queries = data["queries"]
    if kernel is not None:
        force_kernel(kernel)
    for schedule_seed in SCHEDULE_SEEDS:
        rng = np.random.default_rng(schedule_seed)
        config, events = random_schedule(rng)
        served = serve_schedule(make_engine(cell, data), config, events)
        # Twin engine, same build; replayed per-query in service order so
        # even order-sensitive (LRU) cache state evolves identically.
        twin = make_engine(cell, data)
        for idx, result in served:
            base = twin.search(data["queries"][idx], K)
            where = (
                f"{cell.name} kernel={kernel} schedule={schedule_seed} "
                f"query={idx} batch<={config.max_batch} "
                f"wait={config.max_wait_us}us seed={SEED}"
            )
            assert np.array_equal(base.ids, result.ids), (
                f"{where}: ids {base.ids} != {result.ids}"
            )
            assert np.array_equal(base.distances, result.distances), (
                f"{where}: distances differ"
            )
            assert np.array_equal(base.exact_mask, result.exact_mask), (
                f"{where}: exact_mask {base.exact_mask} != {result.exact_mask}"
            )


def test_interleavings_actually_vary() -> None:
    """The schedule generator produces distinct batching shapes (guards
    against the suite silently degenerating into one interleaving)."""
    shapes = set()
    for schedule_seed in SCHEDULE_SEEDS:
        config, events = random_schedule(np.random.default_rng(schedule_seed))
        shapes.add(
            (config.max_batch, config.max_wait_us,
             tuple(e[0] for e in events))
        )
    assert len(shapes) == len(SCHEDULE_SEEDS)


def test_kernels_agree_through_the_server(data, force_kernel) -> None:
    """Every bound kernel serves byte-identical answers."""
    serve_schedule.queries = data["queries"]
    cell = CELLS[0]
    config, events = random_schedule(np.random.default_rng(SCHEDULE_SEEDS[0]))
    by_kernel = {}
    for kernel in KERNELS:
        force_kernel(kernel)
        by_kernel[kernel] = serve_schedule(make_engine(cell, data), config, events)
    first = by_kernel[KERNELS[0]]
    for kernel in KERNELS[1:]:
        for (idx_a, a), (idx_b, b) in zip(first, by_kernel[kernel]):
            assert idx_a == idx_b, kernel
            assert np.array_equal(a.ids, b.ids), kernel
            assert np.array_equal(a.distances, b.distances), kernel
            assert np.array_equal(a.exact_mask, b.exact_mask), kernel
