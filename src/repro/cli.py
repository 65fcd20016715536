"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``        — list registry datasets and method names;
* ``experiment``  — run one caching configuration and print its metrics;
* ``compare``     — run several methods under one budget and print the
  comparison table;
* ``tune``        — report the cost model's optimal code length for a
  cache budget sweep;
* ``serve``       — run the long-lived serving layer (``repro.serve``)
  under open-loop offered load and print the latency profile;
* ``snapshot``    — build, inspect, serve and differentially verify
  versioned pipeline snapshot artifacts (``repro.artifacts``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.cost_model import optimal_tau
from repro.data.datasets import REGISTRY, load_dataset
from repro.eval.methods import METHOD_NAMES, WorkloadContext
from repro.eval.reporting import format_table
from repro.eval.runner import Experiment
from repro.obs.registry import MetricsRegistry
from repro.obs.reporter import MetricsReporter
from repro.spec.sections import (
    CacheSection,
    DatasetSection,
    IndexSection,
    PipelineSpec,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="tiny", choices=sorted(REGISTRY))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset cardinality multiplier")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--tau", type=int, default=8, help="code length (bits)")
    parser.add_argument("--cache-kb", type=int, default=0,
                        help="cache size in KB (0 = 30%% of the file)")
    parser.add_argument("--index", default="c2lsh",
                        choices=("c2lsh", "e2lsh", "multiprobe", "sklsh", "vafile", "vaplus", "linear"))
    parser.add_argument("--batched", action="store_true",
                        help="run the test queries through the engine's "
                             "batched hot path (identical results/I/O)")
    parser.add_argument("--kernel", default="auto",
                        choices=("auto", "decode", "numpy", "native"),
                        help="bound kernel for approximate caches "
                             "(repro.core.kernels; bit-identical results). "
                             "'auto' honors REPRO_KERNEL and defaults to "
                             "the numpy table-gather kernel; 'native' "
                             "compiles a C kernel on first use")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="partition the dataset into N shards and run "
                             "the sharded parallel engine (0 = unsharded)")
    parser.add_argument("--executor", default="serial",
                        choices=("serial", "thread", "process"),
                        help="per-shard execution backend (with --shards)")
    parser.add_argument("--partition", default="contiguous",
                        choices=("contiguous", "round_robin", "cluster"),
                        help="shard partitioning strategy (with --shards)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect engine/cache telemetry (repro.obs) "
                             "and print the snapshot after the results")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics snapshot as JSON "
                             "(implies --metrics)")
    parser.add_argument("--metrics-format", choices=("table", "prom"),
                        default="table",
                        help="printed metrics format: human table or "
                             "Prometheus text exposition")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="inject seeded disk faults during refinement, "
                             "e.g. 'rate=0.05,corrupt_rate=0.01,seed=7' "
                             "(see repro.faults.parse_fault_spec)")
    parser.add_argument("--deadline-ms", type=float, default=0.0,
                        metavar="MS",
                        help="per-query time budget; an expired budget "
                             "degrades to a cache-only answer")
    parser.add_argument("--degraded", action="store_true",
                        help="answer from cached bounds instead of failing "
                             "when retries/deadline are exhausted (implied "
                             "by --faults/--deadline-ms; with --shards also "
                             "merges partial results from surviving shards)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="bounded retries per faulted refinement read "
                             "(with --faults)")


def _resolve_cache(args, dataset) -> int:
    if args.cache_kb > 0:
        return args.cache_kb * 1024
    return int(dataset.file_bytes * 0.3)


def _spec_from_args(args, dataset) -> PipelineSpec:
    """The ``PipelineSpec`` the dataset/index/method flags describe.

    The spec names the dataset (registry name + scale + seed) rather
    than embedding it, so ``snapshot verify`` can re-materialize the
    identical dataset and rebuild the pipeline through the single
    build path.
    """
    return PipelineSpec(
        dataset=DatasetSection(
            name=args.dataset, seed=args.seed, scale=args.scale
        ),
        index=IndexSection(name=args.index),
        cache=CacheSection(
            method=args.method,
            tau=args.tau,
            cache_bytes=_resolve_cache(args, dataset),
            kernel=args.kernel,
        ),
        k=args.k,
        seed=args.seed,
    )


def _fault_config(args):
    """``(FaultSpec | None, ResiliencePolicy | None)`` from the flags.

    A policy is built whenever any fault/deadline/degraded flag is set;
    ``--faults`` and ``--deadline-ms`` imply degraded answers (otherwise
    an unmasked fault would abort the whole run).
    """
    faults = getattr(args, "faults", None)
    deadline_ms = getattr(args, "deadline_ms", 0.0)
    degraded = getattr(args, "degraded", False)
    if faults is None and deadline_ms <= 0 and not degraded:
        return None, None
    from repro.faults import ResiliencePolicy, RetryPolicy, parse_fault_spec

    spec = parse_fault_spec(faults) if faults else None
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_retries=max(0, args.retries)),
        deadline_s=deadline_ms / 1e3 if deadline_ms > 0 else None,
        degraded=True,
    )
    return spec, policy


def _metrics_registry(args) -> MetricsRegistry | None:
    """A fresh registry when --metrics / --metrics-out was requested."""
    if args.metrics or args.metrics_out:
        return MetricsRegistry()
    return None


def _emit_metrics(args, registry: MetricsRegistry, payload: dict) -> None:
    """Print the snapshot and (optionally) dump the JSON payload."""
    print()
    MetricsReporter(registry, fmt=args.metrics_format).report()
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"metrics written to {args.metrics_out}")


def _result_rows(results):
    rows = []
    for r in results:
        rows.append([
            r.method, r.tau, round(r.hit_ratio, 3), round(r.prune_ratio, 3),
            round(r.avg_crefine, 1), round(r.avg_refine_io, 1),
            round(r.response_time_s, 4),
        ])
    return rows


_RESULT_HEADERS = [
    "method", "tau", "hit", "prune", "Crefine", "refine_io", "t_response_s"
]


def cmd_info(_args) -> int:
    """List registry datasets and method names."""
    rows = [
        [name, cfg.n_points, cfg.dim, cfg.value_bits]
        for name, cfg in sorted(REGISTRY.items())
    ]
    print(format_table(["dataset", "points", "dim", "value_bits"], rows,
                       title="Registry datasets"))
    print("\nmethods:", ", ".join(METHOD_NAMES))
    return 0


def _run_sharded_experiment(args, dataset, context) -> int:
    """Experiment branch for ``--shards N``: sharded parallel engine.

    Results are bit-identical to the unsharded engine (the differential
    suite enforces this); the printed row aggregates the per-shard
    ``QueryStats`` and the metrics snapshot is the merge of all shard
    registries.
    """
    from repro.eval.runner import summarize
    from repro.shard import ShardedEngine
    from repro.shard.factory import specs_from_method
    from repro.storage.disk import DiskConfig

    want_metrics = args.metrics or args.metrics_out
    fault_spec, policy = _fault_config(args)
    try:
        specs = specs_from_method(
            dataset, context, method=args.method, tau=args.tau,
            cache_bytes=_resolve_cache(args, dataset),
            n_shards=args.shards, index_name=args.index,
            partition=args.partition, seed=args.seed,
            metrics=want_metrics,
            faults=fault_spec, resilience=policy,
            kernel=args.kernel,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine_kwargs = {}
    if policy is not None:
        engine_kwargs["degraded"] = True
        engine_kwargs["deadline_s"] = policy.deadline_s
    with ShardedEngine(specs, executor=args.executor, **engine_kwargs) as engine:
        results = engine.search_many(dataset.query_log.test, args.k)
        stats = [r.stats for r in results]
        degraded = sum(1 for r in results if not r.outcome.complete)
        merged = engine.merged_metrics() if want_metrics else None
    disk = DiskConfig()
    result = summarize(
        stats, method=args.method, tau=args.tau,
        cache_bytes=_resolve_cache(args, dataset), k=args.k,
        read_latency_s=disk.read_latency_s,
        seq_read_latency_s=disk.seq_read_latency_s,
    )
    title = (
        f"{args.dataset} / {args.method} "
        f"({args.shards} shards, {args.executor})"
    )
    print(format_table(_RESULT_HEADERS, _result_rows([result]), title=title))
    if degraded:
        print(f"degraded answers: {degraded}/{len(stats)} queries "
              "(cache-only, incomplete)")
    if merged is not None:
        _emit_metrics(args, merged, merged.snapshot())
    return 0


def _run_adaptive_experiment(args, dataset, context) -> int:
    """Experiment branch for ``--adapt``: serve with online retraining.

    The pipeline carries a ``DriftController`` (fed by the engine's
    ``WorkloadHook``) that retrains the cache from the live workload and
    hot-swaps it mid-run; the printed row summarizes the whole adaptive
    run and the retrain count follows.
    """
    import dataclasses

    from repro.eval.runner import summarize
    from repro.spec.sections import AdaptSection

    registry = _metrics_registry(args)
    spec = dataclasses.replace(
        _spec_from_args(args, dataset),
        adapt=AdaptSection(
            enabled=True, every=args.adapt_every, model=args.adapt_model
        ),
    )
    try:
        pipeline = spec.build(dataset=dataset, context=context, metrics=registry)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = [
        pipeline.search(q, args.k).stats for q in dataset.query_log.test
    ]
    result = summarize(
        stats, method=args.method, tau=args.tau,
        cache_bytes=spec.cache.cache_bytes, k=args.k,
        read_latency_s=pipeline.read_latency_s,
        seq_read_latency_s=pipeline.seq_read_latency_s,
    )
    print(format_table(
        _RESULT_HEADERS, _result_rows([result]),
        title=f"{args.dataset} / {args.method} (adaptive)",
    ))
    controller = pipeline.drift_controller
    print(f"retrains: {controller.retrains} "
          f"(model={args.adapt_model}, every={args.adapt_every})")
    if registry is not None:
        _emit_metrics(args, registry, registry.snapshot())
    return 0


def cmd_experiment(args) -> int:
    """Run one caching configuration and print its metrics."""
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    context = WorkloadContext.prepare(
        dataset, index_name=args.index, k=args.k, seed=args.seed
    )
    if args.shards > 0:
        return _run_sharded_experiment(args, dataset, context)
    if args.adapt:
        return _run_adaptive_experiment(args, dataset, context)
    registry = _metrics_registry(args)
    fault_spec, policy = _fault_config(args)
    result = Experiment(
        dataset, method=args.method, k=args.k, tau=args.tau,
        cache_bytes=_resolve_cache(args, dataset), index_name=args.index,
        seed=args.seed, batched=args.batched, kernel=args.kernel,
        metrics=registry if registry is not None else False,
        faults=fault_spec, resilience=policy,
    ).run(context=context)
    print(format_table(_RESULT_HEADERS, _result_rows([result]),
                       title=f"{args.dataset} / {args.method}"))
    if result.degraded_queries:
        print(f"degraded answers: {result.degraded_queries}"
              f"/{result.num_queries} queries (cache-only, incomplete)")
    if registry is not None:
        _emit_metrics(args, registry, result.metrics)
    return 0


def cmd_compare(args) -> int:
    """Run several methods under one budget and print the comparison."""
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    context = WorkloadContext.prepare(
        dataset, index_name=args.index, k=args.k, seed=args.seed
    )
    cache_bytes = _resolve_cache(args, dataset)
    want_metrics = args.metrics or args.metrics_out
    fault_spec, policy = _fault_config(args)
    results = []
    registries: dict[str, MetricsRegistry] = {}
    for method in args.methods:
        # One registry per method: engine totals and cache gauges from
        # different configurations must not mix.
        if want_metrics:
            registries[method] = MetricsRegistry()
        results.append(
            Experiment(
                dataset, method=method, k=args.k, tau=args.tau,
                cache_bytes=cache_bytes, index_name=args.index, seed=args.seed,
                batched=args.batched, kernel=args.kernel,
                metrics=registries.get(method, False),
                faults=fault_spec, resilience=policy,
            ).run(context=context)
        )
    print(format_table(
        _RESULT_HEADERS, _result_rows(results),
        title=f"{args.dataset}, cache {cache_bytes >> 10} KB, k={args.k}",
    ))
    if want_metrics:
        for method, result in zip(args.methods, results):
            print(f"\n--- metrics: {method} ---")
            MetricsReporter(registries[method], fmt=args.metrics_format).report()
        if args.metrics_out:
            payload = {
                "methods": {
                    method: result.metrics
                    for method, result in zip(args.methods, results)
                }
            }
            Path(args.metrics_out).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_tune(args) -> int:
    """Print the cost model's optimal tau across a cache-size sweep."""
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    context = WorkloadContext.prepare(
        dataset, index_name=args.index, k=args.k, seed=args.seed
    )
    model = context.cost_model()
    rows = []
    for fraction in (0.05, 0.1, 0.2, 0.3, 0.5):
        cache_bytes = int(dataset.file_bytes * fraction)
        tau_star = optimal_tau(model, cache_bytes, tau_range=(2, 16))
        rows.append([
            f"{fraction:.0%}", cache_bytes >> 10, tau_star,
            round(model.estimate_io_equiwidth(cache_bytes, tau_star, k=args.k), 1),
        ])
    print(format_table(
        ["cache", "KB", "tau*", "estimated refine I/O"], rows,
        title=f"Cost-model tuning on {args.dataset}",
    ))
    return 0


def cmd_serve(args) -> int:
    """Run the serving front end under open-loop offered load."""
    import dataclasses

    import numpy as np

    from repro.serve import run_open_loop, server_from_spec
    from repro.spec.sections import (
        ReplicaSection,
        ResilienceSection,
        ServeSection,
        ShardSection,
    )

    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    registry = _metrics_registry(args)
    sections: dict = {
        "serve": ServeSection(
            enabled=True,
            max_queue_depth=args.queue_depth,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            tiers=(
                {"default": args.deadline_ms} if args.deadline_ms > 0 else {}
            ),
        )
    }
    if args.shards > 0:
        sections["shard"] = ShardSection(
            n_shards=args.shards, executor=args.executor,
            partition=args.partition,
        )
    if args.replicas > 0:
        sections["replica"] = ReplicaSection(
            enabled=True,
            n_replicas=args.replicas,
            stall_budget_ms=args.stall_budget_ms,
            hedge_delay_ms=args.hedge_delay_ms,
        )
    if args.faults or args.deadline_ms > 0 or args.degraded:
        # Degraded answers (not hard failures) when budgets/faults bite;
        # the per-request deadlines themselves come from the serve tier.
        sections["resilience"] = ResilienceSection(
            enabled=True, max_retries=max(0, args.retries),
            degraded=True, faults=args.faults,
        )
    spec = dataclasses.replace(_spec_from_args(args, dataset), **sections)
    context = None
    if args.shards == 0:
        context = WorkloadContext.prepare(
            dataset, index_name=args.index, k=args.k, seed=args.seed
        )
    test = dataset.query_log.test
    n_requests = args.requests or len(test)
    reps = -(-n_requests // len(test))
    queries = np.tile(test, (reps, 1))[:n_requests]
    if args.churn_rate > 0 and args.replicas > 0:
        print("error: --churn-rate is not supported with --replicas "
              "(mutations cannot fence a replica pool)", file=sys.stderr)
        return 2
    try:
        server, pipeline = server_from_spec(
            spec, dataset=dataset, context=context, metrics=registry
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mutator = None
    if args.churn_rate > 0:
        mutator = _serve_mutator(args, dataset, pipeline, registry)
    pool = getattr(pipeline, "pool", None)
    if pool is not None and args.replica_crash_batches:
        from repro.serve import FaultyReplica

        crash_batches = tuple(
            int(b) for b in args.replica_crash_batches.split(",") if b
        )
        victim = pool.replicas[0]
        victim.target = FaultyReplica(
            victim.target, crash_batches=crash_batches
        )
    try:
        report = run_open_loop(
            server, queries, k=args.k, rate_qps=args.rate,
            mutator=mutator, churn_rate=args.churn_rate,
        )
    finally:
        server.close()
        if hasattr(pipeline, "close"):
            pipeline.close()
    rows = [[
        report.offered_qps if report.offered_qps > 0 else "max",
        round(report.achieved_qps, 1), report.submitted, report.served,
        report.rejected, report.degraded, report.expired,
        round(report.latency_p50_ms, 3), round(report.latency_p99_ms, 3),
        round(report.mean_batch_size, 2),
    ]]
    print(format_table(
        ["offered_qps", "qps", "sent", "served", "shed", "degraded",
         "expired", "p50_ms", "p99_ms", "batch"],
        rows,
        title=f"{args.dataset} / {args.method} serve "
              f"(batch<={args.max_batch}, wait<={args.max_wait_us:.0f}us, "
              f"depth<={args.queue_depth})",
    ))
    tier_rows = [
        [tier, counts["served"], counts["shed"], counts["degraded"],
         counts["expired"]]
        for tier, counts in sorted(report.per_tier.items())
    ]
    if tier_rows:
        print(format_table(
            ["tier", "served", "shed", "degraded", "expired"], tier_rows,
            title="per-tier outcomes",
        ))
    if args.churn_rate > 0:
        print(f"mutations applied through the queue fence: "
              f"{report.mutations}")
    if pool is not None:
        crashes = sum(r.crashes for r in pool.replicas)
        stalls = sum(r.stalls for r in pool.replicas)
        restarts = sum(r.restarts for r in pool.replicas)
        print(
            f"replicas: {pool.healthy_count}/{len(pool.replicas)} healthy, "
            f"{pool.quarantined_count} quarantined "
            f"(crashes={crashes} stalls={stalls} restarts={restarts})"
        )
    if registry is not None:
        from repro.obs.reporter import serve_summary

        payload = registry.snapshot()
        payload["serve"] = serve_summary(registry)
        payload["load"] = report.to_dict()
        _emit_metrics(args, registry, payload)
    return 0


def _serve_mutator(args, dataset, pipeline, registry):
    """The churn closure behind ``repro serve --churn-rate``.

    Each mutation inserts one point (resampled from the base data, so it
    encodes under the trained geometry for every index family) and
    tombstones one random live id — constant live cardinality under
    continuous churn.  Mutations against a sharded engine route through
    ``ShardedEngine.mutate``; the single-engine path wraps the pipeline
    in a :class:`~repro.mutate.MutablePipeline` whose counters mirror
    into the serve metrics registry.
    """
    import numpy as np

    from repro.shard.engine import ShardedEngine

    rng = np.random.default_rng(args.seed + 1)
    if isinstance(pipeline, ShardedEngine):
        engine = pipeline
        base = dataset.points
        deleted: set[int] = set()

        def mutator():
            row = base[rng.integers(0, len(base))][None, :]

            def apply(row=row):
                picks = rng.integers(0, engine.n_points, size=8)
                victims = [int(i) for i in picks if int(i) not in deleted][:1]
                engine.mutate(
                    insert_points=row,
                    delete_ids=np.array(victims, dtype=np.int64)
                    if victims
                    else None,
                )
                deleted.update(victims)
                if registry is not None:
                    registry.counter(
                        "mutations_applied_total",
                        help="rows inserted/deleted/updated",
                    ).inc(1 + len(victims))

            return apply

        return mutator

    from repro.mutate import MutablePipeline
    from repro.mutate.pipeline import MutationCounters

    mutable = MutablePipeline(
        pipeline, counters=MutationCounters(metrics=registry)
    )

    def mutator():
        row = mutable.data.points[
            rng.integers(0, mutable.data.base_count)
        ][None, :]

        def apply(row=row):
            mutable.insert(row)
            live = mutable.data.live_ids()
            if live.size > 1:
                mutable.delete(np.array([rng.choice(live)], dtype=np.int64))

        return apply

    return mutator


def _parse_delete_spec(text: str, rng, live_ids):
    """``--delete`` argument: either a count or a comma-list of ids."""
    import numpy as np

    if "," in text or not text.isdigit():
        return np.array([int(part) for part in text.split(",") if part],
                        dtype=np.int64)
    count = min(int(text), len(live_ids))
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(live_ids, size=count, replace=False))


def cmd_mutate(args) -> int:
    """Churn a live pipeline: insert/delete, filtered search, advisor pass."""
    import numpy as np

    from repro.eval.runner import summarize
    from repro.mutate import MutablePipeline, parse_predicate, reference_twin
    from repro.mutate.pipeline import MutationCounters

    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    context = WorkloadContext.prepare(
        dataset, index_name=args.index, k=args.k, seed=args.seed
    )
    registry = _metrics_registry(args)
    spec = _spec_from_args(args, dataset)
    try:
        inner = spec.build(dataset=dataset, context=context, metrics=registry)
        predicate = parse_predicate(args.filter) if args.filter else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pipeline = MutablePipeline(
        inner, counters=MutationCounters(metrics=registry)
    )
    # Registry datasets carry no attributes; give filtered search a
    # deterministic demo column (label = id mod 10).
    if not pipeline.data.attributes:
        pipeline.data.attributes["label"] = (
            np.arange(pipeline.data.num_total, dtype=np.int64) % 10
        )
    rng = np.random.default_rng(args.seed)
    new_ids = np.empty(0, dtype=np.int64)
    if args.insert > 0:
        base = pipeline.data.points[: pipeline.data.base_count]
        picks = rng.integers(0, len(base), size=args.insert)
        rows = pipeline.quantize(
            base[picks] + rng.normal(scale=base.std(axis=0), size=(args.insert, base.shape[1]))
        )
        new_ids = pipeline.insert(
            rows, attributes={"label": picks % 10}
            if "label" in pipeline.data.attributes else None
        )
    deleted = np.empty(0, dtype=np.int64)
    if args.delete:
        try:
            ids = _parse_delete_spec(args.delete, rng, pipeline.data.live_ids())
        except ValueError as exc:
            print(f"error: bad --delete spec: {exc}", file=sys.stderr)
            return 2
        deleted = pipeline.delete(ids)
    pipeline.revalidate()
    queries = dataset.query_log.test
    results = pipeline.search_many(queries, args.k, predicate=predicate)
    if args.check:
        twin = reference_twin(pipeline)
        expected = twin.search_many(queries, args.k, predicate=predicate)
        for qi, (got, want) in enumerate(zip(results, expected)):
            if not (
                np.array_equal(got.ids, want.ids)
                and np.allclose(got.distances, want.distances)
                and np.array_equal(got.exact_mask, want.exact_mask)
            ):
                print(f"error: query {qi} diverged from the from-scratch "
                      "rebuild", file=sys.stderr)
                return 1
        print(f"differential check: {len(results)} queries bit-identical "
              "to a from-scratch rebuild")
    result = summarize(
        [r.stats for r in results], method=args.method, tau=args.tau,
        cache_bytes=spec.cache.cache_bytes, k=args.k,
        read_latency_s=inner.read_latency_s,
        seq_read_latency_s=inner.seq_read_latency_s,
    )
    title = (
        f"{args.dataset} / {args.method} after churn "
        f"(+{len(new_ids)} / -{len(deleted)}"
        + (f", filter {args.filter}" if args.filter else "") + ")"
    )
    print(format_table(_RESULT_HEADERS, _result_rows([result]), title=title))
    print(f"live points: {pipeline.data.num_live}/{pipeline.data.num_total}")
    decision = pipeline.end_epoch(recent_workload=queries)
    print(f"advisor: {decision.action} ({decision.reason}; "
          f"mutated={decision.mutated_fraction:.2f} "
          f"drift={decision.drift_distance:.2f} "
          f"patch={decision.patch_cost:.0f} rebuild={decision.rebuild_cost:.0f})")
    if registry is not None:
        _emit_metrics(args, registry, registry.snapshot())
    return 0


def cmd_snapshot_build(args) -> int:
    """Build a pipeline from the flags and persist it as a snapshot."""
    from repro.artifacts.snapshot import inspect_snapshot, save_snapshot

    registry = _metrics_registry(args)
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    spec = _spec_from_args(args, dataset)
    pipeline = spec.build(dataset=dataset)
    queries = (
        dataset.query_log.test if dataset.query_log is not None else None
    )
    path = save_snapshot(args.out, pipeline, queries=queries, metrics=registry)
    report = inspect_snapshot(path)
    print(f"snapshot written to {path}")
    print(f"  method={pipeline.method} index={args.index} tau={args.tau} "
          f"k={args.k} members={report['total_bytes']} bytes")
    if registry is not None:
        _emit_metrics(args, registry, registry.snapshot())
    return 0


def cmd_snapshot_inspect(args) -> int:
    """Print a snapshot's manifest summary and member sizes."""
    from repro.artifacts.snapshot import inspect_snapshot

    report = inspect_snapshot(args.path)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"snapshot {report['path']}")
    for key in ("format_version", "kind", "method", "tau", "k",
                "index_family", "cache_kind", "has_spec"):
        print(f"  {key}: {report[key]}")
    rows = [
        [name, member["bytes"], member["digest"][:12]]
        for name, member in sorted(report["members"].items())
    ]
    print(format_table(["member", "bytes", "digest"], rows, title="members"))
    print(f"total member bytes: {report['total_bytes']}")
    return 0


def cmd_snapshot_serve(args) -> int:
    """Open a snapshot zero-copy (mmap) and serve its stored queries.

    Replay routes through the ``repro.serve`` :class:`~repro.serve.Server`
    (closed-loop, one request at a time), so ``--deadline-ms`` budgets —
    charged from admission — and per-tier serve metrics apply here
    exactly as in the long-lived ``repro serve`` front end.
    """
    from repro.artifacts.snapshot import load_queries, load_snapshot
    from repro.artifacts.store import read_manifest
    from repro.eval.runner import summarize
    from repro.serve import ServeConfig, Server, SlaTier
    from repro.storage.disk import DiskConfig

    registry = _metrics_registry(args)
    pipeline = load_snapshot(args.path, mmap=not args.no_mmap,
                             metrics=registry)
    queries = load_queries(args.path)
    if queries is None:
        print("error: snapshot stores no queries to serve", file=sys.stderr)
        return 2
    if args.limit:
        queries = queries[: args.limit]
    manifest = read_manifest(args.path)
    k = args.k or int(manifest["k"])
    spec = pipeline.spec
    controller = None
    if args.adapt_every > 0:
        controller = _serve_controller(args, pipeline, manifest, spec, registry)
        if controller is None:
            return 2
    tiers = (
        (SlaTier("default", args.deadline_ms),)
        if args.deadline_ms > 0
        else ()
    )
    stats = []
    degraded = 0
    with Server(
        pipeline,
        config=ServeConfig(tiers=tiers),
        default_k=k,
        metrics=registry,
        controller=controller,
    ) as server:
        for q in queries:
            response = server.serve_one(q, k)
            stats.append(response.result.stats)
            if response.degraded:
                degraded += 1
    disk = manifest.get("disk") or {}
    defaults = DiskConfig()
    result = summarize(
        stats,
        method=manifest["method"],
        tau=int(manifest["tau"] or 0),
        cache_bytes=spec.cache.cache_bytes if spec is not None else 0,
        k=k,
        read_latency_s=disk.get("read_latency_s", defaults.read_latency_s),
        seq_read_latency_s=disk.get(
            "seq_read_latency_s", defaults.seq_read_latency_s
        ),
    )
    print(format_table(_RESULT_HEADERS, _result_rows([result]),
                       title=f"served from {args.path}"))
    if degraded:
        print(f"degraded answers: {degraded}/{len(stats)} queries "
              "(cache-only, incomplete)")
    if controller is not None:
        print(f"retrains: {controller.retrains} "
              f"(every {args.adapt_every} queries)")
        if controller.last_report is not None:
            print(f"  last snapshot: {controller.last_report.snapshot_path}")
    if registry is not None:
        from repro.obs.reporter import serve_summary

        payload = registry.snapshot()
        payload["serve"] = serve_summary(registry)
        _emit_metrics(args, registry, payload)
    return 0


def _serve_controller(args, pipeline, manifest, spec, registry):
    """The ``DriftController`` behind ``snapshot serve --adapt-every``.

    Retrained caches publish as versioned ``snap-NNNNNN`` artifacts
    under ``<snapshot>/maintenance`` and hot-swap into the serving
    engine through the CURRENT-pointer protocol.
    """
    from repro.workload.drift import DriftController, EveryNQueries
    from repro.workload.model import WindowWorkload
    from repro.workload.train import _GLOBAL_BUILDERS, TrainSpec

    method = manifest["method"]
    if method not in _GLOBAL_BUILDERS:
        print(f"error: --adapt-every supports the global HC methods "
              f"{sorted(_GLOBAL_BUILDERS)}, not {method!r}", file=sys.stderr)
        return None
    cache_bytes = (
        spec.cache.cache_bytes
        if spec is not None
        else int(getattr(pipeline.cache, "capacity_bytes", 0)) or 1 << 20
    )
    return DriftController(
        WindowWorkload(capacity=max(4 * args.adapt_every, 256)),
        TrainSpec(
            points=pipeline.point_file.points,
            index=pipeline.index,
            k=args.k or int(manifest["k"]),
            method=method,
            tau=int(manifest["tau"] or 8),
            cache_bytes=cache_bytes,
        ),
        engine=pipeline.engine,
        trigger=EveryNQueries(args.adapt_every),
        snapshot_root=Path(args.path) / "maintenance",
        metrics=registry,
    )


def cmd_snapshot_verify(args) -> int:
    """Differentially verify a snapshot against a fresh spec rebuild.

    Exits non-zero on any id/distance/page-read mismatch or on a
    manifest format-version drift, so CI can gate on it.
    """
    from repro.artifacts.errors import ArtifactError, FormatVersionError
    from repro.artifacts.snapshot import verify_snapshot

    try:
        report = verify_snapshot(args.path, k=args.k or None,
                                 limit=args.limit or None)
    except (FormatVersionError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "ok" if report["ok"] else "MISMATCH"
    print(f"verify {args.path}: {status} "
          f"({report['queries']} queries, kind={report['kind']}, "
          f"method={report['method']}, v{report['format_version']})")
    if not report["ok"]:
        print(f"  mismatching query indexes: {report['mismatches']}",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Histogram-based caching for high-dimensional kNN search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets and methods")

    p_exp = sub.add_parser("experiment", help="run one configuration")
    _add_common(p_exp)
    p_exp.add_argument("--method", default="HC-O", choices=METHOD_NAMES)
    p_exp.add_argument("--adapt", action="store_true",
                       help="retrain the cache online from the live "
                            "workload (repro.workload drift loop)")
    p_exp.add_argument("--adapt-every", type=int, default=100, metavar="N",
                       help="retrain period in served queries (with --adapt)")
    p_exp.add_argument("--adapt-model", default="window",
                       choices=("window", "sketch"),
                       help="live workload model (with --adapt)")

    p_cmp = sub.add_parser("compare", help="compare methods under one budget")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--methods", nargs="+", default=["NO-CACHE", "EXACT", "HC-D", "HC-O"],
        choices=METHOD_NAMES,
    )

    p_tune = sub.add_parser("tune", help="cost-model tau tuning sweep")
    _add_common(p_tune)

    p_srv = sub.add_parser(
        "serve", help="serve open-loop offered load through the "
                      "micro-batching front end (repro.serve)"
    )
    _add_common(p_srv)
    p_srv.add_argument("--method", default="HC-O", choices=METHOD_NAMES)
    p_srv.add_argument("--rate", type=float, default=0.0, metavar="QPS",
                       help="offered arrival rate in queries/s "
                            "(0 = saturating, submit as fast as possible)")
    p_srv.add_argument("--requests", type=int, default=0, metavar="N",
                       help="requests to offer, cycling the stored test "
                            "queries (0 = one pass)")
    p_srv.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="flush a micro-batch at this many waiting "
                            "requests")
    p_srv.add_argument("--max-wait-us", type=float, default=2000.0,
                       metavar="US",
                       help="flush once the oldest waiting request has "
                            "waited this long")
    p_srv.add_argument("--queue-depth", type=int, default=256, metavar="N",
                       help="admission bound; deeper submits are rejected "
                            "with a typed Overloaded outcome")
    p_srv.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="serve through a supervised pool of N identical "
                            "engine replicas (0 = single engine)")
    p_srv.add_argument("--stall-budget-ms", type=float, default=1000.0,
                       metavar="MS",
                       help="quarantine a replica whose in-flight batch is "
                            "older than this (with --replicas)")
    p_srv.add_argument("--hedge-delay-ms", type=float, default=0.0,
                       metavar="MS",
                       help="re-issue the oldest in-flight request to an "
                            "idle replica past this age; 0 disables "
                            "(with --replicas)")
    p_srv.add_argument("--replica-crash-batches", default="", metavar="LIST",
                       help="chaos: comma-separated 1-based batch numbers "
                            "on which replica 0 crashes (with --replicas); "
                            "crashed work fails over to the other replicas")

    p_srv.add_argument("--churn-rate", type=float, default=0.0, metavar="R",
                       help="interleave R mutations per offered query into "
                            "the arrival stream; each mutation (one insert "
                            "+ one delete) is admitted through the bounded "
                            "queue as a fence so no micro-batch straddles "
                            "its visibility boundary")

    p_mut = sub.add_parser(
        "mutate", help="churn a live pipeline: insert/delete with "
                       "cache-coherent codes, filtered kNN, advisor pass"
    )
    _add_common(p_mut)
    p_mut.add_argument("--method", default="HC-O", choices=METHOD_NAMES)
    p_mut.add_argument("--insert", type=int, default=0, metavar="N",
                       help="append N synthetic points (sampled near the "
                            "base data, quantized onto the trained domain)")
    p_mut.add_argument("--delete", default="", metavar="SPEC",
                       help="tombstone points: a count (random live ids) "
                            "or a comma-separated id list, e.g. '25' or "
                            "'3,17,42'")
    p_mut.add_argument("--filter", default="", metavar="PRED",
                       help="attribute-filtered kNN, e.g. 'label==3' "
                            "(datasets without attributes get a demo "
                            "'label' column = id mod 10)")
    p_mut.add_argument("--check", action="store_true",
                       help="differentially verify every answer against a "
                            "from-scratch rebuild (non-zero exit on "
                            "mismatch)")

    p_snap = sub.add_parser(
        "snapshot", help="build / inspect / serve / verify snapshot artifacts"
    )
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)

    p_build = snap_sub.add_parser(
        "build", help="build a pipeline and persist it as a snapshot"
    )
    p_build.add_argument("out", help="snapshot directory to write")
    p_build.add_argument("--dataset", default="tiny", choices=sorted(REGISTRY))
    p_build.add_argument("--scale", type=float, default=1.0)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--k", type=int, default=10)
    p_build.add_argument("--tau", type=int, default=8)
    p_build.add_argument("--cache-kb", type=int, default=0,
                         help="cache size in KB (0 = 30%% of the file)")
    p_build.add_argument(
        "--index", default="c2lsh",
        choices=("c2lsh", "e2lsh", "multiprobe", "sklsh", "vafile",
                 "vaplus", "linear", "idistance", "vptree", "mtree"),
    )
    p_build.add_argument("--method", default="HC-O", choices=METHOD_NAMES)
    p_build.add_argument("--kernel", default="auto",
                         choices=("auto", "decode", "numpy", "native"),
                         help="bound kernel recorded in the snapshot spec")
    _add_snapshot_metrics(p_build)

    p_inspect = snap_sub.add_parser(
        "inspect", help="print a snapshot's manifest and member sizes"
    )
    p_inspect.add_argument("path", help="snapshot directory")
    p_inspect.add_argument("--json", action="store_true",
                           help="emit the report as JSON")

    p_serve = snap_sub.add_parser(
        "serve", help="mmap-load a snapshot and run its stored queries"
    )
    p_serve.add_argument("path", help="snapshot directory")
    p_serve.add_argument("--k", type=int, default=0,
                         help="result size (0 = the snapshot's k)")
    p_serve.add_argument("--limit", type=int, default=0,
                         help="serve only the first N stored queries")
    p_serve.add_argument("--no-mmap", action="store_true",
                         help="load members into memory instead of mmap")
    p_serve.add_argument("--adapt-every", type=int, default=0, metavar="N",
                         help="retrain the cache from the live workload "
                              "every N served queries, publishing each "
                              "rebuild under <snapshot>/maintenance "
                              "(0 = off)")
    p_serve.add_argument("--deadline-ms", type=float, default=0.0,
                         metavar="MS",
                         help="per-query budget, charged from admission; "
                              "an expired budget degrades to a cache-only "
                              "(certified-incomplete) answer")
    _add_snapshot_metrics(p_serve)

    p_verify = snap_sub.add_parser(
        "verify", help="differential check vs a fresh spec rebuild "
                       "(non-zero exit on mismatch)"
    )
    p_verify.add_argument("path", help="snapshot directory")
    p_verify.add_argument("--k", type=int, default=0,
                          help="result size (0 = the snapshot's k)")
    p_verify.add_argument("--limit", type=int, default=0,
                          help="verify only the first N stored queries")
    return parser


def _add_snapshot_metrics(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", action="store_true",
                        help="collect and print telemetry (repro.obs)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--metrics-format", choices=("table", "prom"),
                        default="table")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "snapshot":
        handlers = {
            "build": cmd_snapshot_build,
            "inspect": cmd_snapshot_inspect,
            "serve": cmd_snapshot_serve,
            "verify": cmd_snapshot_verify,
        }
        return handlers[args.snapshot_command](args)
    handlers = {
        "info": cmd_info,
        "experiment": cmd_experiment,
        "compare": cmd_compare,
        "tune": cmd_tune,
        "serve": cmd_serve,
        "mutate": cmd_mutate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
