"""Build a :class:`~repro.serve.server.Server` from a ``PipelineSpec``.

The spec's ``serve`` section supplies the batching/admission/tier
parameters; the rest of the spec builds the engine through the single
construction path (``spec.build()`` / ``spec.build_sharded()``).  When
the spec's ``adapt`` section is enabled, the built pipeline's
``WorkloadHook`` observes every served query and its ``DriftController``
hot-swaps retrained caches into the serving engine.
"""

from __future__ import annotations

from repro.serve.config import ServeConfig
from repro.serve.server import Server


class _ReplicaPipelines:
    """Handle over the N identical pipelines behind a replica pool.

    Shaped like the single-pipeline return of :func:`server_from_spec`:
    ``.engine`` exposes the first replica's engine for inspection and
    ``.close()`` closes every replica that supports it.
    """

    def __init__(self, pipelines, pool) -> None:
        self.pipelines = list(pipelines)
        self.pool = pool
        self.engine = getattr(
            self.pipelines[0], "engine", self.pipelines[0]
        )

    def close(self) -> None:
        for pipeline in self.pipelines:
            close = getattr(pipeline, "close", None)
            if close is not None:
                close()


def server_from_spec(
    spec,
    dataset=None,
    context=None,
    metrics=None,
    clock=None,
    executor=None,
    config: ServeConfig | None = None,
    parallel_replicas: bool = False,
):
    """Materialize the serving stack a spec describes.

    Returns ``(server, pipeline)``; the pipeline is the built
    ``Pipeline`` (or the ``ShardedEngine`` when
    ``shard.n_shards > 0``, or a pipelines handle when
    ``replica.enabled``) so callers can inspect the engine, swap
    snapshots, or close shard workers.

    With ``replica.enabled``, ``n_replicas`` *identical* pipelines are
    built from the same spec — deterministic construction makes their
    answers bit-identical, which is what lets failover re-dispatch a
    request anywhere.  ``parallel_replicas`` selects the worker-thread
    pool (real clock only; the sync pool is the deterministic default).
    """
    if config is None:
        config = ServeConfig.from_section(spec.serve)
    if metrics is None and spec.metrics.enabled:
        from repro.obs.registry import MetricsRegistry

        metrics = MetricsRegistry()
    if getattr(spec, "replica", None) is not None and spec.replica.enabled:
        from repro.serve.replica import ReplicaPool, ReplicaPoolConfig

        if spec.shard.n_shards > 0:
            from repro.spec.errors import SpecError

            raise SpecError(
                "spec sections [shard] and [replica] are mutually "
                "exclusive: replica pools over sharded engines are not "
                "supported yet. Workaround: set shard.n_shards = 0 or "
                "replica.enabled = false and rebuild.",
                sections=("shard", "replica"),
            )
        pipelines = [
            spec.build(dataset=dataset, context=context, metrics=metrics)
            for _ in range(max(1, spec.replica.n_replicas))
        ]
        pool = ReplicaPool(
            pipelines,
            config=ReplicaPoolConfig.from_section(spec.replica),
            parallel=parallel_replicas,
        )
        engine = pool
        pipeline = _ReplicaPipelines(pipelines, pool)
    elif spec.shard.n_shards > 0:
        engine, _ = spec.build_sharded(dataset=dataset, context=context)
        pipeline = engine
    else:
        pipeline = spec.build(dataset=dataset, context=context, metrics=metrics)
        engine = pipeline
    server = Server(
        engine,
        config=config,
        default_k=spec.k,
        clock=clock,
        metrics=metrics,
        # Adapt-enabled builds already observe every query through the
        # engine's WorkloadHook, so wiring the pipeline's own
        # DriftController here too would double-count each request; the
        # Server's controller slot is for externally constructed
        # controllers (e.g. snapshot serve --adapt-every).
        controller=None,
        executor=executor,
    )
    return server, pipeline
