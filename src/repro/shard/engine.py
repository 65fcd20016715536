"""``ShardedEngine``: partitioned parallel search, bit-identical results.

The coordinator splits Algorithm 1 so that everything *parallel* runs in
the shards and everything *order-sensitive* runs exactly once, globally:

1. **Probe (parallel)** — every shard generates its candidates and
   probes its own cache for bounds.  With the global-HFF content split
   the shard caches are the literal restriction of the unsharded cache,
   so every candidate sees byte-identical bounds.
2. **Reduce (global)** — the coordinator concatenates the per-shard
   candidates in shard order and runs *one* ``reduce_candidates`` per
   query.  Thresholds (``lb_k``/``ub_k``), pruning and the confirmed set
   therefore equal the unsharded engine's by construction.
3. **Refine (parallel)** — each shard runs optimal multi-step refinement
   over its slice of the global survivors, seeded with the *full* global
   confirmed set; the stopping threshold evolves exactly as in the
   unsharded heap restricted to that shard, and every extra point a
   shard fetches lies strictly beyond the final global threshold, so it
   cannot displace a true result.
4. **Merge (global)** — confirmed results (shared by all shards, merged
   once) plus per-shard exact survivors, under the engine's own
   tie-breaking (:mod:`repro.shard.merge`).

Tree shards answer whole queries instead (per-shard exact search, then
an exact ``(distance, id)`` top-k merge).

Per-shard ``QueryStats`` sum field-wise to the unified per-query stats;
per-shard ``MetricsRegistry`` snapshots merge into one registry whose
counters reconcile exactly with the per-shard totals.
"""

from __future__ import annotations

import numpy as np

from repro.core.reduction import reduce_candidates
from repro.engine.engine import check_k, check_queries
from repro.engine.stats import COMPLETE, QueryOutcome, QueryStats, SearchResult
from repro.faults.deadline import Deadline
from repro.faults.degrade import degraded_answer
from repro.shard.executors import make_executor
from repro.shard.merge import merge_candidate_results, merge_tree_results
from repro.shard.spec import TREE_INDEX_NAMES, RefineTask, ShardSpec

#: Stats substituted for a shard that contributed nothing (failed worker).
ZERO_STATS = QueryStats(0, 0, 0, 0, 0, 0, 0, 0)

_TREE_FIELDS = (
    "leaves_streamed",
    "leaf_fetches",
    "cached_leaf_hits",
    "deferred_fetches",
    "points_seen",
)


def sum_stats(parts: list[QueryStats]) -> QueryStats:
    """Field-wise sum of per-shard stats into one unified record.

    Optional tree counters stay ``None`` unless every part carries them
    (candidate-path shards never do; tree shards always do).
    """
    if not parts:
        raise ValueError("need at least one stats record")
    extra = {}
    for name in _TREE_FIELDS:
        values = [getattr(s, name) for s in parts]
        extra[name] = (
            sum(values) if all(v is not None for v in values) else None
        )
    return QueryStats(
        num_candidates=sum(s.num_candidates for s in parts),
        cache_hits=sum(s.cache_hits for s in parts),
        pruned=sum(s.pruned for s in parts),
        confirmed=sum(s.confirmed for s in parts),
        c_refine=sum(s.c_refine for s in parts),
        refined_fetches=sum(s.refined_fetches for s in parts),
        refine_page_reads=sum(s.refine_page_reads for s in parts),
        gen_page_reads=sum(s.gen_page_reads for s in parts),
        **extra,
    )


class ShardedEngine:
    """Search a sharded dataset as if it were one ``QueryEngine``.

    Args:
        specs: one :class:`ShardSpec` per shard.  Their ``member_ids``
            must partition ``0..n-1`` (every global id owned exactly
            once).
        executor: an executor name (``serial``/``thread``/``process``)
            or a pre-built executor instance.
        max_retries: forwarded to the process executor — how often a
            call is retried after its worker died.
        degraded: tolerate shard failures — a query round runs through
            ``map_outcomes`` and the answers merge the *surviving*
            shards, with ``outcome.complete == False`` and per-shard
            completeness (``shards_failed``/``shards_total``) instead of
            an exception.  Off by default: the historical fail-fast
            behavior.
        deadline_s: optional per-batch coordinator budget.  Checked at
            round boundaries; once expired, queries are answered from
            the already-computed global reduction bounds alone (requires
            ``degraded``; raises ``DeadlineExceeded`` otherwise).
        recv_timeout_s / join_timeout_s: forwarded to the process
            executor (hung-worker detection and shutdown escalation).
    """

    def __init__(
        self,
        specs: list[ShardSpec],
        executor: str = "serial",
        max_retries: int = 0,
        degraded: bool = False,
        deadline_s: float | None = None,
        recv_timeout_s: float | None = None,
        join_timeout_s: float = 5.0,
    ) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        self.specs = list(specs)
        self.n_shards = len(self.specs)
        # Snapshot-backed specs ship no arrays; the coordinator needs the
        # ownership map for routing, so it mmaps just the member ids from
        # the snapshot (workers hydrate the rest themselves).
        member_sets = [self._spec_member_ids(spec) for spec in self.specs]
        self.n_points = sum(len(ids) for ids in member_sets)
        #: global point id -> owning shard index.
        self.shard_of = np.full(self.n_points, -1, dtype=np.int64)
        for s, member_ids in enumerate(member_sets):
            if np.any(member_ids >= self.n_points) or np.any(
                self.shard_of[member_ids] != -1
            ):
                raise ValueError("shard member ids must partition 0..n-1")
            self.shard_of[member_ids] = s
        self.is_tree = self.specs[0].index_name in TREE_INDEX_NAMES
        #: query dimensionality (None for snapshot-backed specs, whose
        #: points stay in the workers).
        self.dim = next(
            (spec.points.shape[1] for spec in self.specs if spec.points is not None),
            None,
        )
        #: dynamic caches mutate on every lookup/admission, so query
        #: order is observable — mirror QueryEngine.search_many's
        #: query-by-query order with one probe/refine round per query.
        self.dynamic_cache = any(
            (spec.cache_spec or {}).get("policy") == "lru"
            for spec in self.specs
        )
        self.degraded = degraded
        self.deadline_s = deadline_s
        if isinstance(executor, str):
            executor = make_executor(
                executor,
                max_retries=max_retries,
                recv_timeout_s=recv_timeout_s,
                join_timeout_s=join_timeout_s,
            )
        self.executor = executor
        self.executor.start(self.specs)

    @staticmethod
    def _spec_member_ids(spec: ShardSpec) -> np.ndarray:
        """A spec's member ids, mmapped from its snapshot when absent."""
        if spec.member_ids is not None:
            return spec.member_ids
        # Lazy import: artifacts.sharding imports shard.spec.
        from repro.artifacts.sharding import load_shard_member_ids

        return load_shard_member_ids(spec.snapshot_path, spec.shard_id)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.executor.close()

    def _broadcast(self, method: str, args: tuple) -> list:
        return self.executor.map(method, [args] * self.n_shards)

    def _map_round(
        self, method: str, args_list: list[tuple]
    ) -> tuple[list, set[int]]:
        """One executor round; returns ``(payloads, failed_shard_ids)``.

        Fail-fast mode delegates to ``map`` (exceptions propagate);
        degraded mode substitutes ``None`` payloads for failed shards so
        the caller merges the survivors.
        """
        if not self.degraded:
            return self.executor.map(method, args_list), set()
        payloads: list = []
        failed: set[int] = set()
        for s, (kind, payload) in enumerate(
            self.executor.map_outcomes(method, args_list)
        ):
            if kind == "error":
                payloads.append(None)
                failed.add(s)
            else:
                payloads.append(payload)
        return payloads, failed

    # ------------------------------------------------------------------
    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Answer one kNN query, bit-identical to the unsharded engine."""
        return self.search_many(np.atleast_2d(query), k)[0]

    def search_many(
        self,
        queries: np.ndarray,
        k: int,
        deadline: Deadline | None = None,
    ) -> list[SearchResult]:
        """Answer a query batch; one probe/refine round across all shards.

        Args:
            deadline: optional per-batch budget overriding the engine's
                own ``deadline_s`` default — lets a serving front end
                carry a budget whose clock started at admission instead
                of restarting it here.
        """
        k = check_k(k)
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if len(queries) == 0:
            return []
        check_queries(queries, self.dim)
        if deadline is None:
            deadline = (
                Deadline(self.deadline_s) if self.deadline_s is not None else None
            )
        if self.is_tree:
            return self._search_tree(queries, k)
        if self.dynamic_cache:
            results: list[SearchResult] = []
            for query in queries:
                results.extend(self._search_round(query[None, :], k, deadline))
            return results
        return self._search_round(queries, k, deadline)

    # ------------------------------------------------------------------
    def _search_round(
        self, queries: np.ndarray, k: int, deadline: Deadline | None = None
    ) -> list[SearchResult]:
        probe, probe_failed = self._map_round(
            "probe_batch", [(queries, k)] * self.n_shards
        )
        if probe_failed:
            empties = [
                (
                    np.empty(0, dtype=np.int64),
                    np.zeros(0, dtype=bool),
                    np.zeros(0, dtype=np.float64),
                    np.zeros(0, dtype=np.float64),
                )
            ] * len(queries)
            for s in probe_failed:
                probe[s] = empties
        tasks: list[list[RefineTask]] = [[] for _ in range(self.n_shards)]
        plans: list[tuple] = []
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        for qi, query in enumerate(queries):
            gids = np.concatenate(
                [probe[s][qi][0] for s in range(self.n_shards)] or [empty_i]
            )
            if gids.size == 0:
                for s in range(self.n_shards):
                    tasks[s].append(
                        RefineTask(
                            query, k, empty_i, empty_f, empty_i, empty_f,
                            0, 0, True,
                        )
                    )
                plans.append(("empty", None))
                continue
            hits = np.concatenate(
                [probe[s][qi][1] for s in range(self.n_shards)]
            )
            lb = np.concatenate(
                [probe[s][qi][2] for s in range(self.n_shards)]
            )
            ub = np.concatenate(
                [probe[s][qi][3] for s in range(self.n_shards)]
            )
            outcome = reduce_candidates(gids, hits, lb, ub, k)
            skip = len(outcome.confirmed_ids) >= k
            owner_rem = self.shard_of[outcome.remaining_ids]
            owner_pruned = self.shard_of[outcome.pruned_ids]
            owner_conf = self.shard_of[outcome.confirmed_ids]
            for s in range(self.n_shards):
                mine = owner_rem == s
                tasks[s].append(
                    RefineTask(
                        query=query,
                        k=k,
                        remaining_gids=outcome.remaining_ids[mine],
                        remaining_lb=outcome.remaining_lb[mine],
                        seed_ids=outcome.confirmed_ids,
                        seed_ubs=outcome.confirmed_ub,
                        own_pruned=int((owner_pruned == s).sum()),
                        own_confirmed=int((owner_conf == s).sum()),
                        skip_refine=skip,
                    )
                )
            plans.append(("early" if skip else "merge", outcome))
        if deadline is not None and deadline.expired:
            # The coordinator budget ran out before the refinement round:
            # answer every query from the global reduction bounds alone
            # (strict mode raises instead).
            if not self.degraded:
                deadline.check("refine round")
            return self._degraded_results(plans, k, "deadline", probe_failed)
        refined, refine_failed = self._map_round(
            "refine_batch", [(tasks[s],) for s in range(self.n_shards)]
        )
        failed = probe_failed | refine_failed
        if failed:
            # A shard that failed its probe but survived refinement still
            # returns (zeroed) records — keep those; substitute empties
            # only where the refine payload itself is missing.
            empties = [(empty_i, empty_f, None)] * len(queries)
            for s in range(self.n_shards):
                if refined[s] is None:
                    refined[s] = empties
        query_outcome = (
            COMPLETE
            if not failed
            else QueryOutcome(
                complete=False,
                reason="shard_failure",
                max_bound_error=0.0,
                shards_failed=len(failed),
                shards_total=self.n_shards,
            )
        )
        results: list[SearchResult] = []
        for qi, (kind, outcome) in enumerate(plans):
            parts = [
                refined[s][qi][2]
                for s in range(self.n_shards)
                if refined[s][qi][2] is not None
            ]
            stats = sum_stats(parts) if parts else ZERO_STATS
            if kind == "empty":
                ids, dists = empty_i, empty_f
                exact = np.empty(0, dtype=bool)
            elif kind == "early":
                # Replicates RefinePhase's Algorithm-1 line-14 early exit:
                # k confirmed results, selected/presented by (ub, id).
                order = np.lexsort(
                    (outcome.confirmed_ids, outcome.confirmed_ub)
                )[:k]
                ids = outcome.confirmed_ids[order]
                dists = outcome.confirmed_ub[order]
                exact = np.zeros(len(order), dtype=bool)
            else:
                ids, dists, exact = merge_candidate_results(
                    outcome.confirmed_ids,
                    outcome.confirmed_ub,
                    [refined[s][qi][0] for s in range(self.n_shards)],
                    [refined[s][qi][1] for s in range(self.n_shards)],
                    k,
                )
            results.append(
                SearchResult(
                    ids=ids,
                    distances=dists,
                    exact_mask=exact,
                    stats=stats,
                    outcome=query_outcome,
                )
            )
        return results

    def _degraded_results(
        self,
        plans: list[tuple],
        k: int,
        reason: str,
        failed: set[int],
    ) -> list[SearchResult]:
        """Cache-only answers for a whole round from the global reduction."""
        from dataclasses import replace

        results: list[SearchResult] = []
        for kind, outcome in plans:
            reduction = None if kind == "empty" else outcome
            ids, dists, exact, query_outcome = degraded_answer(
                reduction, k, reason
            )
            query_outcome = replace(
                query_outcome,
                shards_failed=len(failed),
                shards_total=self.n_shards,
            )
            stats = (
                ZERO_STATS
                if reduction is None
                else QueryStats(
                    num_candidates=reduction.num_candidates,
                    cache_hits=reduction.num_hits,
                    pruned=len(reduction.pruned_ids),
                    confirmed=len(reduction.confirmed_ids),
                    c_refine=reduction.c_refine,
                    refined_fetches=0,
                    refine_page_reads=0,
                    gen_page_reads=0,
                )
            )
            results.append(
                SearchResult(
                    ids=ids,
                    distances=dists,
                    exact_mask=exact,
                    stats=stats,
                    outcome=query_outcome,
                )
            )
        return results

    def _search_tree(self, queries: np.ndarray, k: int) -> list[SearchResult]:
        shard_out, failed = self._map_round(
            "search_batch", [(queries, k)] * self.n_shards
        )
        surviving = [s for s in range(self.n_shards) if shard_out[s] is not None]
        query_outcome = (
            COMPLETE
            if not failed
            else QueryOutcome(
                complete=False,
                reason="shard_failure",
                max_bound_error=0.0,
                shards_failed=len(failed),
                shards_total=self.n_shards,
            )
        )
        results: list[SearchResult] = []
        for qi in range(len(queries)):
            if surviving:
                ids, dists = merge_tree_results(
                    [shard_out[s][qi][0] for s in surviving],
                    [shard_out[s][qi][1] for s in surviving],
                    k,
                )
                stats = sum_stats([shard_out[s][qi][2] for s in surviving])
            else:
                ids = np.empty(0, dtype=np.int64)
                dists = np.empty(0, dtype=np.float64)
                stats = ZERO_STATS
            results.append(
                SearchResult(
                    ids=ids,
                    distances=dists,
                    exact_mask=np.ones(len(ids), dtype=bool),
                    stats=stats,
                    outcome=query_outcome,
                )
            )
        return results

    # ------------------------------------------------------------------
    def mutate(
        self,
        insert_points: np.ndarray | None = None,
        delete_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply a mutation batch across the shards; returns new global ids.

        Inserts are routed to the **last** shard: fresh global ids are
        allocated past the current maximum, so only the shard owning the
        top of the id space can absorb them while keeping every shard's
        ``member_ids`` strictly increasing.  Deletes are routed to their
        owning shards via the ownership map.  Mutations run fail-fast
        (a dead shard raises) — a half-applied mutation round is not a
        degradable state.
        """
        new_ids = np.empty(0, dtype=np.int64)
        points = None
        if insert_points is not None and len(insert_points):
            points = np.atleast_2d(np.asarray(insert_points, dtype=np.float64))
            new_ids = np.arange(
                self.n_points, self.n_points + len(points), dtype=np.int64
            )
            self.n_points += len(points)
            self.shard_of = np.concatenate(
                [
                    self.shard_of,
                    np.full(len(points), self.n_shards - 1, dtype=np.int64),
                ]
            )
        if delete_ids is not None and len(delete_ids):
            delete_ids = np.atleast_1d(np.asarray(delete_ids, dtype=np.int64))
            if delete_ids.min() < 0 or delete_ids.max() >= self.n_points:
                raise IndexError("point id out of range")
        else:
            delete_ids = np.empty(0, dtype=np.int64)
        args = []
        for s in range(self.n_shards):
            ins_gids = new_ids if s == self.n_shards - 1 else None
            ins_pts = points if s == self.n_shards - 1 else None
            mine = delete_ids[self.shard_of[delete_ids] == s]
            args.append((ins_gids, ins_pts, mine if mine.size else None))
        self.executor.map("mutate_batch", args)
        return new_ids

    # ------------------------------------------------------------------
    def shard_metrics(self) -> list:
        """Per-shard ``MetricsRegistry`` snapshots (``None`` when off)."""
        return self._broadcast("collect_metrics", ())

    def merged_metrics(self):
        """All shard registries merged into one fresh registry.

        Counters and histograms add, so every merged counter equals the
        sum of the per-shard values; returns ``None`` when no shard
        collects metrics.
        """
        snapshots = [m for m in self.shard_metrics() if m is not None]
        if not snapshots:
            return None
        from repro.obs.registry import MetricsRegistry

        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged

    def shard_telemetry(self) -> list:
        """Per-shard cache telemetry records (``None`` for uncached trees)."""
        return self._broadcast("collect_telemetry", ())

    def shard_workloads(self) -> list:
        """Per-shard workload models (``None`` when recording is off)."""
        return self._broadcast("collect_workload", ())

    def merged_workload(self):
        """All shard workload models folded into one (reduce-time merge).

        Every shard sees every query (probe broadcasts the batch), so
        the merged weights scale by the shard count — relative
        popularity, which is all training consumes, is unchanged.
        Returns ``None`` when no shard records a workload.
        """
        models = [m for m in self.shard_workloads() if m is not None]
        if not models:
            return None
        merged = models[0]
        for model in models[1:]:
            merged = merged.merge(model)
        return merged

    def ping(self) -> list[int]:
        """Liveness probe: every shard answers with its shard id."""
        return self._broadcast("ping", ())
