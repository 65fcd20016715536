"""Unit tests for the mutation layer and its serve/spec/obs satellites.

Covers the pieces around the churn differential suite
(``test_mutate_differential.py``):

* ``MutableDataset`` — append segment, tombstones, state round-trip;
* cache coherence — delete-then-re-insert must not double-charge
  ``used_bytes``;
* ``MutationAdvisor`` — the patch-vs-rebuild decision rules;
* ``Predicate`` — parsing and masking;
* the ``Server`` mutation fence — no micro-batch straddles a mutation's
  visibility boundary;
* the open-loop generator's churn interleaving;
* ``SpecError`` for shard+replica specs (typed, names the sections and a
  workaround) and the CLI rendering of it;
* ``ShardedEngine.mutate`` routing;
* churn-delta artifacts (publish-then-swap) and the serve summary's
  mutation block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.builders import build_equidepth
from repro.core.cache import ApproximateCache, CachePolicy
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder
from repro.mutate import (
    MutableDataset,
    MutablePipeline,
    MutationAdvisor,
    parse_predicate,
    snap_to_domain,
)
from repro.mutate.pipeline import MutationCounters
from repro.obs.registry import MetricsRegistry
from repro.spec import CacheSection, IndexSection, PipelineSpec


# ----------------------------------------------------------------------
# MutableDataset
# ----------------------------------------------------------------------
def test_mutable_dataset_append_delete_roundtrip():
    data = MutableDataset(
        np.arange(12, dtype=np.float64).reshape(4, 3),
        attributes={"label": np.array([0, 1, 2, 3])},
    )
    new_ids = data.append(
        np.ones((2, 3)), attributes={"label": np.array([7, 8])}
    )
    assert new_ids.tolist() == [4, 5]
    assert data.base_count == 4 and data.num_total == 6

    was_live = data.tombstone(np.array([1, 4, 1]))
    assert sorted(set(was_live.tolist())) == [1, 4]
    assert data.num_live == 4
    # Tombstoning again reports nothing newly dead.
    assert data.tombstone(np.array([1])).size == 0

    restored = MutableDataset.from_state(data.to_state())
    assert np.array_equal(restored.points, data.points)
    assert np.array_equal(restored.live, data.live)
    assert np.array_equal(restored.attributes["label"], data.attributes["label"])
    assert restored.base_count == data.base_count


def test_mutable_dataset_rejects_bad_shapes():
    data = MutableDataset(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        data.append(np.zeros((1, 5)))
    with pytest.raises(IndexError):
        data.tombstone(np.array([9]))
    data.tombstone(np.array([0]))
    with pytest.raises(IndexError):
        data.update(np.array([0]), np.zeros((1, 2)))


def test_snap_to_domain_snaps_to_nearest_member():
    domain = np.array([2.0, 10.0, 11.0])
    points = np.array([[-5.0, 5.9], [6.1, 10.4], [99.0, 10.6]])
    snapped = snap_to_domain(points, domain)
    assert snapped.tolist() == [[2.0, 2.0], [10.0, 10.0], [11.0, 11.0]]
    # Single-valued domains collapse everything onto the one member.
    assert snap_to_domain(np.array([[0.0, 9.0]]), np.array([4.0])).tolist() == [
        [4.0, 4.0]
    ]


# ----------------------------------------------------------------------
# Cache coherence: no double-charged capacity on delete + re-insert
# ----------------------------------------------------------------------
def test_approximate_cache_delete_reinsert_does_not_double_charge(
    micro_points,
):
    domain = ValueDomain.from_points(micro_points)
    encoder = GlobalHistogramEncoder(
        build_equidepth(domain, 16), micro_points.shape[1]
    )
    cache = ApproximateCache(
        encoder, 1 << 10, len(micro_points), policy=CachePolicy.HFF
    )
    ids = np.arange(cache.max_items, dtype=np.int64)
    cache.populate(ids, micro_points[ids])
    used = cache.used_bytes
    assert used > 0

    victim = ids[:3]
    for _ in range(5):
        freed = cache.invalidate(victim)
        assert freed == len(victim)
        cache.populate(victim, micro_points[victim])
        assert cache.used_bytes == used, (
            "delete-then-re-insert of the same ids must not change "
            "used_bytes"
        )
    # Invalidating a missing id frees nothing and charges nothing.
    cache.invalidate(victim)
    cache.invalidate(victim)
    cache.populate(victim, micro_points[victim])
    assert cache.used_bytes == used


# ----------------------------------------------------------------------
# Advisor
# ----------------------------------------------------------------------
def test_advisor_patches_small_batches_and_escalates_on_fraction():
    advisor = MutationAdvisor(mutation_threshold=0.25)
    advisor.record(10)
    decision = advisor.decide(n_live=1000)
    assert decision.action == "patch"
    assert decision.patch_cost < decision.rebuild_cost

    advisor.record(400)
    decision = advisor.decide(n_live=1000)
    assert decision.action == "rebuild"
    assert decision.mutated_fraction > 0.25

    advisor.note_trained()
    assert advisor.decide(n_live=1000).action == "patch"


def test_advisor_escalates_on_workload_drift():
    rng = np.random.default_rng(5)
    baseline = rng.normal(size=(64, 4)).round(1)
    advisor = MutationAdvisor(baseline_workload=baseline, drift_threshold=0.35)
    advisor.record(1)
    same = advisor.decide(n_live=500, recent_workload=baseline)
    assert same.action == "patch"
    shifted = advisor.decide(
        n_live=500, recent_workload=baseline + 100.0
    )
    assert shifted.action == "rebuild"
    assert shifted.drift_distance > 0.35
    assert "drift" in shifted.reason


def test_mutation_counters_mirror_into_registry():
    registry = MetricsRegistry()
    counters = MutationCounters(metrics=registry)
    counters.applied(3)
    counters.patched(2)
    counters.rebuilt()
    assert registry.value("mutations_applied_total") == 3
    assert registry.value("cache_patched_total") == 2
    assert registry.value("rebuilds_triggered_total") == 1


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def test_parse_predicate_and_mask():
    pred = parse_predicate("label <= 3")
    assert (pred.field, pred.op, pred.value) == ("label", "<=", 3.0)
    mask = pred.mask({"label": np.array([1, 5, 3, 4])}, 4)
    assert mask.tolist() == [True, False, True, False]
    with pytest.raises(ValueError):
        parse_predicate("no-operator-here")
    with pytest.raises(KeyError):
        pred.mask({"other": np.zeros(4)}, 4)


# ----------------------------------------------------------------------
# Serve: mutation fence
# ----------------------------------------------------------------------
def _mutable_pipeline(micro_dataset, method="EXACT", index_name="linear", k=3):
    spec = PipelineSpec(
        index=IndexSection(name=index_name),
        cache=CacheSection(method=method, tau=8, cache_bytes=1 << 14),
        k=k,
    )
    return MutablePipeline(spec.build(dataset=micro_dataset))


def test_server_mutation_fence_splits_batches(micro_dataset):
    from repro.serve import ManualClock, ServeConfig, Server

    pipeline = _mutable_pipeline(micro_dataset)
    victim = int(
        pipeline.engine.search(micro_dataset.points[0], 1).ids[0]
    )
    registry = MetricsRegistry()
    with Server(
        pipeline,
        config=ServeConfig(max_batch=32, max_wait_us=1e7),
        default_k=3,
        clock=ManualClock(),
        metrics=registry,
    ) as server:
        before = [
            server.submit(micro_dataset.points[0]),
            server.submit(micro_dataset.points[1]),
        ]
        fence = server.submit_mutation(
            lambda: pipeline.delete(np.array([victim]))
        )
        after = [
            server.submit(micro_dataset.points[0]),
            server.submit(micro_dataset.points[2]),
        ]
        server.drain()

    # The fence split what would otherwise be one 4-query flush.
    assert [t.response.batch_size for t in before] == [2, 2]
    assert [t.response.batch_size for t in after] == [2, 2]
    assert fence.response.ok and fence.response.result is None
    # Pre-fence answers see the victim; post-fence answers cannot.
    assert victim in before[0].response.result.ids.tolist()
    assert victim not in after[0].response.result.ids.tolist()
    assert registry.value("serve_mutations_total", tier="default") == 1


def test_server_mutation_requires_callable_and_no_pool(micro_dataset):
    from repro.serve import Server

    pipeline = _mutable_pipeline(micro_dataset)
    with Server(pipeline, default_k=3) as server:
        with pytest.raises(TypeError):
            server.submit_mutation("not callable")


def test_open_loop_interleaves_churn(micro_dataset):
    from repro.serve import ManualClock, Server, run_open_loop

    pipeline = _mutable_pipeline(micro_dataset)
    applied = []

    def mutator():
        def apply():
            rows = pipeline.data.points[:1]
            applied.append(pipeline.insert(rows))

        return apply

    with Server(pipeline, default_k=3, clock=ManualClock()) as server:
        report = run_open_loop(
            server,
            micro_dataset.query_log.test[:10],
            k=3,
            mutator=mutator,
            churn_rate=0.5,
        )
    assert report.served == 10
    assert report.mutations == 5
    assert len(applied) == 5
    assert report.to_dict()["mutations"] == 5

    with Server(pipeline, default_k=3) as server:
        with pytest.raises(ValueError):
            run_open_loop(
                server, micro_dataset.query_log.test[:2], churn_rate=0.5
            )


# ----------------------------------------------------------------------
# SpecError (shard + replica) and its CLI rendering
# ----------------------------------------------------------------------
def test_server_from_spec_shard_plus_replica_is_typed(tiny_dataset):
    from repro.serve import server_from_spec
    from repro.spec import SpecError
    from repro.spec.sections import ReplicaSection, ShardSection

    spec = PipelineSpec(
        index=IndexSection(name="linear"),
        cache=CacheSection(method="HC-O", tau=8, cache_bytes=1 << 14),
        shard=ShardSection(n_shards=2),
        replica=ReplicaSection(enabled=True, n_replicas=2),
        k=5,
    )
    with pytest.raises(SpecError) as excinfo:
        server_from_spec(spec, dataset=tiny_dataset)
    message = str(excinfo.value)
    assert "[shard]" in message and "[replica]" in message
    assert "Workaround" in message
    assert excinfo.value.sections == ("shard", "replica")
    # Typed but still a ValueError, so existing handlers keep working.
    assert isinstance(excinfo.value, ValueError)


def test_cli_serve_shard_plus_replica_message(capsys):
    from repro.cli import main

    rc = main(
        ["serve", "--dataset", "tiny", "--shards", "2", "--replicas", "2"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "[shard]" in captured.err and "[replica]" in captured.err
    assert "Workaround" in captured.err


def test_cli_mutate_checked(capsys):
    from repro.cli import main

    rc = main(
        [
            "mutate", "--dataset", "tiny", "--index", "vafile",
            "--insert", "10", "--delete", "5", "--filter", "label<=6",
            "--check",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "bit-identical" in captured.out
    assert "advisor:" in captured.out


# ----------------------------------------------------------------------
# Sharded mutation routing
# ----------------------------------------------------------------------
def test_sharded_engine_mutate_routes_and_masks(micro_points):
    from repro.shard.engine import ShardedEngine
    from repro.shard.spec import ShardSpec

    n = len(micro_points)
    bounds = np.linspace(0, n, 4, dtype=np.int64)
    specs = [
        ShardSpec(
            shard_id=s,
            member_ids=np.arange(bounds[s], bounds[s + 1], dtype=np.int64),
            points=micro_points[bounds[s] : bounds[s + 1]],
            index_name="linear",
            cache_spec={"kind": "exact", "capacity_bytes": 1 << 16},
        )
        for s in range(3)
    ]
    rng = np.random.default_rng(11)
    with ShardedEngine(specs) as engine:
        inserted = rng.permutation(micro_points)[:15]
        new_ids = engine.mutate(insert_points=inserted)
        assert new_ids.tolist() == list(range(n, n + 15))
        dead = np.array([0, bounds[1] + 1, n - 1, n + 2])
        engine.mutate(delete_ids=dead)
        with pytest.raises(IndexError):
            engine.mutate(delete_ids=np.array([engine.n_points]))

        allpts = np.vstack([micro_points, inserted])
        live = np.ones(len(allpts), dtype=bool)
        live[dead] = False
        for query in rng.permutation(micro_points)[:6]:
            result = engine.search(query, 5)
            d = np.linalg.norm(allpts - query, axis=1)
            d[~live] = np.inf
            order = np.lexsort((np.arange(len(allpts)), d))[:5]
            assert result.ids.tolist() == order.tolist()
            assert np.array_equal(result.distances, d[order])
            assert not np.isin(result.ids, dead).any()


# ----------------------------------------------------------------------
# Churn-delta artifacts
# ----------------------------------------------------------------------
def test_churn_delta_publish_then_swap(tmp_path):
    from repro.artifacts import (
        ArtifactError,
        load_churn_delta,
        merge_delta_state,
        publish_churn_delta,
        read_current,
    )

    base = np.arange(20, dtype=np.float64).reshape(5, 4)
    data = MutableDataset(base, attributes={"label": np.arange(5)})
    data.append(base[:2] + 1, attributes={"label": np.array([7, 8])})
    data.tombstone(np.array([1, 5]))

    root = tmp_path / "churn"
    first = publish_churn_delta(root, {0: data.to_state()})
    assert read_current(root) == first

    data.tombstone(np.array([2]))
    second = publish_churn_delta(root, {0: data.to_state()})
    assert read_current(root) == second
    assert first.name == "epoch-000001" and second.name == "epoch-000002"

    delta = load_churn_delta(root)[0]
    state = merge_delta_state(base, delta)
    restored = MutableDataset.from_state(state)
    assert np.array_equal(restored.points, data.points)
    assert np.array_equal(restored.live, data.live)
    assert np.array_equal(
        restored.attributes["label"], data.attributes["label"]
    )
    with pytest.raises(ArtifactError):
        merge_delta_state(base[:3], delta)


def test_serve_summary_mutation_block():
    from repro.obs.reporter import serve_summary

    registry = MetricsRegistry()
    assert "mutations" not in serve_summary(registry)
    MutationCounters(metrics=registry).applied(4)
    registry.counter("serve_mutations_total", tier="default").inc(2)
    block = serve_summary(registry)["mutations"]
    assert block["mutations_applied_total"] == 4
    assert block["fenced_batches"] == 2
    assert block["cache_patched_total"] == 0


# ----------------------------------------------------------------------
# Mutating a snapshot-loaded pipeline
# ----------------------------------------------------------------------
def test_loaded_snapshot_mutates_like_the_built_pipeline(tiny_dataset, tmp_path):
    """``MutablePipeline`` takes points, index, file and k from any Pipeline."""
    from repro.artifacts.snapshot import load_snapshot, save_snapshot

    spec = PipelineSpec(
        cache=CacheSection(method="HC-O", tau=6, cache_bytes=16 << 10)
    )
    built = spec.build(dataset=tiny_dataset)
    loaded = load_snapshot(save_snapshot(tmp_path / "snap", built), mmap=False)
    rng = np.random.default_rng(5)
    rows = tiny_dataset.points[rng.integers(0, tiny_dataset.num_points, 8)]
    queries = tiny_dataset.query_log.test[:10]
    answers = []
    for inner in (built, loaded):
        mutable = MutablePipeline(inner)
        mutable.insert(rows)
        mutable.delete(np.arange(0, 40, 5))
        answers.append(mutable.search_many(queries))
    for got, want in zip(*answers):
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.distances, want.distances)
        assert np.array_equal(got.exact_mask, want.exact_mask)
