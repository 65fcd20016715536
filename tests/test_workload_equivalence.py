"""Static-workload equivalence: one training core, two entry points.

A :class:`WindowWorkload` holding exactly the offline workload ``WL``
must train — through :func:`train_cache_plan` — the *bit-identical*
artifacts the offline ``WorkloadContext`` path produces: same F', same
histogram bucket boundaries, same ``tau*`` pick, same cache contents.
This is the contract that lets the drift loop reuse the offline trainer
without a second implementation drifting out of sync.
"""

import numpy as np
import pytest

from repro.core.cache import CachePolicy
from repro.core.cost_model import optimal_tau_encoder
from repro.eval.methods import WorkloadContext
from repro.spec import CacheSection
from repro.spec.build import build_cache, cache_recipe
from repro.workload import TrainSpec, WindowWorkload, train_cache_plan

CACHE_BYTES = 24_000
TAU = 5


@pytest.fixture(scope="module")
def context(micro_dataset) -> WorkloadContext:
    return WorkloadContext.prepare(
        micro_dataset, index_name="linear", k=5, seed=0
    )


@pytest.fixture(scope="module")
def window(micro_dataset) -> WindowWorkload:
    """A live window that has seen exactly ``WL`` (and nothing else)."""
    wl = micro_dataset.query_log.workload
    model = WindowWorkload(capacity=len(wl))
    model.record_batch(wl)
    return model


def _train(context, window, method, tau):
    return train_cache_plan(
        window,
        TrainSpec(
            points=context.dataset.points,
            index=context.index,
            k=context.k,
            method=method,
            tau=tau,
            cache_bytes=CACHE_BYTES,
            value_bytes=context.dataset.value_bytes,
            domain=context.dataset.domain,
        ),
    )


def _cached_ids(cache) -> np.ndarray:
    n = len(cache._slot_of)
    return np.flatnonzero(cache.contains(np.arange(n)))


class TestStaticEquivalence:
    def test_derivation_matches_offline_scan(self, context, window):
        plan = _train(context, window, "HC-O", TAU)
        deriv = plan.derivation
        np.testing.assert_array_equal(deriv.distinct, context.distinct_queries)
        np.testing.assert_array_equal(deriv.weights, context.query_weights)
        np.testing.assert_array_equal(deriv.frequencies, context.frequencies)
        assert deriv.d_max == context.d_max
        assert deriv.avg_candidates == context.avg_candidates
        np.testing.assert_array_equal(
            deriv.qr.point_ids, context.qr.point_ids
        )

    def test_fprime_is_bit_identical(self, context, window):
        plan = _train(context, window, "HC-O", TAU)
        np.testing.assert_array_equal(plan.fprime, context.fprime)

    @pytest.mark.parametrize("method,kind", [
        ("HC-W", "equiwidth"),
        ("HC-D", "equidepth"),
        ("HC-V", "voptimal"),
        ("HC-O", "knn-optimal"),
    ])
    def test_histogram_boundaries_are_bit_identical(
        self, context, window, method, kind
    ):
        plan = _train(context, window, method, TAU)
        offline = context.histogram(kind, TAU)
        np.testing.assert_array_equal(plan.histogram.lowers, offline.lowers)
        np.testing.assert_array_equal(plan.histogram.uppers, offline.uppers)

    def test_tau_star_matches_offline_tuner(self, context, window):
        plan = _train(context, window, "HC-O", None)
        offline_tau = optimal_tau_encoder(
            context.cost_model(),
            CACHE_BYTES,
            lambda t: context.encoder("HC-O", t),
            context.qr_points,
            tau_range=(2, 12),
        )
        assert plan.tau == offline_tau

    @pytest.mark.parametrize("method", ["HC-W", "HC-O"])
    def test_cache_contents_are_bit_identical(self, context, window, method):
        plan = _train(context, window, method, TAU)
        offline = build_cache(
            cache_recipe(
                CacheSection(method=method, tau=TAU, cache_bytes=CACHE_BYTES),
                "linear", context.dataset, context.k, context,
            ),
            context.dataset.points,
        )
        online_ids = _cached_ids(plan.cache)
        offline_ids = _cached_ids(offline)
        np.testing.assert_array_equal(online_ids, offline_ids)
        # Same ids AND same stored codes, word for word.
        online_codes = plan.cache._store.get_rows(
            plan.cache._slot_of[online_ids]
        )
        offline_codes = offline._store.get_rows(offline._slot_of[offline_ids])
        np.testing.assert_array_equal(online_codes, offline_codes)

    def test_predictions_match_offline_cost_model(self, context, window):
        plan = _train(context, window, "HC-O", TAU)
        model = context.cost_model()
        n_items = model.items_for(
            CACHE_BYTES, plan.encoder.bits, plan.encoder.n_fields
        )
        assert plan.predicted_hit_ratio == model.hit_ratio(n_items)

    def test_lru_policy_passes_through(self, context, window):
        plan = train_cache_plan(
            window,
            TrainSpec(
                points=context.dataset.points,
                index=context.index,
                k=context.k,
                method="HC-W",
                tau=TAU,
                cache_bytes=CACHE_BYTES,
                policy=CachePolicy.LRU,
                domain=context.dataset.domain,
            ),
        )
        assert plan.cache.policy is CachePolicy.LRU
        assert plan.cache.num_items == 0  # LRU fills online, not at build


class TestTrainSpecValidation:
    def test_empty_model_raises(self, context):
        with pytest.raises(ValueError, match="no queries"):
            _train(context, WindowWorkload(capacity=4), "HC-O", TAU)

    def test_missing_index_raises(self, context, window):
        with pytest.raises(ValueError, match="index"):
            train_cache_plan(
                window, TrainSpec(points=context.dataset.points)
            )

    def test_missing_model_raises(self, context):
        with pytest.raises(ValueError, match="model or a derivation"):
            train_cache_plan(
                None,
                TrainSpec(points=context.dataset.points, index=context.index),
            )

    def test_unknown_method_needs_factory(self, context, window):
        with pytest.raises(ValueError, match="encoder_factory"):
            _train(context, window, "iHC-O", TAU)

    def test_invalid_k_and_tau(self, context):
        with pytest.raises(ValueError):
            TrainSpec(points=context.dataset.points, k=0)
        with pytest.raises(ValueError):
            TrainSpec(points=context.dataset.points, tau=0)

    def test_raw_array_model_is_accepted(self, context, window):
        """A plain (W, d) array trains identically to a window over it."""
        wl = context.dataset.query_log.workload
        from_array = train_cache_plan(
            wl,
            TrainSpec(
                points=context.dataset.points,
                index=context.index,
                k=context.k,
                method="HC-O",
                tau=TAU,
                cache_bytes=CACHE_BYTES,
                domain=context.dataset.domain,
            ),
        )
        from_window = _train(context, window, "HC-O", TAU)
        np.testing.assert_array_equal(
            from_array.fprime, from_window.fprime
        )
        np.testing.assert_array_equal(
            _cached_ids(from_array.cache), _cached_ids(from_window.cache)
        )
