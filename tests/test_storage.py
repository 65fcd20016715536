"""Storage substrate: disk accounting, point files, orderings."""

import numpy as np
import pytest

from repro.storage.bufferpool import BufferedPointFile, BufferPool
from repro.storage.disk import DiskConfig, PageRangeError, SimulatedDisk
from repro.storage.iostats import IOStats, QueryIOTracker
from repro.storage.ordering import (
    clustered_order,
    make_order,
    raw_order,
    sorted_key_order,
)
from repro.storage.pointfile import PointFile


class TestIOStats:
    def test_delta_and_add(self):
        a = IOStats(10, 5)
        b = IOStats(3, 2)
        assert a.delta(b).page_reads == 7
        assert (a + b).point_fetches == 7

    def test_reset(self):
        s = IOStats(4, 4)
        s.reset()
        assert s.page_reads == 0 and s.point_fetches == 0


class TestQueryIOTracker:
    def test_dedup_within_query(self):
        t = QueryIOTracker()
        assert t.needs_read(3)
        assert not t.needs_read(3)
        assert t.needs_read(4)
        assert t.page_reads == 2


class TestSimulatedDisk:
    def test_counts_and_time(self):
        disk = SimulatedDisk(DiskConfig(read_latency_s=0.01))
        disk.read_page(0)
        disk.read_page(1)
        assert disk.stats.page_reads == 2
        assert disk.modeled_time() == pytest.approx(0.02)

    def test_tracker_dedup(self):
        disk = SimulatedDisk()
        t = QueryIOTracker()
        disk.read_page(5, t)
        disk.read_page(5, t)
        assert disk.stats.page_reads == 1

    def test_rejects_negative_page(self):
        with pytest.raises(ValueError):
            SimulatedDisk().read_page(-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DiskConfig(page_size=0)
        with pytest.raises(ValueError):
            DiskConfig(read_latency_s=-1)


def _charge_both(pages, make_disk, tracker_pages=None):
    """Charge ``pages`` by one ``read_pages`` call and by a ``read_page``
    loop on twin devices; return both outcomes for comparison."""
    outcomes = []
    for batched in (True, False):
        disk = make_disk()
        tracker = None
        if tracker_pages is not None:
            tracker = QueryIOTracker()
            for page in tracker_pages:
                tracker.needs_read(page)
        error = None
        try:
            if batched:
                disk.read_pages(np.asarray(pages, dtype=np.int64), tracker)
            else:
                for page in pages:
                    disk.read_page(page, tracker)
        except Exception as exc:  # compared below, type and page
            error = (type(exc), getattr(exc, "page_id", None))
        seen = None if tracker is None else (tracker.page_reads, tracker.pages_seen)
        outcomes.append((disk.stats.page_reads, seen, error))
    return outcomes


class TestReadPages:
    """``read_pages`` charges exactly what a ``read_page`` loop charges."""

    CASES = [
        [],
        [3, 1, 4, 1, 5, 9, 2, 6],  # duplicates within one array
        [7, 7, 7],
        [0, 2, 11, 2, 40, 3],  # out of range mid-array
        [-1, 0],
    ]

    @pytest.mark.parametrize("pages", CASES)
    @pytest.mark.parametrize("tracker_pages", [None, [], [1, 2, 9]])
    def test_matches_read_page_loop(self, pages, tracker_pages):
        batched, looped = _charge_both(
            pages, lambda: SimulatedDisk(n_pages=12), tracker_pages
        )
        assert batched == looped

    def test_range_error_charges_prefix(self):
        disk = SimulatedDisk(n_pages=12)
        tracker = QueryIOTracker()
        with pytest.raises(PageRangeError) as err:
            disk.read_pages(np.array([0, 2, 2, 12, 3]), tracker)
        assert err.value.page_id == 12
        assert disk.stats.page_reads == 2
        assert tracker.pages_seen == {0, 2}

    def test_blocking_sleeps_per_charged_read(self, monkeypatch):
        import repro.storage.disk as disk_module

        sleeps = []
        monkeypatch.setattr(disk_module.time, "sleep", sleeps.append)
        config = DiskConfig(read_latency_s=1e-3, blocking=True)
        batched, looped = _charge_both(
            [4, 4, 5, 13, 6], lambda: SimulatedDisk(config, n_pages=12), [5]
        )
        assert batched == looped
        # Only page 4 is charged before the range error at 13 (page 5 was
        # already seen), on each of the two twin devices.
        assert len(sleeps) == 2

    @pytest.mark.parametrize("tracker_pages", [None, [2]])
    def test_faulty_disk_consults_plan_per_page(self, tracker_pages):
        from repro.faults import FaultSpec, FaultyDisk

        logs = []

        def make_disk():
            disk = FaultyDisk(
                SimulatedDisk(n_pages=12),
                # Page 8 is a bad sector: the fault lands mid-array.
                FaultSpec(seed=3, fail_pages=(8,), corrupt_rate=0.05),
            )
            log = []
            consult = disk.plan.on_read
            disk.plan.on_read = lambda page: (log.append(page), consult(page))
            logs.append((disk, log))
            return disk

        pages = [0, 1, 2, 2, 5, 8, 1, 9, 10, 11, 3, 4]
        batched, looped = _charge_both(pages, make_disk, tracker_pages)
        assert batched == looped
        assert batched[0] > 0 and batched[2] is not None
        (disk_a, log_a), (disk_b, log_b) = logs
        assert log_a == log_b
        assert disk_a.plan.counters == disk_b.plan.counters


class TestPointFile:
    @pytest.fixture()
    def pf(self):
        rng = np.random.default_rng(0)
        return PointFile(rng.normal(size=(100, 8)), value_bytes=4)

    def test_layout(self, pf):
        # 8 dims x 4 bytes = 32 bytes/point -> 128 points per 4 KB page.
        assert pf.point_size == 32
        assert pf.points_per_page == 128
        assert pf.file_bytes == 3200

    def test_fetch_returns_points(self, pf):
        out = pf.fetch(np.array([3, 7]))
        assert np.array_equal(out, pf.points[[3, 7]])

    def test_io_charged_per_page(self, pf):
        t = QueryIOTracker()
        pf.fetch(np.arange(50), t)
        assert t.page_reads == 1  # all on one page
        assert t.point_fetches == 50

    def test_big_points_span_pages(self):
        pts = np.zeros((4, 2048))  # 8 KB per point at 4 B values
        pf = PointFile(pts, value_bytes=4)
        assert pf.pages_per_point == 2
        t = QueryIOTracker()
        pf.fetch(np.array([1]), t)
        assert t.page_reads == 2

    def test_out_of_range(self, pf):
        with pytest.raises(IndexError):
            pf.fetch(np.array([500]))

    def test_ordering_changes_pages(self):
        pts = np.zeros((8, 1024))  # 1 point per page
        order = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        pf = PointFile(pts, order=order, value_bytes=4)
        assert pf.page_of(7) == 0
        assert pf.page_of(0) == 7

    def test_pages_of_matches_page_of(self):
        pts = np.zeros((6, 2048))  # two pages per record
        pf = PointFile(pts, order=np.array([5, 4, 3, 2, 1, 0]), value_bytes=4)
        assert pf.pages_of(np.array([0, 4])).tolist() == [10, 11, 2, 3]
        assert pf.page_of(4) == 2

    def test_pages_of_validates(self, pf):
        with pytest.raises(IndexError):
            pf.pages_of(np.array([-1]))
        pf.tombstone([3])
        with pytest.raises(IndexError):
            pf.pages_of(np.array([2, 3]))

    def test_buffered_fetch_validates_like_pointfile(self):
        pf = PointFile(np.arange(40.0).reshape(10, 4))
        buffered = BufferedPointFile(pf, BufferPool(8192))
        with pytest.raises(IndexError):
            buffered.fetch([-1])
        with pytest.raises(IndexError):
            buffered.fetch([10])
        pf.tombstone([3])
        with pytest.raises(IndexError):
            pf.fetch([3])
        with pytest.raises(IndexError):
            buffered.fetch([3])

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            PointFile(np.zeros((3, 2)), order=np.array([0, 0, 2]))

    def test_clustered_order_reduces_io_for_cluster_queries(self):
        """Points of one cluster share pages under clustered ordering."""
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, size=(64, 32))
        b = rng.normal(50, 1, size=(64, 32))
        pts = np.empty((128, 32))
        pts[0::2] = a
        pts[1::2] = b  # interleaved: raw ordering mixes clusters
        order = clustered_order(pts, n_clusters=2, seed=0)
        pf_raw = PointFile(pts, value_bytes=4)
        pf_clu = PointFile(pts, order=order, value_bytes=4)
        cluster_a_ids = np.arange(0, 128, 2)
        t_raw, t_clu = QueryIOTracker(), QueryIOTracker()
        pf_raw.fetch(cluster_a_ids, t_raw)
        pf_clu.fetch(cluster_a_ids, t_clu)
        assert t_clu.page_reads <= t_raw.page_reads


class TestOrderings:
    def test_raw_order(self):
        assert raw_order(4).tolist() == [0, 1, 2, 3]

    def test_all_orderings_are_permutations(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, 5))
        for name in ("raw", "clustered", "sortedkey"):
            order = make_order(name, pts, seed=0)
            assert sorted(order.tolist()) == list(range(60))

    def test_sorted_key_groups_similar_points(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 0.5, size=(30, 8))
        b = rng.normal(30, 0.5, size=(30, 8))
        pts = np.concatenate([a, b])
        order = sorted_key_order(pts, seed=1)
        # Positions of cluster-a points should be contiguous-ish: measure
        # how often adjacent file slots hold same-cluster points.
        is_a = order < 30
        agreements = np.sum(is_a[:-1] == is_a[1:])
        assert agreements >= 50  # 59 max; random would be ~29

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            make_order("bogus", np.zeros((3, 2)))
