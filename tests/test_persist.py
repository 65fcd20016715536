"""Persistence roundtrips: the dataset ``.npz`` file and encoder codecs."""

import numpy as np
import pytest

from repro.artifacts.errors import ArtifactError, FormatVersionError
from repro.artifacts.legacy import _FORMAT_VERSION, load_dataset_file, save_dataset
from repro.artifacts.state import encoder_state, restore_encoder
from repro.core.builders import build_equidepth, build_knn_optimal
from repro.core.domain import ValueDomain
from repro.core.encoder import GlobalHistogramEncoder, IndividualHistogramEncoder
from repro.data.datasets import Dataset
from repro.data.workload import generate_query_log


@pytest.fixture()
def points():
    rng = np.random.default_rng(17)
    return np.rint(rng.uniform(0, 255, size=(150, 6)))


def roundtrip(encoder):
    return restore_encoder(*encoder_state(encoder))


class TestEncoderRoundtrip:
    def test_global(self, points):
        dom = ValueDomain.from_points(points)
        enc = GlobalHistogramEncoder(build_knn_optimal(dom, dom.counts.astype(float), 16), 6)
        loaded = roundtrip(enc)
        assert isinstance(loaded, GlobalHistogramEncoder)
        assert np.array_equal(loaded.encode(points), enc.encode(points))

    def test_individual(self, points):
        hists = [
            build_equidepth(ValueDomain.from_column(points[:, j]), 8)
            for j in range(points.shape[1])
        ]
        enc = IndividualHistogramEncoder(hists)
        loaded = roundtrip(enc)
        assert isinstance(loaded, IndividualHistogramEncoder)
        codes = enc.encode(points)
        assert np.array_equal(loaded.encode(points), codes)
        lo_a, hi_a = enc.rectangles(codes)
        lo_b, hi_b = loaded.rectangles(codes)
        assert np.allclose(lo_a, lo_b) and np.allclose(hi_a, hi_b)

    def test_unsupported_encoder(self):
        with pytest.raises(ArtifactError):
            encoder_state(object())


class TestDatasetRoundtrip:
    def test_with_query_log(self, tmp_path, points):
        log = generate_query_log(points, pool_size=10, workload_size=40,
                                 test_size=5, seed=0)
        ds = Dataset(name="unit", points=points, value_bits=8, query_log=log)
        loaded = load_dataset_file(save_dataset(tmp_path / "d.npz", ds))
        assert loaded.name == "unit"
        assert np.array_equal(loaded.points, ds.points)
        assert loaded.value_bits == 8
        assert np.array_equal(loaded.query_log.workload, log.workload)
        assert np.array_equal(loaded.query_log.test, log.test)

    def test_without_query_log(self, tmp_path, points):
        ds = Dataset(name="bare", points=points, value_bits=8)
        loaded = load_dataset_file(save_dataset(tmp_path / "d.npz", ds))
        assert loaded.query_log is None

    def test_missing_version(self, tmp_path, points):
        np.savez(tmp_path / "bad.npz", points=points)
        with pytest.raises(FormatVersionError) as exc_info:
            load_dataset_file(tmp_path / "bad.npz")
        err = exc_info.value
        assert isinstance(err, ValueError)  # back-compat catch sites
        assert err.found is None
        assert err.expected == _FORMAT_VERSION
        assert "no format version" in str(err)
        assert "bad.npz" in str(err)

    def test_wrong_version(self, tmp_path, points):
        np.savez(tmp_path / "future.npz", version=np.array([99]), points=points)
        with pytest.raises(FormatVersionError) as exc_info:
            load_dataset_file(tmp_path / "future.npz")
        err = exc_info.value
        assert err.found == 99
        assert err.expected == _FORMAT_VERSION
        assert "found format version 99" in str(err)
        assert f"expected version {_FORMAT_VERSION}" in str(err)
        assert "future.npz" in str(err)
