"""Public API surface: lazy exports and package metadata."""

import pytest

import repro


class TestLazyExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            assert getattr(repro, name) is not None

    def test_dir_lists_exports(self):
        listing = dir(repro)
        assert "Pipeline" in listing
        assert "load_dataset" in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_real_symbol

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_exports_point_to_real_classes(self):
        from repro.spec.build import Pipeline

        assert repro.Pipeline is Pipeline
