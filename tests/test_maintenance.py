"""Cache maintenance: the sliding query window a retrain learns from (§3.5)."""

import numpy as np
import pytest

from repro.workload import WindowWorkload, build_workload_model


class TestSlidingWindow:
    def test_capacity_bound(self):
        window = build_workload_model({"kind": "window", "capacity": 5})
        assert isinstance(window, WindowWorkload)
        for i in range(9):
            window.record(np.full(3, float(i)))
        assert len(window) == 5
        assert window.queries()[0, 0] == 4.0  # oldest retained

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            build_workload_model({"kind": "window", "capacity": 0})
