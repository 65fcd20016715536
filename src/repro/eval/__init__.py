"""Experiment harness: the paper's method lineup and measurement loops."""

from repro.eval.methods import METHOD_NAMES, WorkloadContext
from repro.eval.reporting import format_table, write_csv
from repro.eval.runner import Experiment, ExperimentResult, measure_m1

__all__ = [
    "Experiment",
    "ExperimentResult",
    "METHOD_NAMES",
    "WorkloadContext",
    "format_table",
    "measure_m1",
    "write_csv",
]
