"""Single-file ``.npz`` persistence for datasets.

The original (pre-snapshot) artifact format: one compressed archive per
dataset, which ``DatasetSection.path`` names so a spec can rebuild
without regenerating synthetic data.  Pipelines, encoders and caches
are persisted by :mod:`repro.artifacts.snapshot`, whose members stay
memory-mappable (``.npz`` members are not).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.artifacts.errors import FormatVersionError
from repro.data.datasets import Dataset
from repro.data.workload import QueryLog

_FORMAT_VERSION = 1


def save_dataset(path: str | Path, dataset: Dataset) -> Path:
    """Write a dataset (points + query log) to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": np.asarray([_FORMAT_VERSION]),
        "name": np.asarray([dataset.name]),
        "points": dataset.points,
        "value_bits": np.asarray([dataset.value_bits]),
        "value_bytes": np.asarray([dataset.value_bytes]),
    }
    if dataset.query_log is not None:
        payload["pool"] = dataset.query_log.pool
        payload["workload_idx"] = dataset.query_log.workload_idx
        payload["test_idx"] = dataset.query_log.test_idx
    np.savez_compressed(path, **payload)
    return path


def load_dataset_file(path: str | Path) -> Dataset:
    """Read a dataset written by ``save_dataset``."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_version(data, path)
        log = None
        if "pool" in data:
            log = QueryLog(
                pool=data["pool"],
                workload_idx=data["workload_idx"],
                test_idx=data["test_idx"],
            )
        return Dataset(
            name=str(data["name"][0]),
            points=data["points"],
            value_bits=int(data["value_bits"][0]),
            query_log=log,
            value_bytes=int(data["value_bytes"][0]),
        )


def _check_version(data, path: str | Path | None = None) -> None:
    found = int(data["version"][0]) if "version" in data else None
    if found != _FORMAT_VERSION:
        raise FormatVersionError(found, _FORMAT_VERSION, path)
