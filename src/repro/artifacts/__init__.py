"""Versioned pipeline artifacts: snapshot store, codecs, hot-swap.

Layers:

* :mod:`repro.artifacts.store` — content-addressed ``.npy`` object store,
  atomic manifest writes, the ``CURRENT`` hot-swap pointer.
* :mod:`repro.artifacts.state` — component codecs (encoders, caches,
  indexes) between live objects and ``(meta, arrays)`` pairs.
* :mod:`repro.artifacts.snapshot` — whole-pipeline snapshots: save a
  built pipeline, reopen it zero-copy via ``np.load(mmap_mode="r")``,
  inspect and differentially verify it.
* :mod:`repro.artifacts.sharding` — shard snapshots: lightweight
  ``ShardSpec``\\ s that hydrate from a shared mmap store in workers.
* :mod:`repro.artifacts.churn` — versioned per-shard mutation deltas,
  published through the same publish-then-swap protocol and merged back
  at snapshot rebuild.
* :mod:`repro.artifacts.legacy` — the single-file ``.npz`` dataset
  format (``save_dataset`` / ``load_dataset_file``).
"""

from repro.artifacts.churn import (
    CHURN_FORMAT_VERSION,
    load_churn_delta,
    merge_delta_state,
    publish_churn_delta,
)
from repro.artifacts.errors import ArtifactError, FormatVersionError
from repro.artifacts.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    inspect_snapshot,
    load_cache_snapshot,
    load_queries,
    load_snapshot,
    save_cache_snapshot,
    save_snapshot,
    verify_snapshot,
)
from repro.artifacts.store import (
    CURRENT_POINTER,
    ObjectStore,
    publish_current,
    read_current,
    read_manifest,
    write_manifest,
)

__all__ = [
    "ArtifactError",
    "CHURN_FORMAT_VERSION",
    "CURRENT_POINTER",
    "FormatVersionError",
    "load_churn_delta",
    "merge_delta_state",
    "publish_churn_delta",
    "ObjectStore",
    "SNAPSHOT_FORMAT_VERSION",
    "inspect_snapshot",
    "load_cache_snapshot",
    "load_queries",
    "load_snapshot",
    "publish_current",
    "read_current",
    "read_manifest",
    "save_cache_snapshot",
    "save_snapshot",
    "verify_snapshot",
    "write_manifest",
]
