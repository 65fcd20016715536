"""Sharded parallel execution of the cached-search pipeline.

The paper's Algorithm-1 pipeline operates per candidate point, so the
dataset can be partitioned into shards that are indexed, cached and
refined independently and merged by an exact top-k reduction.  The
package provides:

* :mod:`repro.shard.partition` — contiguous / round-robin /
  cluster-aware id partitioners;
* :mod:`repro.shard.budget` — cache-budget splitting across shards
  (proportional, workload-weighted, and the global-HFF content split
  that keeps sharded results byte-identical to the unsharded engine);
* :mod:`repro.shard.spec` — picklable per-shard build specs and the
  shard runtime built from them (one ``QueryEngine`` per shard with its
  own index, cache and simulated disk);
* :mod:`repro.shard.merge` — exact top-k merge of per-shard answers,
  mirroring the engine's tie-breaking bit for bit;
* :mod:`repro.shard.executors` — serial / thread-pool / process-pool
  execution of per-shard work;
* :mod:`repro.shard.engine` — :class:`ShardedEngine`, the coordinator
  running "global reduce, local refine" so sharded results stay
  byte-identical to a single engine over the whole dataset;
* :mod:`repro.shard.factory` — shard specs from one global cache
  recipe (``repro.spec.build_sharded`` is the method-level entry).
"""

from repro.shard.budget import global_hff_members, split_cache_budget
from repro.shard.engine import ShardedEngine
from repro.shard.factory import build_shard_specs
from repro.shard.executors import (
    EXECUTOR_NAMES,
    ProcessExecutor,
    SerialExecutor,
    ShardWorkerError,
    ThreadExecutor,
    make_executor,
)
from repro.shard.merge import (
    merge_candidate_results,
    merge_topk,
    merge_tree_results,
)
from repro.shard.partition import PARTITION_STRATEGIES, partition_ids
from repro.shard.spec import ShardSpec, build_shard_runtime

__all__ = [
    "EXECUTOR_NAMES",
    "PARTITION_STRATEGIES",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardSpec",
    "ShardWorkerError",
    "ShardedEngine",
    "ThreadExecutor",
    "build_shard_runtime",
    "build_shard_specs",
    "global_hff_members",
    "make_executor",
    "merge_candidate_results",
    "merge_topk",
    "merge_tree_results",
    "partition_ids",
    "split_cache_budget",
]
