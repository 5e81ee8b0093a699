"""Pluggable parallel execution for the clustering framework.

The engine subsystem scales every phase of an LSH-accelerated fit —
signature hashing, index construction, the per-iteration shortlist
assignment — across workers, behind one seam:

* :mod:`repro.engine.backends` — the ``serial`` and ``thread``
  :class:`ExecutionBackend` choices;
* :mod:`repro.engine.chunking` — contiguous chunk iterators shared by
  every phase;
* :mod:`repro.engine.pool` — :class:`PersistentPool`, the worker pool
  with an explicit lifetime shared by fit sessions and the serving
  layer (:mod:`repro.serve`);
* :mod:`repro.engine.sharded_index` —
  :class:`ShardedClusteredLSHIndex`, a per-shard build whose sorted
  runs merge into the global index's runs (shard-count invariant);
* :mod:`repro.engine.parallel` — :class:`ClusteringEngine`, whose
  fit-lifetime session runs every phase — including the vectorised
  batch assignment pass — on one worker pool per fit.

Estimators expose it as ``backend=`` / ``n_jobs=`` / ``n_shards=``
parameters; the default ``backend='serial'`` reproduces the paper's
online semantics byte for byte, while batch updates run a vectorised
pass whose labels are identical across backends, chunkings and shard
counts.
"""

from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.engine.chunking import chunk_ranges, iter_blocks
from repro.engine.parallel import ClusteringEngine, resolve_engine
from repro.engine.pool import PersistentPool, live_pool_count
from repro.engine.sharded_index import ShardedClusteredLSHIndex

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
    "chunk_ranges",
    "iter_blocks",
    "ClusteringEngine",
    "resolve_engine",
    "PersistentPool",
    "live_pool_count",
    "ShardedClusteredLSHIndex",
]
