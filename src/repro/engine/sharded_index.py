"""A sharded build of the clustered LSH index.

:class:`ShardedClusteredLSHIndex` is a build-time partition only: the
items are split into ``n_shards`` contiguous shards, each shard's slice
of the band-key matrix is sorted into a run as an independent
task (on any :class:`~repro.engine.backends.ExecutionBackend`, or on an
already-open engine fit session via
:meth:`ShardedClusteredLSHIndex.from_shard_runs`), and the shard runs
are then merged into the one sorted run that
:class:`~repro.lsh.index.ClusteredLSHIndex` builds.  Storage, queries,
inserts and statistics are those of
:class:`~repro.lsh.index.BaseClusteredIndex`, so the shard count can
never change a result (asserted by the shard-invariance tests).

Beck et al. ("A Distributed and Approximated Nearest Neighbors
Algorithm for an Efficient Large Scale Mean Shift Clustering") use the
same items-partitioned / centroids-shared layout to scale LSH-based
clustering across workers; this class is the single-machine analogue.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.chunking import chunk_ranges
from repro.engine.pool import PersistentPool
from repro.exceptions import ConfigurationError
from repro.lsh.index import BaseClusteredIndex, Run, band_runs, merge_runs
from repro.lsh.bands import compute_band_keys

__all__ = ["ShardedClusteredLSHIndex"]


def _build_shard_tables(static, dynamic, span: tuple[int, int]) -> Run:
    """Kernel: sort one shard's slice of the band keys into a run.

    ``dynamic`` is the band-key matrix; ``static`` is whatever the
    enclosing pool pinned and is not consulted here.
    """
    return band_runs(dynamic, span[0], span[1])


class ShardedClusteredLSHIndex(BaseClusteredIndex):
    """Clustered LSH index whose build is split into per-shard tasks.

    Drop-in for :class:`~repro.lsh.index.ClusteredLSHIndex` (the same
    storage and methods), with two extra knobs:

    Parameters
    ----------
    bands, rows:
        Banding parameters; signatures must have width ``bands * rows``.
    n_shards:
        Number of item shards, i.e. build tasks for a parallel backend.
        It does not change the built runs.
    precompute_neighbours:
        As in the unsharded index.  Must be ``False`` to allow
        :meth:`~repro.lsh.index.BaseClusteredIndex.insert` (streaming).

    Examples
    --------
    >>> from repro.lsh import MinHasher, TokenSets
    >>> items = TokenSets.from_lists([[1, 2, 3], [1, 2, 4], [9, 10, 11]])
    >>> sigs = MinHasher(n_hashes=8, seed=0).signatures(items)
    >>> index = ShardedClusteredLSHIndex(bands=4, rows=2, n_shards=2)
    >>> index.build(sigs, assignments=np.array([0, 1, 2])).n_items
    3
    """

    def __init__(
        self,
        bands: int,
        rows: int,
        n_shards: int = 1,
        precompute_neighbours: bool = True,
    ):
        super().__init__(bands, rows, precompute_neighbours)
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = int(n_shards)

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(
        self,
        signatures: np.ndarray,
        assignments: np.ndarray,
        backend: ExecutionBackend | None = None,
    ) -> "ShardedClusteredLSHIndex":
        """Index every item once, one build task per shard.

        Parameters
        ----------
        signatures:
            ``(n_items, bands * rows)`` signature matrix.
        assignments:
            ``(n_items,)`` initial cluster id per item (copied).
        backend:
            Where the shard builds run; defaults to serial.
        """
        signatures = np.asarray(signatures)
        assignments = self._validated_assignments(
            len(signatures), assignments, "signatures"
        )
        band_keys = compute_band_keys(signatures, self.bands, self.rows)
        runs = self._compute_runs(band_keys, backend or SerialBackend())
        self._finalise_shards(band_keys, assignments, runs)
        return self

    @classmethod
    def from_band_keys(
        cls,
        bands: int,
        rows: int,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        n_shards: int = 1,
        precompute_neighbours: bool = True,
        backend: ExecutionBackend | None = None,
    ) -> "ShardedClusteredLSHIndex":
        """Rebuild from persisted ``(n, bands)`` keys (see ``save_model``)."""
        band_keys, assignments = cls._validated_band_keys(
            bands, band_keys, assignments
        )
        index = cls(
            bands, rows, n_shards=n_shards, precompute_neighbours=precompute_neighbours
        )
        runs = index._compute_runs(band_keys, backend or SerialBackend())
        index._finalise_shards(band_keys, assignments, runs)
        return index

    @classmethod
    def from_shard_runs(
        cls,
        bands: int,
        rows: int,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        shard_runs: list[Run],
        n_shards: int = 1,
        precompute_neighbours: bool = True,
    ) -> "ShardedClusteredLSHIndex":
        """Assemble an index from shard runs computed elsewhere.

        The engine's fit-lifetime session uses this to sort the shards
        on its already-open worker pool (one :func:`_build_shard_tables`
        task per shard over :func:`~repro.engine.chunking.chunk_ranges`
        spans) without opening a second pool.
        """
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        index = cls(
            bands, rows, n_shards=n_shards, precompute_neighbours=precompute_neighbours
        )
        index._finalise_shards(
            np.asarray(band_keys, dtype=np.uint64), assignments, shard_runs
        )
        return index

    def _compute_runs(
        self, band_keys: np.ndarray, backend: ExecutionBackend
    ) -> list[Run]:
        spans = chunk_ranges(len(band_keys), self.n_shards)
        with PersistentPool(backend) as pool:
            return pool.run(
                _build_shard_tables, spans, dynamic=band_keys
            )

    def _finalise_shards(
        self,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        shard_runs: list[Run],
    ) -> None:
        """Merge the shards' runs (spans in item order) into one run."""
        if len(shard_runs) > self.n_shards:
            raise ConfigurationError(
                f"{len(shard_runs)} shard runs for n_shards={self.n_shards}; "
                "runs must come from chunk_ranges(n_items, n_shards)"
            )
        self._finalise(band_keys, assignments, merge_runs(shard_runs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedClusteredLSHIndex(bands={self.bands}, rows={self.rows}, "
            f"n_shards={self.n_shards}, built={self._runs is not None})"
        )
