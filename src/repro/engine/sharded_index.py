"""A sharded clustered LSH index for parallel build and query.

:class:`ShardedClusteredLSHIndex` partitions the items into
``n_shards`` contiguous shards and keeps one bucket table *per shard
per band* instead of one global table per band.  The partitioning is a
pure storage decision:

* **build** parallelises — each shard bucketises only its own slice of
  the band-key matrix, so shard tables build independently (one task
  per shard on any :class:`~repro.engine.backends.ExecutionBackend`,
  or on an already-open engine fit session via
  :meth:`ShardedClusteredLSHIndex.from_shard_runs`);
* **queries stay exact** — an item's candidate set is the union of its
  bucket members *across all shards*, which equals the global bucket
  of :class:`~repro.lsh.index.ClusteredLSHIndex` element for element.
  Results are therefore invariant to the shard count (asserted by the
  shard-invariance tests).

Everything above the table layout — neighbour CSR storage, queries,
the O(1) reference update of Algorithm 2, the live
``assignments_view`` fast path, amortised insertion — is inherited
from :class:`~repro.lsh.index.BaseClusteredIndex`, shared verbatim
with the unsharded index so the two surfaces cannot drift.

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
from repro.exceptions import ConfigurationError, DataValidationError
from repro.lsh.index import (
    BandRuns,
    BaseClusteredIndex,
    band_runs,
    tables_from_runs,
)
from repro.lsh.bands import compute_band_keys

__all__ = ["ShardedClusteredLSHIndex"]

#: One shard's bucket tables: per band, bucket key → global item ids.
ShardTables = list[dict[int, np.ndarray]]


def _build_shard_tables(static, dynamic, span: tuple[int, int]) -> BandRuns:
    """Kernel: sort one shard's slice of the band keys into bucket runs.

    ``dynamic`` is ``(band_keys, bands)``; ``static`` is whatever the
    enclosing pool pinned and is not consulted here.
    """
    band_keys, bands = dynamic
    return band_runs(band_keys, bands, span[0], span[1])


class ShardedClusteredLSHIndex(BaseClusteredIndex):
    """Clustered LSH index split into per-shard bucket tables.

    Drop-in for :class:`~repro.lsh.index.ClusteredLSHIndex` wherever
    the fitting loop and predict path are concerned (same query,
    assignment and neighbour-CSR methods), with two extra knobs:

    Parameters
    ----------
    bands, rows:
        Banding parameters; signatures must have width ``bands * rows``.
    n_shards:
        Number of item shards.  ``1`` behaves like the unsharded index
        (with shard-table indirection); more shards mean more build
        tasks for a parallel backend.
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
        self._shards: list[ShardTables] | None = None
        self._shard_fill: list[list[dict[int, int]]] | None = None

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
        self._finalise_from_runs(band_keys, assignments, runs)
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
        band_keys = np.asarray(band_keys)
        if band_keys.ndim != 2 or band_keys.shape[1] != bands:
            raise DataValidationError(
                f"band_keys must be (n_items, {bands}), got shape "
                f"{band_keys.shape}"
            )
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        index = cls(
            bands, rows, n_shards=n_shards, precompute_neighbours=precompute_neighbours
        )
        band_keys = band_keys.astype(np.uint64, copy=False)
        runs = index._compute_runs(band_keys, backend or SerialBackend())
        index._finalise_from_runs(band_keys, assignments, runs)
        return index

    @classmethod
    def from_shard_runs(
        cls,
        bands: int,
        rows: int,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        shard_runs: list[BandRuns],
        n_shards: int = 1,
        precompute_neighbours: bool = True,
    ) -> "ShardedClusteredLSHIndex":
        """Assemble an index from bucket runs computed elsewhere.

        The engine's fit-lifetime session uses this to build the shard
        tables on its already-open worker pool (one
        :func:`_build_shard_tables` task per shard over
        :func:`~repro.engine.chunking.chunk_ranges` spans) without
        opening a second pool.
        """
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        index = cls(
            bands, rows, n_shards=n_shards, precompute_neighbours=precompute_neighbours
        )
        index._finalise_from_runs(
            np.asarray(band_keys, dtype=np.uint64), assignments, shard_runs
        )
        return index

    def _compute_runs(
        self, band_keys: np.ndarray, backend: ExecutionBackend
    ) -> list[BandRuns]:
        spans = chunk_ranges(len(band_keys), self.n_shards)
        with PersistentPool(backend) as pool:
            return pool.run(
                _build_shard_tables, spans, dynamic=(band_keys, self.bands)
            )

    def _finalise_from_runs(
        self,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        shard_runs: list[BandRuns],
    ) -> None:
        if len(shard_runs) > self.n_shards:
            raise ConfigurationError(
                f"{len(shard_runs)} shard runs for n_shards={self.n_shards}; "
                "runs must come from chunk_ranges(n_items, n_shards)"
            )
        self._store_items(band_keys, assignments)
        shards = [tables_from_runs(runs) for runs in shard_runs]
        # chunk_ranges never yields empty spans, so tiny inputs produce
        # fewer runs than shards; pad with empty tables so round-robin
        # insertion can target any of the configured shards.
        while len(shards) < self.n_shards:
            shards.append([{} for _ in range(self.bands)])
        self._shards = shards
        self._shard_fill = [
            [{} for _ in range(self.bands)] for _ in range(self.n_shards)
        ]
        if self.precompute_neighbours:
            self._store_neighbours(band_keys, shard_runs)

    # ------------------------------------------------------------------
    # layout hooks (contract identical to ClusteredLSHIndex)
    # ------------------------------------------------------------------

    def _is_built(self) -> bool:
        return self._shards is not None

    def _bucket_hits(self, keys: np.ndarray) -> list[np.ndarray]:
        assert self._shards is not None and self._shard_fill is not None
        hits: list[np.ndarray] = []
        for tables, fills in zip(self._shards, self._shard_fill):
            for j in range(self.bands):
                members = self._bucket_members(tables[j], fills[j], int(keys[j]))
                if members is not None:
                    hits.append(members)
        return hits

    def _insert_into_buckets(self, keys: np.ndarray, item: int) -> None:
        """Hash one new item into one shard's tables.

        New items are spread round-robin over the shards (``item_id %
        n_shards``); because queries union all shards, the choice never
        affects results.
        """
        assert self._shards is not None and self._shard_fill is not None
        shard = item % self.n_shards
        tables, fills = self._shards[shard], self._shard_fill[shard]
        for j in range(self.bands):
            self._bucket_append(tables[j], fills[j], int(keys[j]), item)

    def _insert_many_into_buckets(
        self, keys: np.ndarray, items: np.ndarray
    ) -> None:
        """Bulk-insert a chunk, round-robined over the shards.

        Items land in the same ``item % n_shards`` shard the one-by-one
        path would pick, then each shard absorbs its slice as per-band
        key runs; queries union all shards, so the partition never
        affects results.
        """
        assert self._shards is not None and self._shard_fill is not None
        shard_of = items % self.n_shards
        for shard in np.unique(shard_of):
            selected = shard_of == shard
            self._append_key_runs(
                self._shards[shard],
                self._shard_fill[shard],
                keys[selected],
                items[selected],
            )

    def _bucket_sizes(self) -> np.ndarray:
        assert self._shards is not None and self._shard_fill is not None
        return np.array(
            [
                len(self._bucket_members(tables[j], fills[j], key))
                for tables, fills in zip(self._shards, self._shard_fill)
                for j in range(self.bands)
                for key in tables[j]
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def shard_sizes(self) -> np.ndarray:
        """Items indexed per shard (build partition plus inserts)."""
        self._check_built()
        assert self._shards is not None and self._shard_fill is not None
        sizes = np.zeros(self.n_shards, dtype=np.int64)
        if self.bands:
            for shard, (tables, fills) in enumerate(
                zip(self._shards, self._shard_fill)
            ):
                sizes[shard] = sum(
                    len(self._bucket_members(tables[0], fills[0], key))
                    for key in tables[0]
                )
        return sizes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedClusteredLSHIndex(bands={self.bands}, rows={self.rows}, "
            f"n_shards={self.n_shards}, built={self._is_built()})"
        )
