"""The clustered LSH index of Algorithm 2.

This is the data structure at the heart of the paper's framework: a
banded LSH index over *items* in which every item carries a mutable
reference to the cluster it is currently assigned to.

Build phase (run once, after centroid initialisation):

1. every item's signature is banded into ``b`` bucket keys;
2. per band, a hash table maps bucket key → the array of member items;
3. optionally, each item's static *neighbour list* — the union of its
   buckets' members — is precomputed, because buckets never change
   after the build.  Neighbour lists are stored as one flat CSR pair
   (``indptr``, ``indices``) per *group* of items with identical
   band-key rows: such items occupy exactly the same buckets and share
   one list, which collapses the pathological case of many identical
   (or empty) token sets from O(n²) to O(n) work and memory, and the
   flat layout keeps the per-iteration hot loop free of Python-object
   traffic.

Query phase (run once per item per iteration):

* :meth:`BaseClusteredIndex.candidate_clusters` returns the distinct
  clusters currently holding the item's neighbours.  This is the
  paper's *shortlist*.  Because an item always collides with itself,
  the shortlist always contains the item's own current cluster.

Update phase (after each reassignment):

* :meth:`BaseClusteredIndex.update_assignment` rewrites one slot of
  the assignment array — the O(1) "update the cluster reference" step
  the paper highlights.

:class:`BaseClusteredIndex` owns every piece of this surface that does
not depend on how bucket tables are laid out; the unsharded
:class:`ClusteredLSHIndex` here and the engine's
:class:`~repro.engine.sharded_index.ShardedClusteredLSHIndex` differ
only in their table layout hooks, so the assignment/insert/query
semantics cannot drift between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.bands import compute_band_keys, validate_bands_rows

__all__ = [
    "BaseClusteredIndex",
    "ClusteredLSHIndex",
    "IndexStats",
    "band_runs",
    "tables_from_runs",
    "group_csr_from_runs",
]

#: One span's per-band bucket runs: ``(bucket_keys, starts, order)``.
BandRuns = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class IndexStats:
    """Summary statistics of a built index (useful for diagnostics).

    Attributes
    ----------
    n_items:
        Number of indexed items.
    bands, rows:
        Banding parameters.
    n_buckets:
        Total number of non-empty buckets across all bands.
    mean_bucket_size:
        Average number of items per bucket.
    max_bucket_size:
        Size of the fullest bucket.
    mean_neighbours:
        Average neighbour-list length (only when neighbours are
        precomputed; ``nan`` otherwise).
    """

    n_items: int
    bands: int
    rows: int
    n_buckets: int
    mean_bucket_size: float
    max_bucket_size: int
    mean_neighbours: float


# ----------------------------------------------------------------------
# shared build machinery (also used by the sharded index and the engine)
# ----------------------------------------------------------------------


def band_runs(band_keys: np.ndarray, bands: int, start: int, stop: int) -> BandRuns:
    """Sort one item span of the band-key matrix into bucket runs.

    Returns one compact ``(bucket_keys, starts, order)`` triple per
    band — three arrays instead of one tiny array per bucket, so a
    shard build returns O(bands) buffers, not O(buckets).
    ``order`` holds *global* item ids (local argsort order plus the
    span offset); :func:`tables_from_runs` slices it into the per-key
    dict without copying.
    """
    local = band_keys[start:stop]
    out: BandRuns = []
    for j in range(bands):
        order = np.argsort(local[:, j], kind="stable").astype(np.int64)
        order += start
        sorted_keys = band_keys[order, j]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate([[0], boundaries])
        out.append((sorted_keys[starts], starts, order))
    return out


def tables_from_runs(runs: BandRuns) -> list[dict[int, np.ndarray]]:
    """Slice per-band bucket runs into key → members dicts (views)."""
    tables: list[dict[int, np.ndarray]] = []
    for bucket_keys, starts, order in runs:
        ends = np.concatenate([starts[1:], [len(order)]])
        tables.append(
            {
                int(key): order[s:e]
                for key, s, e in zip(bucket_keys, starts, ends)
            }
        )
    return tables


def group_csr_from_runs(
    unique_rows: np.ndarray,
    span_runs: list[BandRuns],
    n_items: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise every group's neighbour list as one flat CSR pair.

    Per span and band, each group's bucket is located with one
    ``searchsorted`` against the sorted bucket keys and gathered as a
    run of the band's order array; the runs of all bands and spans are
    deduplicated per group with a single segmented ``np.unique`` over
    ``group * n_items + member`` keys.  No per-group Python work — this
    is what makes index construction fast at scale regardless of the
    backend.

    Returns ``(indptr, indices)`` where group ``g``'s sorted distinct
    neighbours are ``indices[indptr[g]:indptr[g + 1]]``.
    """
    n_groups = len(unique_rows)
    member_parts: list[np.ndarray] = []
    group_parts: list[np.ndarray] = []
    group_ids = np.arange(n_groups, dtype=np.int64)
    for runs in span_runs:
        for j, (bucket_keys, starts, order) in enumerate(runs):
            ends = np.concatenate([starts[1:], [len(order)]])
            pos = np.searchsorted(bucket_keys, unique_rows[:, j])
            found = np.flatnonzero(
                (pos < len(bucket_keys))
                & (bucket_keys[np.minimum(pos, len(bucket_keys) - 1)]
                   == unique_rows[:, j])
            )
            if not len(found):
                continue
            run_starts = starts[pos[found]]
            run_lengths = ends[pos[found]] - run_starts
            total = int(run_lengths.sum())
            # gather all runs at once: order[start_g + offset] for every
            # offset in [0, length_g)
            bases = np.repeat(run_starts, run_lengths)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(run_lengths) - run_lengths, run_lengths
            )
            member_parts.append(order[bases + offsets])
            group_parts.append(np.repeat(group_ids[found], run_lengths))
    if not member_parts:
        return np.zeros(n_groups + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    members = np.concatenate(member_parts)
    groups = np.concatenate(group_parts)
    uniq = np.unique(groups * n_items + members)
    u_group = uniq // n_items
    u_member = uniq - u_group * n_items
    lengths = np.bincount(u_group, minlength=n_groups)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, u_member


# ----------------------------------------------------------------------
# the shared index surface
# ----------------------------------------------------------------------


class BaseClusteredIndex:
    """Everything two clustered-index layouts must agree on.

    Subclasses supply the bucket-table layout through three hooks —
    :meth:`_is_built`, :meth:`_bucket_hits` and
    :meth:`_insert_into_buckets` (plus :meth:`_bucket_sizes` for
    diagnostics) — and inherit identical build validation, item
    storage, queries, assignment updates, amortised insertion and
    statistics, so the unsharded and sharded indexes cannot drift.

    Item storage uses amortised doubling buffers: band keys and
    assignments live in capacity arrays trimmed to the logical item
    count, so a stream of :meth:`insert` calls costs O(1) amortised
    per item instead of the O(n) reallocation a ``vstack`` per insert
    would pay.
    """

    def __init__(self, bands: int, rows: int, precompute_neighbours: bool = True):
        validate_bands_rows(bands, rows)
        self.bands = int(bands)
        self.rows = int(rows)
        self.precompute_neighbours = bool(precompute_neighbours)
        self._keys_buf: np.ndarray | None = None  # (capacity, bands) uint64
        self._assign_buf: np.ndarray | None = None  # (capacity,) int64
        self._n = 0
        self._read_only = False
        self._group_of: np.ndarray | None = None
        self._nbr_indptr: np.ndarray | None = None
        self._nbr_indices: np.ndarray | None = None

    # -- layout hooks ----------------------------------------------------

    def _is_built(self) -> bool:
        """Whether the bucket tables exist."""
        raise NotImplementedError

    def _bucket_hits(self, keys: np.ndarray) -> list[np.ndarray]:
        """All bucket member arrays matching a ``(bands,)`` key row."""
        raise NotImplementedError

    def _insert_into_buckets(self, keys: np.ndarray, item: int) -> None:
        """Hash one new item into the layout's bucket tables."""
        raise NotImplementedError

    def _insert_many_into_buckets(
        self, keys: np.ndarray, items: np.ndarray
    ) -> None:
        """Hash a batch of new items into the layout's bucket tables.

        The generic fallback loops :meth:`_insert_into_buckets`; both
        concrete layouts override with the vectorised per-band run
        appends of :meth:`_append_key_runs`.
        """
        for key_row, item in zip(keys, items):
            self._insert_into_buckets(key_row, int(item))

    def _bucket_sizes(self) -> np.ndarray:
        """Logical member count of every non-empty bucket."""
        raise NotImplementedError

    # -- shared build plumbing -------------------------------------------

    @staticmethod
    def _validated_assignments(
        n_rows: int, assignments: np.ndarray, what: str
    ) -> np.ndarray:
        assignments = np.asarray(assignments)
        if assignments.ndim != 1:
            raise DataValidationError(
                f"assignments must be 1-D, got ndim={assignments.ndim}"
            )
        if len(assignments) != n_rows:
            raise DataValidationError(
                f"{n_rows} {what} but {len(assignments)} assignments"
            )
        if n_rows == 0:
            raise DataValidationError("cannot build an index over zero items")
        return assignments

    def _store_items(self, band_keys: np.ndarray, assignments: np.ndarray) -> None:
        """Initialise the doubling buffers from a freshly built matrix."""
        self._keys_buf = np.ascontiguousarray(band_keys, dtype=np.uint64)
        self._assign_buf = assignments.astype(np.int64).copy()
        self._n = len(band_keys)

    def _store_neighbours(
        self, band_keys: np.ndarray, span_runs: list[BandRuns]
    ) -> None:
        """Group identical band-key rows and build the neighbour CSR."""
        unique_rows, group_of = np.unique(band_keys, axis=0, return_inverse=True)
        self._group_of = group_of.astype(np.int64).ravel()
        self._nbr_indptr, self._nbr_indices = group_csr_from_runs(
            unique_rows, span_runs, len(band_keys)
        )

    # -- queries ---------------------------------------------------------

    def candidate_items(self, item: int) -> np.ndarray:
        """All items sharing at least one bucket with ``item`` (incl. itself)."""
        self._check_built()
        if self._nbr_indptr is not None:
            assert self._group_of is not None and self._nbr_indices is not None
            group = self._group_of[item]
            return self._nbr_indices[
                self._nbr_indptr[group] : self._nbr_indptr[group + 1]
            ]
        assert self._keys_buf is not None
        return np.unique(np.concatenate(self._bucket_hits(self._keys_buf[item])))

    def candidate_clusters(self, item: int) -> np.ndarray:
        """The paper's shortlist: distinct clusters of the item's neighbours."""
        self._check_built()
        assert self._assign_buf is not None
        return np.unique(self._assign_buf[: self._n][self.candidate_items(item)])

    def candidate_clusters_for_signature(self, signature: np.ndarray) -> np.ndarray:
        """Shortlist for a *novel* (un-indexed) signature.

        Used at predict time for unseen items.  Unlike
        :meth:`candidate_clusters`, the result may be empty if the new
        signature collides with nothing.
        """
        self._check_built()
        assert self._assign_buf is not None
        signature = np.asarray(signature)
        if signature.ndim == 1:
            signature = signature[None, :]
        keys = compute_band_keys(signature, self.bands, self.rows)[0]
        hits = self._bucket_hits(keys)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(self._assign_buf[: self._n][np.concatenate(hits)])

    def shortlists_for_signatures(
        self, signatures: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`candidate_clusters_for_signature` as a CSR pair.

        Band keys for every query row are computed in one call, bucket
        hits are gathered per row, and the per-row deduplication runs
        as a single segmented ``np.unique`` over the whole batch.

        Returns ``(indptr, clusters)``: row ``r``'s sorted distinct
        candidate clusters are ``clusters[indptr[r]:indptr[r + 1]]``
        (an empty slice where the row collides with nothing) —
        row for row identical to the per-signature method.
        """
        self._check_built()
        assert self._assign_buf is not None
        signatures = np.asarray(signatures)
        if signatures.ndim != 2:
            raise DataValidationError(
                f"signatures must be 2-D, got ndim={signatures.ndim}"
            )
        n_rows = len(signatures)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        if n_rows == 0:
            return indptr, np.empty(0, dtype=np.int64)
        keys = compute_band_keys(signatures, self.bands, self.rows)
        member_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        for row in range(n_rows):
            hits = self._bucket_hits(keys[row])
            if hits:
                members = np.concatenate(hits)
                member_parts.append(members)
                row_parts.append(np.full(len(members), row, dtype=np.int64))
        if not member_parts:
            return indptr, np.empty(0, dtype=np.int64)
        members = np.concatenate(member_parts)
        rows_idx = np.concatenate(row_parts)
        clusters = self._assign_buf[: self._n][members]
        low = int(clusters.min())
        span = int(clusters.max()) - low + 1
        uniq = np.unique(rows_idx * span + (clusters - low))
        u_row = uniq // span
        u_cluster = uniq - u_row * span + low
        counts = np.bincount(u_row, minlength=n_rows)
        np.cumsum(counts, out=indptr[1:])
        return indptr, u_cluster

    def neighbour_csr(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The flat neighbour storage: ``(group_of, indptr, indices)``.

        Item ``i``'s precomputed neighbour list is
        ``indices[indptr[group_of[i]]:indptr[group_of[i] + 1]]``; items
        with identical band-key rows share one list.  Returns ``None``
        when the index was built with ``precompute_neighbours=False``;
        callers must then go through :meth:`candidate_items`.
        """
        self._check_built()
        if self._nbr_indptr is None:
            return None
        assert self._group_of is not None and self._nbr_indices is not None
        return self._group_of, self._nbr_indptr, self._nbr_indices

    def neighbour_groups(self) -> tuple[np.ndarray, list[np.ndarray]] | None:
        """Grouped neighbour lists: ``(group_of, group_neighbours)``.

        Convenience view over :meth:`neighbour_csr` —
        ``group_neighbours[group_of[i]]`` is item ``i``'s neighbour
        list, each entry a zero-copy slice of the CSR ``indices``
        array.  Returns ``None`` when neighbours are not precomputed.
        """
        csr = self.neighbour_csr()
        if csr is None:
            return None
        group_of, indptr, indices = csr
        lists = [
            indices[indptr[g] : indptr[g + 1]] for g in range(len(indptr) - 1)
        ]
        return group_of, lists

    # -- read-only query mode (serving) ----------------------------------

    @property
    def read_only(self) -> bool:
        """Whether the index is frozen for concurrent read-only queries."""
        return self._read_only

    def freeze(self) -> "BaseClusteredIndex":
        """Switch the built index into read-only query mode (idempotent).

        A frozen index rejects every mutation — :meth:`insert`,
        :meth:`update_assignment`, :meth:`set_assignments`,
        :meth:`assignments_view` — and marks its item buffers
        non-writable, so any number of threads can query it
        concurrently without a lock.  This is the
        mode :class:`repro.serve.ModelServer` rebuilds persisted
        indexes into; training always works on unfrozen indexes.
        """
        self._check_built()
        if self._read_only:
            return self
        assert self._keys_buf is not None and self._assign_buf is not None
        # Trim the growth buffers to the logical item count so the
        # frozen views are exact, then seal them.
        self._keys_buf = self._keys_buf[: self._n]
        self._assign_buf = self._assign_buf[: self._n]
        self._keys_buf.setflags(write=False)
        self._assign_buf.setflags(write=False)
        self._read_only = True
        return self

    def _check_mutable(self, what: str) -> None:
        if self._read_only:
            raise ConfigurationError(
                f"{what} is not available on a frozen index; this index "
                "is in read-only query mode (see freeze())"
            )

    # -- incremental insertion (streaming extension) ---------------------

    def insert(self, signature: np.ndarray, cluster: int) -> int:
        """Add one new item to the index and return its item id.

        Supports the streaming extension (the paper's Further Work):
        late-arriving items are hashed into the existing buckets with
        their cluster reference, making them visible to subsequent
        queries.  Requires ``precompute_neighbours=False`` — grouped
        neighbour lists are frozen at build time and cannot absorb
        inserts.  Band keys, assignments and bucket membership all
        grow through amortised doubling buffers, so a bootstrap that
        streams thousands of items in stays linear.

        Parameters
        ----------
        signature:
            ``(bands * rows,)`` signature of the new item.
        cluster:
            The cluster reference to store for it.
        """
        self._check_built()
        self._check_mutable("insert")
        if self._nbr_indptr is not None:
            raise ConfigurationError(
                "insert requires precompute_neighbours=False; grouped "
                "neighbour lists cannot absorb new items"
            )
        assert self._keys_buf is not None and self._assign_buf is not None
        signature = np.asarray(signature)
        if signature.ndim != 1:
            raise DataValidationError(
                f"signature must be 1-D, got ndim={signature.ndim}"
            )
        keys = compute_band_keys(signature[None, :], self.bands, self.rows)[0]
        item = self._n
        self._ensure_item_capacity(item + 1)
        self._keys_buf[item] = keys
        self._assign_buf[item] = np.int64(cluster)
        self._n = item + 1
        self._insert_into_buckets(keys, item)
        return item

    def insert_batch(
        self,
        signatures: np.ndarray,
        clusters: np.ndarray,
        band_keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Add a whole chunk of new items at once; returns their item ids.

        Row-for-row equivalent to calling :meth:`insert` on each
        ``(signature, cluster)`` pair in order, but amortised three
        ways: band keys for the chunk are computed in **one**
        :func:`~repro.lsh.bands.compute_band_keys` call, the doubling
        buffers grow to the final size in one step, and bucket
        membership is appended as per-band *runs* (one dict touch per
        distinct bucket key in the chunk, not one per item) through
        :meth:`_insert_many_into_buckets`.  This is the bulk-ingest
        path of the streaming extension.

        Parameters
        ----------
        signatures:
            ``(n_new, bands * rows)`` signature matrix of the arrivals.
        clusters:
            ``(n_new,)`` cluster reference per arrival.
        band_keys:
            Optional precomputed ``(n_new, bands)`` key matrix for the
            same signatures (callers that already banded the chunk —
            the streaming collision walk does — skip the rehash).
        """
        self._check_built()
        self._check_mutable("insert_batch")
        if self._nbr_indptr is not None:
            raise ConfigurationError(
                "insert_batch requires precompute_neighbours=False; grouped "
                "neighbour lists cannot absorb new items"
            )
        assert self._keys_buf is not None and self._assign_buf is not None
        clusters = np.asarray(clusters, dtype=np.int64)
        if clusters.ndim != 1:
            raise DataValidationError(
                f"clusters must be 1-D, got ndim={clusters.ndim}"
            )
        if band_keys is None:
            signatures = np.asarray(signatures)
            if signatures.ndim != 2:
                raise DataValidationError(
                    f"signatures must be 2-D, got ndim={signatures.ndim}"
                )
            if len(signatures) != len(clusters):
                raise DataValidationError(
                    f"{len(signatures)} signatures but {len(clusters)} clusters"
                )
            if len(clusters) == 0:
                return np.empty(0, dtype=np.int64)
            keys = compute_band_keys(signatures, self.bands, self.rows)
        else:
            keys = np.asarray(band_keys, dtype=np.uint64)
            if keys.ndim != 2 or keys.shape[1] != self.bands:
                raise DataValidationError(
                    f"band_keys must be (n_new, {self.bands}), got shape "
                    f"{keys.shape}"
                )
            if len(keys) != len(clusters):
                raise DataValidationError(
                    f"{len(keys)} key rows but {len(clusters)} clusters"
                )
            if len(clusters) == 0:
                return np.empty(0, dtype=np.int64)
        n_new = len(clusters)
        start = self._n
        items = np.arange(start, start + n_new, dtype=np.int64)
        self._ensure_item_capacity(start + n_new)
        self._keys_buf[start : start + n_new] = keys
        self._assign_buf[start : start + n_new] = clusters
        self._n = start + n_new
        self._insert_many_into_buckets(keys, items)
        return items

    def _ensure_item_capacity(self, target: int) -> None:
        """Grow the doubling item buffers to hold ``target`` items."""
        assert self._keys_buf is not None and self._assign_buf is not None
        capacity = len(self._keys_buf)
        if target <= capacity:
            return
        new_capacity = max(4, capacity)
        while new_capacity < target:
            new_capacity *= 2
        used = self._n
        keys_buf = np.empty((new_capacity, self.bands), dtype=np.uint64)
        keys_buf[:used] = self._keys_buf[:used]
        self._keys_buf = keys_buf
        assign_buf = np.empty(new_capacity, dtype=np.int64)
        assign_buf[:used] = self._assign_buf[:used]
        self._assign_buf = assign_buf

    @staticmethod
    def _bucket_append(
        table: dict[int, np.ndarray], fill: dict[int, int], key: int, item: int
    ) -> None:
        """Append one member to a bucket with geometric over-allocation.

        ``fill`` records the logical length of buckets whose array has
        spare capacity; buckets untouched by insertion stay exact-size
        views from the build and never appear in ``fill``.
        """
        members = table.get(key)
        if members is None:
            buf = np.empty(4, dtype=np.int64)
            buf[0] = item
            table[key] = buf
            fill[key] = 1
            return
        used = fill.get(key, len(members))
        if used == len(members):
            buf = np.empty(max(4, 2 * used), dtype=np.int64)
            buf[:used] = members[:used]
            table[key] = buf
            members = buf
        members[used] = item
        fill[key] = used + 1

    @staticmethod
    def _bucket_append_run(
        table: dict[int, np.ndarray],
        fill: dict[int, int],
        key: int,
        run: np.ndarray,
    ) -> None:
        """Append a whole run of members to one bucket in one step.

        The batched counterpart of :meth:`_bucket_append`: capacity
        grows at most once per call and the run is copied in with one
        slice assignment.  Logical bucket contents end up identical to
        appending the run's members one by one.
        """
        count = len(run)
        members = table.get(key)
        if members is None:
            buf = np.empty(max(4, count), dtype=np.int64)
            buf[:count] = run
            table[key] = buf
            fill[key] = count
            return
        used = fill.get(key, len(members))
        need = used + count
        if need > len(members):
            buf = np.empty(max(4, 2 * used, need), dtype=np.int64)
            buf[:used] = members[:used]
            table[key] = buf
            members = buf
        members[used:need] = run
        fill[key] = need

    @classmethod
    def _append_key_runs(
        cls,
        tables: list[dict[int, np.ndarray]],
        fills: list[dict[int, int]],
        keys: np.ndarray,
        items: np.ndarray,
    ) -> None:
        """Bulk-insert ``items`` into per-band bucket tables.

        Per band, the chunk's keys are sorted once and each distinct
        bucket receives its members as a single run — O(distinct keys)
        dict operations per band instead of O(items).  Within a bucket
        members keep ascending item order, matching what sequential
        appends would produce.
        """
        for j in range(len(tables)):
            column = keys[:, j]
            order = np.argsort(column, kind="stable")
            sorted_keys = column[order]
            boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.append(boundaries, len(order))
            run_items = items[order]
            for s, e in zip(starts.tolist(), ends.tolist()):
                cls._bucket_append_run(
                    tables[j], fills[j], int(sorted_keys[s]), run_items[s:e]
                )

    @staticmethod
    def _bucket_members(
        table: dict[int, np.ndarray], fill: dict[int, int], key: int
    ) -> np.ndarray | None:
        """A bucket's logical members (``None`` for an absent key)."""
        members = table.get(key)
        if members is None:
            return None
        used = fill.get(key)
        return members if used is None else members[:used]

    # -- cluster-reference updates ---------------------------------------

    def update_assignment(self, item: int, cluster: int) -> None:
        """O(1) rewrite of one item's cluster reference."""
        self._check_built()
        self._check_mutable("update_assignment")
        assert self._assign_buf is not None
        self._assign_buf[item] = cluster

    def set_assignments(self, assignments: np.ndarray) -> None:
        """Bulk-replace every cluster reference (used between iterations)."""
        self._check_built()
        self._check_mutable("set_assignments")
        assert self._assign_buf is not None
        assignments = np.asarray(assignments, dtype=np.int64)
        if assignments.shape != (self._n,):
            raise DataValidationError(
                f"expected shape {(self._n,)}, got {assignments.shape}"
            )
        self._assign_buf[: self._n] = assignments

    @property
    def assignments(self) -> np.ndarray:
        """A copy of the current cluster references."""
        self._check_built()
        assert self._assign_buf is not None
        return self._assign_buf[: self._n].copy()

    def assignments_view(self) -> np.ndarray:
        """The *live* cluster-reference array (no copy).

        Intended for the inner fitting loops of this library: writing
        ``view[i] = c`` is equivalent to :meth:`update_assignment` and
        is immediately visible to :meth:`candidate_clusters`.  Treat as
        an internal fast path; external callers should prefer the safe
        methods.  (A later :meth:`insert` may reallocate the backing
        buffer, so re-fetch the view after streaming new items in.)
        """
        self._check_built()
        self._check_mutable("assignments_view")
        assert self._assign_buf is not None
        return self._assign_buf[: self._n]

    # -- diagnostics -----------------------------------------------------

    @property
    def n_items(self) -> int:
        self._check_built()
        return self._n

    @property
    def band_keys(self) -> np.ndarray:
        """The ``(n_items, bands)`` bucket-key matrix (live, do not mutate).

        Together with the assignments this is sufficient to rebuild the
        index (``from_band_keys``), which is how fitted models are
        persisted without storing raw signatures.
        """
        self._check_built()
        assert self._keys_buf is not None
        return self._keys_buf[: self._n]

    def stats(self) -> IndexStats:
        """Bucket- and neighbour-level summary statistics."""
        self._check_built()
        sizes = self._bucket_sizes()
        if self._nbr_indptr is not None:
            assert self._group_of is not None
            lengths = np.diff(self._nbr_indptr)
            mean_nb = float(lengths[self._group_of].mean())
        else:
            mean_nb = float("nan")
        return IndexStats(
            n_items=self.n_items,
            bands=self.bands,
            rows=self.rows,
            n_buckets=int(len(sizes)),
            mean_bucket_size=float(sizes.mean()) if sizes.size else 0.0,
            max_bucket_size=int(sizes.max()) if sizes.size else 0,
            mean_neighbours=mean_nb,
        )

    def _check_built(self) -> None:
        if not self._is_built():
            raise NotFittedError(
                "index not built; call build(signatures, assignments) first"
            )


# ----------------------------------------------------------------------
# the unsharded index
# ----------------------------------------------------------------------


class ClusteredLSHIndex(BaseClusteredIndex):
    """Banded LSH index whose entries carry mutable cluster references.

    Parameters
    ----------
    bands:
        Number of bands ``b``.
    rows:
        Rows per band ``r``.  Signatures must have width ``b * r``.
    precompute_neighbours:
        If True (default), each item's neighbour list is materialised
        at build time in the flat CSR storage (see the module
        docstring).  Queries then cost a couple of numpy gathers.
        Turn off to save memory when buckets are enormous (for example
        1 band × 1 row on near-duplicate data), or to keep the index
        insertable for streaming.

    Examples
    --------
    >>> from repro.lsh import MinHasher, TokenSets
    >>> items = TokenSets.from_lists([[1, 2, 3], [1, 2, 4], [9, 10, 11]])
    >>> sigs = MinHasher(n_hashes=8, seed=0).signatures(items)
    >>> index = ClusteredLSHIndex(bands=4, rows=2)
    >>> index.build(sigs, assignments=np.array([0, 1, 2]))
    >>> sorted(index.candidate_clusters(0).tolist())  # doctest: +SKIP
    [0, 1]
    """

    def __init__(self, bands: int, rows: int, precompute_neighbours: bool = True):
        super().__init__(bands, rows, precompute_neighbours)
        self._tables: list[dict[int, np.ndarray]] | None = None
        self._fill: list[dict[int, int]] | None = None

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(self, signatures: np.ndarray, assignments: np.ndarray) -> "ClusteredLSHIndex":
        """Index every item once (the single pass of Algorithm 2).

        Parameters
        ----------
        signatures:
            ``(n_items, bands * rows)`` signature matrix.
        assignments:
            ``(n_items,)`` initial cluster id per item.  Copied; use
            :meth:`update_assignment` / :meth:`set_assignments` to
            change later.
        """
        signatures = np.asarray(signatures)
        assignments = self._validated_assignments(
            len(signatures), assignments, "signatures"
        )
        band_keys = compute_band_keys(signatures, self.bands, self.rows)
        self._finalise(band_keys, assignments)
        return self

    @classmethod
    def from_band_keys(
        cls,
        bands: int,
        rows: int,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        precompute_neighbours: bool = True,
    ) -> "ClusteredLSHIndex":
        """Rebuild an index from already-computed ``(n, bands)`` keys.

        Band keys fully determine the buckets and neighbour lists, so a
        persisted model only needs to store them (not the signatures)
        to reconstruct its index — CSR neighbour storage included —
        exactly; see :func:`repro.data.io.save_model`.
        """
        band_keys = np.asarray(band_keys)
        if band_keys.ndim != 2 or band_keys.shape[1] != bands:
            raise DataValidationError(
                f"band_keys must be (n_items, {bands}), got shape "
                f"{band_keys.shape}"
            )
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        index = cls(bands, rows, precompute_neighbours=precompute_neighbours)
        index._finalise(band_keys.astype(np.uint64, copy=False), assignments)
        return index

    def _finalise(self, band_keys: np.ndarray, assignments: np.ndarray) -> None:
        """Common tail of :meth:`build` and :meth:`from_band_keys`."""
        self._store_items(band_keys, assignments)
        runs = band_runs(band_keys, self.bands, 0, len(band_keys))
        self._tables = tables_from_runs(runs)
        self._fill = [{} for _ in range(self.bands)]
        if self.precompute_neighbours:
            self._store_neighbours(band_keys, [runs])

    # ------------------------------------------------------------------
    # layout hooks
    # ------------------------------------------------------------------

    def _is_built(self) -> bool:
        return self._tables is not None

    def _bucket_hits(self, keys: np.ndarray) -> list[np.ndarray]:
        assert self._tables is not None and self._fill is not None
        hits: list[np.ndarray] = []
        for j in range(self.bands):
            members = self._bucket_members(
                self._tables[j], self._fill[j], int(keys[j])
            )
            if members is not None:
                hits.append(members)
        return hits

    def _insert_into_buckets(self, keys: np.ndarray, item: int) -> None:
        assert self._tables is not None and self._fill is not None
        for j in range(self.bands):
            self._bucket_append(self._tables[j], self._fill[j], int(keys[j]), item)

    def _insert_many_into_buckets(
        self, keys: np.ndarray, items: np.ndarray
    ) -> None:
        assert self._tables is not None and self._fill is not None
        self._append_key_runs(self._tables, self._fill, keys, items)

    def _bucket_sizes(self) -> np.ndarray:
        assert self._tables is not None and self._fill is not None
        return np.array(
            [
                len(self._bucket_members(table, fill, key))
                for table, fill in zip(self._tables, self._fill)
                for key in table
            ],
            dtype=np.int64,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusteredLSHIndex(bands={self.bands}, rows={self.rows}, "
            f"built={self._is_built()})"
        )
