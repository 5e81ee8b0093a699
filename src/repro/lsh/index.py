"""The clustered LSH index of Algorithm 2.

This is the data structure at the heart of the paper's framework: a
banded LSH index over *items* in which every item carries a mutable
reference to the cluster it is currently assigned to.

Storage is array-native: a short list of *sorted runs*, each covering
one span of items.  A run is a pair of flat arrays over every band's
bucket keys of its items: ``keys`` (``uint64``, ascending) and
``entries`` (``int64``, ``item * bands + band`` at the same position,
ascending among equal keys).  A bucket — one key in one band — is the
union of its key's slices over the runs, restricted to that band's
entries.  Keys are seeded per band, so a key practically never occurs
in two bands, but the band check keeps results exact regardless.

Build phase (run once, after centroid initialisation):

1. every item's signature is banded into ``b`` bucket keys;
2. all of the items' keys are sorted into one run;
3. optionally, each item's static *neighbour list* — the union of its
   buckets' members — is precomputed, because buckets never change
   after the build.  Neighbour lists are stored as one flat CSR pair
   (``indptr``, ``indices``) per *group* of items with identical
   band-key rows: such items occupy exactly the same buckets and share
   one list, which collapses the pathological case of many identical
   (or empty) token sets from O(n²) to O(n) work and memory, and the
   flat layout keeps the per-iteration hot loop free of Python-object
   traffic.

Query phase (run once per item per iteration, or per predicted row):

* :meth:`BaseClusteredIndex.candidate_clusters` returns the distinct
  clusters currently holding the item's neighbours.  This is the
  paper's *shortlist*.  Because an item always collides with itself,
  the shortlist always contains the item's own current cluster.
* Novel signatures are answered in batches: one pair of
  ``np.searchsorted`` calls per run locates the bucket slices of every
  query row and band, one ragged gather per run collects their
  members, and one segmented ``np.unique`` deduplicates each row's
  clusters.

Update phase (after each reassignment):

* :meth:`BaseClusteredIndex.update_assignment` rewrites one slot of
  the assignment array — the O(1) "update the cluster reference" step
  the paper highlights.

Streaming inserts (the paper's Further Work) add one new sorted run;
runs are merged geometrically, LSM style, so the index holds at most
``log2(n) + 1`` runs and every item is re-sorted O(log n) times over
the index's life.  A frozen index seals its run arrays.
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
    "merge_runs",
    "group_csr_from_runs",
]

#: One sorted run of an item span: ``(keys, entries)``, flat over every
#: band, keys ascending and ``entries = item * bands + band`` ascending
#: among equal keys.
Run = tuple[np.ndarray, np.ndarray]


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
# sorted-run machinery (also used by the sharded build and the engine)
# ----------------------------------------------------------------------


def band_runs(band_keys: np.ndarray, start: int, stop: int) -> Run:
    """Sort the bucket keys of items ``[start, stop)`` into one run.

    Row-major flattening numbers the keys ``item * bands + band``
    already, so the entries are a range; the stable sort keeps equal
    keys in ascending entry order.
    """
    keys = band_keys[start:stop].ravel()
    order = np.argsort(keys, kind="stable")
    bands = band_keys.shape[1]
    return keys[order], np.arange(start * bands, stop * bands, dtype=np.int64)[order]


def merge_runs(runs: list[Run]) -> Run:
    """Merge runs into one; every item of a run must precede the next run's.

    That precondition (shard spans in order, older LSM runs first) is
    what keeps equal keys in ascending entry order after the stable sort.
    """
    if len(runs) == 1:
        return runs[0]
    keys = np.concatenate([keys for keys, _ in runs])
    order = np.argsort(keys, kind="stable")
    return keys[order], np.concatenate([entries for _, entries in runs])[order]


def _run_hits(runs: list[Run], query_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(query row, bucket member)`` pair of a ``(q, bands)`` key block.

    The ``q * bands`` needles are searched in ascending order, so
    consecutive searches touch nearby cache lines.  Per run, one
    ``searchsorted`` finds every needle's left bound, a second one the
    right bounds of the needles that hit, and one ragged index gathers
    the slices, keeping entries of the needle's own band.  A member
    appears once per band it shares with the row, so callers
    deduplicate.
    """
    bands = query_keys.shape[1]
    needles = query_keys.ravel()  # needle r * bands + j: row r, band j
    needle_of = np.argsort(needles)
    needles = needles[needle_of]
    row_parts: list[np.ndarray] = []
    member_parts: list[np.ndarray] = []
    for keys, entries in runs:
        lo = keys.searchsorted(needles, side="left")
        # most needles miss: find the right bounds of the hits only
        found = np.flatnonzero(keys[np.minimum(lo, len(keys) - 1)] == needles)
        if not len(found):
            continue
        lo = lo[found]
        counts = keys.searchsorted(needles[found], side="right") - lo
        first = np.cumsum(counts) - counts
        hits = entries[
            np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(lo - first, counts)
        ]
        owners = np.repeat(needle_of[found], counts)
        same_band = hits % bands == owners % bands
        member_parts.append(hits[same_band] // bands)
        row_parts.append(owners[same_band] // bands)
    if not member_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(row_parts), np.concatenate(member_parts)


def _segmented_unique(
    owner: np.ndarray, values: np.ndarray, n_owners: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` per owner as a CSR pair ``(indptr, values)``.

    One ``np.unique`` over ``owner * span + value`` keys sorts by owner
    first, then by value.
    """
    indptr = np.zeros(n_owners + 1, dtype=np.int64)
    if not len(values):
        return indptr, np.empty(0, dtype=np.int64)
    low = int(values.min())
    span = int(values.max()) - low + 1
    uniq = np.unique(owner * span + (values - low))
    u_owner = uniq // span
    np.cumsum(np.bincount(u_owner, minlength=n_owners), out=indptr[1:])
    return indptr, uniq - u_owner * span + low


def group_csr_from_runs(
    unique_rows: np.ndarray, runs: list[Run]
) -> tuple[np.ndarray, np.ndarray]:
    """Materialise every group's neighbour list as one flat CSR pair.

    ``unique_rows`` holds one band-key row per group and ``runs`` the
    index's runs.  Each group's buckets are gathered from every
    run at once (:func:`_run_hits`) and deduplicated with a single
    segmented ``np.unique`` — no per-group Python work, which is what
    keeps index construction fast at scale.

    Returns ``(indptr, indices)`` where group ``g``'s sorted distinct
    neighbours are ``indices[indptr[g]:indptr[g + 1]]``.
    """
    groups, members = _run_hits(runs, unique_rows)
    return _segmented_unique(groups, members, len(unique_rows))


# ----------------------------------------------------------------------
# the shared index surface
# ----------------------------------------------------------------------


class BaseClusteredIndex:
    """The clustered index over sorted runs of bucket keys.

    Owns build validation, item storage, queries, assignment updates,
    streaming insertion and statistics.  :class:`ClusteredLSHIndex`
    and the engine's
    :class:`~repro.engine.sharded_index.ShardedClusteredLSHIndex`
    differ only in how the build computes its first runs, so their
    query results cannot differ.

    Band keys and assignments live in capacity arrays trimmed to the
    logical item count, grown by doubling, so a stream of inserts costs
    O(1) amortised per item for item storage; bucket membership grows
    through the geometric run merges described in the module docstring.
    """

    def __init__(self, bands: int, rows: int, precompute_neighbours: bool = True):
        validate_bands_rows(bands, rows)
        self.bands = int(bands)
        self.rows = int(rows)
        self.precompute_neighbours = bool(precompute_neighbours)
        self._keys_buf: np.ndarray | None = None  # (capacity, bands) uint64
        self._assign_buf: np.ndarray | None = None  # (capacity,) int64
        self._n = 0
        self._runs: list[Run] | None = None  # oldest run first
        self._read_only = False
        self._group_of: np.ndarray | None = None
        self._nbr_indptr: np.ndarray | None = None
        self._nbr_indices: np.ndarray | None = None

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

    @classmethod
    def _validated_band_keys(
        cls, bands: int, band_keys: np.ndarray, assignments: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shape-check persisted ``(n, bands)`` keys and their assignments."""
        band_keys = np.asarray(band_keys)
        if band_keys.ndim != 2 or band_keys.shape[1] != bands:
            raise DataValidationError(
                f"band_keys must be (n_items, {bands}), got shape "
                f"{band_keys.shape}"
            )
        assignments = cls._validated_assignments(
            len(band_keys), assignments, "key rows"
        )
        return band_keys.astype(np.uint64, copy=False), assignments

    def _finalise(
        self,
        band_keys: np.ndarray,
        assignments: np.ndarray,
        run: Run | None = None,
    ) -> None:
        """Store the items and their first run (sorted here if absent)."""
        self._keys_buf = np.ascontiguousarray(band_keys, dtype=np.uint64)
        self._assign_buf = assignments.astype(np.int64).copy()
        self._n = len(band_keys)
        if run is None:
            run = band_runs(self._keys_buf, 0, self._n)
        self._runs = [run]
        if self.precompute_neighbours:
            (
                self._group_of,
                self._nbr_indptr,
                self._nbr_indices,
            ) = self.derive_neighbour_csr()

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
        assert self._runs is not None
        _, members = _run_hits(self._runs, self.band_keys[item][None, :])
        return np.unique(members)

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
        assert self._assign_buf is not None and self._runs is not None
        signature = np.asarray(signature)
        if signature.ndim == 1:
            signature = signature[None, :]
        keys = compute_band_keys(signature, self.bands, self.rows)[:1]
        _, members = _run_hits(self._runs, keys)
        return np.unique(self._assign_buf[: self._n][members])

    def shortlists_for_signatures(
        self, signatures: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`candidate_clusters_for_signature` as a CSR pair.

        Band keys for every query row are computed in one call, bucket
        members are gathered for the whole batch per run, and
        the per-row deduplication runs as a single segmented
        ``np.unique``.

        Returns ``(indptr, clusters)``: row ``r``'s sorted distinct
        candidate clusters are ``clusters[indptr[r]:indptr[r + 1]]``
        (an empty slice where the row collides with nothing) —
        row for row identical to the per-signature method.
        """
        self._check_built()
        assert self._assign_buf is not None and self._runs is not None
        signatures = np.asarray(signatures)
        if signatures.ndim != 2:
            raise DataValidationError(
                f"signatures must be 2-D, got ndim={signatures.ndim}"
            )
        n_rows = len(signatures)
        if n_rows == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        keys = compute_band_keys(signatures, self.bands, self.rows)
        rows, members = _run_hits(self._runs, keys)
        return _segmented_unique(rows, self._assign_buf[: self._n][members], n_rows)

    def neighbour_csr(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The flat neighbour storage: ``(group_of, indptr, indices)``.

        Item ``i``'s precomputed neighbour list is
        ``indices[indptr[group_of[i]]:indptr[group_of[i] + 1]]``; items
        with identical band-key rows share one list.  Returns ``None``
        when the index was built with ``precompute_neighbours=False``;
        :meth:`derive_neighbour_csr` then computes the same arrays on
        demand.
        """
        self._check_built()
        if self._nbr_indptr is None:
            return None
        assert self._group_of is not None and self._nbr_indices is not None
        return self._group_of, self._nbr_indptr, self._nbr_indices

    def derive_neighbour_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(group_of, indptr, indices)`` CSR of the current buckets.

        Groups identical band-key rows and gathers every group's
        neighbours in one :func:`group_csr_from_runs` call.  On an
        insertable index the result is a snapshot: later inserts do
        not show in it.
        """
        self._check_built()
        assert self._runs is not None
        unique_rows, group_of = np.unique(
            self.band_keys, axis=0, return_inverse=True
        )
        indptr, indices = group_csr_from_runs(unique_rows, self._runs)
        return group_of.astype(np.int64).ravel(), indptr, indices

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
        :meth:`assignments_view` — and marks its item buffers and run
        arrays non-writable, so any number of threads can query it
        concurrently without a lock.  This is the
        mode :class:`repro.serve.ModelServer` rebuilds persisted
        indexes into; training always works on unfrozen indexes.
        """
        self._check_built()
        if self._read_only:
            return self
        assert self._keys_buf is not None and self._assign_buf is not None
        assert self._runs is not None
        # Trim the growth buffers to the logical item count so the
        # frozen views are exact, then seal them and every run.
        self._keys_buf = self._keys_buf[: self._n]
        self._assign_buf = self._assign_buf[: self._n]
        sealed = [self._keys_buf, self._assign_buf]
        for run in self._runs:
            sealed += run
        for array in sealed:
            array.setflags(write=False)
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
        inserts.

        Parameters
        ----------
        signature:
            ``(bands * rows,)`` signature of the new item.
        cluster:
            The cluster reference to store for it.
        """
        self._check_insertable("insert")
        signature = np.asarray(signature)
        if signature.ndim != 1:
            raise DataValidationError(
                f"signature must be 1-D, got ndim={signature.ndim}"
            )
        keys = compute_band_keys(signature[None, :], self.bands, self.rows)
        return int(self._append_items(keys, np.array([cluster], dtype=np.int64))[0])

    def insert_batch(
        self,
        signatures: np.ndarray,
        clusters: np.ndarray,
        band_keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Add a whole chunk of new items at once; returns their item ids.

        Row-for-row equivalent to calling :meth:`insert` on each
        ``(signature, cluster)`` pair in order: band keys for the chunk
        are computed in **one**
        :func:`~repro.lsh.bands.compute_band_keys` call and the chunk
        becomes one new sorted run.  This is the bulk-ingest
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
        self._check_insertable("insert_batch")
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
        return self._append_items(keys, clusters)

    def _check_insertable(self, what: str) -> None:
        self._check_built()
        self._check_mutable(what)
        if self._nbr_indptr is not None:
            raise ConfigurationError(
                f"{what} requires precompute_neighbours=False; grouped "
                "neighbour lists cannot absorb new items"
            )

    def _append_items(self, keys: np.ndarray, clusters: np.ndarray) -> np.ndarray:
        """Store a non-empty chunk and add it as one new run.

        After the append, the newest runs merge while a run is less
        than twice the size of its successor, so run sizes at least
        halve from oldest to newest and the index holds at most
        ``log2(n) + 1`` runs.
        """
        assert self._keys_buf is not None and self._assign_buf is not None
        assert self._runs is not None
        start, stop = self._n, self._n + len(clusters)
        self._ensure_item_capacity(stop)
        self._keys_buf[start:stop] = keys
        self._assign_buf[start:stop] = clusters
        self._n = stop
        runs = self._runs
        runs.append(band_runs(self._keys_buf, start, stop))
        while len(runs) > 1 and len(runs[-2][0]) < 2 * len(runs[-1][0]):
            runs[-2:] = [merge_runs(runs[-2:])]
        return np.arange(start, stop, dtype=np.int64)

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
        assert self._runs is not None
        keys = np.concatenate([keys for keys, _ in self._runs])
        band = np.concatenate([entries for _, entries in self._runs]) % self.bands
        order = np.lexsort((keys, band))
        keys, band = keys[order], band[order]
        fresh = np.ones(len(keys), dtype=bool)  # first member of a bucket
        fresh[1:] = (keys[1:] != keys[:-1]) | (band[1:] != band[:-1])
        sizes = np.diff(np.append(np.flatnonzero(fresh), len(keys)))
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
            mean_bucket_size=float(sizes.mean()),
            max_bucket_size=int(sizes.max()),
            mean_neighbours=mean_nb,
        )

    def _check_built(self) -> None:
        if self._runs is None:
            raise NotFittedError(
                "index not built; call build(signatures, assignments) first"
            )


# ----------------------------------------------------------------------
# the unsharded index
# ----------------------------------------------------------------------


class ClusteredLSHIndex(BaseClusteredIndex):
    """Banded LSH index whose entries carry mutable cluster references.

    Bucket keys are kept as sorted ``(keys, entries)`` runs (see the
    module docstring); a bucket is one key's slice of every run.

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
        self._finalise(
            compute_band_keys(signatures, self.bands, self.rows), assignments
        )
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
        band_keys, assignments = cls._validated_band_keys(
            bands, band_keys, assignments
        )
        index = cls(bands, rows, precompute_neighbours=precompute_neighbours)
        index._finalise(band_keys, assignments)
        return index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusteredLSHIndex(bands={self.bands}, rows={self.rows}, "
            f"built={self._runs is not None})"
        )
