"""Property test: the sorted-run index against a brute-force oracle.

A random build is followed by interleaved ``insert`` / ``insert_batch``
calls (batch sizes 0, 1 and sizes large enough to force several run
merges), then the index is frozen.  Every query, the neighbour CSR and
the statistics must equal what a dict-of-lists bucket table says, each
band must hold at most ``ceil(log2(n)) + 1`` runs, and a frozen index's
run arrays must reject writes.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ShardedClusteredLSHIndex
from repro.lsh.bands import compute_band_keys
from repro.lsh.index import ClusteredLSHIndex


class Oracle:
    """Per band, bucket key → list of member items; plus the references."""

    def __init__(self, bands: int):
        self.tables: list[dict[int, list[int]]] = [{} for _ in range(bands)]
        self.assignments: list[int] = []

    def add(self, key_row: np.ndarray, cluster: int) -> None:
        item = len(self.assignments)
        self.assignments.append(int(cluster))
        for table, key in zip(self.tables, key_row.tolist()):
            table.setdefault(key, []).append(item)

    def members(self, key_row: np.ndarray) -> list[int]:
        found: set[int] = set()
        for table, key in zip(self.tables, key_row.tolist()):
            found.update(table.get(key, ()))
        return sorted(found)

    def clusters(self, key_row: np.ndarray) -> list[int]:
        return sorted({self.assignments[i] for i in self.members(key_row)})


@st.composite
def index_cases(draw):
    bands = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=3))
    # a tiny signature alphabet makes buckets collide often
    alphabet = draw(st.integers(min_value=1, max_value=4))
    n_build = draw(st.integers(min_value=1, max_value=30))
    ops = draw(
        st.lists(
            st.one_of(
                st.just(("insert", 1)),
                st.tuples(
                    st.just("batch"),
                    st.sampled_from([0, 1, 2, 3, 7, 16, 40, 90]),
                ),
            ),
            max_size=12,
        )
    )
    n_shards = draw(st.sampled_from([None, 1, 2, 5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return bands, rows, alphabet, n_build, ops, n_shards, seed


def _make(bands, rows, n_shards, precompute):
    if n_shards is None:
        return ClusteredLSHIndex(bands, rows, precompute_neighbours=precompute)
    return ShardedClusteredLSHIndex(
        bands, rows, n_shards=n_shards, precompute_neighbours=precompute
    )


def _assert_matches_oracle(index, oracle, keys, probes, probe_keys):
    n = len(oracle.assignments)
    assert index.n_items == n
    assert np.array_equal(index.assignments, oracle.assignments)
    for item in range(n):
        assert index.candidate_items(item).tolist() == oracle.members(keys[item])
        assert index.candidate_clusters(item).tolist() == oracle.clusters(keys[item])
    indptr, clusters = index.shortlists_for_signatures(probes)
    for row, key_row in enumerate(probe_keys):
        expected = oracle.clusters(key_row)
        assert clusters[indptr[row] : indptr[row + 1]].tolist() == expected
        assert (
            index.candidate_clusters_for_signature(probes[row]).tolist() == expected
        )


def _assert_csr_matches(csr, oracle, keys):
    group_of, indptr, indices = csr
    for item in range(len(oracle.assignments)):
        group = group_of[item]
        got = indices[indptr[group] : indptr[group + 1]].tolist()
        assert got == oracle.members(keys[item])


def _assert_stats_match(stats, oracle, mean_neighbours):
    sizes = [len(m) for table in oracle.tables for m in table.values()]
    assert stats.n_items == len(oracle.assignments)
    assert stats.n_buckets == len(sizes)
    assert stats.max_bucket_size == max(sizes)
    assert stats.mean_bucket_size == pytest.approx(np.mean(sizes))
    if math.isnan(mean_neighbours):
        assert math.isnan(stats.mean_neighbours)
    else:
        assert stats.mean_neighbours == pytest.approx(mean_neighbours)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=index_cases())
def test_runs_index_matches_brute_force_oracle(case):
    bands, rows, alphabet, n_build, ops, n_shards, seed = case
    rng = np.random.default_rng(seed)
    width = bands * rows

    def signatures(count):
        return rng.integers(0, alphabet, size=(count, width))

    def clusters(count):
        return rng.integers(0, 6, size=count)

    build_sigs = signatures(n_build)
    build_clusters = clusters(n_build)
    index = _make(bands, rows, n_shards, precompute=False).build(
        build_sigs, build_clusters
    )
    oracle = Oracle(bands)
    for key_row, cluster in zip(
        compute_band_keys(build_sigs, bands, rows), build_clusters
    ):
        oracle.add(key_row, cluster)

    for kind, size in ops:
        sigs, labels = signatures(size), clusters(size)
        if kind == "insert":
            ids = [index.insert(sigs[0], int(labels[0]))]
        else:
            ids = index.insert_batch(sigs, labels).tolist()
        start = len(oracle.assignments)
        assert ids == list(range(start, start + size))
        for key_row, cluster in zip(compute_band_keys(sigs, bands, rows), labels):
            oracle.add(key_row, cluster)
        bound = math.ceil(math.log2(index.n_items)) + 1
        assert len(index._runs) <= bound

    keys = index.band_keys.copy()
    probes = np.vstack([signatures(6), build_sigs[:3]])
    probe_keys = compute_band_keys(probes, bands, rows)

    _assert_matches_oracle(index, oracle, keys, probes, probe_keys)
    _assert_csr_matches(index.derive_neighbour_csr(), oracle, keys)
    _assert_stats_match(index.stats(), oracle, float("nan"))
    assert index.neighbour_csr() is None

    # the precomputed CSR of an index rebuilt from the final keys
    rebuilt = type(index).from_band_keys(bands, rows, keys, index.assignments)
    _assert_csr_matches(rebuilt.neighbour_csr(), oracle, keys)
    mean_nb = np.mean([len(oracle.members(k)) for k in keys])
    _assert_stats_match(rebuilt.stats(), oracle, mean_nb)

    index.freeze()
    _assert_matches_oracle(index, oracle, keys, probes, probe_keys)
    for run in index._runs:
        for array in run:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    bands=st.integers(min_value=1, max_value=4),
    n_build=st.integers(min_value=1, max_value=25),
    batches=st.lists(st.integers(min_value=0, max_value=20), max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_keys_shared_across_bands_stay_in_their_band(bands, n_build, batches, seed):
    """Runs mix every band's keys; a key in two bands is two buckets."""
    rng = np.random.default_rng(seed)

    def key_rows(count):
        return rng.integers(0, 3, size=(count, bands)).astype(np.uint64)

    keys = key_rows(n_build)
    clusters = rng.integers(0, 6, size=n_build)
    index = ClusteredLSHIndex.from_band_keys(
        bands, 1, keys, clusters, precompute_neighbours=False
    )
    oracle = Oracle(bands)
    for key_row, cluster in zip(keys, clusters):
        oracle.add(key_row, cluster)
    for size in batches:
        new_keys, new_clusters = key_rows(size), rng.integers(0, 6, size=size)
        index.insert_batch(None, new_clusters, band_keys=new_keys)
        for key_row, cluster in zip(new_keys, new_clusters):
            oracle.add(key_row, cluster)

    keys = index.band_keys.copy()
    for item in range(index.n_items):
        assert index.candidate_items(item).tolist() == oracle.members(keys[item])
        assert index.candidate_clusters(item).tolist() == oracle.clusters(keys[item])
    _assert_csr_matches(index.derive_neighbour_csr(), oracle, keys)
    _assert_stats_match(index.stats(), oracle, float("nan"))
