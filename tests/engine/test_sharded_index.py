"""Sharded index tests: shard-count invariance against the global index."""

import numpy as np
import pytest

from repro.engine import ShardedClusteredLSHIndex, resolve_backend
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.lsh.index import ClusteredLSHIndex
from repro.lsh.minhash import MinHasher
from repro.lsh.tokens import TokenSets


@pytest.fixture
def signatures(rng):
    items = [rng.choice(200, size=rng.integers(3, 10), replace=False) for _ in range(60)]
    return MinHasher(n_hashes=12, seed=9).signatures(TokenSets.from_lists(items))


@pytest.fixture
def assignments(rng):
    return rng.integers(0, 7, 60).astype(np.int64)


SHARD_COUNTS = (1, 2, 3, 7, 60)


class TestShardInvariance:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_candidate_items_match_global_index(
        self, signatures, assignments, n_shards
    ):
        reference = ClusteredLSHIndex(bands=4, rows=3).build(signatures, assignments)
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=n_shards).build(
            signatures, assignments
        )
        for item in range(len(assignments)):
            assert np.array_equal(
                sharded.candidate_items(item), reference.candidate_items(item)
            )
            assert np.array_equal(
                sharded.candidate_clusters(item), reference.candidate_clusters(item)
            )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_novel_signature_shortlists_match(self, signatures, assignments, n_shards):
        reference = ClusteredLSHIndex(bands=4, rows=3).build(signatures, assignments)
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=n_shards).build(
            signatures, assignments
        )
        for probe in signatures[:10]:
            assert np.array_equal(
                sharded.candidate_clusters_for_signature(probe),
                reference.candidate_clusters_for_signature(probe),
            )

    def test_parallel_build_equals_serial_build(self, signatures, assignments):
        serial = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=3).build(
            signatures, assignments
        )
        threaded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=3).build(
            signatures, assignments, backend=resolve_backend("thread", 2)
        )
        for item in range(len(assignments)):
            assert np.array_equal(
                serial.candidate_items(item), threaded.candidate_items(item)
            )

    def test_neighbour_groups_cover_every_item(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=4).build(
            signatures, assignments
        )
        groups = sharded.neighbour_groups()
        assert groups is not None
        group_of, group_neighbours = groups
        assert len(group_of) == len(assignments)
        for item in range(len(assignments)):
            assert item in group_neighbours[group_of[item]]


class TestAssignments:
    def test_reference_update_visible_in_shortlist(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=3).build(
            signatures, assignments
        )
        sharded.update_assignment(0, 6)
        assert sharded.assignments[0] == 6
        assert 6 in sharded.candidate_clusters(0)

    def test_assignments_view_is_live(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=2).build(
            signatures, assignments
        )
        view = sharded.assignments_view()
        view[3] = 5
        assert sharded.assignments[3] == 5

    def test_set_assignments_shape_checked(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=2).build(
            signatures, assignments
        )
        with pytest.raises(DataValidationError):
            sharded.set_assignments(np.zeros(3, dtype=np.int64))


class TestInsert:
    def test_insert_spreads_items_and_answers_queries(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(
            bands=4, rows=3, n_shards=3, precompute_neighbours=False
        ).build(signatures, assignments)
        item = sharded.insert(signatures[0], cluster=5)
        assert item == len(assignments)
        assert sharded.n_items == len(assignments) + 1
        # the clone shares every bucket with item 0, so both see cluster 5
        assert 5 in sharded.candidate_clusters(0)
        assert item in sharded.candidate_items(0)

    def test_insert_requires_no_precompute(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=2).build(
            signatures, assignments
        )
        with pytest.raises(ConfigurationError):
            sharded.insert(signatures[0], cluster=1)


class TestValidation:
    def test_unbuilt_queries_rejected(self):
        with pytest.raises(NotFittedError):
            ShardedClusteredLSHIndex(bands=4, rows=3).candidate_items(0)

    def test_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=0)

    def test_mismatched_assignments(self, signatures):
        with pytest.raises(DataValidationError):
            ShardedClusteredLSHIndex(bands=4, rows=3).build(
                signatures, np.zeros(3, dtype=np.int64)
            )

    def test_from_band_keys_round_trip(self, signatures, assignments):
        built = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=3).build(
            signatures, assignments
        )
        rebuilt = ShardedClusteredLSHIndex.from_band_keys(
            4, 3, built.band_keys, assignments, n_shards=2
        )
        for item in range(len(assignments)):
            assert np.array_equal(
                rebuilt.candidate_items(item), built.candidate_items(item)
            )

    def test_stats_aggregate(self, signatures, assignments):
        sharded = ShardedClusteredLSHIndex(bands=4, rows=3, n_shards=3).build(
            signatures, assignments
        )
        stats = sharded.stats()
        assert stats.n_items == len(assignments)
        assert stats.mean_bucket_size > 0
        # shard runs merge into the global runs, so every figure matches
        reference = ClusteredLSHIndex(bands=4, rows=3).build(signatures, assignments)
        assert stats == reference.stats()
