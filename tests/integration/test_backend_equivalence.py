"""Backend-equivalence suite.

The engine's core contract: with a fixed seed and batch updates, the
``serial`` and ``thread`` backends — any worker and shard count —
produce *identical* labels and centroids, because a batch pass scores
every item against the labels frozen at the start of the pass and the
chunked kernels replicate the serial tie-breaking exactly.
"""

import numpy as np
import pytest

from repro.core.mh_kmodes import MHKModes
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine import ShardedClusteredLSHIndex
from repro.exceptions import ConfigurationError
from repro.kmeans.mh_kmeans import LSHKMeans

BACKEND_CONFIGS = [("serial", None), ("thread", 2), ("thread", 3), ("thread", 4)]


@pytest.fixture(scope="module")
def categorical():
    data = RuleBasedGenerator(
        n_clusters=15, n_attributes=20, domain_size=800, noise_rate=0.15, seed=21
    ).generate(450)
    initial = data.X[
        np.random.default_rng(4).choice(len(data.X), 15, replace=False)
    ].copy()
    return data.X, initial


@pytest.fixture(scope="module")
def numeric():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(3 * c, 0.8, (50, 8)) for c in range(6)])
    initial = X[rng.choice(len(X), 6, replace=False)].copy()
    return X, initial


def _fit_kmodes(X, initial, backend, n_jobs, **overrides):
    model = MHKModes(
        n_clusters=15,
        bands=8,
        rows=2,
        seed=0,
        max_iter=15,
        update_refs="batch",
        backend=backend,
        n_jobs=n_jobs,
        **overrides,
    )
    model.fit(X, initial_centroids=initial)
    return model


class TestKModesBackendEquivalence:
    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_labels_and_centroids_match_serial(
        self, categorical, backend, n_jobs
    ):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        candidate = _fit_kmodes(X, initial, backend, n_jobs)
        assert np.array_equal(candidate.labels_, reference.labels_)
        assert np.array_equal(candidate.centroids_, reference.centroids_)
        assert candidate.n_iter_ == reference.n_iter_
        assert candidate.converged_ == reference.converged_

    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_shortlist_series_match_serial(self, categorical, backend, n_jobs):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        candidate = _fit_kmodes(X, initial, backend, n_jobs)
        assert candidate.stats_.shortlist_sizes == reference.stats_.shortlist_sizes
        assert (
            candidate.stats_.moves_per_iteration
            == reference.stats_.moves_per_iteration
        )

    def test_predict_matches_across_backends(self, categorical):
        X, initial = categorical
        novel = RuleBasedGenerator(
            n_clusters=15, n_attributes=20, domain_size=800, seed=22
        ).generate(60)
        serial = _fit_kmodes(X, initial, "serial", None)
        threaded = _fit_kmodes(X, initial, "thread", 2)
        assert np.array_equal(serial.predict(novel.X), threaded.predict(novel.X))


class TestShardCountInvariance:
    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_fit_invariant_to_shards(self, categorical, n_shards):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        sharded = _fit_kmodes(X, initial, "serial", None, n_shards=n_shards)
        assert np.array_equal(sharded.labels_, reference.labels_)
        assert np.array_equal(sharded.centroids_, reference.centroids_)

    def test_parallel_sharded_fit_matches_serial(self, categorical):
        X, initial = categorical
        reference = _fit_kmodes(X, initial, "serial", None)
        sharded = _fit_kmodes(X, initial, "thread", 2, n_shards=4)
        assert isinstance(sharded.index_, ShardedClusteredLSHIndex)
        assert np.array_equal(sharded.labels_, reference.labels_)


class TestKMeansBackendEquivalence:
    @pytest.mark.parametrize("backend,n_jobs", BACKEND_CONFIGS[1:])
    def test_labels_and_centroids_match_serial(self, numeric, backend, n_jobs):
        X, initial = numeric
        def fit(backend, n_jobs):
            return LSHKMeans(
                n_clusters=6,
                bands=8,
                rows=2,
                seed=0,
                update_refs="batch",
                backend=backend,
                n_jobs=n_jobs,
            ).fit(X, initial_centroids=initial)

        reference = fit("serial", None)
        candidate = fit(backend, n_jobs)
        assert np.array_equal(candidate.labels_, reference.labels_)
        assert np.array_equal(candidate.centroids_, reference.centroids_)


class TestSemanticsGuards:
    def test_online_with_parallel_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            MHKModes(n_clusters=3, bands=4, rows=1, backend="thread",
                     update_refs="online")

    def test_default_update_refs_resolution(self):
        assert MHKModes(n_clusters=3, bands=4, rows=1).update_refs == "online"
        assert (
            MHKModes(n_clusters=3, bands=4, rows=1, backend="thread").update_refs
            == "batch"
        )

    def test_phase_timings_recorded(self, categorical):
        X, initial = categorical
        model = _fit_kmodes(X, initial, "thread", 2)
        assert set(model.stats_.phase_s) == {
            "session_open",
            "exhaustive_assign",
            "signatures",
            "index_build",
            "iterations",
        }
        assert all(v >= 0 for v in model.stats_.phase_s.values())


class TestStreamingWithEngine:
    def test_parallel_sharded_bootstrap_matches_serial_stream(self):
        data = RuleBasedGenerator(
            n_clusters=6, n_attributes=12, domain_size=300, seed=13
        ).generate(240)
        serial = StreamingMHKModes(n_clusters=6, bands=8, rows=1, seed=0)
        parallel = StreamingMHKModes(
            n_clusters=6, bands=8, rows=1, seed=0,
            backend="thread", n_jobs=2, n_shards=3,
        )
        serial.bootstrap(data.X[:180])
        parallel.bootstrap(data.X[:180])
        assert isinstance(
            parallel._bootstrap_model.index_, ShardedClusteredLSHIndex
        )
        serial_labels = serial.extend(data.X[180:])
        parallel_labels = parallel.extend(data.X[180:])
        # bootstrap semantics differ (online vs batch), so streamed labels
        # need not be identical — but the machinery must agree on shape,
        # absorb every arrival, and keep shortlists non-degenerate.
        assert len(parallel_labels) == 60
        assert parallel.n_seen_ == serial.n_seen_ == 240
        assert parallel._bootstrap_model.index_.n_items == 240
