"""Serving equivalence properties: every path is the same predict.

The serving contract of :class:`repro.serve.ModelServer` is that it is
a pure *delivery* layer: for any spec and dataset, every combination of
backend (serial / thread), chunk size (including 1), batch size
(including 1 and 0) and request ordering returns labels bit-identical
to in-process ``ClusterModel.predict`` — which itself routes through
the training estimator's batched shortlist ``predict``.  Hypothesis
drives random specs and datasets through both backends; the thread
backend is also pinned to representative chunkings over a fixed
workload.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.kmeans.mh_kmeans import LSHKMeans
from repro.serve import ModelServer


@st.composite
def serving_cases(draw):
    """A random (dataset, LSH spec, serve chunking) serving scenario."""
    n = draw(st.integers(min_value=12, max_value=70))
    m = draw(st.integers(min_value=2, max_value=8))
    domain = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=6))
    bands = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    chunk = draw(st.sampled_from([1, 2, 5, 64]))
    backend = draw(st.sampled_from(["serial", "thread"]))
    return n, m, domain, k, bands, rows, seed, chunk, backend


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=serving_cases())
def test_served_labels_bit_identical_for_random_specs(case):
    n, m, domain, k, bands, rows, seed, chunk, backend = case
    rng = np.random.default_rng(seed)
    X_train = rng.integers(0, domain, size=(n, m))
    X_novel = rng.integers(0, domain, size=(n // 2 + 1, m))
    estimator = MHKModes(
        n_clusters=k,
        lsh={"bands": bands, "rows": rows, "seed": seed},
        train={"max_iter": 5},
        domain_size=domain,  # novel draws stay inside the fitted domain
    ).fit(X_train)
    model = estimator.fitted_model()
    spec = ServeSpec(
        backend=backend, n_jobs=2, chunk_items=chunk, max_batch=max(n, 64)
    )
    with ModelServer(model, spec) as server:
        for X in (X_train, X_novel):
            reference = model.predict(X)
            assert np.array_equal(reference, estimator.predict(X))
            assert np.array_equal(server.predict(X), reference)
            # batch-size-1 requests walk the identical code path
            assert np.array_equal(server.predict(X[:1]), reference[:1])
        # the empty batch is a legal request with zero labels
        empty = server.predict(np.empty((0, m), dtype=np.int64))
        assert empty.shape == (0,) and empty.dtype == np.int64


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=serving_cases())
def test_all_absent_rows_serve_bit_identical(case):
    """Rows where every cell is ``absent_code`` (empty token sets) get
    the same label from the estimator, the artifact and the server."""
    n, m, domain, k, bands, rows, seed, chunk, backend = case
    rng = np.random.default_rng(seed)
    absent = int(rng.integers(0, domain))
    X_train = rng.integers(0, domain, size=(n, m))
    X_train[rng.integers(0, n)] = absent  # an all-absent training row
    X_novel = rng.integers(0, domain, size=(n // 2 + 1, m))
    X_novel[0] = absent
    X_novel[-1] = absent
    estimator = MHKModes(
        n_clusters=k,
        lsh={"bands": bands, "rows": rows, "seed": seed},
        train={"max_iter": 5},
        domain_size=domain,
        absent_code=absent,
    ).fit(X_train)
    model = estimator.fitted_model()
    spec = ServeSpec(
        backend=backend, n_jobs=2, chunk_items=chunk, max_batch=max(n, 64)
    )
    with ModelServer(model, spec) as server:
        for X in (X_train, X_novel):
            reference = model.predict(X)
            assert np.array_equal(reference, estimator.predict(X))
            assert np.array_equal(server.predict(X), reference)


@pytest.fixture(scope="module")
def fixed_workload():
    data = RuleBasedGenerator(
        n_clusters=10, n_attributes=16, domain_size=400, noise_rate=0.1, seed=13
    ).generate(420)
    estimator = MHKModes(
        n_clusters=10, lsh={"bands": 10, "rows": 2, "seed": 4}
    ).fit(data.X)
    model = estimator.fitted_model()
    novel = RuleBasedGenerator(
        n_clusters=10, n_attributes=16, domain_size=400, seed=14
    ).generate(150)
    return estimator, model, data, novel.X


class TestPinnedThreadBackend:
    """The thread path, pinned (one pool spin-up per chunking)."""

    @pytest.mark.parametrize("chunk_items", [1, 17, 4096])
    def test_thread_serving_bit_identical(self, fixed_workload, chunk_items):
        estimator, model, data, X_novel = fixed_workload
        spec = ServeSpec(
            backend="thread", n_jobs=2, chunk_items=chunk_items, max_batch=4096
        )
        with ModelServer(model, spec) as server:
            for X in (data.X, X_novel, X_novel[:1]):
                reference = model.predict(X)
                assert np.array_equal(server.predict(X), reference)
                assert np.array_equal(reference, estimator.predict(X))
            assert server.predict(
                np.empty((0, data.X.shape[1]), dtype=np.int64)
            ).shape == (0,)

    def test_interleaved_batch_sizes_share_one_pool(self, fixed_workload):
        _, model, data, _ = fixed_workload
        reference = model.predict(data.X)
        spec = ServeSpec(
            backend="thread", n_jobs=2, chunk_items=50, max_batch=512
        )
        with ModelServer(model, spec) as server:
            rng = np.random.default_rng(3)
            for _ in range(8):
                rows = rng.choice(len(data.X), int(rng.integers(1, 120)), False)
                assert np.array_equal(server.predict(data.X[rows]), reference[rows])
            assert server._backend.sessions_opened == 1


class TestTrainingLabels:
    """On training data a converged fit serves its own labels back.

    Up to one documented asymmetry: the training pass keeps the
    *current* cluster on a distance tie (required for the fixed-point
    termination), while predict — which has no current cluster — takes
    the smallest-id minimiser.  So served labels must equal the
    training labels except where the two clusters are exactly
    equidistant, and there the served id must be the smaller one.
    """

    def test_converged_training_labels_round_trip(self, fixed_workload):
        estimator, model, data, _ = fixed_workload
        assert estimator.converged_
        centroids = np.asarray(model.centroids)
        for backend in ("serial", "thread"):
            spec = ServeSpec(
                backend=backend, n_jobs=2, chunk_items=128, max_batch=512
            )
            with ModelServer(model, spec) as server:
                served = server.predict(data.X)
            trained = estimator.labels_
            diff = np.flatnonzero(served != trained)
            # overwhelmingly identical; divergences are exact ties
            assert len(diff) < 0.01 * len(data.X), backend
            if diff.size:
                d_served = np.count_nonzero(
                    data.X[diff] != centroids[served[diff]], axis=1
                )
                d_trained = np.count_nonzero(
                    data.X[diff] != centroids[trained[diff]], axis=1
                )
                assert np.array_equal(d_served, d_trained), backend
                assert np.all(served[diff] < trained[diff]), backend


class TestNumericFamily:
    """The numeric LSH estimator serves identically too (SimHash)."""

    def test_lsh_kmeans_served_bit_identical(self):
        rng = np.random.default_rng(23)
        X = np.vstack([rng.normal(3.0 * c, 1.0, (40, 6)) for c in range(5)])
        estimator = LSHKMeans(
            n_clusters=5,
            lsh={"family": "simhash", "bands": 8, "rows": 2, "seed": 1},
        ).fit(X)
        model = estimator.fitted_model()
        novel = rng.normal(6.0, 4.0, (77, 6))
        reference = model.predict(novel)
        assert np.array_equal(reference, estimator.predict(novel))
        for backend in ("serial", "thread"):
            spec = ServeSpec(
                backend=backend, n_jobs=2, chunk_items=13, max_batch=256
            )
            with ModelServer(model, spec) as server:
                assert np.array_equal(server.predict(novel), reference), backend
