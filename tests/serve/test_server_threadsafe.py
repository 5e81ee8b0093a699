"""Concurrency stress: many caller threads, one ModelServer.

The serving contract under concurrency:

* N threads firing interleaved batches at one server each get exactly
  the labels their own batch deserves — no cross-request interleaving,
  on every backend (both dispatch concurrently against the frozen
  index);
* a request that fails (validation error, kernel exception) leaves the
  pool usable for the next request;
* ``close()`` tears the pool down exactly once — the module-level
  pool counter returns to its baseline, and the backend records a
  single session for the server's whole lifetime.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine import live_pool_count
from repro.exceptions import DataValidationError
from repro.serve import ModelServer

N_THREADS = 8
BATCHES_PER_THREAD = 6


def _explode(static, dynamic, task):
    """A pool kernel that always fails."""
    raise RuntimeError("worker blew up")


@pytest.fixture(scope="module")
def workload():
    data = RuleBasedGenerator(
        n_clusters=10, n_attributes=14, domain_size=300, seed=9
    ).generate(400)
    estimator = MHKModes(
        n_clusters=10, lsh={"bands": 8, "rows": 2, "seed": 1}
    ).fit(data.X)
    artifact = estimator.fitted_model()
    reference = artifact.predict(data.X)
    return artifact, data.X, reference


def _hammer(server, X, reference, rng_seed: int) -> list[str]:
    """One caller thread: distinct random batches, checked against the
    single-threaded reference.  Returns a list of mismatch messages."""
    rng = np.random.default_rng(rng_seed)
    errors = []
    for _ in range(BATCHES_PER_THREAD):
        size = int(rng.integers(1, 64))
        rows = rng.choice(len(X), size=size, replace=False)
        got = server.predict(X[rows])
        if not np.array_equal(got, reference[rows]):
            errors.append(f"thread seed {rng_seed}: batch of {size} mismatched")
        # interleave empty batches too — a legal, zero-label request
        empty = server.predict(np.empty((0, X.shape[1]), dtype=np.int64))
        if empty.shape != (0,):
            errors.append(f"thread seed {rng_seed}: empty batch answered {empty!r}")
    return errors


class TestConcurrentBatches:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_hammering_threads_get_their_own_results(self, workload, backend):
        artifact, X, reference = workload
        baseline_pools = live_pool_count()
        spec = ServeSpec(backend=backend, n_jobs=2, chunk_items=16, max_batch=256)
        with ModelServer(artifact, spec) as server:
            with ThreadPoolExecutor(max_workers=N_THREADS) as callers:
                futures = [
                    callers.submit(_hammer, server, X, reference, seed)
                    for seed in range(N_THREADS)
                ]
                errors = [err for future in futures for err in future.result()]
            assert errors == []
            # every batch (incl. the empty ones) was accounted exactly once
            assert server.requests_served_ == N_THREADS * BATCHES_PER_THREAD * 2
            # serial serving runs in-process (no pool); parallel backends
            # open exactly one worker session for the server's lifetime
            assert server._backend.sessions_opened == (
                0 if backend == "serial" else 1
            )
        assert live_pool_count() == baseline_pools


class TestFailureIsolation:
    @pytest.mark.parametrize("backend", ["thread"])
    def test_pool_survives_failing_requests_between_good_ones(
        self, workload, backend
    ):
        artifact, X, reference = workload
        spec = ServeSpec(backend=backend, n_jobs=2, chunk_items=32, max_batch=128)
        with ModelServer(artifact, spec) as server:
            for round_ in range(3):
                with pytest.raises(DataValidationError):
                    server.predict(X[:2].astype(np.float64))  # wrong dtype
                with pytest.raises(DataValidationError):
                    server.predict(X[:2, :5])  # wrong width
                with pytest.raises(DataValidationError, match="max_batch"):
                    server.predict(X[:200])  # oversized
                got = server.predict(X[:50])
                assert np.array_equal(got, reference[:50]), f"round {round_}"

    def test_worker_exception_does_not_kill_the_server(self, workload):
        # Drive a genuine *in-worker* failure through the server's own
        # pool, then verify ordinary serving continues on that pool.
        artifact, X, reference = workload
        spec = ServeSpec(backend="thread", n_jobs=2, chunk_items=32, max_batch=128)
        with ModelServer(artifact, spec) as server:
            with pytest.raises(RuntimeError, match="worker blew up"):
                server._pool.run(_explode, [0, 1])
            got = server.predict(X[:64])
            assert np.array_equal(got, reference[:64])


class TestConcurrentClose:
    def test_racing_closes_release_exactly_one_pool(self, workload):
        artifact, _, _ = workload
        baseline = live_pool_count()
        server = ModelServer(artifact, ServeSpec(backend="thread", n_jobs=2))
        assert live_pool_count() == baseline + 1
        barrier = threading.Barrier(4)

        def _close():
            barrier.wait()
            server.close()

        threads = [threading.Thread(target=_close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert live_pool_count() == baseline
