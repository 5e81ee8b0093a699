"""The engine's fit-lifetime session contract.

One fit = one worker pool, serving every phase from the exhaustive
setup pass to the last iteration.
"""

import numpy as np
import pytest

from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.engine import ThreadBackend


@pytest.fixture(scope="module")
def workload():
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=12, domain_size=300, seed=5
    ).generate(160)
    initial = data.X[
        np.random.default_rng(1).choice(len(data.X), 8, replace=False)
    ].copy()
    return data.X, initial


def _fit(X, initial, backend, **overrides):
    model = MHKModes(
        n_clusters=8,
        bands=8,
        rows=2,
        seed=0,
        max_iter=10,
        update_refs="batch",
        backend=backend,
        **overrides,
    )
    model.fit(X, initial_centroids=initial)
    return model


class TestOnePoolPerFit:
    def test_single_session_spans_all_phases(self, workload):
        X, initial = workload
        backend = ThreadBackend(n_jobs=2)
        assert backend.sessions_opened == 0
        _fit(X, initial, backend)
        # exhaustive + signatures + index build + every iteration pass
        # all ran on ONE pool
        assert backend.sessions_opened == 1

    def test_each_fit_opens_its_own_session(self, workload):
        X, initial = workload
        backend = ThreadBackend(n_jobs=2)
        _fit(X, initial, backend)
        _fit(X, initial, backend)
        assert backend.sessions_opened == 2

    def test_session_open_phase_recorded(self, workload):
        X, initial = workload
        model = _fit(X, initial, ThreadBackend(n_jobs=2))
        assert "session_open" in model.stats_.phase_s
        assert model.stats_.phase_s["session_open"] >= 0.0
        serial = _fit(X, initial, "serial")
        assert serial.stats_.phase_s["session_open"] == 0.0


class TestSerialBatchVectorised:
    def test_vectorised_serial_batch_matches_per_item_pass(self, workload):
        X, initial = workload
        fast = _fit(X, initial, "serial")
        reference = MHKModes(
            n_clusters=8, bands=8, rows=2, seed=0, max_iter=10, update_refs="batch"
        )
        reference._force_per_item_pass = True
        reference.fit(X, initial_centroids=initial)
        assert np.array_equal(fast.labels_, reference.labels_)
        assert np.array_equal(fast.centroids_, reference.centroids_)
        assert fast.n_iter_ == reference.n_iter_
        assert (
            fast.stats_.shortlist_sizes == reference.stats_.shortlist_sizes
        )
