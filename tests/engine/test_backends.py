"""Unit tests for the execution backends."""

import numpy as np
import pytest

from repro.engine import PersistentPool
from repro.engine.backends import (
    BACKEND_NAMES,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.exceptions import ConfigurationError


def _scale_chunk(static, dynamic, span):
    values = static
    factor = dynamic if dynamic is not None else 1
    start, stop = span
    return values[start:stop] * factor


VALUES = np.arange(20, dtype=np.int64)
SPANS = [(0, 7), (7, 14), (14, 20)]


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    return resolve_backend(request.param, n_jobs=2)


class TestRunSemantics:
    def test_results_in_task_order(self, backend):
        with PersistentPool(backend, VALUES) as pool:
            chunks = pool.run(_scale_chunk, SPANS, dynamic=3)
        assert np.array_equal(np.concatenate(chunks), VALUES * 3)

    def test_session_reuse_with_changing_dynamic(self, backend):
        with PersistentPool(backend, VALUES) as pool:
            first = pool.run(_scale_chunk, SPANS, dynamic=1)
            second = pool.run(_scale_chunk, SPANS, dynamic=2)
        assert np.array_equal(np.concatenate(first), VALUES)
        assert np.array_equal(np.concatenate(second), VALUES * 2)

    def test_empty_task_list(self, backend):
        with PersistentPool(backend, VALUES) as pool:
            assert pool.run(_scale_chunk, []) == []


class TestResolution:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("serial", "thread")

    def test_names_resolve_to_classes(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)

    def test_instance_passes_through(self):
        backend = ThreadBackend(n_jobs=3)
        assert resolve_backend(backend) is backend

    def test_instance_with_conflicting_n_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(ThreadBackend(n_jobs=3), n_jobs=5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")

    def test_process_name_rejected_naming_thread(self):
        with pytest.raises(ConfigurationError, match="'thread'"):
            resolve_backend("process")

    def test_non_positive_n_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(n_jobs=0)

    def test_serial_is_single_worker_and_not_parallel(self):
        serial = resolve_backend("serial")
        assert serial.n_jobs == 1
        assert not serial.is_parallel
        assert resolve_backend("thread").is_parallel

    def test_default_n_jobs_positive(self):
        assert resolve_backend("thread").n_jobs >= 1
