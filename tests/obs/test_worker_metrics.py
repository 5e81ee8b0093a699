"""Worker metrics attribution: pool kernels record into the caller's registry.

Serial and thread pool workers share the caller's process, so a traced
kernel records its span straight into the process default registry —
once per task, whichever worker thread ran it.
"""

from __future__ import annotations

import pytest

from repro.engine import PersistentPool, SerialBackend, ThreadBackend
from repro.obs import capture_metrics, traced

CALLS = {"span": "test.pool_kernel"}


@traced("test.pool_kernel")
def _metered_kernel(static, dynamic, task):
    return task * 2


class TestInProcessAttribution:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ThreadBackend(n_jobs=2)],
        ids=["serial", "thread"],
    )
    def test_kernels_record_into_caller_default(self, backend_factory):
        with PersistentPool(backend_factory()) as pool:
            with capture_metrics() as captured:
                assert pool.run(_metered_kernel, [1, 2, 3]) == [2, 4, 6]
        # The kernel ran in this process and recorded straight into the
        # captured default registry, exactly once per task.
        assert captured.value("repro_span_calls_total", CALLS) == 3.0
