"""Chaos suite: injected kernel delays against the real serving stack.

The load-bearing assertion everywhere: a fault schedule may slow a
request down or turn it into a *structured* error, but it may never
change a label.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import ResilienceSpec, ServeSpec
from repro.exceptions import DeadlineExceededError, OverloadedError
from repro.resilience import FaultPlan, inject_faults
from repro.serve import ModelServer, error_descriptor


class TestDeadlines:
    def test_deadline_expiry_does_not_poison_the_pool(self, served_artifact):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(deadline_ms=100),
        )
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(delay_s=0.5)):
                with pytest.raises(DeadlineExceededError):
                    server.predict(X[:8])
            # The abandoned wave still occupies the pool's worker
            # threads until its injected sleeps finish; wait it out so
            # the recovery request is measured on a quiet pool.
            deadline = time.monotonic() + 10
            while server._queue._busy:
                assert time.monotonic() < deadline, "stale wave never drained"
                time.sleep(0.01)
            # The slow wave was discarded; a fresh request gets a
            # fresh, fast wave.
            labels = server.predict(X[:8])
            assert np.array_equal(labels, model.predict(X[:8]))
            rejections = server.metrics.counter(
                "repro_queue_rejections_total", labels={"reason": "deadline"}
            )
            assert rejections.value == 1.0


class TestOverload:
    def test_full_queue_rejects_structured_and_immediate(self, served_artifact):
        model, X = served_artifact
        spec = ServeSpec(
            backend="thread",
            n_jobs=2,
            resilience=ResilienceSpec(max_queue_depth=1, max_in_flight=1),
        )
        with ModelServer(model, spec) as server:
            with inject_faults(FaultPlan(delay_s=0.3)):
                boxes = []

                def submit():
                    box = {}
                    boxes.append(box)
                    try:
                        box["labels"] = server.predict(X[:4])
                    except BaseException as exc:  # noqa: BLE001
                        box["error"] = exc

                threads = [
                    threading.Thread(target=submit, daemon=True)
                    for _ in range(2)
                ]
                threads[0].start()  # goes in flight
                deadline = time.monotonic() + 5
                while server._queue._busy == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                threads[1].start()  # fills the one queue slot
                deadline = time.monotonic() + 5
                while server._queue.depth < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                started = time.monotonic()
                with pytest.raises(OverloadedError) as excinfo:
                    server.predict(X[:4])
                assert time.monotonic() - started < 1.0
                status, error = error_descriptor(excinfo.value)
                assert status == 429
                assert error["code"] == "overloaded"
                assert error["retry_after_s"] >= 0.05
                for thread in threads:
                    thread.join(timeout=30)
                # Queued requests still answered correctly (the delay
                # fault slows chunks; it never corrupts them).
                expected = model.predict(X[:4])
                for box in boxes:
                    assert np.array_equal(box["labels"], expected)
            counter = server.metrics.counter(
                "repro_queue_rejections_total", labels={"reason": "queue_full"}
            )
            assert counter.value == 1.0
