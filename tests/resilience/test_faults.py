"""Fault injection: plans, the armed state, and the kernel wrapper."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import PersistentPool, ThreadBackend
from repro.exceptions import ConfigurationError
from repro.resilience import (
    FaultPlan,
    active_faults,
    clear_faults,
    inject_faults,
    install_faults,
)


class TestFaultPlan:
    def test_defaults_are_a_no_op_plan(self):
        assert FaultPlan().delay_s == 0.0

    @pytest.mark.parametrize("delay_s", [-0.5, "1", None])
    def test_bad_plans_rejected(self, delay_s):
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_s=delay_s)


class TestInstallClear:
    def test_install_arms_and_clear_disarms(self):
        assert active_faults() is None
        state = install_faults(FaultPlan(delay_s=0.0))
        assert active_faults() is state
        clear_faults()
        assert active_faults() is None

    def test_plans_do_not_nest(self):
        install_faults(FaultPlan())
        try:
            with pytest.raises(ConfigurationError, match="already installed"):
                install_faults(FaultPlan())
        finally:
            clear_faults()

    def test_clear_is_idempotent(self):
        clear_faults()
        clear_faults()
        assert active_faults() is None

    def test_context_manager_disarms_on_error(self):
        with pytest.raises(RuntimeError, match="test body failed"):
            with inject_faults(FaultPlan()):
                raise RuntimeError("test body failed")
        assert active_faults() is None


def _record(static, dynamic, task):
    return (static, dynamic, task)


class TestFaultState:
    def test_counter_counts_every_kernel_call(self):
        with inject_faults(FaultPlan()) as state:
            assert state.chunks_seen == 0
            for expected in (1, 2, 3):
                state.on_chunk()
                assert state.chunks_seen == expected

    def test_counter_is_exact_across_threads(self):
        # A short switch interval makes a lost read-modify-write update
        # likely if the counter were not lock-guarded.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with inject_faults(FaultPlan()) as state:
                threads = [
                    threading.Thread(
                        target=lambda: [state.on_chunk() for _ in range(2000)]
                    )
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert state.chunks_seen == 16000
        finally:
            sys.setswitchinterval(interval)

    def test_wrap_counts_then_calls_through(self):
        with inject_faults(FaultPlan()) as state:
            faulted = state.wrap(_record)
            assert faulted("S", "D", "task-1") == ("S", "D", "task-1")
        assert state.chunks_seen == 1


class TestPoolWrapping:
    def test_armed_plan_counts_every_pool_task(self):
        with inject_faults(FaultPlan()) as state:
            with PersistentPool(ThreadBackend(n_jobs=2), static="S") as pool:
                assert pool.run(_record, [1, 2, 3], dynamic="D") == [
                    ("S", "D", 1),
                    ("S", "D", 2),
                    ("S", "D", 3),
                ]
        assert state.chunks_seen == 3

    def test_without_a_plan_dispatch_is_plain(self):
        assert active_faults() is None
        with PersistentPool(ThreadBackend(n_jobs=2), static="S") as pool:
            assert pool.run(_record, [7]) == [("S", None, 7)]
