"""Tests of the benchmark's own machinery (not of the library).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from perfbench import compare, loadgen, stats, workloads
from perfbench.tracer import Tracer, blocking_times, instrument, layer_of, outermost


# -- summary statistics -------------------------------------------------------


def test_percentile_matches_numpy_and_spread_matches_statistics():
    rng = np.random.default_rng(0)
    values = rng.random(37).tolist()
    for pct in (0, 12.5, 50, 90, 100):
        assert stats.percentile(values, pct) == pytest.approx(np.percentile(values, pct))
    q1, median, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((q3 - q1) / median)


# -- open loop: due times and lateness ----------------------------------------


def test_open_loop_times_requests_from_their_due_time():
    stall_s = 0.2

    def send(i):
        if i == 0:
            time.sleep(stall_s)
        return True

    # one connection, 50/s: request 0 stalls, so requests 1..9 all go
    # out late and their latency includes the wait the stall imposed
    outcomes = loadgen.open_loop(send, rate=50.0, count=10, connections=1)
    latencies = loadgen.latencies_ms(outcomes)
    assert [o["i"] for o in outcomes] == list(range(10))
    assert latencies[1] >= (stall_s - 0.02) * 1000.0 - 5.0
    assert all(outcomes[k]["due"] == pytest.approx(outcomes[0]["due"] + k / 50.0)
               for k in range(10))
    # backlogged requests are the system's delay, not generator lateness
    assert not outcomes[1]["ready"]
    assert outcomes[0]["ready"]
    assert len(loadgen.lateness_ms(outcomes)) < len(outcomes)


def test_open_loop_counts_a_raised_error_as_a_failure():
    def send(i):
        if i == 3:
            raise ConnectionError("reset")
        return True

    outcomes = loadgen.open_loop(send, rate=200.0, count=6, connections=2)
    assert [o["ok"] for o in outcomes] == [True, True, True, False, True, True]


def test_closed_loop_keeps_one_request_per_connection():
    in_flight, peak = [0], [0]
    lock = threading.Lock()

    def send(i):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.002)
        with lock:
            in_flight[0] -= 1
        return True

    outcomes = loadgen.closed_loop(send, seconds=0.1, connections=2)
    assert peak[0] <= 2
    assert len(outcomes) >= 10


# -- spans: self time along the blocking path ---------------------------------


def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "rid": None, "thread": 0, "attrs": {}}


def test_blocking_times_split_the_root_exactly():
    root = _span(1, "workload.fit", 0.0, 10.0)
    spans = [
        root,
        _span(2, "lsh.query", 1.0, 4.0, parent=1),
        _span(3, "core.score", 3.0, 8.0, parent=1),  # overlaps 2; ends last
        _span(4, "kernels.minhash", 5.0, 6.0, parent=3),
    ]
    shares = blocking_times([root], spans)
    assert shares == pytest.approx(
        {"<root>": 3.0, "lsh": 2.0, "core": 4.0, "kernels": 1.0})
    assert sum(shares.values()) == pytest.approx(10.0)


def test_outermost_counts_nested_same_name_spans_once():
    spans = [
        _span(1, "lsh.index_build", 0.0, 5.0),
        _span(2, "core.score", 1.0, 4.0, parent=1),
        _span(3, "lsh.index_build", 2.0, 3.0, parent=2),
        _span(4, "lsh.index_build", 6.0, 7.0),
    ]
    assert [s["id"] for s in outermost(spans, "lsh.index_build")] == [1, 4]


def test_layer_of_maps_library_phase_spans_to_their_module():
    assert layer_of("fit.exhaustive_assign") == "core"
    assert layer_of("extend.walk") == "core"
    assert layer_of("fit.session_open") == "engine"
    assert layer_of("serve.predict_chunk") == "serve"
    assert layer_of("kernels.minhash") == "kernels"


def test_bound_work_keeps_its_parent_across_threads():
    tracer = Tracer()
    with tracer.span("engine.pool_run", rid=7) as outer:
        work = tracer.bind(lambda: tracer.span("kernels.minhash").__enter__())
        thread = threading.Thread(target=lambda: tracer.close(work()))
        thread.start()
        thread.join(timeout=5)
    assert not thread.is_alive()
    inner = next(s for s in tracer.spans() if s["name"] == "kernels.minhash")
    assert inner["parent"] == outer["id"]
    assert inner["rid"] == 7


def test_instrument_records_library_calls_and_undo_restores_them():
    from repro import kernels
    from repro.api import LSHSpec, TrainSpec
    from repro.core.mh_kmodes import MHKModes
    from repro.data.datgen import RuleBasedGenerator

    original = kernels.minhash_signatures
    data = RuleBasedGenerator(n_clusters=5, n_attributes=8, domain_size=50,
                              seed=0).generate(200)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        with tracer.span("workload.fit"):
            model = MHKModes(n_clusters=5, lsh=LSHSpec(bands=4, rows=2, seed=0),
                             train=TrainSpec(max_iter=2)).fit(data.X)
        model.predict(data.X[:20])
    finally:
        undo()
    assert kernels.minhash_signatures is original
    names = {s["name"] for s in tracer.spans()}
    assert {"kernels.minhash", "lsh.signatures", "lsh.index_build", "lsh.query",
            "fit.exhaustive_assign", "fit.iterations"} <= names
    root = next(s for s in tracer.spans() if s["name"] == "workload.fit")
    shares = blocking_times([root], tracer.spans())
    assert sum(shares.values()) == pytest.approx(root["end"] - root["start"])


def test_merged_wave_lies_on_every_merged_request_path():
    from repro.resilience.queue import AdmissionQueue

    release = threading.Event()
    tracer = Tracer()

    def execute(X):
        with tracer.span("core.score"):
            if not release.is_set():
                release.wait(timeout=5)
            else:
                time.sleep(0.1)
        return np.zeros(len(X), dtype=np.int64)

    undo = instrument(tracer)
    try:
        queue = AdmissionQueue(execute, max_queue_depth=8, max_in_flight=1,
                               max_wave_rows=100)
        threads = [threading.Thread(target=queue.submit, args=(np.zeros((2, 3)),))
                   for _ in range(3)]
        for thread in threads:  # the first wave blocks; the next two merge
            thread.start()
            time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        queue.close()
    finally:
        undo()
    spans = tracer.spans()
    submits = [s for s in spans if s["name"] == "resilience.submit"]
    waves = [s for s in spans if s["name"] == "resilience.execute"]
    assert [w["attrs"]["rows"] for w in waves] == [2, 4]
    merged = waves[1]
    assert merged["attrs"]["coalesced"] and len(merged["attrs"]["links"]) == 1
    for submit in submits:  # the merged wave's work is on both its requests' paths
        assert blocking_times([submit], spans)["core"] >= 0.09
    assert len(workloads._queue_waits(spans)) == 3


# -- compare tool -------------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "better"
    assert compare.verdict(faster, base, "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(base, base[::-1], "lower", 0.1)["verdict"] == "unchanged"
    assert compare.verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # a spread wider than the bound still resolves when every run wins
    wide = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert compare.verdict([v + 10 for v in wide], wide, "lower", 0.1)["verdict"] == "better"
    result = compare.verdict(base, faster, "lower", 0.1)
    assert (result["new_wins"], result["base_wins"], result["pairs"]) == (10, 0, 10)


def test_compare_reads_history_records(tmp_path):
    import json

    lines = [
        {"workload": "fit", "metrics": {"fit_s": {"value": v, "unit": "s"}}}
        for v in (3.0, 3.1, 2.9)
    ]
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert compare.load_runs(path) == {("fit", "fit_s"): [3.0, 3.1, 2.9]}
    rows = compare.compare(compare.load_runs(path), compare.load_runs(path),
                           {"fit_s": ("lower", 0.1)})
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("fit", "fit_s", "unchanged")]
