"""Streaming ingest throughput — push loop vs the batch extend pipeline.

Bootstraps :class:`~repro.core.StreamingMHKModes` on the engine-scaling
workload (20 000 items, k = 800) and streams a second 20 000-item wave
from the same planted generator three ways over identical state:

* the sequential **push loop** (the paper-shaped per-item path) over a
  fixed slice, establishing the items/s baseline;
* the **vectorised extend** pipeline (batch MinHash, batched shortlist
  query, collision walk, amortised ``insert_batch``, array-backed mode
  tracking) — first over the same slice (labels and modes asserted
  bit-identical, speedup recorded), then over the full wave for the
  headline items/s;
* **thread-chunked extend** — the same pipeline with chunk hashing
  dispatched to a thread pool (bit-identical to the serial run).

Results land in machine-readable
``benchmarks/results/BENCH_stream.json`` (a CI bench-smoke artifact)
so the ingest-throughput trajectory is tracked across commits.
"""

from __future__ import annotations

import copy
import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.api import LSHSpec, StreamSpec, TrainSpec
from repro.core.streaming import StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.kernels import active_backend
from repro.obs import capture_metrics

N_BOOTSTRAP = 20_000
N_STREAM = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
SEED = 2016

#: Slice of the wave pushed item by item for the baseline (the full
#: wave through the push loop would dominate the suite's runtime).
PUSH_SLICE = 3_000

#: Wall-clock floor for the local acceptance assertion: vectorised
#: extend must ingest at least this many times faster than push().
#: The compiled signature kernel (repro.kernels) cut the per-item
#: push baseline itself by ~2.3x, so the ratio compressed from the
#: ~8x the pure-NumPy stack showed — both absolute times improved.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def bootstrapped():
    data = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=40_000,
        noise_rate=0.1,
        seed=SEED,
    ).generate(N_BOOTSTRAP + N_STREAM)
    stream = StreamingMHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=20, rows=5, seed=SEED),
        train=TrainSpec(max_iter=2, update_refs="batch"),
    )
    stream.bootstrap(data.X[:N_BOOTSTRAP])
    return stream, data.X[N_BOOTSTRAP:]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_stream_ingest_throughput(bootstrapped):
    base, wave = bootstrapped

    push_stream = copy.deepcopy(base)
    push_s, push_labels = _timed(
        lambda: np.array(
            [push_stream.push(row) for row in wave[:PUSH_SLICE]], dtype=np.int64
        )
    )

    slice_stream = copy.deepcopy(base)
    slice_s, slice_labels = _timed(
        lambda: slice_stream.extend(wave[:PUSH_SLICE])
    )
    speedup = push_s / slice_s

    identical_labels = bool(np.array_equal(push_labels, slice_labels))
    identical_modes = bool(
        np.array_equal(push_stream.modes_, slice_stream.modes_)
    )

    vec_stream = copy.deepcopy(base)
    with capture_metrics() as vec_metrics:
        vec_s, vec_labels = _timed(lambda: vec_stream.extend(wave))

    thread_stream = copy.deepcopy(base)
    thread_stream.stream = StreamSpec(
        backend="thread", n_jobs=4, chunk_items=4096
    )
    with thread_stream:
        thread_s, thread_labels = _timed(lambda: thread_stream.extend(wave))
    thread_identical = bool(
        np.array_equal(vec_labels, thread_labels)
        and np.array_equal(vec_stream.modes_, thread_stream.modes_)
    )

    record = {
        "workload": {
            "n_bootstrap": N_BOOTSTRAP,
            "n_streamed": N_STREAM,
            "n_clusters": N_CLUSTERS,
            "n_attributes": N_ATTRIBUTES,
            "bands": 20,
            "rows": 5,
            "seed": SEED,
            "algorithm": "Streaming MH-K-Modes",
            "kernels": active_backend(),
        },
        "push_loop": {
            "items": PUSH_SLICE,
            "seconds": round(push_s, 6),
            "items_per_s": round(PUSH_SLICE / push_s, 1),
        },
        "vectorised_extend": {
            "items": PUSH_SLICE,
            "seconds": round(slice_s, 6),
            "items_per_s": round(PUSH_SLICE / slice_s, 1),
            "speedup_vs_push": round(speedup, 2),
            "identical_labels": identical_labels,
            "identical_modes": identical_modes,
        },
        "vectorised_extend_full": {
            "items": N_STREAM,
            "seconds": round(vec_s, 6),
            "items_per_s": round(N_STREAM / vec_s, 1),
            "phase_s": {
                name: round(value, 6)
                for name, value in vec_stream.extend_stats_.items()
            },
        },
        "thread_chunked_extend": {
            "items": N_STREAM,
            "seconds": round(thread_s, 6),
            "items_per_s": round(N_STREAM / thread_s, 1),
            "n_jobs": 4,
            "identical_to_serial": thread_identical,
        },
        # registry view of the full vectorised extend: every extend.*
        # span recorded while the wave streamed in (repro.obs)
        "metrics": vec_metrics.snapshot(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_stream.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n{json.dumps(record, indent=2)}\n")

    # correctness gates run everywhere
    assert identical_labels and identical_modes
    assert thread_identical
    assert push_stream.n_fallbacks_ == slice_stream.n_fallbacks_

    # wall-clock gate is local-only (shared CI runners are too noisy)
    if os.environ.get("CI"):
        pytest.skip("wall-clock speedup assertion is flaky on shared CI runners")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised extend only {speedup:.2f}x the push loop "
        f"({push_s:.3f}s vs {slice_s:.3f}s for {PUSH_SLICE} items)"
    )
