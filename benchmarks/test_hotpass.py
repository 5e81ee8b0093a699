"""Hot-pass microbenchmark — per-item loop vs vectorised batch kernel.

Times one batch assignment pass over the engine-scaling workload
(20 000 items, k = 800) two ways on identical fitted state:

* the paper-shaped **per-item** pass (``_shortlist_pass`` with batch
  reference updates) — one ``np.unique`` + one distance call per item;
* the engine's **vectorised** pass (``_assignment_chunk``) — segmented
  shortlist build off the flat neighbour CSR, one padded
  ``_block_distances`` tensor per sub-block.

Both must produce bit-identical labels; the vectorised pass must be at
least 3× faster (wall-clock asserted locally, skipped on shared CI
runners).  The batched predict path is timed against the per-item
prediction loop on the same fitted model for the record.

Results land in machine-readable ``benchmarks/results/BENCH_hotpass.json``
so the perf trajectory can be tracked across commits.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR
from repro.obs import capture_metrics
from repro.core.mh_kmodes import MHKModes
from repro.core.shortlist import ShortlistAccumulator, apply_fallback
from repro.data.datgen import RuleBasedGenerator
from repro.engine.parallel import _assignment_chunk, _pass_neighbour_csr
from repro.kernels import active_backend

N_ITEMS = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
SEED = 2016
REPEATS = 3

#: Wall-clock floor for the local acceptance assertion.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def fitted():
    dataset = RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=40_000,
        noise_rate=0.1,
        seed=SEED,
    ).generate(N_ITEMS)
    rng = np.random.default_rng(SEED)
    initial = dataset.X[rng.choice(N_ITEMS, size=N_CLUSTERS, replace=False)].copy()
    model = MHKModes(
        n_clusters=N_CLUSTERS,
        bands=20,
        rows=5,
        max_iter=2,
        seed=SEED,
        update_refs="batch",
    )
    model.fit(dataset.X, initial_centroids=initial)
    return model, dataset.X


def _best_of(repeats: int, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorised_pass_speedup(fitted):
    model, X = fitted
    index = model.index_
    centroids = model.centroids_
    labels = model.labels_.copy()
    n = X.shape[0]

    def per_item_pass():
        accumulator = ShortlistAccumulator()
        out, moves = model._shortlist_pass(
            X, centroids, labels.copy(), index, accumulator
        )
        return out, moves, accumulator.mean()

    csr = _pass_neighbour_csr(index)

    def vectorised_pass():
        out, moves, total, _ = _assignment_chunk(
            (model, X), (centroids, labels, csr), (0, n)
        )
        index.set_assignments(out)
        return out, moves, total / n

    per_item_s, (ref_labels, ref_moves, ref_mean) = _best_of(REPEATS, per_item_pass)
    with capture_metrics() as pass_metrics:
        vectorised_s, (vec_labels, vec_moves, vec_mean) = _best_of(
            REPEATS, vectorised_pass
        )
    speedup = per_item_s / vectorised_s

    # -- batched predict vs the per-item prediction loop ----------------
    novel = RuleBasedGenerator(
        n_clusters=N_CLUSTERS, n_attributes=N_ATTRIBUTES, domain_size=40_000,
        seed=SEED + 1,
    ).generate(2_000)

    def per_item_predict():
        signatures = model._signatures(novel.X)
        out = np.empty(len(novel.X), dtype=np.int64)
        for i in range(len(novel.X)):
            shortlist = apply_fallback(
                index.candidate_clusters_for_signature(signatures[i]),
                model.n_clusters,
                model.predict_fallback,
            )
            distances = model._point_distances(
                novel.X, i, centroids[shortlist]
            )
            out[i] = int(shortlist[np.argmin(distances)])
        return out

    predict_item_s, predict_ref = _best_of(1, per_item_predict)
    predict_batch_s, predict_got = _best_of(1, lambda: model.predict(novel.X))
    predict_speedup = predict_item_s / predict_batch_s

    record = {
        "workload": {
            "n_items": N_ITEMS,
            "n_clusters": N_CLUSTERS,
            "n_attributes": N_ATTRIBUTES,
            "bands": 20,
            "rows": 5,
            "seed": SEED,
            "algorithm": "MH-K-Modes",
            "kernels": active_backend(),
        },
        "assignment_pass": {
            "per_item_s": round(per_item_s, 6),
            "vectorised_s": round(vectorised_s, 6),
            "speedup": round(speedup, 2),
            "identical_labels": bool(np.array_equal(ref_labels, vec_labels)),
            "moves": int(ref_moves),
            "mean_shortlist": round(float(ref_mean), 4),
        },
        "predict_2000_novel": {
            "per_item_s": round(predict_item_s, 6),
            "batched_s": round(predict_batch_s, 6),
            "speedup": round(predict_speedup, 2),
            "identical_labels": bool(np.array_equal(predict_ref, predict_got)),
        },
        # registry view of the vectorised passes: the traced
        # fit.assignment_chunk kernel's span counters (repro.obs)
        "metrics": pass_metrics.snapshot(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_hotpass.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n{json.dumps(record, indent=2)}\n")

    # correctness gates run everywhere
    assert np.array_equal(ref_labels, vec_labels)
    assert ref_moves == vec_moves
    assert ref_mean == pytest.approx(vec_mean)
    assert np.array_equal(predict_ref, predict_got)

    # wall-clock gates are local-only (shared CI runners are too noisy)
    if os.environ.get("CI"):
        pytest.skip("wall-clock speedup assertion is flaky on shared CI runners")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised pass only {speedup:.2f}x faster "
        f"({per_item_s:.3f}s vs {vectorised_s:.3f}s)"
    )
    # batched predict must beat the per-item loop even on all-novel
    # batches (every shortlist empty -> the broadcast full-scan path);
    # < 1.0 here is the regression this record used to document.
    assert predict_speedup > 1.0, (
        f"batched predict is a slowdown: {predict_speedup:.2f}x "
        f"({predict_item_s:.3f}s vs {predict_batch_s:.3f}s)"
    )
