"""The three workloads: ``fit``, ``serve`` and ``stream``.

Each runs against the public API (and, for ``serve``, a real ``repro
serve`` subprocess), checks every output, and returns::

    {"attempted": int, "failed": int,
     "metrics": {name: {"value", "unit"}},   # end-to-end, untraced
     "layers":  {name: {"value", "unit"}},   # per-layer, traced runs only
     "notes":   {...}}                       # percentiles used, counts

All data comes from ``RuleBasedGenerator`` seeded by ``--seed`` in one
shape: 20k training items, 800 clusters, 60 attributes, domain 40 000,
noise 0.1, 20 bands x 5 rows.  Every workload reports every end-to-end
metric; what each one measures per workload:

========================  =======================  ======================  =====================
metric                    fit                      serve                   stream
========================  =======================  ======================  =====================
setup_s                   import + kernel backend  launch to healthy       ``bootstrap``
                          (fresh interpreter)      ``/health``
fit_s                     ``MHKModes.fit``         the fit behind the      ``bootstrap`` (the
                                                   served model            streaming fit)
items_per_s               items / fit_s            closed-loop rows/s      ingest rows/s
latency_p50_ms            one k-modes iteration    one request at the      one ``extend`` call
                                                   reference rate
purity                    fit labels               served labels           streamed labels
peak_rss_mb               this process             the server (VmHWM)      this process
success_share             1 - failed / attempted; a wrong label, an error or a timeout fails
========================  =======================  ======================  =====================

Each figure is a median over repeats within the run: set-ups, fits,
bootstraps and waves, or serve's blocks and server launches.

There is no tail-latency or maximum-rate metric: on a 2-core host whose
speed drifts, serve's p90 and its rate at a p90 limit spread over runs
of the same code by more than any bound a regression check can use.

No workload uses the ``process`` backend: forking workers after the
parent ran an OpenMP kernel can deadlock (libgomp is not fork-safe),
and process pools lost to serial in every checked-in ``BENCH_*`` file.
"""

from __future__ import annotations

import copy
import http.client
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import loadgen, stats
from perfbench.tracer import Tracer, blocking_times, instrument, outermost

N_TRAIN = 20_000
N_HELD_OUT = 20_000
N_CLUSTERS = 800
N_ATTRIBUTES = 60
DOMAIN_SIZE = 40_000
NOISE_RATE = 0.1
BANDS, ROWS = 20, 5
FIT_MAX_ITER = 4
MIN_FITS = 10
STREAM_MAX_ITER = 2
STREAM_CALL_ROWS = 200
MIN_WAVES = 2

# serve workload constants (fixed, never calibrated per run: a calibrated
# rate would move with the code under test)
REQUEST_ROWS = 100
REQUEST_BATCHES = 64
CONNECTIONS = 2
# about a third of closed-loop capacity (~80/s on a 2-core box), so a host
# that runs at half speed for a while still keeps up; at 50/s such a run
# overloaded the server and read a median four times the usual one
REFERENCE_RPS = 25.0
DEADLINE_MS = 1000
# Each of SERVER_LAUNCHES servers (after FITS_PER_LAUNCH fits of the model)
# takes BLOCKS pairs of a closed-loop block (CLOSED_SHARE of --seconds)
# and a reference-rate block of BLOCK_REQUESTS requests.
SERVER_LAUNCHES = 3
FITS_PER_LAUNCH = 1
BLOCKS = 2
CLOSED_SHARE = 0.03
BLOCK_REQUESTS = 100
HEALTH_TIMEOUT_S = 60.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def dataset(seed: int):
    """Training items then held-out items, with planted labels."""
    from repro.data.datgen import RuleBasedGenerator

    return RuleBasedGenerator(
        n_clusters=N_CLUSTERS,
        n_attributes=N_ATTRIBUTES,
        domain_size=DOMAIN_SIZE,
        noise_rate=NOISE_RATE,
        seed=seed,
    ).generate(N_TRAIN + N_HELD_OUT)


def fit_estimator(seed: int):
    from repro.api import EngineSpec, LSHSpec, TrainSpec
    from repro.core.mh_kmodes import MHKModes

    return MHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=BANDS, rows=ROWS, seed=seed),
        engine=EngineSpec(backend="thread", n_jobs=2),
        train=TrainSpec(max_iter=FIT_MAX_ITER, update_refs="batch"),
    )


def stream_estimator(seed: int):
    from repro.api import LSHSpec, TrainSpec
    from repro.core.streaming import StreamingMHKModes

    return StreamingMHKModes(
        n_clusters=N_CLUSTERS,
        lsh=LSHSpec(bands=BANDS, rows=ROWS, seed=seed),
        train=TrainSpec(max_iter=STREAM_MAX_ITER, update_refs="batch"),
    )


def _purity(labels, truth) -> float:
    from repro.metrics import cluster_purity

    return float(cluster_purity(np.asarray(labels), np.asarray(truth)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _import_setup_s() -> float:
    """One fresh-interpreter import plus kernel-backend resolution."""
    code = (
        "import time; t = time.perf_counter(); import repro, repro.kernels; "
        "repro.kernels.active_backend(); print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True,
        capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYERS = ("kernels", "lsh", "core", "engine", "serve", "resilience")


def _sum_s(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in outermost(spans, name))


def _count(spans, name) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _attr(spans, name, key) -> int:
    return sum(int(s["attrs"].get(key, 0)) for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], roots: list[dict], extra: dict) -> dict:
    """Every per-layer metric from one traced run's spans.

    ``extra`` carries what spans cannot show: exhaustive distance
    evaluations, k-modes moves, server counters scraped from
    ``/metrics``, client-side figures and the tracing overhead.
    """
    query_rows = _attr(spans, "lsh.query", "rows")
    score_rows = _attr(spans, "core.score", "rows")
    fallback_rows = _attr(spans, "core.fallback", "rows")
    iterations = [s["end"] - s["start"] for s in spans if s["name"] == "fit.iterations"]
    blocking = blocking_times(roots, spans)
    total = sum(r["end"] - r["start"] for r in roots)
    unattributed = blocking.get("<root>", 0.0)

    values = {
        "kernels.minhash_calls": (_count(spans, "kernels.minhash"), "count"),
        "kernels.minhash_rows": (_attr(spans, "kernels.minhash", "rows"), "count"),
        "kernels.minhash_s": (_sum_s(spans, "kernels.minhash"), "s"),
        "kernels.hash_evals": (_attr(spans, "kernels.minhash", "hash_evals"), "count"),
        "kernels.bytes_moved": (_attr(spans, "kernels.minhash", "bytes_moved"), "bytes"),
        "kernels.count_update_s": (_sum_s(spans, "kernels.count_update"), "s"),
        "lsh.signatures_s": (_sum_s(spans, "lsh.signatures"), "s"),
        "lsh.index_build_s": (_sum_s(spans, "lsh.index_build"), "s"),
        "lsh.query_calls": (_count(spans, "lsh.query"), "count"),
        "lsh.query_rows": (query_rows, "count"),
        "lsh.query_s": (_sum_s(spans, "lsh.query"), "s"),
        "lsh.hit_share": (_attr(spans, "lsh.query", "hits") / query_rows
                          if query_rows else 0.0, "ratio"),
        "lsh.mean_shortlist": (_attr(spans, "lsh.query", "candidates") / query_rows
                               if query_rows else 0.0, "count"),
        "lsh.insert_rows": (_attr(spans, "lsh.insert", "rows"), "count"),
        "lsh.insert_s": (_sum_s(spans, "lsh.insert"), "s"),
        "core.exhaustive_s": (_sum_s(spans, "fit.exhaustive_assign"), "s"),
        "core.distance_evals": (extra.get("exhaustive_evals", 0)
                                + _attr(spans, "core.score", "distance_evals")
                                + _attr(spans, "core.fallback", "distance_evals"),
                                "count"),
        "core.iterations": (len(iterations), "count"),
        "core.iteration_s": (stats.median(iterations) if iterations else 0.0, "s"),
        "core.moves": (extra.get("moves", 0), "count"),
        "core.score_s": (_sum_s(spans, "core.score"), "s"),
        "core.fallback_rows": (fallback_rows, "count"),
        "core.fallback_s": (_sum_s(spans, "core.fallback"), "s"),
        "core.fallback_share": (fallback_rows / (score_rows + fallback_rows)
                                if fallback_rows else 0.0, "ratio"),
        "core.walk_s": (_sum_s(spans, "extend.walk"), "s"),
        "core.tracker_update_s": (_sum_s(spans, "core.tracker_update"), "s"),
        "core.refresh_s": (_sum_s(spans, "extend.refresh"), "s"),
        "engine.session_open_s": (_sum_s(spans, "fit.session_open"), "s"),
        "engine.pool_runs": (_count(spans, "engine.pool_run"), "count"),
        "engine.pool_tasks": (_attr(spans, "engine.pool_run", "tasks"), "count"),
        "engine.pool_run_s": (_sum_s(spans, "engine.pool_run"), "s"),
        "serve.server_p50_ms": (extra.get("server_p50_ms", 0.0), "ms"),
        "serve.transport_ms": (extra.get("transport_ms", 0.0), "ms"),
        "serve.load_s": (_sum_s(spans, "serve.load"), "s"),
        "serve.requests_ok": (extra.get("requests_ok", 0), "count"),
        "resilience.queue_wait_ms": (extra.get("queue_wait_ms", 0.0), "ms"),
        "resilience.waves": (extra.get("waves", 0), "count"),
        "resilience.wave_rows": (extra.get("wave_rows", 0.0), "count"),
        "resilience.rejected": (extra.get("rejected", 0), "count"),
        "obs.trace_overhead_pct": (extra["trace_overhead_pct"], "%"),
        "obs.traced_total_s": (total, "s"),
        "obs.unattributed_s": (unattributed, "s"),
        "obs.accounted_share": (1.0 - unattributed / total if total else 0.0, "ratio"),
        "loadgen.late_p99_ms": (extra.get("late_p99_ms", 0.0), "ms"),
    }
    for layer in LAYERS:
        values[f"{layer}.blocking_s"] = (blocking.get(layer, 0.0), "s")
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def _overhead_pct(traced_s: float, untraced_s: float) -> float:
    return (traced_s - untraced_s) / untraced_s * 100.0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def run_fit(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repeated ``MHKModes.fit`` (thread x2, batch refs, 4 iterations)."""
    data = dataset(seed)
    X, truth = data.X[:N_TRAIN], data.labels[:N_TRAIN]

    fits, iterations_ms, reference = [], [], None
    failed = 0

    def one_fit():
        nonlocal reference, failed
        elapsed, model = _timed(lambda: fit_estimator(seed).fit(X))
        if reference is None:
            reference = model.labels_
        elif not np.array_equal(model.labels_, reference):
            failed += 1
        return elapsed, model

    spans, roots, extra = [], [], {}
    if trace:
        untraced = [one_fit()[0] for _ in range(2)]
        tracer = Tracer()
        undo = instrument(tracer)
        traced, moves = [], 0
        try:
            for _ in range(2):
                with tracer.span("workload.fit"):
                    elapsed, model = one_fit()
                traced.append(elapsed)
                moves += sum(it.moves for it in model.stats_.iterations)
        finally:
            undo()
        spans = tracer.spans()
        roots = [s for s in spans if s["name"] == "workload.fit"]
        extra = {
            "exhaustive_evals": 2 * N_TRAIN * N_CLUSTERS,
            "moves": moves,
            "trace_overhead_pct": _overhead_pct(stats.median(traced), stats.median(untraced)),
        }
        fits = untraced
    else:
        # set-up samples interleave with the fits, so both see the
        # same stretch of machine time
        setups, loop_s = [], 0.0
        while len(fits) < MIN_FITS or loop_s < seconds:
            if len(fits) % 2 == 0:
                setups.append(_import_setup_s())
            elapsed, model = one_fit()
            fits.append(elapsed)
            loop_s += elapsed
            iterations_ms += [it.duration_s * 1000.0 for it in model.stats_.iterations]
        setup_s = stats.median(setups)

    fit_s = stats.median(fits)
    notes = {"fits": len(fits)}
    result = {"attempted": len(fits) + (2 if trace else 0), "failed": failed, "notes": notes}
    if trace:
        result["layers"] = layer_metrics(spans, roots, extra)
        return result
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "fit_s": _metric(fit_s, "s"),
        "items_per_s": _metric(N_TRAIN / fit_s, "1/s"),
        "latency_p50_ms": _metric(stats.median(iterations_ms), "ms"),
        "purity": _metric(_purity(reference, truth), "ratio"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    result["metrics"] = metrics
    return result


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


def _stream_wave(estimator, wave, tracer=None):
    """Feed ``wave`` through ``extend`` in fixed-size calls."""
    labels, call_ms = [], []
    for start in range(0, len(wave), STREAM_CALL_ROWS):
        chunk = wave[start:start + STREAM_CALL_ROWS]
        began = time.perf_counter()
        if tracer is None:
            labels.append(estimator.extend(chunk))
        else:
            with tracer.span("workload.extend"):
                labels.append(estimator.extend(chunk))
        call_ms.append((time.perf_counter() - began) * 1000.0)
    return np.concatenate(labels), call_ms


def run_stream(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Bootstrap on 20k items, then a 20k held-out wave in 200-row calls."""
    data = dataset(seed)
    X, wave = data.X[:N_TRAIN], data.X[N_TRAIN:]
    truth = data.labels[N_TRAIN:]
    calls_per_wave = -(-len(wave) // STREAM_CALL_ROWS)

    if trace:
        tracer = Tracer()
        undo = instrument(tracer)
        try:
            base = stream_estimator(seed)
            with tracer.span("workload.bootstrap"):
                base.bootstrap(X)
        finally:
            undo()
        traced_est, one_shot = copy.deepcopy(base), copy.deepcopy(base)
        untraced_s, (labels, _) = _timed(lambda: _stream_wave(base, wave))
        undo = instrument(tracer)
        try:
            traced_s, (traced_labels, _) = _timed(
                lambda: _stream_wave(traced_est, wave, tracer))
        finally:
            undo()
        one_shot_labels = one_shot.extend(wave)
        # chunking never changes a label or a mode: check both waves
        # against the one-shot extend of the same wave, call by call
        failed = 0
        for est, got in ((base, labels), (traced_est, traced_labels)):
            same_modes = np.array_equal(est.modes_, one_shot.modes_)
            for start in range(0, len(wave), STREAM_CALL_ROWS):
                stop = start + STREAM_CALL_ROWS
                if not same_modes or not np.array_equal(got[start:stop],
                                                        one_shot_labels[start:stop]):
                    failed += 1
        spans = tracer.spans()
        roots = [s for s in spans if s["name"] == "workload.extend"]
        extra = {
            "exhaustive_evals": N_TRAIN * N_CLUSTERS,
            "trace_overhead_pct": _overhead_pct(traced_s, untraced_s),
        }
        return {"attempted": 2 * calls_per_wave, "failed": failed,
                "notes": {"waves": 2},
                "layers": layer_metrics(spans, roots, extra)}

    bootstraps, wave_s, call_ms = [], [], []
    reference, failed, attempted = None, 0, 0
    start = time.perf_counter()
    while len(bootstraps) < MIN_WAVES or time.perf_counter() - start < seconds:
        estimator = stream_estimator(seed)
        bootstraps.append(_timed(lambda: estimator.bootstrap(X))[0])
        elapsed, (labels, ms) = _timed(lambda: _stream_wave(estimator, wave))
        wave_s.append(elapsed)
        call_ms += ms
        attempted += calls_per_wave
        if reference is None:
            reference = labels
        else:
            for lo in range(0, len(wave), STREAM_CALL_ROWS):
                hi = lo + STREAM_CALL_ROWS
                if not np.array_equal(labels[lo:hi], reference[lo:hi]):
                    failed += 1
        del estimator
    notes = {"waves": len(wave_s)}
    metrics = {
        "setup_s": _metric(stats.median(bootstraps), "s"),
        "fit_s": _metric(stats.median(bootstraps), "s"),
        "items_per_s": _metric(len(wave) / stats.median(wave_s), "1/s"),
        "latency_p50_ms": _metric(stats.median(call_ms), "ms"),
        "purity": _metric(_purity(reference, truth), "ratio"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class _Server:
    """One ``repro serve --http 0`` subprocess, from launch to drained exit."""

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not report its address: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        self.ready_s = self._wait_healthy()

    def _wait_healthy(self) -> float:
        deadline = time.perf_counter() + HEALTH_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, body: bytes) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("POST", "/predict", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait for the drain; kill if it never ends."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _request_pool(data, seed: int):
    """Fixed 100-row request batches: half training rows, half held-out."""
    rng = np.random.default_rng(seed)
    half = REQUEST_ROWS // 2
    batches = []
    for _ in range(REQUEST_BATCHES):
        train_rows = rng.choice(N_TRAIN, size=half, replace=False)
        held_rows = N_TRAIN + rng.choice(N_HELD_OUT, size=REQUEST_ROWS - half,
                                         replace=False)
        rows = np.concatenate([train_rows, held_rows])
        batches.append(rows)
    return batches


class _Client:
    """Sends request ``i`` (batch ``i % 64``) and checks its labels."""

    def __init__(self, server: _Server, items, expected, tracer=None):
        self.server = server
        self.items = items
        self.expected = expected
        self.tracer = tracer

    def send(self, i: int) -> bool:
        k = i % len(self.items)
        body = b'{"id": %d, "items": %s}' % (i, self.items[k])
        if self.tracer is None:
            status, payload = self.server.post(body)
        else:
            with self.tracer.span("loadgen.request", rid=i):
                status, payload = self.server.post(body)
        if status != 200:
            return False
        answer = json.loads(payload)
        return answer.get("id") == i and answer.get("labels") == self.expected[k]


def _serve_argv(model_dir: Path, launcher: list[str]) -> list[str]:
    return [*launcher, "serve", str(model_dir), "--http", "0",
            "--backend", "thread", "--jobs", "2",
            "--deadline-ms", str(DEADLINE_MS)]


def _load(client: _Client, seconds: float) -> dict:
    """One server's share: warm-up, then closed-loop and reference-rate
    blocks in turn.

    Results are medians over blocks and over servers, so one stall
    (another process taking the CPU) or one slow server process moves
    one sample, not the result.
    """
    send = client.send
    loadgen.closed_loop(send, 0.01 * seconds, CONNECTIONS, first_index=0)
    closed, reference = [], []
    index = 10**6
    for _ in range(BLOCKS):
        block = loadgen.closed_loop(send, CLOSED_SHARE * seconds, CONNECTIONS,
                                    first_index=index)
        closed.append(block)
        index += len(block)
        reference.append(loadgen.open_loop(send, REFERENCE_RPS, BLOCK_REQUESTS,
                                           CONNECTIONS, first_index=index))
        index += BLOCK_REQUESTS
    return {"closed": closed, "reference": reference}


def _outcomes(load: dict) -> list[dict]:
    return [o for block in load["closed"] + load["reference"] for o in block]


def _reference_p50(load: dict) -> float:
    """Median over reference blocks of each block's median latency."""
    return stats.median([stats.median(loadgen.latencies_ms(block))
                         for block in load["reference"]])


def _closed_rate(block: list[dict]) -> float:
    """Rows per second answered by one closed-loop block."""
    elapsed = max(o["done"] for o in block) - min(o["sent"] for o in block)
    return len(block) * REQUEST_ROWS / elapsed


def _scrape(text: str) -> dict[str, float]:
    """Sum each Prometheus sample family by ``name{labels}``."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            values[key] = values.get(key, 0.0) + float(value)
    return values


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """``repro serve`` over HTTP: closed-loop capacity and latency at the
    reference rate.

    The run goes round SERVER_LAUNCHES times: fit the model, launch a
    server, load it, stop it, so every measurement is spread over the
    whole run.  The first fit is the one served; every later fit must
    label the training set identically.
    """
    from repro.data.io import load_cluster_model

    data = dataset(seed)
    batches = _request_pool(data, seed)
    items = [json.dumps(data.X[rows].tolist()).encode() for rows in batches]
    model_dir = work / f"serve-model-{seed}"
    plain = [sys.executable, "-m", "repro"]
    fit_times = []

    def fit():
        elapsed, model = _timed(lambda: fit_estimator(seed).fit(data.X[:N_TRAIN]))
        fit_times.append(elapsed)
        return model

    model = fit()
    model.fitted_model().save(model_dir)
    labels = model.labels_
    del model
    local = load_cluster_model(model_dir)
    expected = [local.predict(data.X[rows]).tolist() for rows in batches]
    if trace:
        return _serve_traced(seconds, work, model_dir, items, expected, plain)

    launches, loads, peak_rss, fit_failed = [], [], 0.0, 0
    for k in range(SERVER_LAUNCHES):
        for _ in range(FITS_PER_LAUNCH - 1 if k == 0 else FITS_PER_LAUNCH):
            if not np.array_equal(fit().labels_, labels):
                fit_failed += 1
        server = _Server(_serve_argv(model_dir, plain))
        try:
            launches.append(server.ready_s)
            loads.append(_load(_Client(server, items, expected), seconds))
            # read before the drain; a child's rusage would also count the
            # pages it shared with this process before exec
            peak_rss = max(peak_rss, server.peak_rss_mb())
        finally:
            server.stop()

    purity = _purity(np.concatenate(expected), data.labels[np.concatenate(batches)])
    outcomes = [o for load in loads for o in _outcomes(load)]
    merged = {"closed": [b for load in loads for b in load["closed"]],
              "reference": [b for load in loads for b in load["reference"]]}
    notes = {"reference_blocks": len(merged["reference"])}
    metrics = {
        "setup_s": _metric(stats.median(launches), "s"),
        "fit_s": _metric(stats.median(fit_times), "s"),
        "items_per_s": _metric(stats.median([_closed_rate(b) for b in merged["closed"]]), "1/s"),
        "latency_p50_ms": _metric(_reference_p50(merged), "ms"),
        "purity": _metric(purity, "ratio"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
    }
    return {"attempted": len(outcomes) + len(fit_times),
            "failed": sum(1 for o in outcomes if not o["ok"]) + fit_failed,
            "notes": notes, "metrics": metrics}


def _serve_traced(seconds, work, model_dir, items, expected, plain) -> dict:
    """Untraced then traced server under the same short load."""
    launcher = [sys.executable, "-m", "perfbench.serve_launcher"]
    spans_path = work / "server-spans.json"
    spans_path.unlink(missing_ok=True)
    half = seconds / 2.0

    server = _Server(_serve_argv(model_dir, plain))
    try:
        untraced = _load(_Client(server, items, expected), half)
    finally:
        server.stop()

    tracer = Tracer()
    server = _Server(_serve_argv(model_dir, [*launcher, str(spans_path)]))
    try:
        traced = _load(_Client(server, items, expected, tracer), half)
        status, text = server.get("/metrics")
        scraped = _scrape(text.decode()) if status == 200 else {}
    finally:
        server.stop()

    server_spans = json.loads(spans_path.read_text())
    client_spans = tracer.spans()
    by_rid = {s["rid"]: s for s in client_spans if s["name"] == "loadgen.request"}
    handled = [s for s in server_spans if s["name"] == "serve.handle_request"]
    for span in handled:
        root = by_rid.get(span["rid"])
        if root is not None:
            span["parent"] = root["id"]
    spans = client_spans + server_spans
    roots = [by_rid[s["rid"]] for s in handled if s["rid"] in by_rid]

    transport = [(by_rid[s["rid"]]["end"] - by_rid[s["rid"]]["start"]
                  - (s["end"] - s["start"])) * 1000.0
                 for s in handled if s["rid"] in by_rid]
    waits = _queue_waits(server_spans)
    reference = [o for block in traced["reference"] for o in block]
    lateness = loadgen.lateness_ms(reference)
    waves = scraped.get("repro_waves_total", 0.0)
    extra = {
        "server_p50_ms": stats.median(
            [(s["end"] - s["start"]) * 1000.0 for s in handled]),
        "transport_ms": stats.median(transport),
        "requests_ok": scraped.get('repro_requests_total{op="predict",status="ok"}', 0),
        "queue_wait_ms": stats.median(waits) if waits else 0.0,
        "waves": waves,
        "wave_rows": scraped.get("repro_wave_rows_sum", 0.0) / waves if waves else 0.0,
        "rejected": sum(v for k, v in scraped.items()
                        if k.startswith("repro_queue_rejections_total")),
        "late_p99_ms": stats.percentile(lateness, 99.0) if lateness else 0.0,
        "trace_overhead_pct": _overhead_pct(
            stats.median(loadgen.latencies_ms(reference)),
            stats.median(loadgen.latencies_ms(
                [o for block in untraced["reference"] for o in block]))),
    }
    outcomes = _outcomes(untraced) + _outcomes(traced)
    return {"attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if not o["ok"]),
            "notes": {"traced_requests": len(roots)},
            "layers": layer_metrics(spans, roots, extra)}


def _queue_waits(spans: list[dict]) -> list[float]:
    """Per request: from ``submit`` to the start of the wave that ran it (ms)."""
    wave_of = {}
    for span in spans:
        if span["name"] == "resilience.execute":
            for owner in (span["parent"], *span["attrs"]["links"]):
                wave_of[owner] = span
    return [(wave_of[s["id"]]["start"] - s["start"]) * 1000.0
            for s in spans
            if s["name"] == "resilience.submit" and s["id"] in wave_of]


WORKLOADS = {"fit": run_fit, "serve": run_serve, "stream": run_stream}
