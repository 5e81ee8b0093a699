"""In-memory span recording around the library's public calls.

:func:`instrument` wraps the calls each layer exposes at the place the
library looks them up (module attributes and class attributes), so no
library code changes.  Every wrapped call records one span: name, start,
end, parent span and request id.  Spans nest per thread; work handed to
pool threads (``PersistentPool.run``) and admission-queue dispatcher
threads keeps its caller as parent, so one request's spans form one
tree across threads.  The library's own ``repro.obs`` spans
(``fit.*``, ``extend.*``, ``serve.*_chunk``) are recorded into the same
tree.

Spans stay in memory until :meth:`Tracer.dump`.  :func:`blocking_times`
splits each root span's duration over the layers along its blocking
path, so the layers' shares add up to the end-to-end time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

#: The library's ``fit.*``/``extend.*`` phase spans are the core
#: framework's; every other span name starts with its layer.
_PROGRAM_LAYERS = {"fit": "core", "extend": "core"}


def layer_of(name: str) -> str:
    """The layer (module) a span name belongs to."""
    if name == "fit.session_open":
        return "engine"
    head = name.split(".", 1)[0]
    return _PROGRAM_LAYERS.get(head, head)


class Tracer:
    """Thread-safe in-memory span store.

    Each span is a dict ``{"id", "name", "start", "end", "parent",
    "rid", "thread", "attrs"}``; times are ``time.perf_counter()``
    readings, which share one monotonic clock across the processes of
    one machine, so client and server spans can be joined.
    """

    def __init__(self, id_base: int = 0) -> None:
        self._lock = threading.Lock()
        self._next_id = id_base
        self._spans: list[dict] = []
        self._local = threading.local()

    # -- per-thread context ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, object]:
        """``(span id, request id)`` of the innermost open span here."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextlib.contextmanager
    def adopt(self, parent: int | None, rid):
        """Make ``parent``/``rid`` the context of spans opened in this block."""
        stack = self._stack()
        stack.append((parent, rid))
        try:
            yield
        finally:
            stack.pop()

    # -- recording ---------------------------------------------------------

    def open(self, name: str, rid=None, parent: int | None = None, **attrs) -> dict:
        cur_parent, cur_rid = self.current()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": cur_parent if parent is None else parent,
            "rid": cur_rid if rid is None else rid,
            "thread": threading.get_ident(),
            "attrs": attrs,
        }
        self._stack().append((span_id, record["rid"]))
        return record

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1][0] == record["id"]:
            stack.pop()
        with self._lock:
            self._spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str, rid=None, parent: int | None = None, **attrs):
        record = self.open(name, rid=rid, parent=parent, **attrs)
        try:
            yield record
        finally:
            self.close(record)

    def wrap(self, name: str, fn, counts=None):
        """``fn`` recording one span per call; ``counts(args, kwargs,
        result)`` returns extra attributes (row counts and the like)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record["attrs"].update(counts(args, kwargs, result))
                return result

        return wrapper

    def bind(self, fn):
        """``fn`` run on another thread with the caller's span as parent."""
        parent, rid = self.current()

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            with self.adopt(parent, rid):
                return fn(*args, **kwargs)

        return bound

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans(), handle)


# ---------------------------------------------------------------------------
# wrapping the library's public calls
# ---------------------------------------------------------------------------


def _rows(position: int, keyword: str):
    def counts(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return {"rows": int(len(value))}

    return counts


def _minhash_counts(args, kwargs, result):
    indices, indptr, a = args[0], args[1], args[2]
    rows, tokens, hashes = len(indptr) - 1, len(indices), len(a)
    return {
        "rows": int(rows),
        "hash_evals": int(tokens) * int(hashes),
        # computed, not measured: CSR tokens and offsets plus both
        # coefficient vectors read, the signature matrix written (int64)
        "bytes_moved": 8 * (int(tokens) + int(rows) + 1 + 2 * int(hashes))
        + 8 * int(rows) * int(hashes),
    }


def _shortlist_counts(args, kwargs, result):
    indptr = result[0]
    lengths = indptr[1:] - indptr[:-1]
    return {
        "rows": int(len(lengths)),
        "hits": int((lengths > 0).sum()),
        "candidates": int(lengths.sum()),
    }


def _score_counts(args, kwargs, result):
    # best_shortlisted_centroids(model, block, candidates, sizes, centroids)
    return {"rows": int(len(args[1])), "distance_evals": int(args[3].sum())}


def _full_scan_counts(args, kwargs, result):
    # best_centroids_full_scan(model, X, centroids)
    rows = int(len(args[1]))
    return {"rows": rows, "distance_evals": rows * int(len(args[2]))}


def _set(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def instrument(tracer: Tracer):
    """Wrap every traced call; returns a function that undoes it."""
    from repro import kernels
    from repro.core import framework, streaming
    from repro.core.streaming import ClusterModeTracker
    from repro.data import io
    from repro.engine import parallel
    from repro.engine.pool import PersistentPool
    from repro.engine.sharded_index import ShardedClusteredLSHIndex
    from repro.lsh.index import BaseClusteredIndex, ClusteredLSHIndex
    from repro.lsh.minhash import MinHasher
    from repro.obs import spans as obs_spans
    from repro.resilience.queue import AdmissionQueue
    from repro.serve import service
    from repro.serve.server import ModelServer

    patches: list = []
    wrap = tracer.wrap

    # kernels: module attributes, looked up as ``kernels.<name>``
    _set(patches, kernels, "minhash_signatures",
         wrap("kernels.minhash", kernels.minhash_signatures, _minhash_counts))
    _set(patches, kernels, "count_update",
         wrap("kernels.count_update", kernels.count_update, _rows(2, "labels")))

    # lsh
    _set(patches, MinHasher, "signatures_categorical",
         wrap("lsh.signatures", MinHasher.signatures_categorical, _rows(1, "X")))
    for cls in (ClusteredLSHIndex, ShardedClusteredLSHIndex):
        _set(patches, cls, "build",
             wrap("lsh.index_build", cls.__dict__["build"], _rows(1, "signatures")))
        raw = cls.__dict__["from_band_keys"].__func__
        _set(patches, cls, "from_band_keys",
             classmethod(wrap("lsh.index_build", raw, _rows(3, "band_keys"))))
    # a parallel fit builds the sharded index from per-shard runs made on
    # the pool: band keys, the shard kernel, then the merge
    raw = ShardedClusteredLSHIndex.__dict__["from_shard_runs"].__func__
    _set(patches, ShardedClusteredLSHIndex, "from_shard_runs",
         classmethod(wrap("lsh.index_build", raw, _rows(3, "band_keys"))))
    for attr in ("compute_band_keys", "_build_shard_tables"):
        _set(patches, parallel, attr,
             wrap("lsh.index_build", getattr(parallel, attr)))
    _set(patches, BaseClusteredIndex, "shortlists_for_signatures",
         wrap("lsh.query", BaseClusteredIndex.shortlists_for_signatures,
              _shortlist_counts))
    _set(patches, BaseClusteredIndex, "insert_batch",
         wrap("lsh.insert", BaseClusteredIndex.insert_batch, _rows(1, "signatures")))

    # core: the scoring kernels are imported by name into each caller
    for module in (framework, streaming, parallel):
        _set(patches, module, "best_shortlisted_centroids",
             wrap("core.score", module.best_shortlisted_centroids, _score_counts))
    for module in (framework, streaming):
        _set(patches, module, "best_centroids_full_scan",
             wrap("core.fallback", module.best_centroids_full_scan, _full_scan_counts))
    _set(patches, ClusterModeTracker, "add_batch",
         wrap("core.tracker_update", ClusterModeTracker.add_batch, _rows(2, "labels")))

    # engine: pool dispatch; kernels keep the dispatching span as parent
    pool_run = PersistentPool.run

    def traced_run(self, fn, tasks, dynamic=None):
        with tracer.span("engine.pool_run", tasks=len(tasks)):
            return pool_run(self, tracer.bind(fn), tasks, dynamic)

    _set(patches, PersistentPool, "run", traced_run)

    # serve
    handle = service.handle_request

    def traced_handle(server, payload):
        rid = payload.get("id") if isinstance(payload, dict) else None
        with tracer.span("serve.handle_request", rid=rid):
            return handle(server, payload)

    _set(patches, service, "handle_request", traced_handle)
    _set(patches, ModelServer, "predict",
         wrap("serve.predict", ModelServer.predict, _rows(1, "X")))
    _set(patches, io, "load_cluster_model", wrap("serve.load", io.load_cluster_model))

    # resilience: a request waits in the queue between ``submit`` and the
    # dispatcher thread's call of ``execute``.  A wave that merges several
    # requests runs one ``execute`` on their concatenated matrix; its span
    # gets the first live request as parent and links to the others, so
    # every merged request's blocking path runs through the wave.
    waiting: dict[int, dict] = {}
    waiting_lock = threading.Lock()
    dispatching = threading.local()
    submit = AdmissionQueue.submit
    queue_init = AdmissionQueue.__init__
    run_wave = AdmissionQueue._run_wave

    def traced_submit(self, X, deadline_s=None):
        with tracer.span("resilience.submit", rows=int(len(X))) as record:
            with waiting_lock:
                waiting[id(X)] = record
            try:
                return submit(self, X, deadline_s)
            finally:
                with waiting_lock:
                    waiting.pop(id(X), None)

    def traced_run_wave(self, wave):
        dispatching.wave = wave
        try:
            return run_wave(self, wave)
        finally:
            dispatching.wave = ()

    def traced_init(self, execute, **kwargs):
        def traced_execute(X):
            # expired or abandoned requests are answered before ``execute``
            live = [p.X for p in getattr(dispatching, "wave", ())
                    if not p.event.is_set()]
            with waiting_lock:
                owners = [waiting[id(x)] for x in live if id(x) in waiting]
            first = owners[0] if owners else {"id": None, "rid": None}
            with tracer.adopt(first["id"], first["rid"]):
                with tracer.span("resilience.execute", rows=int(len(X)),
                                 coalesced=len(live) > 1,
                                 links=[o["id"] for o in owners[1:]]):
                    return execute(X)

        queue_init(self, traced_execute, **kwargs)

    _set(patches, AdmissionQueue, "submit", traced_submit)
    _set(patches, AdmissionQueue, "_run_wave", traced_run_wave)
    _set(patches, AdmissionQueue, "__init__", traced_init)

    # the library's own spans join the same tree
    span_cls = obs_spans.span
    enter, exit_ = span_cls.__enter__, span_cls.__exit__

    def traced_enter(self):
        self._perfbench_record = tracer.open(self.name)
        return enter(self)

    def traced_exit(self, *exc_info):
        try:
            return exit_(self, *exc_info)
        finally:
            record = getattr(self, "_perfbench_record", None)
            if record is not None:
                tracer.close(record)

    _set(patches, span_cls, "__enter__", traced_enter)
    _set(patches, span_cls, "__exit__", traced_exit)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _children(spans: list[dict]) -> dict:
    """``{span id: child spans}``, a span's ``links`` counting as parents."""
    kids = defaultdict(list)
    for span in spans:
        for parent in (span["parent"], *span["attrs"].get("links", ())):
            if parent is not None:
                kids[parent].append(span)
    return kids


def blocking_times(roots: list[dict], spans: list[dict]) -> dict[str, float]:
    """Split the roots' durations over layers along the blocking path.

    Within a span, wherever a child is running the time goes to the
    running child that ends last (the one the parent waits for),
    recursively; elsewhere it is the span's own.  The result sums exactly to the
    roots' total duration; a root's own share is keyed ``"<root>"``.
    """
    kids = _children(spans)
    out: dict[str, float] = defaultdict(float)

    def attribute(span: dict, lo: float, hi: float, layer: str) -> None:
        inside = [
            c for c in kids.get(span["id"], ())
            if c["end"] > lo and c["start"] < hi
        ]
        if not inside:
            out[layer] += hi - lo
            return
        cuts = sorted({lo, hi, *(
            t for c in inside for t in (c["start"], c["end"]) if lo < t < hi
        )})
        for a, b in zip(cuts, cuts[1:]):
            active = [c for c in inside if c["start"] <= a and c["end"] >= b]
            if active:
                child = max(active, key=lambda c: c["end"])
                attribute(child, a, b, layer_of(child["name"]))
            else:
                out[layer] += b - a

    for root in roots:
        attribute(root, root["start"], root["end"], "<root>")
    return dict(out)


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found
