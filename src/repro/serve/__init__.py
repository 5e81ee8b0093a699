"""Concurrent batch-predict serving on :class:`~repro.api.ClusterModel`.

Training produces an immutable artifact; this package turns that
artifact into a long-lived service:

* :mod:`repro.serve.server` — :class:`ModelServer`, which rebuilds the
  artifact's LSH index once at load (frozen into read-only query
  mode), keeps a :class:`~repro.engine.pool.PersistentPool` of workers
  warm across calls, and chunks large predict batches across them —
  labels bit-identical to ``ClusterModel.predict`` on every backend
  and chunking;
* :mod:`repro.serve.service` — the request/response plumbing behind
  the ``repro serve`` CLI: newline-delimited JSON over stdin/stdout,
  or a localhost HTTP endpoint built on the stdlib
  :mod:`http.server`.

Configuration is the :class:`~repro.api.ServeSpec` frozen dataclass
(backend / workers / chunking / request-size cap), persisted next to
the model by :func:`repro.data.io.save_model` and reloaded by
:func:`repro.data.io.load_serve_spec`.

Quick start::

    from repro.api import ServeSpec
    from repro.serve import ModelServer

    server = ModelServer.from_path(
        "model", spec=ServeSpec(backend="thread", n_jobs=4)
    )
    with server:
        labels = server.predict(X)          # chunked across the pool
"""

from repro.serve.server import ModelServer
from repro.serve.service import (
    error_descriptor,
    handle_request,
    make_http_server,
    serve_ndjson,
)

__all__ = [
    "ModelServer",
    "serve_ndjson",
    "make_http_server",
    "handle_request",
    "error_descriptor",
]
