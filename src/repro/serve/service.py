"""Request/response plumbing for ``repro serve``.

Two transports over one request shape, both stdlib-only:

* **NDJSON** (:func:`serve_ndjson`) — newline-delimited JSON over
  stdin/stdout.  One request object per line, one response object per
  line, errors answered in-band as structured objects
  (``{"error": {"code": ..., "message": ...}}`` — see
  :data:`ERROR_CODES`) so a bad request never kills the stream.
* **HTTP** (:func:`make_http_server`) — a localhost
  :class:`http.server.ThreadingHTTPServer`: ``POST /predict`` with the
  same JSON body, ``GET /health`` for the enriched liveness/status
  document (model metadata, pool state, request totals, latency
  percentiles) and ``GET /metrics`` for the Prometheus text exposition
  of the server's :class:`~repro.obs.MetricsRegistry` (404 when the
  spec disables metrics).

Request shape::

    {"items": [[...], ...]}            → {"labels": [...], "count": n}
    {"items": [...], "distance": true} → + {"distances": [...]}
    {"items": [...], "id": 7}          → response echoes {"id": 7}
    {"items": [...], "op": "extend"}   → + {"extended": n}  (streaming
                                         ingest; needs a server with
                                         ServeSpec(allow_extend=True))
    {"op": "stats"}                    → request totals + a JSON metrics
                                         snapshot (no items needed)
    {"ping": true}                     → {"ok": true, "model": "..."}

Labels come from :meth:`repro.serve.ModelServer.predict` (or
:meth:`~repro.serve.ModelServer.extend` for the ``extend`` op, which
additionally inserts the rows into the serving index), so they are
bit-identical to in-process ``ClusterModel.predict`` — the CLI
round-trip test asserts exactly that.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO

import numpy as np

from repro.exceptions import (
    DataValidationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServerClosedError,
)

__all__ = [
    "error_descriptor",
    "handle_request",
    "request_byte_limit",
    "serve_ndjson",
    "make_http_server",
]

#: The stable error taxonomy both transports expose.  Every error
#: answer is ``{"error": {"code": <code>, "message": <human text>}}``
#: (NDJSON in-band / HTTP body), with the matching HTTP status:
#:
#: ==================== ======= =============================================
#: code                 status  raised as
#: ==================== ======= =============================================
#: ``overloaded``       429     :class:`~repro.exceptions.OverloadedError`
#:                              (+ ``retry_after_s`` field and a
#:                              ``Retry-After`` header)
#: ``shutting_down``    503     :class:`~repro.exceptions.ServerClosedError`
#: ``deadline_exceeded`` 504    :class:`~repro.exceptions.DeadlineExceededError`
#: ``payload_too_large`` 413    transport byte limit (pre-parse)
#: ``invalid_json``     400     request line/body is not JSON
#: ``invalid_request``  400     any other validation failure
#: ==================== ======= =============================================
ERROR_CODES = (
    "overloaded",
    "shutting_down",
    "deadline_exceeded",
    "payload_too_large",
    "invalid_json",
    "invalid_request",
)


def error_descriptor(exc: BaseException) -> tuple[int, dict]:
    """``(http_status, error_object)`` for one serving-path exception.

    The single source of truth both transports share, so an NDJSON
    client and an HTTP client always see the same ``code`` for the
    same failure.  ``ServerClosedError`` must be tested before the
    generic fallback: it deliberately subclasses
    :class:`~repro.exceptions.ConfigurationError` for backwards
    compatibility but is an availability condition, not a caller bug.
    """
    if isinstance(exc, OverloadedError):
        return 429, {
            "code": "overloaded",
            "message": str(exc),
            "retry_after_s": exc.retry_after_s,
        }
    if isinstance(exc, ServerClosedError):
        return 503, {"code": "shutting_down", "message": str(exc)}
    if isinstance(exc, DeadlineExceededError):
        return 504, {"code": "deadline_exceeded", "message": str(exc)}
    if isinstance(exc, json.JSONDecodeError):
        return 400, {"code": "invalid_json", "message": f"invalid JSON: {exc}"}
    return 400, {"code": "invalid_request", "message": str(exc)}


def request_byte_limit(server) -> int:
    """Transport-level byte cap derived from the serving spec.

    ``ServeSpec.max_batch`` bounds the *rows* a request may carry; this
    derives the matching bound on the *encoded* request, so neither
    transport buffers or parses a payload that could never be a legal
    batch.  32 bytes comfortably covers one JSON-encoded cell (a full
    float64 repr plus separators); the slack covers the envelope keys.
    """
    return server.spec.max_batch * max(1, server.model.n_attributes) * 32 + 65536


def _items_to_matrix(items, n_attributes: int) -> np.ndarray:
    """A request's ``items`` as a 2-D matrix (``[]`` → an empty batch)."""
    X = np.asarray(items)
    if X.ndim == 1 and X.size == 0:
        # JSON has no typed empty matrix; [] means "zero rows".
        return np.empty((0, n_attributes), dtype=np.int64)
    return X


def handle_request(server, payload) -> dict:
    """Answer one decoded request object against a ``ModelServer``.

    Raises :class:`~repro.exceptions.ReproError` subclasses on invalid
    requests; transports translate those into in-band error responses.
    """
    if not isinstance(payload, dict):
        raise DataValidationError(
            f"each request must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("ping"):
        return {"ok": True, "model": repr(server.model)}
    op = payload.get("op", "predict")
    if op not in ("predict", "extend", "stats"):
        raise DataValidationError(
            f"unknown op {op!r}; choose 'predict', 'extend' or 'stats'"
        )
    if op == "stats":
        response = server.stats()
        if "id" in payload:
            response["id"] = payload["id"]
        return response
    if "items" not in payload:
        raise DataValidationError("request object needs an 'items' matrix")
    X = _items_to_matrix(payload["items"], server.model.n_attributes)
    response: dict = {}
    if "id" in payload:
        response["id"] = payload["id"]
    if op == "extend":
        if payload.get("distance"):
            raise DataValidationError(
                "distance=true is a predict-op feature; extend requests "
                "return labels only"
            )
        labels = server.extend(X)
        response["extended"] = int(len(labels))
    elif payload.get("distance"):
        labels, distances = server.predict_with_distance(X)
        response["distances"] = distances.tolist()
    else:
        labels = server.predict(X)
    response["labels"] = labels.tolist()
    response["count"] = int(len(labels))
    return response


def serve_ndjson(server, stdin: IO[str], stdout: IO[str]) -> int:
    """Answer newline-delimited JSON requests until EOF.

    Every input line produces exactly one output line: the response,
    or ``{"error": ...}`` (with any request ``id`` echoed) when the
    line is malformed or the request invalid.  Lines longer than the
    spec-derived :func:`request_byte_limit` are rejected before any
    JSON parsing, so an oversized request cannot balloon the server's
    memory.  Returns the number of lines answered.
    """
    answered = 0
    byte_limit = request_byte_limit(server)
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        # measure encoded bytes, not code points, so the NDJSON and
        # HTTP transports enforce the same effective limit
        line_bytes = len(line.encode("utf-8")) if len(line) * 4 > byte_limit else len(line)
        if line_bytes > byte_limit:
            stdout.write(
                json.dumps(
                    {
                        "error": {
                            "code": "payload_too_large",
                            "message": (
                                f"request of {line_bytes} bytes exceeds the "
                                f"serving byte limit {byte_limit} "
                                f"(ServeSpec.max_batch={server.spec.max_batch})"
                            ),
                        }
                    }
                )
                + "\n"
            )
            stdout.flush()
            answered += 1
            continue
        request_id = None
        try:
            payload = json.loads(line)
            if isinstance(payload, dict):
                request_id = payload.get("id")
            response = handle_request(server, payload)
        except (json.JSONDecodeError, ReproError, ValueError, TypeError) as exc:
            _, error = error_descriptor(exc)
            response = {"error": error}
            if request_id is not None:
                response["id"] = request_id
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        answered += 1
    return answered


class _ServeHandler(BaseHTTPRequestHandler):
    """``POST /predict`` + ``GET /health`` + ``GET /metrics``."""

    # Set by make_http_server on the handler subclass.
    model_server = None

    def _reply(
        self, status: int, body: dict, headers: dict | None = None
    ) -> None:
        encoded = (json.dumps(body) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def _reply_error(self, exc: BaseException) -> None:
        """One exception → status + structured body + backoff headers."""
        status, error = error_descriptor(exc)
        headers = {}
        if status in (429, 503):
            # Retry-After must be a whole number of seconds; round the
            # estimate up so clients never come back early.
            retry_after_s = error.get("retry_after_s", 1.0)
            headers["Retry-After"] = str(max(1, int(-(-retry_after_s // 1))))
        self._reply(status, {"error": error}, headers)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/health":
            self._reply(200, self.model_server.health())
            return
        if self.path == "/metrics":
            if self.model_server.metrics is None:
                self._reply(
                    404,
                    {
                        "error": {
                            "code": "invalid_request",
                            "message": (
                                "metrics are disabled on this server "
                                "(ServeSpec.emit_metrics=False)"
                            ),
                        }
                    },
                )
                return
            body = self.model_server.metrics_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._reply(
            404,
            {
                "error": {
                    "code": "invalid_request",
                    "message": f"no such path {self.path!r}",
                }
            },
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/predict":
            self._reply(
                404,
                {
                    "error": {
                        "code": "invalid_request",
                        "message": f"no such path {self.path!r}",
                    }
                },
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            byte_limit = request_byte_limit(self.model_server)
            if length > byte_limit:
                # bounce before reading the body: max_batch bounds the
                # transport's memory, not just the parsed batch
                self._reply(
                    413,
                    {
                        "error": {
                            "code": "payload_too_large",
                            "message": (
                                f"request of {length} bytes exceeds the "
                                f"serving byte limit {byte_limit} "
                                "(ServeSpec.max_batch="
                                f"{self.model_server.spec.max_batch})"
                            ),
                        }
                    },
                )
                return
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            self._reply(200, handle_request(self.model_server, payload))
        except (json.JSONDecodeError, ReproError, ValueError, TypeError) as exc:
            self._reply_error(exc)

    def log_message(self, *args) -> None:  # pragma: no cover - silence
        pass


def make_http_server(
    server, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A localhost HTTP endpoint over a ``ModelServer`` (stdlib only).

    ``port=0`` binds an ephemeral port; read the actual one from
    ``httpd.server_address``.  The caller owns both lifetimes: shut the
    HTTP server down first, then close the model server.
    """
    handler = type(
        "BoundServeHandler", (_ServeHandler,), {"model_server": server}
    )
    return ThreadingHTTPServer((host, port), handler)
