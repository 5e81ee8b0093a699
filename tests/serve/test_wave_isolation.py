"""A bad request co-batched with good ones fails alone.

With an admission queue, concurrent requests coalesce into one wave
and one ``execute`` call.  If an invalid matrix could enter a wave,
its validation error would fan out to every request sharing it.  The
server therefore validates each request completely — including the
fitted category domain — before admission, so every wave holds only
valid matrices.  Checked over both transports with a batch window long
enough that all requests of the burst coalesce.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import ResilienceSpec, ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.serve import ModelServer, make_http_server, serve_ndjson

#: Index of the out-of-domain request within the concurrent burst.
BAD = 2


@pytest.fixture(scope="module")
def served():
    data = RuleBasedGenerator(
        n_clusters=6, n_attributes=8, domain_size=60, seed=11
    ).generate(240)
    model = MHKModes(
        n_clusters=6, lsh={"bands": 6, "rows": 2, "seed": 3}
    ).fit(data.X).fitted_model()
    good = [data.X[i * 20 : (i + 1) * 20] for i in range(3)]
    bad = np.full((5, data.X.shape[1]), 10_000, dtype=np.int64)
    burst = good[:BAD] + [bad] + good[BAD:]
    return model, burst


def _spec() -> ServeSpec:
    return ServeSpec(
        backend="thread",
        n_jobs=2,
        resilience=ResilienceSpec(max_in_flight=1, batch_window_ms=50),
    )


def _concurrently(call, burst) -> list:
    """Run ``call(matrix)`` for every matrix at once; answers in order."""
    answers: list = [None] * len(burst)
    barrier = threading.Barrier(len(burst))

    def run(i):
        barrier.wait()
        answers[i] = call(burst[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(burst))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return answers


def _check(model, burst, answers) -> None:
    for i, (X, answer) in enumerate(zip(burst, answers)):
        if i == BAD:
            assert "labels" not in answer, answer
            assert answer["error"]["code"] == "invalid_request"
            assert "domain_size" in answer["error"]["message"]
        else:
            assert "error" not in answer, (i, answer)
            assert answer["labels"] == model.predict(X).tolist(), i


def test_prepare_rejects_out_of_domain_codes_before_admission(served):
    model, burst = served
    from repro.exceptions import DataValidationError

    with ModelServer(model, _spec()) as server:
        with pytest.raises(DataValidationError, match="domain_size"):
            server.predict(burst[BAD])
        assert server._queue.depth == 0
        assert server.requests_served_ == 0


def test_ndjson_bad_request_fails_alone(served):
    model, burst = served

    with ModelServer(model, _spec()) as server:

        def call(X):
            out = io.StringIO()
            line = json.dumps({"items": X.tolist()}) + "\n"
            serve_ndjson(server, io.StringIO(line), out)
            return json.loads(out.getvalue())

        _check(model, burst, _concurrently(call, burst))


def test_http_bad_request_fails_alone(served):
    model, burst = served
    with ModelServer(model, _spec()) as server:
        httpd = make_http_server(server, port=0)
        host, port = httpd.server_address[:2]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:

            def call(X):
                request = urllib.request.Request(
                    f"http://{host}:{port}/predict",
                    data=json.dumps({"items": X.tolist()}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=30) as reply:
                        return json.loads(reply.read())
                except urllib.error.HTTPError as exc:
                    assert exc.code == 400
                    return json.loads(exc.read())

            _check(model, burst, _concurrently(call, burst))
        finally:
            httpd.shutdown()
            httpd.server_close()
