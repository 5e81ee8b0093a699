"""Streaming ingest through the serving layer (the serve-smoke contract).

``ServeSpec(allow_extend=True)`` turns a ModelServer into a streaming
endpoint: ``{"op": "extend"}`` requests are labelled through the same
pooled predict path and then absorbed into the (insertable, unfrozen)
index so later requests shortlist against them.  The subprocess test
is the CI serve-smoke assertion: a real ``repro serve --allow-extend``
process answers an extend round-trip over NDJSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import ServeSpec
from repro.core.mh_kmodes import MHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.data.io import save_model
from repro.engine.pool import live_pool_count
from repro.exceptions import ConfigurationError, DataValidationError
from repro.serve import ModelServer, handle_request

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def streamable(tmp_path_factory):
    data = RuleBasedGenerator(
        n_clusters=8, n_attributes=10, domain_size=150, seed=33
    ).generate(360)
    estimator = MHKModes(
        n_clusters=8, lsh={"bands": 10, "rows": 2, "seed": 4}, domain_size=150
    ).fit(data.X[:300])
    artifact = estimator.fitted_model()
    path = save_model(
        artifact, tmp_path_factory.mktemp("model") / "streamed"
    )
    return path, artifact, data.X


class TestModelServerExtend:
    def test_extend_grows_index_and_feeds_later_shortlists(self, streamable):
        _, artifact, X = streamable
        spec = ServeSpec(backend="thread", n_jobs=2, allow_extend=True)
        with ModelServer(artifact, spec) as server:
            before = server._estimator._index.n_items
            labels = server.extend(X[300:340])
            assert server._estimator._index.n_items == before + 40
            assert server.items_extended_ == 40
            # the same rows, re-asked, now collide with themselves and
            # must land on the same clusters
            assert np.array_equal(server.predict(X[300:340]), labels)
        assert live_pool_count() == 0

    def test_first_extend_labels_match_read_only_predict(self, streamable):
        """Assignment-before-insert equals plain predict on the artifact."""
        _, artifact, X = streamable
        expected = artifact.predict(X[300:330])
        with ModelServer(
            artifact, ServeSpec(allow_extend=True)
        ) as server:
            assert np.array_equal(server.extend(X[300:330]), expected)

    def test_read_only_server_rejects_extend(self, streamable):
        _, artifact, X = streamable
        with ModelServer(artifact) as server:
            with pytest.raises(ConfigurationError):
                server.extend(X[:3])

    def test_extend_op_over_handle_request(self, streamable):
        _, artifact, X = streamable
        with ModelServer(
            artifact, ServeSpec(allow_extend=True)
        ) as server:
            response = handle_request(
                server, {"op": "extend", "items": X[300:310].tolist(), "id": 9}
            )
            assert response["id"] == 9
            assert response["extended"] == 10
            assert response["count"] == 10
            assert len(response["labels"]) == 10
            with pytest.raises(DataValidationError):
                handle_request(
                    server,
                    {"op": "extend", "items": X[:2].tolist(), "distance": True},
                )
            with pytest.raises(DataValidationError):
                handle_request(server, {"op": "nope", "items": X[:2].tolist()})

    def test_empty_extend_is_a_legal_noop(self, streamable):
        _, artifact, _ = streamable
        with ModelServer(
            artifact, ServeSpec(allow_extend=True)
        ) as server:
            before = server._estimator._index.n_items
            labels = server.extend(np.empty((0, 10), dtype=np.int64))
            assert labels.shape == (0,)
            assert server._estimator._index.n_items == before


class TestExtendSubprocessSmoke:
    def test_ndjson_extend_round_trip(self, streamable):
        """The CI serve-smoke assertion: extend over a real subprocess."""
        path, artifact, X = streamable
        expected_first = artifact.predict(X[300:320]).tolist()
        requests = [
            json.dumps(
                {"id": 0, "op": "extend", "items": X[300:320].tolist()}
            ),
            # the freshly streamed rows must now answer like themselves
            json.dumps({"id": 1, "items": X[300:320].tolist()}),
            json.dumps({"id": 2, "ping": True}),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", str(path), "--allow-extend"],
            input="\n".join(requests) + "\n",
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        responses = [
            json.loads(line) for line in completed.stdout.splitlines() if line
        ]
        assert len(responses) == 3
        assert responses[0]["extended"] == 20
        assert responses[0]["labels"] == expected_first
        assert responses[1]["labels"] == responses[0]["labels"]
        assert responses[2]["ok"] is True


class TestStreamingServerConstruction:
    def test_rejects_models_without_an_index(self):
        from repro.kmodes import KModes

        rng = np.random.default_rng(0)
        X = rng.integers(0, 20, (60, 6))
        artifact = KModes(n_clusters=4, seed=0).fit(X).fitted_model()
        assert artifact.band_keys is None
        with pytest.raises(ConfigurationError):
            ModelServer(artifact, ServeSpec(allow_extend=True))
