"""Regression guard: parallel work after a compiled-kernel call finishes.

Every parallel path used to be exposed to a deadlock when a worker
pool started after the compiled kernels had run a multithreaded
region in the parent.  This runs the whole sequence — a compiled
kernel call in the parent, then a thread-backend fit, a thread
``ModelServer`` predict and a thread-chunked streaming ``extend`` — in
a fresh interpreter with the default environment, under a timeout, so
a hang fails the test instead of stalling the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

TIMEOUT_S = 180

SCRIPT = """
import numpy as np

from repro import kernels
from repro.api import EngineSpec, LSHSpec, ServeSpec, StreamSpec, TrainSpec
from repro.core import MHKModes, StreamingMHKModes
from repro.data.datgen import RuleBasedGenerator
from repro.lsh.minhash import MinHasher
from repro.serve import ModelServer

X = RuleBasedGenerator(
    n_clusters=20, n_attributes=12, domain_size=200, seed=5
).generate(3000).X
MinHasher(100, seed=0).signatures_categorical(X)  # compiled call in the parent

lsh = LSHSpec(bands=10, rows=2, seed=1)
train = TrainSpec(max_iter=3, update_refs="batch")
fitted = MHKModes(
    n_clusters=20, lsh=lsh, engine=EngineSpec(backend="thread", n_jobs=2),
    train=train,
).fit(X[:2000])
model = fitted.fitted_model()
with ModelServer(model, ServeSpec(backend="thread", n_jobs=2, chunk_items=256)) as server:
    assert np.array_equal(server.predict(X[2000:]), model.predict(X[2000:]))
stream = StreamingMHKModes(
    n_clusters=20, lsh=lsh, train=train,
    stream=StreamSpec(backend="thread", n_jobs=2, chunk_items=128),
)
with stream:
    stream.bootstrap(X[:2000])
    stream.extend(X[2000:])
print("finished with kernels =", kernels.active_backend())
"""


def test_parallel_paths_finish_after_a_compiled_kernel_call():
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("OMP_") and key != "REPRO_KERNELS"
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    try:
        completed = subprocess.run(
            [sys.executable, "-c", SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(
            f"parallel work after a compiled-kernel call did not finish "
            f"within {TIMEOUT_S}s (hang); stderr so far:\n{exc.stderr}"
        )
    assert completed.returncode == 0, completed.stderr
    assert "finished with kernels =" in completed.stdout
