"""Shared fixtures for the test suite, plus a per-test hang guard."""

from __future__ import annotations

import faulthandler

import numpy as np
import pytest

#: Seconds one test (setup, call and teardown together) may run before
#: the whole run is aborted with every thread's traceback on stderr.
#: The slowest test here takes a few seconds; this only ever fires on
#: a hang, which then fails the run instead of stalling it.
HANG_TIMEOUT_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()

from repro.data.datgen import RuleBasedGenerator
from repro.data.dataset import CategoricalDataset


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_planted_dataset() -> CategoricalDataset:
    """A tiny rule-based dataset with clearly separated clusters.

    10 clusters × ~20 items, 24 attributes; rules pin 40-80 % of the
    attributes so exact K-Modes recovers the planted labels.
    """
    return RuleBasedGenerator(
        n_clusters=10, n_attributes=24, domain_size=500, seed=7
    ).generate(200)


@pytest.fixture
def medium_planted_dataset() -> CategoricalDataset:
    """A medium rule-based dataset for integration tests (60 clusters)."""
    return RuleBasedGenerator(
        n_clusters=60, n_attributes=30, domain_size=2_000, seed=11
    ).generate(900)


@pytest.fixture
def binary_presence_dataset(rng: np.random.Generator) -> CategoricalDataset:
    """Sparse 0/1 word-presence data in the style of Section IV-B."""
    n, m, k = 150, 40, 8
    labels = rng.integers(0, k, n)
    X = np.zeros((n, m), dtype=np.int64)
    for cluster in range(k):
        members = np.flatnonzero(labels == cluster)
        keywords = rng.choice(m, size=4, replace=False)
        for member in members:
            chosen = rng.random(4) < 0.8
            X[member, keywords[chosen]] = 1
            extra = rng.choice(m, size=2)
            X[member, extra] = 1
    return CategoricalDataset(X=X, labels=labels, name="binary-presence")
