"""Shared infrastructure for the per-figure benchmark suite.

Each ``test_<table|figure>*.py`` module regenerates one table or figure
of the paper.  Heavy experiment comparisons are cached per session so
that Figure 6 (scaling), Figure 7 (total time) and Figure 8 (purity)
can reuse the runs of Figures 2-5 instead of repeating them, mirroring
how the paper derives those figures from the same experiments.

Rendered paper-style tables are written to ``benchmarks/results/*.txt``
and echoed to stdout, so `pytest benchmarks/ --benchmark-only` leaves
both the pytest-benchmark timing table and the reproduced figures on
disk.
"""

from __future__ import annotations

import faulthandler
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.configs import (
    FIG2,
    FIG3,
    FIG4,
    FIG5,
    FIG5_XL,
    FIG9,
    FIG10,
    SyntheticConfig,
    YahooConfig,
)
from repro.experiments.runner import (
    ComparisonResult,
    run_comparison,
    synthetic_dataset,
    yahoo_dataset,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Seconds one benchmark (setup, call and teardown together) may run
#: before the whole run is aborted with every thread's traceback on
#: stderr — far above the slowest benchmark, so it only fires on a
#: hang, which then fails the run instead of stalling it.
HANG_TIMEOUT_S = 1800


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()

_CONFIGS: dict[str, SyntheticConfig | YahooConfig] = {
    "fig2": FIG2,
    "fig3": FIG3,
    "fig4": FIG4,
    "fig5": FIG5,
    "fig5xl": FIG5_XL,
    "fig9": FIG9,
    "fig10": FIG10,
}

_DATASET_CACHE: dict[str, object] = {}
_RESULT_CACHE: dict[str, ComparisonResult] = {}


def get_dataset(exp_id: str):
    """Materialise (once) the dataset of a named experiment."""
    if exp_id not in _DATASET_CACHE:
        config = _CONFIGS[exp_id]
        if isinstance(config, SyntheticConfig):
            _DATASET_CACHE[exp_id] = synthetic_dataset(config)
        else:
            _DATASET_CACHE[exp_id] = yahoo_dataset(config)
    return _DATASET_CACHE[exp_id]


def get_comparison(exp_id: str) -> ComparisonResult:
    """Run (once) the full variant comparison of a named experiment."""
    if exp_id not in _RESULT_CACHE:
        config = _CONFIGS[exp_id]
        dataset = get_dataset(exp_id)
        if isinstance(config, SyntheticConfig):
            _RESULT_CACHE[exp_id] = run_comparison(
                dataset,
                n_clusters=config.n_clusters,
                variants=config.variants,
                max_iter=config.max_iter,
                seed=config.seed,
                exp_id=config.exp_id,
            )
        else:
            _RESULT_CACHE[exp_id] = run_comparison(
                dataset,
                n_clusters=config.n_topics,
                variants=config.variants,
                max_iter=config.max_iter,
                seed=config.seed,
                absent_code=0,
                exp_id=config.exp_id,
            )
    return _RESULT_CACHE[exp_id]


def fixed_initial_modes(exp_id: str) -> np.ndarray:
    """The shared initial modes of an experiment (paper protocol)."""
    config = _CONFIGS[exp_id]
    dataset = get_dataset(exp_id)
    k = (
        config.n_clusters
        if isinstance(config, SyntheticConfig)
        else config.n_topics
    )
    rng = np.random.default_rng(config.seed)
    return dataset.X[rng.choice(dataset.n_items, size=k, replace=False)].copy()


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
