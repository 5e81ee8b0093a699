"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 -m perfbench.compare BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them to its history
(one JSON object per line).  For every workload and metric, end-to-end
and per-layer, it prints each side's median and quartiles, the pairs
won (the i-th run of one side against the i-th of the other) and a
verdict under the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- either side's spread (inter-quartile distance over
  median) is wider than the bound, unless every new run beats, or loses
  to, every base run;
* ``worse`` -- the new median is worse by more than the bound;
* ``better`` -- the new side wins at least nine tenths of the pairs and
  the medians differ by more than the base side's inter-quartile
  distance;
* ``unchanged`` -- otherwise.

Per-layer metrics have no bound; they get ``better``/``worse``/
``unchanged`` by the pairs rule alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from perfbench.stats import quartiles, spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path) -> dict:
    """``{(workload, metric): [values in run order]}`` from one history file."""
    runs: dict = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs[(record["workload"], name)].append(metric["value"])
    return runs


def directions(benchmark: dict) -> dict[str, tuple[str, float | None]]:
    """``{metric: (better, bound)}`` from a ``BENCHMARK.json`` document."""
    found = {}
    for metric in benchmark["end_to_end"]:
        found[metric["name"]] = (metric["better"], metric["bound"])
    for metric in benchmark["per_layer"]:
        found[metric["name"]] = (metric["better"], None)
    return found


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> dict:
    """Summary and verdict for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    new_wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    base_wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    b1, b_med, b3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    all_worse = max(sign * n for n in new) < min(sign * b for b in base)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0

    if bound is not None and max(spread(base), spread(new)) > bound \
            and not (all_better or all_worse):
        outcome = "unresolved"
    elif bound is not None and change < -bound:
        outcome = "worse"
    elif pairs and new_wins >= 0.9 * len(pairs) and abs(n_med - b_med) > b3 - b1:
        outcome = "better"
    elif bound is None and pairs and base_wins >= 0.9 * len(pairs) \
            and abs(n_med - b_med) > b3 - b1:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {
        "base": quartiles(base), "new": quartiles(new),
        "new_wins": new_wins, "base_wins": base_wins, "pairs": len(pairs),
        "change": change, "verdict": outcome,
    }


def compare(base_runs: dict, new_runs: dict, metric_info: dict) -> list[dict]:
    rows = []
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, name = key
        better, bound = metric_info.get(name, ("lower", None))
        row = verdict(base_runs[key], new_runs[key], better, bound)
        rows.append({"workload": workload, "metric": name, **row})
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    info = directions(json.loads(BENCHMARK.read_text(encoding="utf-8")))
    rows = compare(load_runs(args.base), load_runs(args.new), info)
    print(f"{'workload':8s} {'metric':28s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'wins new/base':>13s}  verdict")
    for row in rows:
        print(f"{row['workload']:8s} {row['metric']:28s} {_fmt(row['base']):34s} "
              f"{_fmt(row['new']):34s} {row['new_wins']:>6d}/{row['base_wins']:<6d}"
              f"  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
