"""Run one workload in this process and write its result as JSON.

Started by ``run.py`` in a process group of its own, so a stalled
workload (and any server it launched) can be killed as a whole.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from perfbench import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    run = workloads.WORKLOADS[args.workload]
    result = run(args.seed, args.seconds, bool(args.trace), args.work)

    import numpy

    from repro import kernels

    result["environment"] = {
        "kernels": kernels.active_backend(),
        "numpy": numpy.__version__,
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
