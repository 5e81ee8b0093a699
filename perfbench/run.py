"""The repository's benchmark: one workload per call, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {fit,serve,stream} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced and traced
and prints every per-layer metric (see ``workloads.py`` and
``tracer.py``).  The last line of standard output is::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

Hang guard: the workload runs in a child process group under a
timeout; a stall kills the group and fails the run instead of hanging.

Each run appends a record (result plus environment: CPUs, kernel
backend, ``OMP_*``/``REPRO_KERNELS``, Python and NumPy versions, commit
or source digest, ``src/`` line count, seed) to
``.bench_build/perfbench/history.jsonl``; ``python3 -m perfbench.compare``
reads those.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
HISTORY = WORK / "history.jsonl"

#: A workload that runs longer than this is treated as hung.
WORKLOAD_TIMEOUT_S = 160.0


def _source_files() -> list[Path]:
    src = ROOT / "src"
    return sorted(p for p in src.rglob("*") if p.suffix in (".py", ".c") and p.is_file())


def _environment(seed: int) -> dict:
    files = _source_files()
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("OMP_") or k == "REPRO_KERNELS"},
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_worker(args, out: Path) -> dict | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # compiled kernels are cached inside the checkout
    env.setdefault("REPRO_KERNELS_CACHE", str(WORK / "kernels"))
    argv = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(WORK), "--out", str(out),
    ]
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} hung for {WORKLOAD_TIMEOUT_S:.0f}s; killed",
              file=sys.stderr)
        return None
    finally:
        _stop_group(proc)
    if code != 0 or not out.exists():
        print(f"workload {args.workload} exited with code {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fit", "serve", "stream"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    # a SIGTERM unwinds through _run_worker, which then kills the group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    result = _run_worker(args, out)
    out.unlink(missing_ok=True)

    if result is None:
        # a stall or crash fails every operation of the run
        line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        record = {"workload": args.workload, "trace": args.trace, **line,
                  "environment": _environment(args.seed)}
    else:
        attempted, failed = result["attempted"], result["failed"]
        if args.trace:
            metrics = result["layers"]
        else:
            metrics = dict(result["metrics"])
            metrics["success_share"] = {
                "value": 1.0 - failed / attempted, "unit": "ratio"}
        line = {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
        record = {"workload": args.workload, "trace": args.trace, **line,
                  "notes": result["notes"],
                  "environment": {**_environment(args.seed),
                                  **result["environment"]}}
    record["time"] = time.time()
    record["seconds"] = args.seconds
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    for name, metric in sorted(line["metrics"].items()):
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"notes        {json.dumps(record.get('notes', {}))}")
    print(f"environment  {json.dumps(record['environment'])}")
    print(json.dumps(line))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
