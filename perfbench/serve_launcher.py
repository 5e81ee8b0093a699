"""Run ``repro serve`` with the benchmark's tracing wrappers installed.

Usage::

    python3 -m perfbench.serve_launcher SPANS.json serve MODEL --http 0 ...

Everything after ``SPANS.json`` is passed to ``repro.cli.main``.  The
server's spans are written to ``SPANS.json`` once it has drained and
exited (SIGTERM), so the client can join them to its own by request id.
"""

from __future__ import annotations

import sys

from perfbench.tracer import Tracer, instrument

#: Server span ids start here, apart from the client's.
SERVER_ID_BASE = 10**9


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(id_base=SERVER_ID_BASE)
    instrument(tracer)
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
