"""Open- and closed-loop request generators over a ``send(i)`` callable.

Open loop: request ``i`` is due at ``start + i / rate`` whatever happened
to earlier requests, and its latency runs from that due time, so a stall
also charges the wait it imposes on every later request.  A fixed pool
of sender threads (the client's connections) picks requests in due
order; a sender that is free before a request is due sleeps until then,
and how late it sends is the generator's own lateness.  A request that
falls due while every connection is busy is backlog, which the latency
already counts.

``send(i)`` performs request ``i`` and returns whether it succeeded
(right answer, in time); a raised exception counts as a failure.
"""

from __future__ import annotations

import threading
import time


def _outcome(send, i: int, due: float, ready: bool) -> dict:
    sent = time.perf_counter()
    try:
        ok = bool(send(i))
    except Exception:  # noqa: BLE001 - any transport error is a failed request
        ok = False
    return {"i": i, "due": due, "sent": sent, "done": time.perf_counter(),
            "ok": ok, "ready": ready}


def _run_senders(target, connections: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(send, rate: float, count: int, connections: int,
              first_index: int = 0) -> list[dict]:
    """Send ``count`` requests due at ``rate`` per second; outcomes in due order."""
    outcomes: list[dict] = []
    lock = threading.Lock()
    cursor = iter(range(count))
    start = time.perf_counter()

    def sender() -> None:
        free_since = float("-inf")
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                return
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # this connection was idle when the request fell due
            outcome = _outcome(send, first_index + k, due, free_since <= due)
            free_since = outcome["done"]
            with lock:
                outcomes.append(outcome)

    _run_senders(sender, connections)
    outcomes.sort(key=lambda o: o["due"])
    return outcomes


def closed_loop(send, seconds: float, connections: int,
                first_index: int = 0) -> list[dict]:
    """Each connection sends its next request as soon as the last one answers."""
    outcomes: list[dict] = []
    lock = threading.Lock()
    counter = iter(range(first_index, first_index + 10**9))
    stop = time.perf_counter() + seconds

    def sender() -> None:
        while time.perf_counter() < stop:
            with lock:
                i = next(counter)
            outcome = _outcome(send, i, time.perf_counter(), False)
            with lock:
                outcomes.append(outcome)

    _run_senders(sender, connections)
    outcomes.sort(key=lambda o: o["due"])
    return outcomes


def latencies_ms(outcomes: list[dict]) -> list[float]:
    """Due-to-done latency of each request, in ms."""
    return [(o["done"] - o["due"]) * 1000.0 for o in outcomes]


def lateness_ms(outcomes: list[dict]) -> list[float]:
    """How late the generator sent each request it was waiting to send."""
    return [max(0.0, (o["sent"] - o["due"]) * 1000.0) for o in outcomes if o["ready"]]

