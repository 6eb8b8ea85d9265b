"""Closed-loop HTTP load generator: plain ``http.client``, one connection per client.

Each client thread holds one keep-alive HTTP/1.1 connection and sends its
next request only after the previous answer arrived.  Request bodies are
encoded before the phase starts, so the timed loop only picks a body, sends
it, reads the answer and checks the returned class id.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import List, Sequence, Tuple

from perfbench.harness import Phase


def check_prediction(status: int, payload: bytes, expected_id: int) -> bool:
    """A ``/predict`` answer is correct: HTTP 200 and the expected class id."""
    if status != 200:
        return False
    try:
        return int(json.loads(payload)["class_id"]) == int(expected_id)
    except (ValueError, KeyError, TypeError):
        return False


def request_plan(seed: int, client: int) -> random.Random:
    """The seeded stream a client draws its request indices from."""
    return random.Random(seed * 1_000_003 + client)


def closed_loop(
    host: str,
    port: int,
    bodies: Sequence[Tuple[bytes, int]],
    seconds: float,
    seed: int,
    clients: int = 2,
    recorder=None,
) -> Phase:
    """Run ``clients`` closed-loop clients for ``seconds``.

    ``bodies`` are ``(encoded request, expected class id)`` pairs; each
    client draws them from its own seeded stream.  With a ``recorder`` each
    request/response exchange is recorded as a ``serve.http`` span.
    """
    phase = Phase()
    lock = threading.Lock()
    errors: List[str] = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    headers = {"Content-Type": "application/json"}

    def client(index: int) -> None:
        rng = request_plan(seed, index)
        conn = http.client.HTTPConnection(host, port, timeout=60)
        local = Phase()
        try:
            while True:
                body, expected = bodies[rng.randrange(len(bodies))]
                op_start = time.perf_counter_ns()
                span = recorder.open("serve.http") if recorder is not None else None
                try:
                    conn.request("POST", "/predict", body=body, headers=headers)
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    status, payload = 0, b""
                    with lock:
                        errors.append(f"{type(error).__name__}: {error}")
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60)
                finally:
                    if span is not None:
                        recorder.close(span)
                ok = check_prediction(status, payload, expected)
                op_end = time.perf_counter_ns()
                local.add(op_start, op_end, 1.0, ok)
                if op_end >= deadline:
                    break
        finally:
            conn.close()
            with lock:
                phase.latencies_s.extend(local.latencies_s)
                phase.windows.extend(local.windows)
                phase.work += local.work
                phase.attempted += local.attempted
                phase.failed += local.failed
                phase.end_ns = max(phase.end_ns, local.windows[-1][1] if local.windows else 0)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.start_ns = start
    if not phase.end_ns:
        phase.end_ns = time.perf_counter_ns()
    for line in errors[:5]:
        print(f"request failed: {line}", flush=True)
    return phase
