"""The pre-fork fleet: placement, bit-exactness, stats, drain, crash recovery.

The fleet tests fork a supervisor and its children (``spawn_fleet``), so
they rely on ``fork`` (hand-registered test models inherit across it
without pickling), available on every POSIX platform CI runs on.  The
frame transport the job service speaks is tested here too.
"""

from __future__ import annotations

import contextlib
import errno
import multiprocessing
import os
import select
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import worker
from repro.serve.client import HTTPClient, HTTPError
from repro.serve.registry import ModelRegistry
from repro.serve.transport import (
    MSG_CONTROL,
    MSG_REQUEST,
    MSG_RESPONSE,
    FrameConnection,
    TransportError,
)
from repro.serve.worker import Supervisor, spawn_fleet, stop_fleet

from .conftest import make_served_model

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet tests hand models across os.fork()",
)

#: The >=4-model mix the fleet tests serve.
FLEET_MODELS = ("mix/a", "mix/b", "mix/c", "mix/d")


@pytest.fixture()
def fleet_registry(sequential_design):
    """Four hand-registered copies of the test design under distinct names."""
    registry = ModelRegistry()
    for name in FLEET_MODELS:
        registry.register(make_served_model(sequential_design, name=name))
    return registry


@contextlib.contextmanager
def running_fleet(registry, models=FLEET_MODELS, workers=2, **knobs):
    """A ready fleet over ``registry``: yields ``(supervisor pid, url)``."""
    knobs.setdefault("max_batch_size", 16)
    knobs.setdefault("max_latency_ms", 1.0)
    pid, url = spawn_fleet(registry, models, workers, **knobs)
    try:
        with HTTPClient(url) as probe:
            probe.wait_ready(timeout_s=30.0)
        yield pid, url
    finally:
        stop_fleet(pid)


def slow_registry(design, names, delay_s, started_fd=None):
    """``names`` served by a kernel that sleeps ``delay_s`` per micro-batch,
    writing one byte to ``started_fd`` (if given) as each call begins."""

    def slow_kernel(X):
        if started_fd is not None:
            os.write(started_fd, b"k")
        time.sleep(delay_s)
        return design.simulate_batch(X)

    registry = ModelRegistry()
    for name in names:
        registry.register(make_served_model(design, name=name, batch_fn=slow_kernel))
    return registry


def _running(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# --------------------------------------------------------------------------- #
# Transport framing
# --------------------------------------------------------------------------- #
def test_frame_round_trip_preserves_kinds_and_payloads():
    left_sock, right_sock = socket.socketpair()
    left, right = FrameConnection(left_sock), FrameConnection(right_sock)
    rows = np.arange(12, dtype=float).reshape(3, 4)
    left.send(MSG_REQUEST, (7, "mix/a", "ids", rows))
    left.send(MSG_CONTROL, (8, "ping", None))
    kind, body = right.recv()
    assert kind == MSG_REQUEST
    assert body[0] == 7 and body[1] == "mix/a" and body[2] == "ids"
    assert np.array_equal(body[3], rows)
    assert right.recv() == (MSG_CONTROL, (8, "ping", None))
    right.send(MSG_RESPONSE, (7, np.zeros(3, dtype=np.int64)))
    kind, (req_id, payload) = left.recv()
    assert kind == MSG_RESPONSE and req_id == 7 and payload.dtype == np.int64
    left.close()
    right.close()


def test_clean_eof_is_none_torn_frame_raises():
    left_sock, right_sock = socket.socketpair()
    left, right = FrameConnection(left_sock), FrameConnection(right_sock)
    left.close()
    assert right.recv() is None  # peer closed at a frame boundary

    left_sock, right_sock = socket.socketpair()
    # A header announcing 100 payload bytes, then death mid-frame.
    left_sock.sendall(b"\x01\x00\x00\x00\x64partial")
    left_sock.close()
    with pytest.raises(TransportError):
        FrameConnection(right_sock).recv()


def test_send_on_closed_connection_raises_oserror():
    left_sock, _right_sock = socket.socketpair()
    conn = FrameConnection(left_sock)
    conn.close()
    with pytest.raises(OSError):
        conn.send(MSG_CONTROL, (1, "ping", None))


# --------------------------------------------------------------------------- #
# Hand-off
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "error, child_lost",
    [
        (OSError(errno.ETOOMANYREFS, "Too many references"), False),
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), True),
        (ConnectionResetError(errno.ECONNRESET, "Connection reset"), True),
    ],
)
def test_hand_off_error_drops_a_child_only_when_it_is_gone(
    monkeypatch, error, child_lost
):
    """A hand-off that fails because the child's end is closed marks it lost;
    any other failure drops just that connection and leaves the child alone."""

    def failing_send(sock, message, fds=()):
        raise error

    with socket.create_server(("127.0.0.1", 0)) as listener:
        supervisor = Supervisor(ModelRegistry(), [], 1, listener)
        child = supervisor.children[0]
        child.pid = os.getpid()  # never signalled: _lost is recorded, not run
        lost = []
        monkeypatch.setattr(worker, "_send", failing_send)
        monkeypatch.setattr(supervisor, "_lost", lost.append)
        with socket.create_connection(listener.getsockname()) as client:
            supervisor._accept()
            client.settimeout(5.0)
            assert client.recv(1) == b""  # the supervisor closed its copy
    assert lost == ([child] if child_lost else [])


# --------------------------------------------------------------------------- #
# Placement and bit-exactness
# --------------------------------------------------------------------------- #
@needs_fork
def test_two_keep_alive_clients_land_on_different_children(fleet_registry, request_rows):
    """Clients that connect at the same instant are served by different
    children: the supervisor hands connections out in turn, instead of the
    children racing on one accept socket (where one child can win both)."""
    with running_fleet(fleet_registry, models=FLEET_MODELS[:1]) as (_pid, url):
        clients = [HTTPClient(url) for _ in range(2)]
        barrier = threading.Barrier(2)

        def connect(client):
            barrier.wait()
            client.healthz()  # opens the client's kept connection

        threads = [threading.Thread(target=connect, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        # A model outside the preloaded set opens its lane lazily, in
        # whichever child serves the connection that asks for it.
        for _ in range(5):
            for client, name in zip(clients, FLEET_MODELS[2:]):
                client.predict(name, list(request_rows[0]))
        workers = clients[0].stats()["workers"]
        for client in clients:
            client.close()
    lazily_opened = sorted(
        sorted(set(w["models"]) - {FLEET_MODELS[0]}) for w in workers
    )
    assert lazily_opened == [[FLEET_MODELS[2]], [FLEET_MODELS[3]]]


@needs_fork
def test_fleet_bit_identical_to_single_process_oracle(
    fleet_registry, sequential_design, request_rows
):
    """Single, bulk and empty-bulk predicts equal ``simulate_batch`` on every
    model: every child is the single-process server."""
    expected = sequential_design.simulate_batch(request_rows)
    labels = sequential_design.model.classes[expected]
    with running_fleet(fleet_registry) as (_pid, url), HTTPClient(url) as client:
        for name in FLEET_MODELS:
            bulk = client.predict_many(name, request_rows.tolist())
            assert bulk["class_ids"] == [int(i) for i in expected]
            assert bulk["predictions"] == labels.tolist()

            single = client.predict(name, list(request_rows[0]))
            assert single["class_id"] == int(expected[0])
            assert single["prediction"] == labels[0].item()
            assert single["latency_ms"] >= 0.0

            empty = client.predict_many(name, [])
            assert empty["class_ids"] == [] and empty["n_samples"] == 0


@needs_fork
def test_fleet_relays_validation_errors(fleet_registry, request_rows):
    with running_fleet(fleet_registry) as (_pid, url), HTTPClient(url) as client:
        with pytest.raises(HTTPError, match="exactly one sample") as err:
            client._request(
                "/predict",
                {"model": FLEET_MODELS[0], "features": request_rows[:2].tolist()},
            )
        assert err.value.status == 400
        with pytest.raises(HTTPError, match="features") as err:
            client.predict_many(FLEET_MODELS[0], np.zeros((3, 2)).tolist())
        assert err.value.status == 400
        with pytest.raises(HTTPError) as err:
            client.predict("not-a/model", list(request_rows[0]))
        assert err.value.status == 400
        # The failed lookup must not open a lane for the bogus name.
        assert all(
            "not-a/model" not in w["models"] for w in client.stats()["workers"]
        )


# --------------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------------- #
@needs_fork
def test_fleet_graceful_drain_completes_in_flight_requests(
    sequential_design, request_rows
):
    """SIGTERM to the supervisor answers the requests already in a kernel,
    then every process exits and the port stops accepting."""
    started_r, started_w = os.pipe()
    registry = slow_registry(
        sequential_design, FLEET_MODELS[:2], delay_s=0.5, started_fd=started_w
    )
    expected = sequential_design.simulate_batch(request_rows[:2])
    pid, url = spawn_fleet(registry, FLEET_MODELS[:2], 2, max_latency_ms=0.0)
    os.close(started_w)
    try:
        with HTTPClient(url) as probe:
            probe.wait_ready(timeout_s=30.0)
        answers = {}

        def send(i):
            with HTTPClient(url) as client:
                answers[i] = client.predict(FLEET_MODELS[i], list(request_rows[i]))

        threads = [threading.Thread(target=send, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        # One kernel call per model (separate lanes): both requests are in
        # flight once two bytes arrive.
        started = b""
        deadline = time.monotonic() + 30.0
        while len(started) < 2 and select.select(
            [started_r], [], [], max(deadline - time.monotonic(), 0.0)
        )[0]:
            started += os.read(started_r, 2 - len(started))
        assert started == b"kk"
        assert stop_fleet(pid) == 0
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [answers[i]["class_id"] for i in range(2)] == [int(i) for i in expected]
        with pytest.raises(ConnectionError):
            HTTPClient(url, retries=0).healthz()
    finally:
        os.close(started_r)
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            stop_fleet(pid)


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process state from /proc")
def test_supervisor_sigkill_leaves_no_child_running(fleet_registry):
    """Children read EOF when the supervisor dies, even by SIGKILL, and exit."""
    pid, url = spawn_fleet(fleet_registry, FLEET_MODELS, 2)
    try:
        with HTTPClient(url) as client:
            client.wait_ready(timeout_s=30.0)
            children = [w["pid"] for w in client.stats()["workers"]]
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    deadline = time.monotonic() + 30.0
    while any(_running(child) for child in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_running(child) for child in children)


# --------------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------------- #
@needs_fork
def test_worker_crash_mid_load_restarts_and_loses_nothing(
    sequential_design, request_rows
):
    """SIGKILL a child while two clients send predicts: every request still
    succeeds (clients resend on a fresh connection), the supervisor counts
    one restart, and the replacement serves."""
    registry = slow_registry(sequential_design, FLEET_MODELS, delay_s=0.004)
    rows = request_rows[:8]
    expected = [int(i) for i in sequential_design.simulate_batch(rows)]
    with running_fleet(
        registry, models=FLEET_MODELS[:2], max_batch_size=8, max_latency_ms=0.0
    ) as (_pid, url):
        with HTTPClient(url) as probe:
            victim = probe.stats()["workers"][0]
        errors, answers = [], []
        stop = threading.Event()

        def load(name):
            with HTTPClient(url) as client:
                i = 0
                while not stop.is_set():
                    try:
                        out = client.predict(name, list(rows[i % len(rows)]))
                        answers.append(out["class_id"] == expected[i % len(rows)])
                    except Exception as error:  # any failure fails the test
                        errors.append(error)
                    i += 1

        threads = [threading.Thread(target=load, args=(n,)) for n in FLEET_MODELS[:2]]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        os.kill(victim["pid"], signal.SIGKILL)
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers and all(answers)

        with HTTPClient(url) as probe:
            assert probe.wait_ready(timeout_s=30.0)["ready"] is True
            # Fresh connections go to each child in turn, so the
            # replacement opens a lane for a model nobody asked for yet.
            for _ in range(2):
                with HTTPClient(url) as fresh:
                    fresh.predict(FLEET_MODELS[3], list(rows[0]))
            after = probe.stats()["workers"][0]
    assert after["restarts"] == 1
    assert after["alive"] and after["ready"]
    assert after["pid"] != victim["pid"]
    assert FLEET_MODELS[3] in after["models"]


@needs_fork
def test_fleet_ready_reflects_worker_health(fleet_registry):
    """``/healthz`` is ready once every child reported ready, and again once
    a killed child's replacement has."""
    with running_fleet(fleet_registry) as (_pid, url), HTTPClient(url) as client:
        assert client.healthz()["ready"] is True
        workers = client.stats()["workers"]
        assert all(w["alive"] and w["ready"] for w in workers)
        os.kill(workers[1]["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            replaced = client.stats()["workers"][1]
            if replaced["restarts"] == 1 and replaced["ready"]:
                break
            time.sleep(0.01)
        assert replaced["pid"] != workers[1]["pid"]
        assert client.wait_ready(timeout_s=30.0)["ready"] is True


# --------------------------------------------------------------------------- #
# Fleet-wide /stats
# --------------------------------------------------------------------------- #
@needs_fork
def test_fleet_stats_aggregate_across_workers(fleet_registry, request_rows):
    """Counters add up across children; every child serves every model."""
    per_model = {name: 3 + i for i, name in enumerate(FLEET_MODELS)}
    with running_fleet(fleet_registry) as (_pid, url):
        clients = [HTTPClient(url) for _ in range(2)]  # one per child
        for name, n in per_model.items():
            for i in range(n):
                clients[i % 2].predict(name, list(request_rows[i]))
        stats = clients[0].stats()
        for client in clients:
            client.close()

    assert stats["workers_configured"] == 2
    assert len(stats["workers"]) == 2
    for worker in stats["workers"]:
        assert worker["alive"] and worker["ready"]
        assert worker["restarts"] == 0
        assert worker["uptime_s"] > 0.0
        assert sorted(worker["models"]) == sorted(FLEET_MODELS)
    for name, n in per_model.items():
        snap = stats["models"][name]
        assert snap["requests_total"] == n
        assert snap["samples_total"] == n
        assert snap["latency_samples"] == n
        assert snap["latency_p50_ms"] <= snap["latency_p99_ms"]
    total = sum(s["requests_total"] for s in stats["models"].values())
    assert total == sum(per_model.values())
