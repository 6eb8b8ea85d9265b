"""ModelServer behaviour: bit-exactness, concurrency, shutdown, registry."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.design_flow import clear_flow_cache, training_run_count
from repro.core.flow_executor import FlowResultCache
from repro.perf.engines import available_engines
from repro.serve.registry import ModelRegistry, parse_model_name
from repro.serve.server import ModelServer, ServerClosed

from .conftest import MODEL_NAME, make_served_model


# --------------------------------------------------------------------------- #
# Bit-exactness vs the direct run_batch path
# --------------------------------------------------------------------------- #
def test_served_predictions_match_run_batch(server, sequential_design, request_rows):
    """Everything served equals design.simulate_batch (= run_batch) exactly."""
    expected_ids = sequential_design.simulate_batch(request_rows)
    expected_labels = sequential_design.model.classes[expected_ids]

    bulk = server.predict_many(MODEL_NAME, request_rows)
    assert bulk["class_ids"] == [int(i) for i in expected_ids]
    assert bulk["predictions"] == expected_labels.tolist()

    for row, want_id, want_label in zip(request_rows[:5], expected_ids, expected_labels):
        single = server.predict(MODEL_NAME, row)
        assert single["class_id"] == int(want_id)
        assert single["prediction"] == want_label.item()
        assert single["latency_ms"] >= 0.0


def test_empty_batch_served(server):
    out = server.predict_many(MODEL_NAME, [])
    assert out["class_ids"] == []
    assert out["predictions"] == []
    assert out["n_samples"] == 0


def test_single_predict_rejects_bulk_payload(server, request_rows):
    with pytest.raises(ValueError, match="exactly one sample"):
        server.predict(MODEL_NAME, request_rows[:2])


def test_wrong_feature_count_rejected(server):
    with pytest.raises(ValueError, match="features"):
        server.predict_many(MODEL_NAME, np.zeros((3, 2)))


def test_oversized_bulk_split_across_micro_batches(registry, request_rows, sequential_design):
    """A bulk request far beyond max_batch_size is chunked but bit-exact."""
    rows = np.tile(request_rows, (20, 1))  # hundreds of rows
    with ModelServer(registry, max_batch_size=16, max_latency_ms=0.0) as server:
        out = server.predict_many(MODEL_NAME, rows)
        stats = server.stats()["models"][MODEL_NAME]
    expected = sequential_design.simulate_batch(rows)
    assert out["class_ids"] == [int(i) for i in expected]
    assert stats["batches_total"] >= int(np.ceil(rows.shape[0] / 16))
    assert stats["mean_batch_size"] <= 16


def test_concurrent_clients_one_server(registry, request_rows, sequential_design):
    """Many client threads hammer one server; every answer is bit-exact."""
    expected = sequential_design.simulate_batch(request_rows)
    n_clients = 8
    errors = []

    with ModelServer(registry, max_batch_size=32, max_latency_ms=1.0) as server:

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(30):
                    i = int(rng.integers(0, request_rows.shape[0]))
                    out = server.predict(MODEL_NAME, request_rows[i])
                    if out["class_id"] != int(expected[i]):
                        errors.append((i, out["class_id"], int(expected[i])))
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(seed,), daemon=True)
            for seed in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stats = server.stats()["models"][MODEL_NAME]

    assert errors == []
    assert stats["requests_total"] == n_clients * 30
    assert stats["samples_total"] == n_clients * 30
    assert stats["latency_p50_ms"] <= stats["latency_p99_ms"]
    assert 0.0 <= stats["batch_occupancy"] <= 1.0


def test_graceful_shutdown_completes_in_flight_requests(sequential_design, request_rows):
    """shutdown(drain=True) lets queued work finish; new requests fail fast."""
    design = sequential_design

    def slow_kernel(X):
        time.sleep(0.005)
        return design.simulate_batch(X)

    registry = ModelRegistry()
    registry.register(make_served_model(design, batch_fn=slow_kernel))
    server = ModelServer(registry, max_batch_size=4, max_latency_ms=0.0)

    futures = [server.submit(MODEL_NAME, request_rows[i]) for i in range(20)]
    server.shutdown(drain=True)

    expected = design.simulate_batch(request_rows[:20])
    got = [future.result(timeout=10.0)[0] for future in futures]
    assert got == [int(i) for i in expected]
    with pytest.raises(ServerClosed):
        server.predict(MODEL_NAME, request_rows[0])
    server.shutdown()  # idempotent


def test_submit_many_is_bit_exact(server, sequential_design, request_rows):
    futures = server.submit_many(MODEL_NAME, request_rows)
    got = np.concatenate([future.result(timeout=10.0) for future in futures])
    assert np.array_equal(got, sequential_design.simulate_batch(request_rows))


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_parse_model_name_accepts_both_separators():
    assert parse_model_name("redwine/ours") == ("redwine", "ours")
    assert parse_model_name("redwine:ours") == ("redwine", "ours")


@pytest.mark.parametrize(
    "bad", ["redwine", "nope/ours", "redwine/nope", "redwine-ours"]
)
def test_parse_model_name_rejects_malformed_names(bad):
    with pytest.raises(ValueError):
        parse_model_name(bad)


def test_registry_register_and_names(registry, served_model):
    assert registry.names() == [MODEL_NAME]
    assert registry.get(MODEL_NAME) is served_model


def test_registry_trains_then_loads_from_persistent_cache(tmp_path, tiny_flow_config):
    """Cold get() trains; a fresh registry over the same cache retrains nothing."""
    cache = FlowResultCache(tmp_path)
    clear_flow_cache()

    before = training_run_count()
    first = ModelRegistry(config=tiny_flow_config, cache=cache).get("redwine/ours")
    trained = training_run_count() - before
    assert trained >= 1
    assert first.backend == "datapath.run_batch"
    # /models lists the simulation engines this host can run.
    assert first.info["simulation_engines"] == list(available_engines())
    assert first.info["simulation_engines"][0] == "auto"
    assert set(first.info["simulation_engines"]) <= {"auto", "native"}

    clear_flow_cache()  # drop the in-process layer; only the disk cache remains
    before = training_run_count()
    loader = ModelRegistry(config=tiny_flow_config, cache=cache, opt_level=2)
    second = loader.get("redwine/ours")
    assert training_run_count() - before == 0  # loaded, not retrained
    assert np.array_equal(second.classes, first.classes)
    # opt_level annotates the loaded model with optimized-vs-raw MAC gates.
    assert second.info["mac_opt_level"] == 2
    assert 0 < second.info["mac_gates_optimized"] <= second.info["mac_gates_raw"]
    assert "mac_gates_raw" in second.metadata()
