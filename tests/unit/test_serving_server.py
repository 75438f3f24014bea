"""HTTP front-end tests: a real server on a real socket, per test module.

:class:`repro.serving.ServerThread` runs the asyncio server on a
background thread; the stdlib-based :class:`repro.serving.ServingClient`
talks to it over TCP, so these tests cover the full wire path — request
parsing, routing, JSON bodies, status mapping, keep-alive — not mocks.
"""

import json
import logging

import numpy as np
import pytest

from repro.datasets.synthetic import synthetic_blobs
from repro.serving import (
    ManagerConfig,
    ServerThread,
    ServingClient,
    ServingRequestError,
)

K = 4


@pytest.fixture(scope="module")
def data():
    dataset = synthetic_blobs(n=240, m=2, seed=17)
    features = np.asarray([element.vector for element in dataset.elements], dtype=float)
    groups = [int(element.group) for element in dataset.elements]
    return features, groups


@pytest.fixture()
def server(tmp_path):
    config = ManagerConfig(
        state_dir=tmp_path / "state",
        max_live=2,
        max_batch=64,
        flush_ms=5.0,
        max_queue=200,
    )
    with ServerThread(config) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServingClient("127.0.0.1", server.port) as connected:
        yield connected


def test_healthz_and_metrics(client):
    health = client.healthz()
    assert health["status"] == "ok" and health["sessions"] == 0
    metrics = client.metrics()
    assert metrics["repro.serving.sessions.active"] == 0
    assert "repro.serving.http.requests" in metrics


def test_full_session_roundtrip(client, data):
    features, groups = data
    name = client.create_session(k=K, groups=2, algorithm="SFDM2", name="round")
    receipt = client.offer(name, features[:100], groups=groups[:100])
    assert receipt["accepted"] == 100
    solution = client.solution(name)
    assert solution["succeeded"] is True
    assert len(solution["uids"]) == K
    assert solution["elements_processed"] == 100
    assert solution["is_fair"] is True
    assert solution["diversity"] > 0
    closed = client.close_session(name)
    assert closed["name"] == name
    health = client.healthz()
    assert health["sessions"] == 0


def test_eviction_over_http(client, server, data):
    features, groups = data
    for i in range(3):  # max_live=2: the third create evicts the LRU
        client.create_session(k=K, groups=2, name=f"e{i}")
    health = client.healthz()
    assert health["sessions"] == 3 and health["live"] == 2 and health["evicted"] == 1
    # the evicted session still answers (transparent restore)
    client.offer("e0", features[:80], groups=groups[:80])
    solution = client.solution("e0")
    assert solution["elements_processed"] == 80
    metrics = client.metrics()
    assert metrics["repro.serving.sessions.restored"] >= 1
    assert metrics["repro.serving.sessions.evicted"] >= 1


def test_status_codes(client, data):
    features, groups = data
    client.create_session(k=K, groups=2, name="codes")

    status, body = client.request("GET", "/sessions/ghost/solution")
    assert status == 404 and "ghost" in body["error"]

    status, body = client.request("POST", "/sessions", {"k": K, "groups": 2, "name": "codes"})
    assert status == 409 and "already exists" in body["error"]

    status, body = client.request("PUT", "/healthz")
    assert status == 405

    status, body = client.request("GET", "/nowhere")
    assert status == 404

    status, body = client.request("POST", "/sessions/codes/offer", {"rows": [[1.0]]})
    assert status == 400 and "features" in body["error"]

    status, body = client.request(
        "POST", "/sessions", {"k": K, "groups": 2, "name": "bad/name"}
    )
    assert status == 400

    status, body = client.request(
        "POST", "/sessions", {"k": K, "groups": 2, "algorithm": "NoSuchAlgo"}
    )
    assert status == 400


def test_backpressure_returns_429(client, data):
    features, groups = data
    # max_batch=64 would flush the queue, so go through in one giant offer
    client.create_session(k=K, groups=2, name="full")
    status, body = client.request(
        "POST",
        "/sessions/full/offer",
        {"features": features[:201].tolist(), "groups": groups[:201]},
    )
    assert status == 429
    assert "retry" in body["error"]


def test_malformed_json_is_400(client):
    status, body = client.request("POST", "/sessions", None)
    # empty body -> defaults; valid create with auto name
    assert status in (201, 400)
    conn = client._connection()
    conn.request(
        "POST",
        "/sessions",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    payload = json.loads(response.read())
    assert response.status == 400 and "JSON" in payload["error"]


def test_offer_single_bare_row(client):
    client.create_session(k=K, groups=2, name="bare")
    receipt = client.offer("bare", [[0.5, 1.5]], groups=[0])
    assert receipt["accepted"] == 1


def test_delete_with_checkpoint_flag(client, server, data, tmp_path):
    features, groups = data
    client.create_session(k=K, groups=2, name="kept")
    client.offer("kept", features[:70], groups=groups[:70])
    closed = client.close_session("kept", checkpoint=True)
    assert closed["checkpoint"] is not None
    import repro

    assert repro.resume(closed["checkpoint"]).elements_offered == 70


def test_stop_with_drain_checkpoints_sessions(tmp_path, data):
    features, groups = data
    config = ManagerConfig(state_dir=tmp_path / "drain", max_batch=64, flush_ms=5.0)
    server = ServerThread(config).start()
    try:
        client = ServingClient("127.0.0.1", server.port)
        for i in range(2):
            client.create_session(k=K, groups=2, name=f"dr{i}")
            client.offer(f"dr{i}", features[:50], groups=groups[:50])
        client.close()
    finally:
        checkpoints = server.stop(drain=True)
    assert sorted(checkpoints) == ["dr0", "dr1"]
    import repro

    for path in checkpoints.values():
        assert repro.resume(path).elements_offered == 50


def test_client_raises_typed_error(client):
    with pytest.raises(ServingRequestError) as info:
        client.solution("missing")
    assert info.value.status == 404


def test_default_algorithm_used_when_unnamed(client):
    name = client.create_session(k=K, groups=2)
    solutionless = client.request("GET", f"/sessions/{name}/solution")
    # no offers yet: the engine reports an empty-stream conflict
    assert solutionless[0] == 409


def test_non_finite_offer_is_a_400_and_the_tenant_keeps_answering(tmp_path, data):
    features, groups = data
    poisoned = features[:100].copy()
    poisoned[3, 1] = np.inf
    config = ManagerConfig(state_dir=tmp_path / "state", max_batch=64, flush_ms=5.0)
    with ServerThread(config) as running, ServingClient("127.0.0.1", running.port) as client:
        name = client.create_session(k=K, groups=2)
        with pytest.raises(ServingRequestError) as info:
            client.offer(name, poisoned, groups=groups[:100])
        assert info.value.status == 400
        assert "row 3" in str(info.value)
        assert client.offer(name, features[:100], groups=groups[:100])["accepted"] == 100
        answer = client.solution(name)
        assert answer["succeeded"] is True and answer["elements_processed"] == 100
        assert client.offer(name, features[100:120], groups=groups[100:120])["accepted"] == 20
        assert client.solution(name)["elements_processed"] == 120


def test_stopping_with_a_connection_open_logs_no_asyncio_error(tmp_path, caplog):
    """Shutdown cancels the open connection's handler; nothing reaches the log."""
    caplog.set_level(logging.DEBUG, logger="asyncio")
    for cycle in range(10):
        config = ManagerConfig(state_dir=tmp_path / f"state-{cycle}")
        running = ServerThread(config).start()
        client = ServingClient("127.0.0.1", running.port)
        assert client.healthz()["status"] == "ok"
        client.close()
        running.stop(drain=False)
    errors = [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert errors == []
