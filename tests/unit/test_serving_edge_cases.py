"""Edge-of-the-protocol serving tests: raw sockets, bad framing, crashes.

The main server/manager suites drive the happy paths and the typed error
mapping through :class:`ServingClient`.  This module pins the layers
underneath: HTTP framing errors that never reach the router (malformed
request line, bad ``Content-Length``, oversized bodies), a bad group
label refused with a 400 before it is queued, the
``Connection: close`` handshake, a corrupt on-disk checkpoint surfacing
as a 500, the in-process ``run_server`` SIGTERM drain, and the
:class:`ServerThread` lifecycle errors.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import socket
import threading

import numpy as np
import pytest

from repro.serving import (
    ManagerConfig,
    ServerThread,
    ServingClient,
    ServingRequestError,
    ServingServer,
    SessionManager,
    run_server,
)

K = 3
GROUPS = [0, 1]


def _config(tmp_path, **overrides):
    defaults = dict(state_dir=tmp_path / "state", max_live=4, max_batch=32,
                    flush_ms=5.0)
    defaults.update(overrides)
    return ManagerConfig(**defaults)


def _rows(count, offset=0):
    features = [[float(offset + i), float(i % 5)] for i in range(count)]
    groups = [(offset + i) % len(GROUPS) for i in range(count)]
    return features, groups


def _raw_exchange(port, payload):
    """Send raw bytes, read until the server closes; returns latin-1 text."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.settimeout(10)
        sock.sendall(payload)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks).decode("latin-1")


@pytest.fixture()
def server(tmp_path):
    with ServerThread(_config(tmp_path)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServingClient("127.0.0.1", server.port) as serving_client:
        yield serving_client


class TestHttpFraming:
    def test_malformed_request_line_gets_400(self, server):
        response = _raw_exchange(server.port, b"NONSENSE\r\n\r\n")
        assert response.startswith("HTTP/1.1 400 ")
        assert "malformed request line" in response

    def test_bad_content_length_gets_400(self, server):
        response = _raw_exchange(
            server.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        )
        assert response.startswith("HTTP/1.1 400 ")
        assert "bad Content-Length" in response

    def test_oversized_body_gets_413(self, server):
        response = _raw_exchange(
            server.port,
            b"POST /sessions HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
        )
        assert response.startswith("HTTP/1.1 413 ")

    def test_connection_close_header_is_honoured(self, server):
        response = _raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert response.startswith("HTTP/1.1 200 ")
        assert "Connection: close" in response
        assert '"status": "ok"' in response

    def test_non_object_json_body_gets_400(self, client):
        status, body = client.request("POST", "/sessions", None)
        del status, body  # warm the connection; the raw call is below
        payload = b"[1, 2, 3]"
        head = (
            f"POST /sessions HTTP/1.1\r\nContent-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        response = _raw_exchange(client._port, head + payload)
        assert "HTTP/1.1 400 " in response
        assert "must be an object" in response

    def test_method_not_allowed_on_session_resource(self, client):
        client.create_session(name="pinned", k=K, groups=GROUPS)
        status, body = client.request("PUT", "/sessions/pinned")
        assert status == 405
        assert "not allowed" in body["error"]

    @pytest.mark.parametrize(
        "features, message",
        [
            ([["a", "b"], ["c", "d"]], "features must be numeric, but row 0"),
            ([[1.0, 2.0], [3.0]], "features must have one length per row, but row 1"),
        ],
        ids=["non-numeric", "ragged"],
    )
    def test_unconvertible_features_get_400_not_a_dead_connection(
        self, client, features, message
    ):
        client.create_session(name="typed", k=K, groups=GROUPS)
        status, body = client.request(
            "POST", "/sessions/typed/offer", {"features": features, "groups": [0, 1]},
        )
        assert status == 400
        assert message in body["error"]
        # Nothing was queued, and keep-alive survives the failed request.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queued_rows"] == 0

    @pytest.mark.parametrize(
        "column, bad",
        [("groups", 1.7), ("groups", float("nan")), ("uids", 1.7), ("uids", "a")],
        ids=["fractional", "nan", "uid-fractional", "uid-string"],
    )
    def test_bad_group_label_gets_400_at_accept_time(self, client, column, bad):
        client.create_session(name="labels", k=K, groups=GROUPS)
        features, groups = _rows(4)
        offer = {"features": features, "groups": groups, "uids": list(range(4))}
        offer[column][2] = bad
        status, body = client.request("POST", "/sessions/labels/offer", offer)
        assert status == 400
        assert f"{column} must hold integer labels, but row 2" in body["error"]
        # Nothing was queued, so the next flush has no bad batch to fail on.
        assert client.healthz()["queued_rows"] == 0
        features, groups = _rows(12)
        assert client.offer("labels", features, groups)["accepted"] == 12
        assert client.solution("labels")["elements_processed"] == 12


    @pytest.mark.parametrize(
        "column, bad",
        [
            ("groups", 1.7),
            ("groups", float("nan")),
            ("groups", np.float64(1.7)),
            ("groups", np.float64("nan")),
            ("uids", 1.7),
            ("uids", np.float64(1.7)),
        ],
        ids=["fractional", "nan", "numpy-fractional", "numpy-nan", "uid-fractional",
             "uid-numpy-fractional"],
    )
    def test_client_offer_sends_labels_as_given(self, client, column, bad):
        client.create_session(name="client-labels", k=K, groups=GROUPS)
        features, groups = _rows(4)
        columns = {"groups": groups, "uids": list(range(4))}
        columns[column][2] = bad
        with pytest.raises(ServingRequestError) as raised:
            client.offer("client-labels", features, **columns)
        assert raised.value.status == 400
        assert f"{column} must hold integer labels, but row 2" in str(raised.value)
        assert client.healthz()["queued_rows"] == 0

    @pytest.mark.parametrize(
        "labels",
        [
            [0.0, 1.0, 0.0, 1.0],
            [np.int64(0), np.int32(1), np.uint8(0), np.bool_(True)],
            np.array([0, 1, 0, 1]),
            np.array([0.0, 1.0, 0.0, 1.0]),
        ],
        ids=["integral-floats", "numpy-ints", "int-array", "float-array"],
    )
    def test_client_offer_accepts_integer_labels_in_any_form(self, client, labels):
        client.create_session(name="int-labels", k=K, groups=GROUPS)
        features, _ = _rows(4)
        assert client.offer("int-labels", features, labels)["accepted"] == 4
        assert client.solution("int-labels")["elements_processed"] == 4


class TestCorruptCheckpoint:
    def test_restoring_a_corrupt_checkpoint_is_a_500(self, tmp_path):
        config = _config(tmp_path, max_live=1)
        with ServerThread(config) as thread:
            client = ServingClient("127.0.0.1", thread.port)
            client.create_session(name="victim", k=K, groups=GROUPS)
            features, groups = _rows(40)
            client.offer("victim", features, groups=groups,
                         uids=np.arange(40))
            assert client.solution("victim")["succeeded"] is True
            # A second session evicts the first to disk; corrupt the file.
            client.create_session(name="usurper", k=K, groups=GROUPS)
            ckpt = config.state_dir / "victim.ckpt"
            assert ckpt.exists()
            ckpt.write_bytes(b"not a pickle at all")
            with pytest.raises(ServingRequestError) as info:
                client.solution("victim")
            assert info.value.status == 500
            assert "checkpoint" in str(info.value)


class TestServerObject:
    def test_properties_and_serve_forever(self, tmp_path):
        async def scenario():
            manager = SessionManager(_config(tmp_path))
            server = ServingServer(manager)
            assert server.manager is manager
            assert server.host == "127.0.0.1"
            assert server.port == 0  # not bound yet: the requested port
            task = asyncio.create_task(server.serve_forever())
            while server.port == 0:  # serve_forever binds lazily
                await asyncio.sleep(0.01)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            await server.stop(drain=False)

        asyncio.run(scenario())


class TestRunServerInProcess:
    def test_sigterm_drains_and_returns_zero(self, tmp_path, capsys):
        config = _config(tmp_path)
        timer = threading.Timer(
            0.75, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            code = run_server(config, host="127.0.0.1", port=0)
        finally:
            timer.cancel()
        assert code == 0
        output = capsys.readouterr().out
        assert "serving on http://127.0.0.1:" in output
        assert "drained 0 session(s)" in output


class TestServerThreadLifecycle:
    def test_not_running_accessors(self, tmp_path):
        thread = ServerThread(_config(tmp_path))
        with pytest.raises(RuntimeError):
            thread.port
        coro = asyncio.sleep(0)
        with pytest.raises(RuntimeError):
            thread.submit(coro)
        coro.close()
        assert thread.stop() == {}

    def test_running_accessors_and_double_start(self, tmp_path, server):
        assert server.base_url == f"http://127.0.0.1:{server.port}"
        assert server.manager.stats()["sessions"] == 0

        async def ping():
            return 7

        assert server.submit(ping()).result(timeout=10) == 7
        with pytest.raises(RuntimeError):
            server.start()

    def test_startup_failure_is_reported(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            taken_port = blocker.getsockname()[1]
            thread = ServerThread(_config(tmp_path), port=taken_port)
            with pytest.raises(RuntimeError, match="failed to start"):
                thread.start()
        finally:
            blocker.close()


class TestManagerSurface:
    def test_config_names_and_stale_checkpoint_cleanup(self, tmp_path):
        async def scenario():
            config = _config(tmp_path, max_live=1)
            manager = SessionManager(config)
            assert manager.config is config
            await manager.create(name="a", k=K, groups=GROUPS)
            await manager.create(name="b", k=K, groups=GROUPS)  # evicts a
            assert manager.names() == ["a", "b"]
            stale = config.state_dir / "a.ckpt"
            assert stale.exists()
            # Closing without checkpoint=True removes the eviction file.
            await manager.close("a", checkpoint=False)
            assert not stale.exists()
            await manager.shutdown()

        asyncio.run(scenario())
