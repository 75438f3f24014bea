"""Stdlib-only HTTP/JSON front end over the :class:`SessionManager`.

A deliberately small HTTP/1.1 server on ``asyncio`` streams (no
third-party dependency), exposing the session lifecycle as five routes:

==========================================  ===================================
``POST /sessions``                          create a session (JSON body:
                                            ``k``, ``groups``, ``algorithm``,
                                            ``name``, ``epsilon``,
                                            ``fairness``, ``metric``,
                                            ``options``)
``POST /sessions/{name}/offer``             queue feature rows (``features``,
                                            optional ``groups``/``uids``);
                                            202 on accept, 429 on a full queue
``GET /sessions/{name}/solution``           flush + current best solution
``DELETE /sessions/{name}``                 close (``?checkpoint=1`` keeps a
                                            final checkpoint)
``GET /healthz`` / ``GET /metrics``         liveness summary / JSON dump of
                                            the process metrics registry
==========================================  ===================================

Connections are keep-alive (one request loop per connection); every
request runs under a ``serving.request`` span.  Note that when tracing is
enabled while requests are processed concurrently, spans of interleaved
requests may nest under each other — the tracer's stack is per-thread,
not per-task; traces remain structurally valid, just coarser.

Graceful shutdown: :func:`run_server` (the ``repro serve`` entry point)
installs SIGTERM/SIGINT handlers that stop accepting connections and
drain the manager — every live session is flushed and checkpointed to
``state_dir`` — before the process exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import sys
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro import obs
from repro.core.result import RunResult
from repro.serving.errors import (
    QueueFullError,
    SessionExistsError,
    SessionNotFoundError,
    TooManySessionsError,
)
from repro.serving.manager import METRIC_PREFIX, ManagerConfig, SessionManager
from repro.utils.errors import (
    CheckpointError,
    EmptyStreamError,
    InfeasibleConstraintError,
    InvalidParameterError,
    NoFeasibleSolutionError,
    ReproError,
)
from repro.utils.timer import Timer

#: Longest accepted request body, in bytes (64 MiB of JSON rows).
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Keys of a create-request body forwarded to ``SessionManager.create``.
_CREATE_KEYS = (
    "k",
    "groups",
    "algorithm",
    "epsilon",
    "fairness",
    "metric",
    "seed",
    "options",
)


class _HttpError(Exception):
    """Internal: abort request handling with a specific status + message."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


def solution_payload(result: RunResult) -> Dict[str, Any]:
    """A :class:`RunResult` as the JSON body of a solution response."""
    solution = result.solution
    stats = result.stats
    payload: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "succeeded": result.succeeded,
        "diversity": result.diversity,
        "uids": solution.uids if solution is not None else [],
        "elements_processed": stats.elements_processed,
        "stream_distance_computations": stats.stream_distance_computations,
        "postprocess_distance_computations": stats.postprocess_distance_computations,
        "stored_elements": stats.final_stored_elements,
        "params": {key: value for key, value in result.params.items()
                   if isinstance(value, (int, float, str, bool, type(None)))},
    }
    is_fair = getattr(solution, "is_fair", None)
    if is_fair is not None:
        payload["is_fair"] = bool(is_fair)
    return payload


class ServingServer:
    """The asyncio HTTP server; binds, serves, and drains one manager."""

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._manager = manager
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def manager(self) -> SessionManager:
        """The session manager this server fronts."""
        return self._manager

    @property
    def port(self) -> int:
        """The bound TCP port (the requested one, or the ephemeral pick)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (see :func:`run_server` for signals)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> Dict[str, str]:
        """Stop accepting connections; optionally drain (checkpoint) sessions."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            return await self._manager.drain()
        await self._manager.shutdown()
        return {}

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive connection until EOF or ``Connection: close``."""
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._write_response(
                        writer, error.status, {"error": error.message}, close=True
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                status, payload = await self._dispatch(method, path, query, body)
                close = headers.get("connection", "").lower() == "close"
                await self._write_response(writer, status, payload, close)
                if close:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection tasks; close
            # quietly instead of tripping the stream protocol's logger.
            pass
        finally:
            # Shutdown can cancel the task again while it waits for the
            # close.  A handler task that ends cancelled makes the stream
            # protocol's done-callback log an ERROR, so that wait ends
            # quietly too.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method.upper(), split.path, split.query, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        close: bool,
    ) -> None:
        """Serialize one JSON response with framing headers."""
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one request, translating typed errors to status codes."""
        metrics = obs.get_metrics()
        metrics.counter(f"{METRIC_PREFIX}.http.requests").inc()
        timer = Timer()
        try:
            with obs.span("serving.request", method=method, path=path), timer.measure():
                status, payload = await self._route(method, path, query, body)
        except _HttpError as error:
            status, payload = error.status, {"error": error.message}
        except SessionNotFoundError as error:
            status, payload = 404, {"error": str(error)}
        except (QueueFullError, TooManySessionsError) as error:
            status, payload = 429, {"error": str(error)}
        except SessionExistsError as error:
            status, payload = 409, {"error": str(error)}
        except (EmptyStreamError, NoFeasibleSolutionError,
                InfeasibleConstraintError) as error:
            status, payload = 409, {"error": str(error)}
        except InvalidParameterError as error:
            # Includes CheckpointError; a bad on-disk checkpoint is a
            # server-side failure, not a caller mistake.
            if isinstance(error, CheckpointError):
                status, payload = 500, {"error": str(error)}
            else:
                status, payload = 400, {"error": str(error)}
        except (ReproError, TypeError, ValueError, KeyError) as error:
            # A request must never take its connection down with it.
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        metrics.histogram(f"{METRIC_PREFIX}.http.ms").observe(timer.elapsed * 1000.0)
        if status >= 400:
            metrics.counter(f"{METRIC_PREFIX}.http.errors").inc()
        return status, payload

    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """The route table proper (raises typed errors; no HTTP concerns)."""
        if path == "/healthz":
            self._require_method(method, "GET", path)
            return 200, {"status": "ok", **self._manager.stats()}
        if path == "/metrics":
            self._require_method(method, "GET", path)
            return 200, self._manager.metrics_snapshot()
        if path == "/sessions":
            self._require_method(method, "POST", path)
            request = self._json_body(body)
            kwargs = {key: request[key] for key in _CREATE_KEYS if key in request}
            name = await self._manager.create(name=request.get("name"), **kwargs)
            return 201, {"name": name}
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] == "sessions":
            name = parts[1]
            if len(parts) == 2:
                if method == "DELETE":
                    keep = "checkpoint=1" in query or "checkpoint=true" in query
                    return 200, await self._manager.close(name, checkpoint=keep)
                raise _HttpError(405, f"{method} not allowed on {path}")
            if len(parts) == 3 and parts[2] == "offer":
                self._require_method(method, "POST", path)
                request = self._json_body(body)
                if "features" not in request:
                    raise _HttpError(400, "offer body needs 'features'")
                accepted = await self._manager.offer(
                    name,
                    request["features"],
                    groups=request.get("groups"),
                    uids=request.get("uids"),
                )
                return 202, accepted
            if len(parts) == 3 and parts[2] == "solution":
                self._require_method(method, "GET", path)
                result = await self._manager.solution(name)
                return 200, solution_payload(result)
        raise _HttpError(404, f"unknown route {method} {path}")

    def _require_method(self, method: str, expected: str, path: str) -> None:
        """405 unless the request used the route's method."""
        if method != expected:
            raise _HttpError(405, f"{method} not allowed on {path}")

    def _json_body(self, body: bytes) -> Dict[str, Any]:
        """The request body as a JSON object, or a 400."""
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:
            raise _HttpError(400, f"invalid JSON body ({error})") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload


async def _serve_until_signalled(
    config: ManagerConfig, host: str, port: int, announce: bool
) -> int:
    """Run the server until SIGTERM/SIGINT, then drain and exit."""
    manager = SessionManager(config)
    server = ServingServer(manager, host=host, port=port)
    await server.start()
    if announce:
        print(f"serving on http://{server.host}:{server.port}", flush=True)
        print(f"state dir: {config.state_dir}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
            pass
    try:
        await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        checkpoints = await server.stop(drain=True)
        if announce:
            print(
                f"drained {len(checkpoints)} session(s) to {config.state_dir}",
                flush=True,
            )
    return 0


def run_server(
    config: ManagerConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: bool = True,
) -> int:
    """Blocking entry point of ``repro serve``; returns the exit code.

    Prints ``serving on http://host:port`` once the socket is bound (port
    ``0`` asks the OS for an ephemeral port — scripts parse the line), and
    runs until SIGTERM or SIGINT triggers the graceful drain.
    """
    try:
        return asyncio.run(_serve_until_signalled(config, host, port, announce))
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C race
        print("interrupted", file=sys.stderr)
        return 130
