"""A small blocking HTTP client for the serving endpoint.

Built on :class:`http.client.HTTPConnection` (stdlib, keep-alive) so the
example, the smoke tool, and the bench load generator need no external
HTTP library.  One :class:`ServingClient` wraps one connection and is
**not** thread-safe; give each load-generator thread its own client.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


class ServingClient:
    """Blocking JSON client for one ``repro serve`` endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(status, parsed_json_body)``.

        Reconnects once on a dropped keep-alive connection.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        return response.status, decoded

    def close(self) -> None:
        """Drop the underlying connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._conn

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def create_session(self, **spec: Any) -> str:
        """``POST /sessions``; returns the session name."""
        status, body = self.request("POST", "/sessions", spec)
        self._check(status, body, expected=201)
        return body["name"]

    def offer(
        self,
        name: str,
        features: Sequence[Sequence[float]],
        groups: Optional[Sequence[int]] = None,
        uids: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """``POST /sessions/{name}/offer``; returns the accept receipt.

        Group labels and uids are sent as given (NumPy scalars as the Python
        values they hold): the server checks them, so a label or uid that is
        not an integer, such as ``1.7`` or NaN, gets a 400 naming its row.
        """
        body: Dict[str, Any] = {"features": _listify(features)}
        if groups is not None:
            body["groups"] = [_plain(group) for group in _listify(groups)]
        if uids is not None:
            body["uids"] = [_plain(uid) for uid in _listify(uids)]
        status, response = self.request("POST", f"/sessions/{name}/offer", body)
        self._check(status, response, expected=202)
        return response

    def solution(self, name: str) -> Dict[str, Any]:
        """``GET /sessions/{name}/solution``; returns the solution body."""
        status, body = self.request("GET", f"/sessions/{name}/solution")
        self._check(status, body, expected=200)
        return body

    def close_session(self, name: str, checkpoint: bool = False) -> Dict[str, Any]:
        """``DELETE /sessions/{name}``; optionally keep a final checkpoint."""
        suffix = "?checkpoint=1" if checkpoint else ""
        status, body = self.request("DELETE", f"/sessions/{name}{suffix}")
        self._check(status, body, expected=200)
        return body

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``; the liveness summary."""
        status, body = self.request("GET", "/healthz")
        self._check(status, body, expected=200)
        return body

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``; the JSON metrics snapshot."""
        status, body = self.request("GET", "/metrics")
        self._check(status, body, expected=200)
        return body

    def _check(self, status: int, body: Dict[str, Any], expected: int) -> None:
        if status != expected:
            raise ServingRequestError(status, body.get("error", str(body)))


class ServingRequestError(RuntimeError):
    """A route helper saw an unexpected HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


def _plain(value: Any) -> Any:
    """A NumPy scalar as the Python value it holds; any other value as is."""
    return value.item() if isinstance(value, np.generic) else value


def _listify(features: Sequence[Sequence[float]]) -> List[Any]:
    """Feature rows as plain lists (handles numpy arrays transparently)."""
    tolist = getattr(features, "tolist", None)
    if tolist is not None:
        return tolist()
    return [list(row) if hasattr(row, "__len__") else row for row in features]
