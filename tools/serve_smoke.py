"""End-to-end smoke of ``repro serve``: real process, real HTTP, real drain.

Starts the server as a subprocess on an ephemeral port with two live
slots, then scripts a client against it:

1. ``GET /healthz`` answers ok;
2. three sessions are created — one more than ``--max-live``, so the
   LRU one is evicted to a checkpoint;
3. offers spread rows across all three sessions (touching the evicted
   one forces a transparent restore);
4. every session answers ``GET .../solution`` with a fair solution;
5. ``GET /metrics`` shows nonzero eviction/restore counters;
6. an offer with a non-integer uid and one with a NaN feature each get a
   400, leave ``queued_rows`` unchanged, and the session keeps answering;
7. a backpressure probe overflows the bounded queue and gets a 429;
8. ``SIGTERM`` drains: the process exits 0 and every session has a
   checkpoint in the state directory that is data-only (it starts with
   the checkpoint format's magic, never a pickle), resumes, and answers
   warm: every session was queried before the drain with the same rows
   pending, so the resumed session's first ``solution()`` re-extracts no
   guess level (``levels_extracted == 0`` on its ``session.solution``
   span).

Run directly (``python tools/serve_smoke.py``) or via ``make serve-smoke``.
Exit status 0 means the serving path works end to end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from http.client import HTTPConnection
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

K = 4
M = 2
SESSIONS = ("alpha", "beta", "gamma")


def _request(port, method, path, body=None):
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})
    finally:
        connection.close()


def _expect(condition, message):
    if not condition:
        raise SystemExit(f"serve smoke: FAIL — {message}")


def _rows(count, offset=0):
    """Deterministic 2-D feature rows + alternating groups."""
    features = [[float(offset + i), float((offset + i) % 7)] for i in range(count)]
    groups = [(offset + i) % M for i in range(count)]
    return features, groups


def main() -> int:
    """Run the scripted client against a fresh server; 0 = green."""
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
        state_dir = Path(scratch) / "state"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--state-dir", str(state_dir),
                "--max-live", "2",
                "--max-batch", "64",
                "--flush-ms", "5",
                "--max-queue", "150",
            ],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            announce = process.stdout.readline().strip()
            _expect(
                announce.startswith("serving on http://"),
                f"unexpected announce line {announce!r}",
            )
            port = int(announce.rsplit(":", 1)[1])

            status, body = _request(port, "GET", "/healthz")
            _expect(status == 200 and body.get("status") == "ok", "healthz failed")

            # Three sessions against two live slots: alpha gets evicted.
            for name in SESSIONS:
                status, body = _request(
                    port, "POST", "/sessions",
                    {"k": K, "groups": M, "name": name},
                )
                _expect(status == 201 and body.get("name") == name,
                        f"create {name} -> {status} {body}")
            status, body = _request(port, "GET", "/healthz")
            _expect(body.get("evicted") == 1,
                    f"expected one evicted session, got {body}")

            # Offer rows to every session; touching alpha forces a restore.
            for index, name in enumerate(SESSIONS):
                features, groups = _rows(90, offset=index * 90)
                status, body = _request(
                    port, "POST", f"/sessions/{name}/offer",
                    {"features": features, "groups": groups},
                )
                _expect(status == 202 and body.get("accepted") == 90,
                        f"offer {name} -> {status} {body}")

            for name in SESSIONS:
                status, body = _request(port, "GET", f"/sessions/{name}/solution")
                _expect(status == 200 and body.get("succeeded") is True,
                        f"solution {name} -> {status} {body}")
                _expect(len(body.get("uids", [])) == K,
                        f"solution {name} has {body.get('uids')} uids")
                _expect(body.get("elements_processed") == 90,
                        f"solution {name} processed {body.get('elements_processed')}")

            status, metrics = _request(port, "GET", "/metrics")
            _expect(status == 200, "metrics endpoint failed")
            _expect(metrics.get("repro.serving.sessions.evicted", 0) >= 1,
                    "no eviction recorded in metrics")
            _expect(metrics.get("repro.serving.sessions.restored", 0) >= 1,
                    "no restore recorded in metrics")

            # Bad rows are refused at accept time: 400, nothing queued, and
            # the session still answers with the rows it had.
            features, groups = _rows(8, offset=900)
            poisoned = [list(row) for row in features]
            poisoned[3][0] = float("nan")
            for label, offer in (
                ("non-integer uid", {"features": features, "groups": groups,
                                     "uids": [index + 0.5 for index in range(8)]}),
                ("NaN feature", {"features": poisoned, "groups": groups}),
            ):
                _, before = _request(port, "GET", "/healthz")
                status, body = _request(port, "POST", "/sessions/beta/offer", offer)
                _expect(status == 400, f"{label} offer -> {status} {body}")
                _, after = _request(port, "GET", "/healthz")
                _expect(after.get("queued_rows") == before.get("queued_rows"),
                        f"{label} offer moved queued_rows: {before} -> {after}")
                status, body = _request(port, "GET", "/sessions/beta/solution")
                _expect(status == 200 and body.get("elements_processed") == 90,
                        f"solution beta after the {label} offer -> {status} {body}")

            # Backpressure: a single giant offer overflows max_queue=150.
            features, groups = _rows(151)
            status, body = _request(
                port, "POST", "/sessions/alpha/offer",
                {"features": features, "groups": groups},
            )
            _expect(status == 429, f"expected 429, got {status} {body}")

            # Graceful drain: SIGTERM checkpoints every session, exit 0.
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
            _expect(process.returncode == 0,
                    f"server exited {process.returncode}; output:\n{output}")
            _expect("drained 3 session(s)" in output,
                    f"drain line missing from output:\n{output}")
            for name in SESSIONS:
                _expect((state_dir / f"{name}.ckpt").exists(),
                        f"missing drain checkpoint for {name}")

            # The drained checkpoints are data, resume, and answer warm.
            sys.path.insert(0, str(REPO_ROOT / "src"))
            import repro
            from repro import obs
            from repro.api.checkpoint import MAGIC

            for name in SESSIONS:
                path = state_dir / f"{name}.ckpt"
                _expect(path.read_bytes().startswith(MAGIC),
                        f"{name} checkpoint does not start with {MAGIC!r}")
                restored = repro.resume(path)
                _expect(restored.elements_offered == 90,
                        f"{name} checkpoint resumed at {restored.elements_offered}")
                with obs.tracing("memory") as sink:
                    restored.solution()
                spans = sink.spans("session.solution")
                attrs = spans[0]["attrs"] if spans else {}
                _expect(attrs.get("levels_extracted") == 0
                        and attrs.get("levels_reused", 0) > 0,
                        f"{name} resumed cold: session.solution span {attrs}")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

    print("serve smoke: OK (create/offer/evict/restore/solution/400/429/drain/warm resume)")
    return 0


if __name__ == "__main__":
    start = time.perf_counter()
    code = main()
    print(f"serve smoke: {time.perf_counter() - start:.1f}s")
    sys.exit(code)
