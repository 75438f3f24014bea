"""Multi-tenant async serving layer.

Thousands of concurrent, checkpointable streaming sessions behind a
stdlib HTTP/JSON front end:

* :class:`SessionManager` — an asyncio manager owning named per-tenant
  sessions over any registry algorithm with session support.  Incoming
  offers are micro-batched per session (flushed on a max-batch or
  max-delay trigger), the number of *live* sessions is bounded by
  LRU-evicting idle ones to data-only checkpoints with transparent (and
  warm) restore-on-touch, and per-session queues are bounded
  (backpressure).
* :class:`ServingServer` / :func:`run_server` — the HTTP/1.1 front end
  (``repro serve``) with graceful SIGTERM drain.
* :class:`ServerThread` / :class:`ServingClient` — in-process runtime
  and blocking client for tests, examples, and benchmarks.

Eviction is *exact*: a session evicted and restored mid-stream returns
byte-identical solutions (uids, diversity, distance counts) to one that
stayed resident, because pending offers are flushed before checkpointing
and the session checkpoint protocol captures full algorithm state.
"""

from repro.serving.client import ServingClient, ServingRequestError
from repro.serving.errors import (
    QueueFullError,
    ServingError,
    SessionExistsError,
    SessionNotFoundError,
    TooManySessionsError,
)
from repro.serving.manager import ManagerConfig, SessionManager
from repro.serving.runtime import ServerThread
from repro.serving.server import ServingServer, run_server, solution_payload

__all__ = [
    "ManagerConfig",
    "SessionManager",
    "ServingServer",
    "ServerThread",
    "ServingClient",
    "ServingRequestError",
    "run_server",
    "solution_payload",
    "ServingError",
    "SessionNotFoundError",
    "SessionExistsError",
    "TooManySessionsError",
    "QueueFullError",
]
