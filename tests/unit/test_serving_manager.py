"""Unit tests of the asyncio :class:`repro.serving.SessionManager`.

Lifecycle, micro-batching triggers, LRU eviction/restore, backpressure,
drain, and the ``repro.serving.*`` metrics — all driven directly (no
HTTP) through ``asyncio.run`` so the suite needs no async test plugin.
"""

import asyncio

import numpy as np
import pytest

import repro
from repro import obs
from repro.datasets.synthetic import synthetic_blobs
from repro.serving import (
    ManagerConfig,
    QueueFullError,
    SessionExistsError,
    SessionManager,
    SessionNotFoundError,
    TooManySessionsError,
)

K = 4


@pytest.fixture(scope="module")
def data():
    dataset = synthetic_blobs(n=240, m=2, seed=17)
    features = np.asarray([element.vector for element in dataset.elements], dtype=float)
    groups = [int(element.group) for element in dataset.elements]
    return features, groups


def _config(tmp_path, **overrides):
    defaults = dict(state_dir=tmp_path / "state", max_batch=1_000, flush_ms=60_000.0)
    defaults.update(overrides)
    return ManagerConfig(**defaults)


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_create_offer_solution_close(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path))
        name = await manager.create(k=K, groups=2, algorithm="SFDM2")
        assert name in manager and len(manager) == 1
        receipt = await manager.offer(name, features[:100], groups=groups[:100])
        assert receipt == {"accepted": 100, "pending": 100}
        result = await manager.solution(name)
        assert manager.pending_rows(name) == 0  # query flushed the queue
        assert result.succeeded and len(result.solution.uids) == K
        await manager.close(name)
        assert name not in manager and len(manager) == 0

    _run(scenario())


def test_auto_names_and_duplicate_rejection(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path))
        first = await manager.create(k=K, groups=2)
        second = await manager.create(k=K, groups=2)
        assert first != second and first.startswith("s-")
        await manager.create(k=K, groups=2, name="mine")
        with pytest.raises(SessionExistsError):
            await manager.create(k=K, groups=2, name="mine")
        with pytest.raises(repro.InvalidParameterError, match="session names"):
            await manager.create(k=K, groups=2, name="../escape")

    _run(scenario())


def test_session_cap_is_admission_control(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path, max_sessions=2))
        await manager.create(k=K, groups=2)
        await manager.create(k=K, groups=2)
        with pytest.raises(TooManySessionsError) as info:
            await manager.create(k=K, groups=2)
        assert info.value.limit == 2

    _run(scenario())


def test_unknown_session_raises(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path))
        with pytest.raises(SessionNotFoundError, match="ghost"):
            await manager.offer("ghost", [[0.0, 0.0]])
        with pytest.raises(SessionNotFoundError):
            await manager.solution("ghost")
        with pytest.raises(SessionNotFoundError):
            await manager.close("ghost")

    _run(scenario())


def test_close_with_checkpoint_leaves_state_file(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path))
        name = await manager.create(k=K, groups=2, name="keeper")
        await manager.offer(name, features[:80], groups=groups[:80])
        receipt = await manager.close(name, checkpoint=True)
        assert receipt["checkpoint"] is not None
        restored = repro.resume(receipt["checkpoint"])
        assert restored.elements_offered == 80

    _run(scenario())


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
def test_offers_queue_until_max_batch(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_batch=50))
        name = await manager.create(k=K, groups=2)
        await manager.offer(name, features[:30], groups=groups[:30])
        assert manager.pending_rows(name) == 30  # below max_batch: queued
        await manager.offer(name, features[30:60], groups=groups[30:60])
        assert manager.pending_rows(name) == 0  # 60 >= 50: flushed

    _run(scenario())


def test_flush_deadline_fires(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_batch=1_000, flush_ms=10.0))
        name = await manager.create(k=K, groups=2)
        await manager.offer(name, features[:20], groups=groups[:20])
        assert manager.pending_rows(name) == 20
        deadline = asyncio.get_running_loop().time() + 2.0
        while manager.pending_rows(name) and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.005)
        assert manager.pending_rows(name) == 0

    _run(scenario())


def test_non_finite_rows_are_refused_before_queueing(tmp_path, data):
    features, groups = data
    poisoned = features[:100].copy()
    poisoned[3, 0] = np.inf

    async def scenario():
        # max_batch above the offer: the rows would wait in the queue, so
        # only the check at accept time can refuse them.
        manager = SessionManager(_config(tmp_path))
        name = await manager.create(k=K, groups=2)
        with pytest.raises(repro.InvalidParameterError, match="row 3 holds inf"):
            await manager.offer(name, poisoned, groups=groups[:100])
        assert manager.pending_rows(name) == 0
        receipt = await manager.offer(name, features[:100], groups=groups[:100])
        assert receipt["accepted"] == 100
        result = await manager.solution(name)
        assert result.stats.elements_processed == 100

    _run(scenario())


def test_single_row_offers_and_validation(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path))
        name = await manager.create(k=K, groups=2)
        receipt = await manager.offer(name, [1.0, 2.0], groups=[0])  # one bare row
        assert receipt["accepted"] == 1
        with pytest.raises(repro.InvalidParameterError, match="non-empty"):
            await manager.offer(name, np.empty((0, 2)))
        with pytest.raises(repro.InvalidParameterError, match="groups"):
            await manager.offer(name, [[1.0, 2.0]], groups=[0, 1])
        with pytest.raises(repro.InvalidParameterError, match="uids"):
            await manager.offer(name, [[1.0, 2.0]], uids=[7, 8])

    _run(scenario())


def test_backpressure_is_all_or_nothing(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_queue=100))
        name = await manager.create(k=K, groups=2)
        await manager.offer(name, features[:90], groups=groups[:90])
        with pytest.raises(QueueFullError) as info:
            await manager.offer(name, features[90:120], groups=groups[90:120])
        assert info.value.pending == 90 and info.value.limit == 100
        # nothing from the rejected offer was queued
        assert manager.pending_rows(name) == 90
        # a fitting offer still goes through (max_batch is high: still queued)
        receipt = await manager.offer(name, features[90:100], groups=groups[90:100])
        assert receipt == {"accepted": 10, "pending": 100}

    _run(scenario())


# ----------------------------------------------------------------------
# LRU eviction / restore
# ----------------------------------------------------------------------
def test_lru_eviction_and_transparent_restore(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_live=2))
        names = [await manager.create(k=K, groups=2, name=f"t{i}") for i in range(3)]
        # three sessions, two live slots: the LRU one was evicted
        assert manager.live_count == 2
        evicted = [n for n in names if not manager.is_live(n)]
        assert evicted == ["t0"]
        assert (tmp_path / "state" / "t0.ckpt").exists()
        # touching the evicted session restores it and evicts another
        await manager.offer("t0", features[:10], groups=groups[:10])
        await manager.flush("t0")
        assert manager.is_live("t0")
        assert manager.live_count == 2
        stats = manager.stats()
        assert stats["sessions"] == 3 and stats["evicted"] == 1

    _run(scenario())


def test_eviction_preserves_progress(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_live=1))
        await manager.create(k=K, groups=2, name="a")
        await manager.offer("a", features[:120], groups=groups[:120])
        await manager.flush("a")
        await manager.create(k=K, groups=2, name="b")  # evicts a
        assert not manager.is_live("a")
        result = await manager.solution("a")  # restores a (evicting b)
        assert result.stats.elements_processed == 120

    _run(scenario())


def test_drain_checkpoints_every_session(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_live=2))
        for i in range(3):
            await manager.create(k=K, groups=2, name=f"d{i}")
            await manager.offer(f"d{i}", features[:40], groups=groups[:40])
        checkpoints = await manager.drain()
        assert sorted(checkpoints) == ["d0", "d1", "d2"]
        for name, path in checkpoints.items():
            restored = repro.resume(path)
            assert restored.elements_offered == 40, name

    _run(scenario())


def test_shutdown_drops_state_without_checkpoints(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path, flush_ms=10.0))
        await manager.create(k=K, groups=2, name="gone")
        await manager.offer("gone", [1.0, 2.0], groups=[0])
        await manager.shutdown()
        assert len(manager) == 0
        assert not (tmp_path / "state" / "gone.ckpt").exists()

    _run(scenario())


# ----------------------------------------------------------------------
# Metrics + config validation
# ----------------------------------------------------------------------
def test_serving_metrics_flow_without_tracing(tmp_path, data):
    features, groups = data

    async def scenario():
        manager = SessionManager(_config(tmp_path, max_live=1, max_batch=30))
        before = obs.get_metrics().counter("repro.serving.offered_rows").value
        await manager.create(k=K, groups=2, name="m0")
        await manager.create(k=K, groups=2, name="m1")  # evicts m0
        await manager.offer("m0", features[:30], groups=groups[:30])  # restore
        snapshot = manager.metrics_snapshot()
        assert snapshot["repro.serving.offered_rows"] == before + 30
        assert snapshot["repro.serving.sessions.active"] == 2
        assert snapshot["repro.serving.sessions.live"] == 1
        assert snapshot["repro.serving.flushes"] >= 1

    assert not obs.enabled()  # the point: metrics flow while tracing is off
    _run(scenario())


@pytest.mark.parametrize(
    "overrides, match",
    (
        ({"max_sessions": 0}, "max_sessions"),
        ({"max_live": -1}, "max_live"),
        ({"max_batch": 0}, "max_batch"),
        ({"max_queue": 0}, "max_queue"),
        ({"flush_ms": -5.0}, "flush_ms"),
    ),
)
def test_config_validation(tmp_path, overrides, match):
    with pytest.raises(repro.InvalidParameterError, match=match):
        _config(tmp_path, **overrides)


def test_batch_capable_sessions_get_batch_size_option(tmp_path):
    async def scenario():
        manager = SessionManager(_config(tmp_path, max_batch=64))
        streaming = await manager.create(k=K, groups=2, algorithm="SFDM2")
        windowed = await manager.create(
            k=K, groups=2, algorithm="SlidingWindowFDM", options={"window": 50}
        )
        entry_s = manager._entries[streaming]
        entry_w = manager._entries[windowed]
        assert entry_s.session._algorithm.batch_size == 64
        assert not hasattr(entry_w.session, "batch_size")

    _run(scenario())
