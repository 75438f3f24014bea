"""Crash-safe checkpoint writes and typed resume failures.

Satellite guarantees of the serving PR:

* ``SessionBase.checkpoint`` is atomic — a crash mid-dump (simulated by a
  raising pickler / failing fsync) never leaves a truncated file under
  the target path, and never destroys the previous good checkpoint;
* ``repro.resume`` raises :class:`repro.CheckpointError` — naming the
  offending path — for every corruption mode: missing file, non-pickle
  bytes, truncated pickle, foreign pickle, unsupported version;
* version-2 checkpoints stay one layout: the query caches are never
  pickled, and a checkpoint written without them resumes and answers the
  same.
"""

import os
import pickle

import pytest

import repro
from repro import obs
from repro.api import session as session_module
from repro.core.base import IngestState
from repro.core.sfdm2 import SFDM2
from repro.datasets.synthetic import synthetic_blobs

K = 4


@pytest.fixture(scope="module")
def dataset():
    return synthetic_blobs(n=120, m=2, seed=5)


@pytest.fixture()
def session(dataset):
    constraint = repro.equal_representation(K, list(dataset.group_sizes().keys()))
    live = repro.StreamingSession(SFDM2(metric=dataset.metric, constraint=constraint))
    live.offer_batch(list(dataset.stream(seed=3)))
    return live


def _fingerprint(result):
    return (
        [element.uid for element in result.solution.elements],
        result.solution.diversity,
        result.stats.total_distance_computations,
    )


# ----------------------------------------------------------------------
# Crash-safe writes
# ----------------------------------------------------------------------
def test_checkpoint_survives_failing_dump(session, tmp_path, monkeypatch):
    """A raising pickler leaves the previous checkpoint bit-identical."""
    path = session.checkpoint(tmp_path / "state.ckpt")
    good_bytes = path.read_bytes()

    def exploding_dump(obj, handle, protocol=None):
        handle.write(b"partial garbage")  # simulate a mid-write crash
        raise pickle.PicklingError("boom")

    monkeypatch.setattr(session_module.pickle, "dump", exploding_dump)
    with pytest.raises(repro.CheckpointError, match="state.ckpt"):
        session.checkpoint(path)
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    assert _fingerprint(repro.resume(path).solution()) == _fingerprint(
        session.solution()
    )


def test_checkpoint_failure_leaves_no_temp_files(session, tmp_path, monkeypatch):
    """The uniquely named temp file is cleaned up on a failed write."""
    def unpicklable(obj, handle, protocol=None):
        raise TypeError("cannot pickle a thread lock")

    monkeypatch.setattr(session_module.pickle, "dump", unpicklable)
    with pytest.raises(repro.CheckpointError):
        session.checkpoint(tmp_path / "fresh.ckpt")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_into_missing_directory_is_typed(session, tmp_path):
    """A nonexistent target directory fails with CheckpointError, not OSError."""
    target = tmp_path / "no" / "such" / "dir" / "x.ckpt"
    with pytest.raises(repro.CheckpointError, match="x.ckpt"):
        session.checkpoint(target)


def test_checkpoint_write_is_atomic_under_kill(session, tmp_path):
    """Concurrent readers only ever see complete checkpoints.

    The write path goes through ``os.replace`` of a fully fsynced temp
    file, so a reader that opens ``path`` at any moment sees either the
    old complete payload or the new complete payload.  We assert the
    mechanism: the final file loads, and no ``*.tmp`` residue exists.
    """
    path = tmp_path / "atomic.ckpt"
    for _ in range(3):
        session.checkpoint(path)
        restored = repro.resume(path)
        assert restored.elements_offered == session.elements_offered
    assert [p for p in tmp_path.iterdir()] == [path]


# ----------------------------------------------------------------------
# Typed resume failures
# ----------------------------------------------------------------------
def test_resume_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "never-written.ckpt"
    with pytest.raises(repro.CheckpointError, match="never-written.ckpt") as info:
        repro.resume(missing)
    assert "no such file" in str(info.value)
    assert info.value.path == str(missing)


def test_resume_non_pickle_bytes(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"\x00\x01this is not a pickle")
    with pytest.raises(repro.CheckpointError, match="garbage.ckpt") as info:
        repro.resume(path)
    assert "not a readable pickle" in str(info.value)


def test_resume_truncated_pickle(session, tmp_path):
    path = session.checkpoint(tmp_path / "trunc.ckpt")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(repro.CheckpointError, match="trunc.ckpt"):
        repro.resume(path)


def test_resume_foreign_pickle(tmp_path):
    path = tmp_path / "foreign.ckpt"
    with open(path, "wb") as handle:
        pickle.dump({"hello": "world"}, handle)
    with pytest.raises(repro.CheckpointError, match="not a repro session checkpoint"):
        repro.resume(path)


def test_resume_unsupported_version(session, tmp_path):
    path = session.checkpoint(tmp_path / "version.ckpt")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["version"] = 999
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(repro.CheckpointError, match="999"):
        repro.resume(path)


def test_resume_payload_without_session_object(session, tmp_path):
    path = session.checkpoint(tmp_path / "hollow.ckpt")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["session"] = "not a session"
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(repro.CheckpointError, match="does not contain a session"):
        repro.resume(path)


def test_checkpoint_error_is_invalid_parameter_error(tmp_path):
    """Backward compatibility: existing callers catch InvalidParameterError."""
    with pytest.raises(repro.InvalidParameterError):
        repro.resume(tmp_path / "absent.ckpt")
    assert issubclass(repro.CheckpointError, repro.InvalidParameterError)


# ----------------------------------------------------------------------
# Version-2 checkpoints written without the query caches
# ----------------------------------------------------------------------
#: The attributes a pickled ``IngestState`` carries in a version-2
#: checkpoint.  The extraction memo is a cache and is never among them.
VERSION_2_STATE = {
    "algorithm",
    "counting",
    "stats",
    "size",
    "ladder",
    "blind",
    "specific",
    "_pending",
    "_pending_rows",
    "_screens",
}


def _version_2_state(state):
    """The pickled state of ``state`` in the version-2 layout only."""
    pickled = {name: value for name, value in vars(state).items() if name in VERSION_2_STATE}
    pickled["_screens"] = None
    return pickled


def test_checkpoint_pickles_no_query_cache(session):
    session.solution()
    assert set(session._state.__getstate__()) == VERSION_2_STATE


def test_resume_checkpoint_written_without_caches(dataset, tmp_path, monkeypatch):
    """A checkpoint lacking the memo and ``_published`` resumes and answers the same.

    Every checkpoint of the previous release has that shape: no extraction
    memo on the ingestion state, and no ``_published`` on a session never
    queried before the write (the class default stands in for it).
    """
    constraint = repro.equal_representation(K, list(dataset.group_sizes().keys()))
    elements = list(dataset.stream(seed=3))
    live = repro.StreamingSession(
        SFDM2(metric=dataset.metric, constraint=constraint, batch_size=32)
    )
    live.offer_batch(elements[:90])  # past the warmup, with a partial chunk pending
    assert "_published" not in vars(live)
    with monkeypatch.context() as patch:
        patch.setattr(IngestState, "__getstate__", _version_2_state)
        path = live.checkpoint(tmp_path / "version-2.ckpt")
    with open(path, "rb") as handle:
        # The raw pickle, before resume() runs its checks.
        assert "_published" not in vars(pickle.load(handle)["session"])

    restored = repro.resume(path)
    for current in (live, restored):
        current.offer_batch(elements[90:])
    reference = _fingerprint(live.solution())
    obs.configure("memory", reset_metrics=True)
    try:
        assert _fingerprint(restored.solution()) == reference
        restored.solution()
        # The class default starts the publish watermark at zero: the two
        # queries of the restored session published every ingested row once.
        assert obs.get_metrics().snapshot()["repro.elements_processed"] == len(elements)
    finally:
        obs.configure(sink=None, enabled=False, reset_metrics=True)
