"""Crash-safe checkpoint writes and typed resume failures.

Satellite guarantees of the serving PR:

* ``SessionBase.checkpoint`` is atomic — a crash mid-write (simulated by a
  failing fsync) never leaves a truncated file under the target path, and
  never destroys the previous good checkpoint;
* ``repro.resume`` raises :class:`repro.CheckpointError` — naming the
  offending path — for every corruption mode: missing file, foreign bytes,
  truncated file, any pickle, unsupported version;
* checkpoints of format version 2 and earlier (pickles) are refused
  without being unpickled.
"""

import pickle

import pytest

import repro
from repro.api import checkpoint as checkpoint_module
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
def _failing_fsync(fd):
    raise OSError(28, "No space left on device")


def test_checkpoint_survives_failing_dump(session, tmp_path, monkeypatch):
    """A write that fails before the rename leaves the previous checkpoint bit-identical."""
    path = session.checkpoint(tmp_path / "state.ckpt")
    good_bytes = path.read_bytes()
    expected = _fingerprint(session.solution())
    session.offer_batch(list(synthetic_blobs(n=20, m=2, seed=6).elements))

    monkeypatch.setattr(checkpoint_module.os, "fsync", _failing_fsync)
    with pytest.raises(repro.CheckpointError, match="state.ckpt"):
        session.checkpoint(path)
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    resumed = repro.resume(path)
    assert resumed.elements_offered == 120
    assert _fingerprint(resumed.solution()) == expected


def test_checkpoint_failure_leaves_no_temp_files(session, tmp_path, monkeypatch):
    """The uniquely named temp file is cleaned up on a failed write."""
    monkeypatch.setattr(checkpoint_module.os, "fsync", _failing_fsync)
    with pytest.raises(repro.CheckpointError, match="cannot write"):
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
    assert "not a repro session checkpoint" in str(info.value)


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
    with pytest.raises(repro.CheckpointError, match="pickle checkpoint of format version 2"):
        repro.resume(path)


def _rewrite_header(path, edit):
    """Re-pack ``path`` with an edited header (and a matching checksum)."""
    header, body = checkpoint_module._unpack(path, path.read_bytes())
    edit(header)
    path.write_bytes(checkpoint_module._pack(header, bytes(body)))


def test_resume_unsupported_version(session, tmp_path):
    path = session.checkpoint(tmp_path / "version.ckpt")
    _rewrite_header(path, lambda header: header.update(version=999))
    with pytest.raises(repro.CheckpointError, match="999"):
        repro.resume(path)


def test_resume_payload_without_session_object(session, tmp_path):
    path = session.checkpoint(tmp_path / "hollow.ckpt")
    _rewrite_header(path, lambda header: header.pop("session"))
    with pytest.raises(repro.CheckpointError, match="hollow.ckpt.*corrupt"):
        repro.resume(path)


def test_checkpoint_error_is_invalid_parameter_error(tmp_path):
    """Backward compatibility: existing callers catch InvalidParameterError."""
    with pytest.raises(repro.InvalidParameterError):
        repro.resume(tmp_path / "absent.ckpt")
    assert issubclass(repro.CheckpointError, repro.InvalidParameterError)


# ----------------------------------------------------------------------
# Version-2 checkpoints are refused unread
# ----------------------------------------------------------------------
def test_resume_refuses_a_version_2_checkpoint(session, tmp_path, monkeypatch):
    """The pickled layout of format version 2 names its version and is never loaded."""
    path = tmp_path / "version-2.ckpt"
    payload = {"format": "repro-session", "version": 2, "algorithm": "SFDM2", "session": session}
    with open(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def forbidden(*args, **kwargs):
        raise AssertionError("resume() unpickled a checkpoint")

    monkeypatch.setattr(pickle, "load", forbidden)
    monkeypatch.setattr(pickle, "loads", forbidden)
    with pytest.raises(repro.CheckpointError, match="version-2.ckpt") as info:
        repro.resume(path)
    assert "pickle checkpoint of format version 2 or earlier" in str(info.value)
    assert "never loaded" in str(info.value)
