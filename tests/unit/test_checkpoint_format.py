"""The data-only checkpoint format: what it refuses, and that it restores warm.

``repro.resume`` must raise :class:`repro.CheckpointError`, naming the
path, for every file that is not an intact version-3 checkpoint of an
allowlisted algorithm and metric: truncated files, flipped bits anywhere,
headers that declare an ``object`` array, an array outside the body or an
element position past the table, an unknown algorithm or metric, foreign
bytes and any pickle — which it refuses without unpickling (a pickled
session in the version-2 layout is covered in
``test_session_checkpoint_safety.py``).  A session it cannot write as
data raises at checkpoint time instead.  And the memo survives: for
SFDM1, SFDM2 and StreamingDM, a resumed session's queries reuse and
re-extract exactly the guess levels the live session's do.
"""

import pickle
import zlib

import numpy as np
import pytest

import repro
from repro import obs
from repro.api import checkpoint
from repro.datasets.synthetic import synthetic_blobs
from repro.metrics.base import CallableMetric
from repro.metrics.cached import CountingMetric
from repro.metrics.vector import MinkowskiMetric

K = 4
ALGORITHMS = ("SFDM1", "SFDM2", "StreamingDM")


@pytest.fixture(autouse=True)
def _pristine_tracer():
    obs.configure(sink=None, enabled=False)
    yield
    obs.configure(sink=None, enabled=False)


@pytest.fixture(scope="module")
def rows():
    dataset = synthetic_blobs(n=600, m=2, seed=5)
    features = np.stack([element.vector for element in dataset.elements])
    groups = np.array([element.group for element in dataset.elements])
    return features, groups


def _session(rows, algorithm="SFDM2", count=300, **options):
    features, groups = rows
    session = repro.open_session(
        k=K, groups=[0, 1], algorithm=algorithm, batch_size=64, **options
    )
    session.offer_rows(features[:count], groups=groups[:count])
    return session


@pytest.fixture()
def saved(rows, tmp_path):
    """A queried SFDM2 session with a partial chunk pending, checkpointed."""
    session = _session(rows, count=300)
    session.solution()
    return session.checkpoint(tmp_path / "saved.ckpt")


def _refused(path, match):
    with pytest.raises(repro.CheckpointError, match=match) as info:
        repro.resume(path)
    assert info.value.path == str(path)
    assert str(path) in str(info.value)
    return info.value


def _rewrite(path, header=None, arrays=None):
    """Re-pack a checkpoint after editing its header or arrays (valid checksum)."""
    head, body = checkpoint._unpack(path, path.read_bytes())
    arrays_read = checkpoint._arrays(path, head["arrays"], body)
    decoded = {name: np.array(array) for name, array in arrays_read.items()}
    if arrays is not None:
        arrays(decoded)
    manifest, body = checkpoint._lay_out(decoded)
    head["arrays"] = manifest
    if header is not None:
        header(head)
    path.write_bytes(checkpoint._pack(head, body))


# ----------------------------------------------------------------------
# The container
# ----------------------------------------------------------------------
def test_file_starts_with_the_magic_and_holds_no_pickle(saved):
    data = saved.read_bytes()
    assert data.startswith(checkpoint.MAGIC)
    assert not checkpoint._is_pickle(data)
    header, _ = checkpoint._unpack(saved, data)
    assert header["version"] == 3 and header["algorithm"] == "SFDM2"
    assert header["config"]["metric"] == {"name": "euclidean"}
    dtypes = {entry[0] for entry in header["arrays"].values()}
    assert all(dtype[1] in "biufUS" for dtype in dtypes)


@pytest.mark.parametrize("where", ["magic", "prelude", "header", "body", "end"])
def test_truncated_files(saved, where):
    data = saved.read_bytes()
    magic = len(checkpoint.MAGIC)
    header_end = data.index(b"}", magic + 8)
    cut = {
        "magic": magic - 3,
        "prelude": magic + 5,
        "header": (magic + 8 + header_end) // 2,
        "body": (header_end + len(data)) // 2,
        "end": len(data) - 1,
    }[where]
    saved.write_bytes(data[:cut])
    _refused(saved, "checkpoint")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    _refused(path, "not a repro session checkpoint")


@pytest.mark.parametrize("where", ["magic", "prelude", "header", "body", "end"])
@pytest.mark.parametrize("bit", [0, 5])
def test_flipped_bits(saved, where, bit):
    data = bytearray(saved.read_bytes())
    magic = len(checkpoint.MAGIC)
    header_end = bytes(data).index(b"}", magic + 8)
    position = {
        "magic": 3,
        "prelude": magic + 1,
        "header": magic + 8 + 20,
        "body": (header_end + len(data)) // 2,
        "end": len(data) - 1,
    }[where]
    data[position] ^= 1 << bit
    saved.write_bytes(bytes(data))
    _refused(saved, "checkpoint")


def test_foreign_bytes(tmp_path):
    path = tmp_path / "foreign.ckpt"
    path.write_bytes(b"\x00\x01this is not a checkpoint at all")
    _refused(path, "not a repro session checkpoint")


def test_a_header_that_is_not_json(saved):
    data = saved.read_bytes()
    magic = len(checkpoint.MAGIC)
    head = b"{not json"
    body = b""
    crc = zlib.crc32(body, zlib.crc32(head))
    prelude = checkpoint._PRELUDE.pack(len(head), crc)
    saved.write_bytes(data[:magic] + prelude + head + body)
    _refused(saved, "corrupt header")


def test_unsupported_version(saved):
    _rewrite(saved, header=lambda head: head.update(version=999))
    _refused(saved, "999")


def test_a_header_counter_that_is_infinite(saved):
    _rewrite(saved, header=lambda head: head.update(offered=float("inf")))
    assert b'"offered":Infinity' in saved.read_bytes()
    _refused(saved, "corrupt.*OverflowError")


def test_a_header_nested_too_deeply(saved):
    data = saved.read_bytes()
    magic = len(checkpoint.MAGIC)
    depth = 100_000
    head = b'{"format":' + b"[" * depth + b"]" * depth + b"}"
    crc = zlib.crc32(b"", zlib.crc32(head))
    saved.write_bytes(data[:magic] + checkpoint._PRELUDE.pack(len(head), crc) + head)
    _refused(saved, "corrupt header")


# ----------------------------------------------------------------------
# The arrays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["|O", "<O", "|V8", ">f8", "<c16", "<M8[s]"])
def test_a_header_declaring_a_non_data_dtype(saved, dtype):
    def declare(head):
        head["arrays"]["uids"][0] = dtype

    _rewrite(saved, header=declare)
    _refused(saved, "never holds")


@pytest.mark.parametrize("offset", [-8, 10**9])
def test_an_array_outside_the_body(saved, offset):
    def move(head):
        head["arrays"]["rows"][2] = offset

    _rewrite(saved, header=move)
    _refused(saved, "outside")


def test_an_array_longer_than_the_body(saved):
    def grow(head):
        head["arrays"]["members"][1] = [10**6]

    _rewrite(saved, header=grow)
    _refused(saved, "outside")


@pytest.mark.parametrize("name", ["members", "memo_answers"])
def test_a_position_past_the_element_table(saved, name):
    def corrupt(arrays):
        arrays[name] = arrays[name].astype(np.int64)
        arrays[name][0] = len(arrays["uids"]) + 5

    _rewrite(saved, arrays=corrupt)
    _refused(saved, "points past")


def test_a_missing_array(saved):
    _rewrite(saved, arrays=lambda arrays: arrays.pop("pending_uids"))
    _refused(saved, "corrupt")


def test_a_negative_position(saved):
    def corrupt(arrays):
        arrays["members"] = arrays["members"].astype(np.int64)
        arrays["members"][-1] = -1

    _rewrite(saved, arrays=corrupt)
    _refused(saved, "points past")


def test_run_lengths_that_do_not_add_up(saved):
    def corrupt(arrays):
        arrays["members_sizes"][0] += 1

    _rewrite(saved, arrays=corrupt)
    _refused(saved, "run lengths|capacity")


# ----------------------------------------------------------------------
# The allowlists
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["Evil", "GMM", "ParallelFDM", "__import__"])
def test_an_unknown_algorithm(saved, name):
    _rewrite(saved, header=lambda head: head.update(algorithm=name))
    _refused(saved, "unknown algorithm")


@pytest.mark.parametrize("name", ["os.system", "callable", "precomputed", "counting"])
def test_an_unknown_metric(saved, name):
    def rename(head):
        head["config"]["metric"] = {"name": name}

    _rewrite(saved, header=rename)
    _refused(saved, "unknown metric")


def test_an_unknown_session_kind(saved):
    _rewrite(saved, header=lambda head: head.update(session="pickle"))
    _refused(saved, "unknown session kind")


def test_an_invalid_configuration(saved):
    def break_config(head):
        head["config"]["epsilon"] = 7.0

    _rewrite(saved, header=break_config)
    _refused(saved, "corrupt")


# ----------------------------------------------------------------------
# Pickles are refused unread
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_any_pickle(tmp_path, protocol):
    path = tmp_path / f"protocol-{protocol}.ckpt"
    path.write_bytes(pickle.dumps({"format": "repro-session", "version": 2}, protocol=protocol))
    _refused(path, "pickle checkpoint of format version 2 or earlier")


def test_resume_never_unpickles(saved, tmp_path, monkeypatch):
    planted = tmp_path / "planted.ckpt"
    planted.write_bytes(pickle.dumps({"format": "repro-session", "version": 2}))

    def forbidden(*args, **kwargs):
        raise AssertionError("resume() unpickled a file")

    for name in ("load", "loads", "Unpickler"):
        monkeypatch.setattr(pickle, name, forbidden)
    _refused(planted, "pickle")
    assert repro.resume(saved).elements_offered == 300


# ----------------------------------------------------------------------
# Sessions that cannot be written as data
# ----------------------------------------------------------------------
def test_an_unnamed_metric_fails_at_checkpoint_time(rows, tmp_path):
    metric = CallableMetric(lambda x, y: float(np.linalg.norm(x - y)), name="euclidean")
    session = _session(rows, metric=metric)
    with pytest.raises(repro.CheckpointError, match="cannot checkpoint the metric"):
        session.checkpoint(tmp_path / "callable.ckpt")
    assert list(tmp_path.iterdir()) == []


def test_an_object_payload_fails_at_checkpoint_time(tmp_path):
    encoder = checkpoint._Encoder(tmp_path / "object.ckpt")
    with pytest.raises(repro.CheckpointError, match="not data"):
        encoder.add("rows", np.array([{"a": 1}, None], dtype=object))


def test_a_subclassed_algorithm_fails_at_checkpoint_time(rows, tmp_path):
    class Custom(repro.SFDM2):
        pass

    constraint = repro.equal_representation(K, [0, 1])
    session = repro.StreamingSession(Custom(metric=repro.euclidean(), constraint=constraint))
    session.offer_rows(rows[0][:100], groups=rows[1][:100])
    with pytest.raises(repro.CheckpointError, match="cannot checkpoint a Custom"):
        session.checkpoint(tmp_path / "custom.ckpt")


# ----------------------------------------------------------------------
# What a checkpoint keeps
# ----------------------------------------------------------------------
def test_minkowski_and_counting_metrics_round_trip(rows, tmp_path):
    constraint = repro.equal_representation(K, [0, 1])
    for metric in (MinkowskiMetric(3.0), CountingMetric(repro.manhattan())):
        session = repro.StreamingSession(repro.SFDM2(metric=metric, constraint=constraint))
        session.offer_rows(rows[0][:150], groups=rows[1][:150])
        restored = repro.resume(session.checkpoint(tmp_path / "metric.ckpt"))
        restored_metric = restored._algorithm.metric
        assert type(restored_metric) is type(metric)
        assert getattr(restored_metric, "p", None) == getattr(metric, "p", None)
        assert getattr(restored_metric, "calls", None) == getattr(metric, "calls", None)
        assert restored.solution().solution.uids == session.solution().solution.uids


def test_labels_and_shared_elements_round_trip(tmp_path):
    dataset = synthetic_blobs(n=200, m=2, seed=9)
    elements = [
        repro.Element(uid=e.uid, vector=e.vector, group=e.group, label=f"row-{e.uid}")
        for e in dataset.elements
    ]
    session = repro.open_session(k=K, groups=[0, 1], algorithm="SFDM2", batch_size=64)
    session.offer_batch(elements[:150])
    restored = repro.resume(session.checkpoint(tmp_path / "labels.ckpt"))
    live, back = session._state, restored._state
    for mine, theirs in zip(live.blind, back.blind):
        assert [(e.uid, e.label) for e in mine] == [(e.uid, e.label) for e in theirs]
    # One object per distinct element, shared across candidates as live.
    live_ids = {id(e) for c in live.blind for e in c}
    back_ids = {id(e) for c in back.blind for e in c}
    assert len(live_ids) == len(back_ids)


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("more", [0, 40], ids=["same-rows", "grown"])
def test_resumed_queries_reuse_what_live_queries_reuse(rows, tmp_path, name, more):
    """query -> checkpoint -> resume -> query: the live session's level counts."""
    features, groups = rows
    live = _session(rows, algorithm=name, count=420)
    live.solution()
    restored = repro.resume(live.checkpoint(tmp_path / f"{name}.ckpt"))
    counts = []
    for session in (live, restored):
        if more:
            session.offer_rows(features[420:420 + more], groups=groups[420:420 + more])
        with obs.tracing("memory") as sink:
            result = session.solution()
        (span,) = sink.spans("session.solution")
        counts.append(
            (
                span["attrs"]["levels_reused"],
                span["attrs"]["levels_extracted"],
                result.solution.uids,
                float(result.solution.diversity).hex(),
                result.stats.total_distance_computations,
            )
        )
    assert counts[0] == counts[1]
    if not more:
        assert counts[1][0] > 0 and counts[1][1] == 0
