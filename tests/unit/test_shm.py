"""Unit tests for the shared-memory shard transport (repro.parallel.shm).

Covers the block lifecycle (publish → attach → close → unlink, with every
step idempotent and safe to repeat), the zero-copy guarantees of attached
shards, summary detachment, and the degrade-to-pickle fallback when
shared memory is unavailable or the publish fails.
"""

import logging
import pickle

import numpy as np
import pytest

from repro.data.element import Element
from repro.data.store import ElementStore
from repro.parallel import shm as shm_module
from repro.parallel.shm import (
    ShardRef,
    StoreBlock,
    detach_elements,
    publish_shards,
    ship_shards,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


def _elements(count, dim=2, base=0, period=2):
    return [
        Element(
            uid=base + i,
            vector=np.arange(dim, dtype=float) + float(base + i),
            group=(base + i) % period,
        )
        for i in range(count)
    ]


def _stores(*sizes):
    return [
        ElementStore.from_elements(_elements(size, base=100 * index))
        for index, size in enumerate(sizes)
    ]


class TestPublishAttach:
    def test_roundtrip_preserves_every_column(self):
        stores = _stores(5, 3)
        with publish_shards(stores) as block:
            assert len(block.refs) == 2
            for ref, store in zip(block.refs, stores):
                with ref.attach() as attached:
                    assert np.array_equal(attached.store.features, store.features)
                    assert np.array_equal(attached.store.groups, store.groups)
                    assert np.array_equal(attached.store.uids, store.uids)

    def test_attached_columns_are_views_not_copies(self):
        with publish_shards(_stores(8)) as block:
            with block.refs[0].attach() as attached:
                features = attached.store.features
                assert not features.flags.owndata
                assert not features.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    features[0, 0] = 99.0
                # Release the view before the mapping closes — holding one
                # across close() is the documented contract violation.
                del features

    def test_refs_pickle_small_and_survive_the_trip(self):
        store = ElementStore.from_elements(_elements(1000, dim=16))
        with publish_shards([store]) as block:
            ref = block.refs[0]
            payload = pickle.dumps(ref)
            # The descriptor must not scale with the shard: 1000x16 floats
            # are 128 KiB, the ref stays a few hundred bytes.
            assert len(payload) < 1024
            restored = pickle.loads(payload)
            with restored.attach() as attached:
                assert np.array_equal(attached.store.features, store.features)

    def test_labels_ride_along(self):
        elements = _elements(4)
        elements[1].label = "keep-me"
        store = ElementStore.from_elements(elements)
        with publish_shards([store]) as block:
            with block.refs[0].attach() as attached:
                assert attached.store.elements()[1].label == "keep-me"

    def test_empty_store_publishes(self):
        store = ElementStore.from_elements(_elements(3)).slice(0, 0)
        with publish_shards([store]) as block:
            with block.refs[0].attach() as attached:
                assert len(attached.store) == 0


class TestLifecycle:
    def test_close_and_unlink_are_idempotent(self):
        block = publish_shards(_stores(4))
        block.close()
        block.close()
        block.unlink()
        block.unlink()
        block.dispose()

    def test_dispose_removes_the_segment_name(self):
        from multiprocessing import shared_memory

        block = publish_shards(_stores(4))
        name = block.name
        block.dispose()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_attach_after_unlink_still_works_until_closed(self):
        # POSIX semantics: unlink removes the name, live mappings survive.
        block = publish_shards(_stores(4))
        attached = block.refs[0].attach()
        block.dispose()
        assert int(attached.store.uids[0]) == 0
        attached.close()

    def test_attached_shard_close_is_idempotent(self):
        with publish_shards(_stores(4)) as block:
            attached = block.refs[0].attach()
            attached.close()
            attached.close()
            assert attached.store is None

    def test_finalizer_disposes_abandoned_blocks(self):
        from multiprocessing import shared_memory

        block = publish_shards(_stores(4))
        name = block.name
        finalizer = block._finalizer
        del block
        finalizer()  # what gc/interpreter-exit would run
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestDetachElements:
    def test_detached_summaries_survive_block_disposal(self):
        block = publish_shards(_stores(6))
        attached = block.refs[0].attach()
        views = attached.store.elements()[:2]
        detached = detach_elements(views)
        expected = [np.array(view.vector, copy=True) for view in views]
        del views  # views must not outlive the mapping; the copies do
        attached.close()
        block.dispose()
        for element, vector in zip(detached, expected):
            assert element.store is None
            assert np.array_equal(element.vector, vector)
            assert element.vector.flags.owndata


class TestShipShards:
    def test_auto_prefers_shm_for_columnar_shards(self):
        payloads, block, used = ship_shards([_elements(5)])
        try:
            assert used == "shm"
            assert isinstance(payloads[0], ShardRef)
            assert isinstance(block, StoreBlock)
        finally:
            block.dispose()

    def test_pickle_payload_is_columnar_store(self, monkeypatch):
        monkeypatch.setattr(shm_module, "shm_available", lambda: False)
        payloads, block, used = ship_shards([_elements(5)])
        assert used == "pickle" and block is None
        assert isinstance(payloads[0], ElementStore)

    def test_unavailable_shared_memory_degrades_to_pickle(self, monkeypatch, caplog):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            payloads, block, used = ship_shards([_elements(5)])
        assert used == "pickle" and block is None
        assert isinstance(payloads[0], ElementStore)
        assert any("degraded to pickle" in record.message for record in caplog.records)

    def test_publish_failure_degrades_to_pickle(self, monkeypatch, caplog):
        def _boom(stores):
            raise OSError("no space left on /dev/shm")

        monkeypatch.setattr(shm_module, "publish_shards", _boom)
        with caplog.at_level(logging.WARNING, logger="repro"):
            payloads, block, used = ship_shards([_elements(5)])
        assert used == "pickle" and block is None
        assert any("publish failed" in record.message for record in caplog.records)

    def test_ragged_shards_fall_back_to_element_lists(self):
        ragged = [
            Element(uid=0, vector=np.array([1.0]), group=0),
            Element(uid=1, vector=np.array([1.0, 2.0]), group=1),
        ]
        payloads, block, used = ship_shards([ragged, _elements(3)])
        assert used == "pickle" and block is None
        assert isinstance(payloads[0], list)
        assert isinstance(payloads[1], ElementStore)

    def test_shm_payload_pickles_smaller_than_store_pickle(self):
        shard = _elements(2000, dim=8)
        payloads, block, used = ship_shards([shard])
        try:
            assert used == "shm"
            ref_bytes = len(pickle.dumps(payloads[0]))
            store_bytes = len(pickle.dumps(ElementStore.from_elements(shard)))
            assert ref_bytes < store_bytes / 100
        finally:
            block.dispose()
