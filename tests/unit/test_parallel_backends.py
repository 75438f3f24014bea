"""Unit tests for the execution backends' ``map_shards`` contract."""

import pytest

from repro.parallel.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_names,
    resolve_backend,
)
from repro.utils.errors import InvalidParameterError


def _double(value):
    return value * 2


def _explode(value):
    raise RuntimeError(f"boom {value}")


ALL_BACKENDS = [SerialBackend(), ThreadBackend(), ProcessBackend()]


class TestMapShardsContract:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_results_keep_task_order(self, backend):
        assert backend.map_shards(_double, [3, 1, 2]) == [6, 2, 4]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_empty_task_list(self, backend):
        assert backend.map_shards(_double, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_task_errors_propagate(self, backend):
        with pytest.raises(RuntimeError, match="boom"):
            backend.map_shards(_explode, [1, 2])

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_single_task(self, backend):
        assert backend.map_shards(_double, [21]) == [42]


class TestWorkerCounts:
    def test_thread_workers_bounded_by_tasks(self):
        assert ThreadBackend()._worker_count(3) == 3

    def test_process_workers_bounded_by_usable_cpus(self, monkeypatch):
        from repro.parallel import backends

        cap = backends.usable_cpus()
        assert cap >= 1
        assert ProcessBackend()._worker_count(64) == min(64, cap)
        monkeypatch.setattr(backends, "usable_cpus", lambda: 4)
        assert ProcessBackend()._worker_count(8) == 4
        assert ProcessBackend()._worker_count(3) == 3


class TestResolveBackend:
    def test_names_resolve_to_matching_instances(self):
        for name in backend_names():
            backend = resolve_backend(name)
            assert isinstance(backend, BACKENDS[name])
            assert backend.name == name

    def test_none_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            resolve_backend("gpu")

    def test_wrong_type_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_backend(3)

    def test_registry_is_complete(self):
        assert backend_names() == ["serial", "thread", "process"]
        assert all(issubclass(cls, Backend) for cls in BACKENDS.values())

    def test_only_process_backend_requires_pickling(self):
        assert not SerialBackend().requires_pickling
        assert not ThreadBackend().requires_pickling
        assert ProcessBackend().requires_pickling
