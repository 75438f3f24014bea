"""Execution backends: where per-shard work runs.

A :class:`Backend` turns a list of independent shard tasks into a list of
results.  The contract is deliberately tiny so that the rest of the
parallel layer never cares *where* the work happens:

* :meth:`Backend.map_shards` applies one callable to every task and
  returns the results **in task order**, regardless of completion order —
  the coreset merge tree downstream pairs summaries positionally, so
  ordering is what makes results identical across backends;
* a task that raises propagates its exception to the caller (no silent
  dropping of shards);
* an empty task list returns an empty result list without spinning up any
  worker machinery.

Three implementations ship with the library: :class:`SerialBackend` (the
reference semantics — a plain loop), :class:`ThreadBackend` (a thread pool;
pays off when the per-shard work releases the GIL, as the NumPy distance
kernels do), and :class:`ProcessBackend` (a process pool via
:mod:`concurrent.futures`; true CPU parallelism, requires the callable and
the tasks to be picklable).  :func:`resolve_backend` maps the CLI-facing
names to instances and validates eagerly, mirroring the ``--batch-size``
convention of failing loudly before any run starts.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, List, Sequence, Union

from repro.utils.errors import InvalidParameterError

#: One shard task: any picklable payload the mapped callable understands.
ShardTask = Any


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduler affinity mask (which reflects cgroup/container
    limits) over ``os.cpu_count()`` (which reports the physical machine);
    spawning more workers than usable CPUs only adds scheduling overhead.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class Backend(ABC):
    """Strategy object that maps a callable over independent shard tasks."""

    #: CLI-facing name (``"serial"``, ``"thread"``, ``"process"``).
    name: str = "backend"

    #: Whether tasks cross a process boundary and must therefore be
    #: picklable.  In-process backends leave this ``False`` so callers can
    #: skip compact-packing work that only pays off for pickling.
    requires_pickling: bool = False

    @abstractmethod
    def map_shards(
        self, fn: Callable[[ShardTask], Any], tasks: Sequence[ShardTask]
    ) -> List[Any]:
        """Apply ``fn`` to every task and return the results in task order."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(Backend):
    """Run every shard in the calling thread — the reference semantics."""

    name = "serial"

    def map_shards(
        self, fn: Callable[[ShardTask], Any], tasks: Sequence[ShardTask]
    ) -> List[Any]:
        """Apply ``fn`` sequentially; the baseline every other backend must match."""
        return [fn(task) for task in tasks]


class ThreadBackend(Backend):
    """Run shards on a thread pool, one worker per task.

    Threads share the interpreter, so the payoff depends on the per-shard
    work releasing the GIL — which the NumPy batch kernels used by the
    shard summarizers do during their distance computations.  Tasks need
    not be picklable, which makes this the drop-in choice for metrics or
    payloads that the process backend cannot ship.
    """

    name = "thread"

    @staticmethod
    def _worker_count(num_tasks: int) -> int:
        """Workers for ``num_tasks`` tasks: one each."""
        return num_tasks

    def map_shards(
        self, fn: Callable[[ShardTask], Any], tasks: Sequence[ShardTask]
    ) -> List[Any]:
        """Apply ``fn`` on a temporary thread pool; results keep task order."""
        if not tasks:
            return []
        with ThreadPoolExecutor(max_workers=self._worker_count(len(tasks))) as executor:
            return list(executor.map(fn, tasks))


class ProcessBackend(Backend):
    """Run shards on a process pool — true CPU parallelism.

    The mapped callable must be a module-level function and the tasks must
    be picklable (the driver packs shards into compact arrays for exactly
    this reason).  The pool runs ``min(tasks, usable CPUs)`` workers
    (affinity-aware, see :func:`usable_cpus`); oversubscribing a box with
    more worker processes than cores only adds scheduling overhead.
    """

    name = "process"
    requires_pickling = True

    @staticmethod
    def _worker_count(num_tasks: int) -> int:
        """Workers for ``num_tasks`` tasks: one each, at most one per usable CPU."""
        return min(num_tasks, usable_cpus())

    def map_shards(
        self, fn: Callable[[ShardTask], Any], tasks: Sequence[ShardTask]
    ) -> List[Any]:
        """Apply ``fn`` on a temporary process pool; results keep task order."""
        if not tasks:
            return []
        with ProcessPoolExecutor(max_workers=self._worker_count(len(tasks))) as executor:
            return list(executor.map(fn, tasks))


#: Name -> backend class for every built-in backend, in documentation order.
BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def backend_names() -> List[str]:
    """The CLI-facing names of the built-in backends."""
    return list(BACKENDS.keys())


def resolve_backend(spec: Union[str, Backend, None]) -> Backend:
    """Normalise a backend specification to a :class:`Backend` instance.

    Accepts an existing instance (returned unchanged), one of the built-in
    names, or ``None`` (the serial backend).  Unknown names raise
    :class:`InvalidParameterError` eagerly so a typo fails before any shard
    work starts.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, Backend):
        return spec
    if isinstance(spec, str):
        backend_class = BACKENDS.get(spec)
        if backend_class is None:
            raise InvalidParameterError(
                f"unknown backend {spec!r}; available: {', '.join(backend_names())}"
            )
        return backend_class()
    raise InvalidParameterError(
        f"backend must be a Backend instance or one of {backend_names()}, got {spec!r}"
    )
