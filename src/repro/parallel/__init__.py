"""Sharded parallel execution engine for fair diversity maximization.

This package scales the library beyond a single core by combining four
orthogonal pieces — each independently replaceable:

* **planning** (:mod:`repro.parallel.planner`): partition a stream into
  shards, contiguously or group-stratified, and — for ``backend="auto"``
  — pick the backend and shard count from a tunable cost model over the
  input size and usable CPUs;
* **transport** (:mod:`repro.parallel.shm`): ship shards to process
  workers through one read-only ``multiprocessing.shared_memory`` block
  (workers attach zero-copy NumPy views from ``(offset, length)``
  descriptors), degrading to pickled columnar stores when shared memory
  is unavailable or a shard is not columnar — :func:`ship_shards` alone
  decides, per run;
* **execution** (:mod:`repro.parallel.backends`): run per-shard summaries
  serially, on threads, or on worker processes behind one ``map_shards``
  contract;
* **merging** (:mod:`repro.parallel.summarize`,
  :mod:`repro.parallel.merge`): compress each shard to a fair composable
  coreset and reduce the summaries through a binary merge tree whose
  levels run on batched columnar kernels.

:class:`~repro.parallel.driver.ParallelFDM` wires them into a runnable
algorithm with the library's standard :class:`~repro.core.result.RunResult`
interface; the evaluation harness and the CLI expose it next to the
paper's algorithms (``--shards`` / ``--backend``).  Neither the backend,
the transport, nor the planner's choices ever change the computed
solution — only where and how fast it is computed.
"""

from repro.parallel.backends import (
    BACKENDS,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_names,
    resolve_backend,
    usable_cpus,
)
from repro.parallel.driver import ParallelFDM
from repro.parallel.merge import merge_pair, merge_tree
from repro.parallel.planner import (
    STRATEGIES,
    ExecutionPlan,
    ExecutionPlanner,
    ShardPlanner,
)
from repro.parallel.shm import (
    AttachedShard,
    ShardRef,
    StoreBlock,
    detach_elements,
    publish_shards,
    ship_shards,
    shm_available,
)
from repro.parallel.summarize import (
    SUMMARIZERS,
    GMMShardSummarizer,
    ShardSummarizer,
    StreamShardSummarizer,
    resolve_summarizer,
)

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "backend_names",
    "resolve_backend",
    "usable_cpus",
    "ShardPlanner",
    "STRATEGIES",
    "ExecutionPlan",
    "ExecutionPlanner",
    "ShardRef",
    "AttachedShard",
    "StoreBlock",
    "publish_shards",
    "ship_shards",
    "shm_available",
    "detach_elements",
    "ShardSummarizer",
    "GMMShardSummarizer",
    "StreamShardSummarizer",
    "SUMMARIZERS",
    "resolve_summarizer",
    "merge_pair",
    "merge_tree",
    "ParallelFDM",
]
