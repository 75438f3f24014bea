"""The unified entry point: ``repro.solve(data, k, ...)`` and sessions.

One call covers every algorithm in the registry and every data shape the
library understands::

    import repro

    # raw arrays
    result = repro.solve(features, k=10, groups=labels)

    # a registry dataset, a specific algorithm, extra options
    dataset = repro.load_dataset("adult-sex")
    result = repro.solve(dataset, k=20, algorithm="SFDM2", batch_size=1024)

    # long-lived ingestion
    session = repro.open_session(k=10, groups=[0, 1], algorithm="SFDM2")
    session.offer_rows(rows, groups=row_groups)
    answer = session.solution()

``solve`` resolves the data (arrays, :class:`~repro.data.store.ElementStore`,
:class:`~repro.streaming.stream.DataStream`, element lists, or
:class:`~repro.datasets.spec.DatasetSpec`), picks or validates the algorithm
against the registry's declared capabilities, builds or validates the
fairness constraint and checks that the data can meet it (one resolver,
shared with :func:`open_session` and the harness), and invokes the runner
on the resolved :class:`~repro.api.registry.RunContext` — returning the **same**
:class:`~repro.core.result.RunResult` (byte-identical solution, identical
distance accounting) a direct call to the underlying algorithm would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from repro import obs
from repro.api.registry import RegisteredAlgorithm, RunContext, get_algorithm
from repro.data.store import ElementStore
from repro.datasets.spec import DatasetSpec
from repro.fairness.constraints import (
    FairnessConstraint,
    equal_representation,
    proportional_representation,
)
from repro.metrics.base import Metric
from repro.metrics.vector import (
    angular,
    chebyshev,
    cosine,
    euclidean,
    hamming,
    manhattan,
)
from repro.streaming.stream import DataStream, stream_from_arrays
from repro.utils.errors import InvalidParameterError

#: Metric factories addressable by name in ``solve(metric="...")``.
_METRIC_FACTORIES = {
    "euclidean": euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
    "angular": angular,
    "cosine": cosine,
    "hamming": hamming,
}


@dataclass
class SolveSpec:
    """Typed configuration of one :func:`solve` call (or one session).

    Attributes
    ----------
    data:
        The problem data — a :class:`~repro.datasets.spec.DatasetSpec`, an
        :class:`~repro.data.store.ElementStore`, a
        :class:`~repro.streaming.stream.DataStream`, a sequence of
        :class:`~repro.data.element.Element`, or a numeric ``(n, d)`` array
        (with ``groups`` supplying the labels).  ``None`` is allowed for
        sessions, which ingest data incrementally.
    k:
        Solution size.  Optional when an explicit ``constraint`` carries it.
    groups:
        Group labels.  For array data: one integer per row (a NaN,
        infinite, fractional or non-scalar label raises
        :class:`~repro.utils.errors.InvalidParameterError` naming its row).
        For sessions without data: the collection of group labels the
        constraint should cover.
    algorithm:
        Registry name (case-insensitive, aliases allowed) or ``"auto"``:
        unconstrained problems pick StreamingDM, two-group problems SFDM1,
        anything else SFDM2.
    metric:
        A :class:`~repro.metrics.base.Metric`, a factory name
        (``"euclidean"``, ``"manhattan"``, ``"chebyshev"``, ``"angular"``,
        ``"cosine"``, ``"hamming"``), or ``None`` — which uses the
        dataset's own metric when the data is a ``DatasetSpec`` and
        Euclidean otherwise.
    constraint:
        Explicit :class:`~repro.fairness.constraints.FairnessConstraint`;
        overrides the ``fairness`` rule.
    fairness:
        Quota rule used to build the constraint from the data's group
        sizes: ``"equal"`` or ``"proportional"``.
    epsilon:
        Guess-ladder resolution for the streaming algorithms.
    seed:
        Stream permutation seed (also the run seed of seeded algorithms).
    options:
        Algorithm-specific options (``batch_size``, ``shards``,
        ``window``, ...), validated eagerly against the registry entry's
        declared option names.
    trace:
        Optional tracing sink spec — a :class:`repro.obs.Sink` instance,
        ``"stderr"``, ``"memory"``, or a JSONL file path.  For ``solve``
        the tracer is scoped to the call (the previous tracer
        configuration is restored afterwards), and its ``solve`` span
        covers data resolution as well as the run; for sessions it configures
        the process-wide tracer, since the session outlives the call.
        ``None`` (the default) leaves tracing exactly as configured.
    """

    data: Any = None
    k: Optional[int] = None
    groups: Any = None
    algorithm: str = "auto"
    metric: Union[Metric, str, None] = None
    constraint: Optional[FairnessConstraint] = None
    fairness: str = "equal"
    epsilon: float = 0.1
    seed: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)
    trace: Any = None


@dataclass
class _ResolvedData:
    """Uniform view of whatever ``SolveSpec.data`` was."""

    #: The element list, or a zero-argument callable building it on first
    #: read (see :attr:`RunContext.elements`; only offline runners read it).
    elements: Any
    stream_factory: Any
    size: int
    group_sizes: Dict[int, int]
    metric: Optional[Metric] = None


def _resolve_metric(spec: SolveSpec, data_metric: Optional[Metric]) -> Metric:
    """The metric the run will use (explicit > dataset's own > Euclidean)."""
    metric = spec.metric
    if metric is None:
        return data_metric if data_metric is not None else euclidean()
    if isinstance(metric, str):
        factory = _METRIC_FACTORIES.get(metric.lower())
        if factory is None:
            raise InvalidParameterError(
                f"unknown metric {metric!r}; named metrics: "
                f"{', '.join(sorted(_METRIC_FACTORIES))}"
            )
        return factory()
    if isinstance(metric, Metric):
        return metric
    raise InvalidParameterError(
        f"metric must be a Metric, a metric name, or None, got {type(metric).__name__}"
    )


def _resolve_data(spec: SolveSpec) -> _ResolvedData:
    """Normalise ``spec.data`` into a one-pass stream factory plus an element view.

    Columnar inputs (arrays, stores, data streams) hand over the stream's
    ``elements`` method rather than its result: the per-row element list is
    built only if an offline runner reads it, so a streaming run goes from
    the caller's matrix straight to chunk screens.
    """
    data = spec.data
    seed = spec.seed
    if isinstance(data, DatasetSpec):
        return _ResolvedData(
            elements=data.elements,
            stream_factory=lambda: data.stream(seed=seed),
            size=data.size,
            group_sizes=data.group_sizes(),
            metric=data.metric,
        )
    if isinstance(data, ElementStore):
        data = DataStream(store=data, shuffle_seed=seed, name="data")
    elif isinstance(data, np.ndarray) or (
        isinstance(data, (list, tuple))
        and len(data)
        and not hasattr(data[0], "uid")
    ):
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise InvalidParameterError(
                f"array data must have shape (n, d), got ndim={matrix.ndim}"
            )
        groups = spec.groups
        if groups is None:
            groups = np.zeros(matrix.shape[0], dtype=np.int64)
        data = stream_from_arrays(matrix, groups, name="data", shuffle_seed=seed)
    if isinstance(data, DataStream):
        stream = data if seed is None else data.permuted(seed)
        return _ResolvedData(
            elements=stream.elements,
            stream_factory=lambda: stream,
            size=len(stream),
            group_sizes=stream.group_sizes(),
        )
    if isinstance(data, (list, tuple)):
        elements = list(data)
        if not elements:
            raise InvalidParameterError("solve() received an empty element list")
        sizes: Dict[int, int] = {}
        for element in elements:
            sizes[element.group] = sizes.get(element.group, 0) + 1
        if seed is None:
            return _ResolvedData(
                elements=elements,
                stream_factory=lambda: list(elements),
                size=len(elements),
                group_sizes=sizes,
            )
        shuffled = DataStream(elements, shuffle_seed=seed, name="data")
        return _ResolvedData(
            elements=elements,
            stream_factory=lambda: shuffled,
            size=len(elements),
            group_sizes=sizes,
        )
    raise InvalidParameterError(
        "solve() accepts a DatasetSpec, ElementStore, DataStream, element "
        f"sequence, or (n, d) array; got {type(data).__name__}"
    )


def _resolve_constraint(
    spec: SolveSpec, group_sizes: Dict[int, int]
) -> FairnessConstraint:
    """Build (or validate) the fairness constraint for the resolved data.

    ``group_sizes`` maps every label to its count; a session opened without
    data knows only the labels (every count is zero), which is enough for
    equal quotas but not for proportional ones.
    """
    if spec.constraint is not None:
        if spec.k is not None and spec.k != spec.constraint.total_size:
            raise InvalidParameterError(
                f"k={spec.k} conflicts with the constraint's total size "
                f"{spec.constraint.total_size}"
            )
        return spec.constraint
    if not group_sizes:
        raise InvalidParameterError(
            "cannot build a fairness constraint without group labels; "
            "pass groups= or constraint="
        )
    if spec.fairness == "equal":
        return equal_representation(spec.k, list(group_sizes.keys()))
    if spec.fairness == "proportional":
        if not any(group_sizes.values()):
            raise InvalidParameterError(
                "proportional quotas need materialised data; sessions "
                "without data support fairness='equal' or an explicit "
                "constraint"
            )
        return proportional_representation(spec.k, group_sizes)
    raise InvalidParameterError(
        f"fairness must be 'equal' or 'proportional', got {spec.fairness!r}"
    )


def _auto_algorithm(spec: SolveSpec, num_groups: int) -> str:
    """The ``algorithm="auto"`` selection rule.

    Unconstrained problems (no groups, no constraint) use the paper's
    Algorithm 1; two-group problems use SFDM1 (its ``(1-eps)/4`` ratio
    beats SFDM2's ``(1-eps)/8`` at ``m = 2``); everything else uses SFDM2.
    """
    if spec.constraint is None and num_groups <= 1:
        return "StreamingDM"
    m = spec.constraint.num_groups if spec.constraint is not None else num_groups
    return "SFDM1" if m == 2 else "SFDM2"


def _resolve_entry(
    spec: SolveSpec, num_groups: int
) -> RegisteredAlgorithm:
    """The registry entry the spec addresses (resolving ``"auto"``)."""
    name = spec.algorithm or "auto"
    if str(name).lower() == "auto":
        name = _auto_algorithm(spec, num_groups)
    return get_algorithm(name)


def solve(data: Any = None, k: Optional[int] = None, **kwargs: Any) -> Any:
    """Solve a (fair) diversity maximization problem with one call.

    Parameters
    ----------
    data:
        The problem data, or a prepared :class:`SolveSpec` (in which case
        every other argument must be omitted).  Accepted shapes: dataset
        spec, element store, data stream, element sequence, or a numeric
        ``(n, d)`` array with ``groups=`` labels.
    k:
        Solution size (optional when ``constraint`` carries it).
    **kwargs:
        The remaining :class:`SolveSpec` fields (``groups``, ``algorithm``,
        ``metric``, ``constraint``, ``fairness``, ``epsilon``, ``seed``),
        plus any algorithm-specific options (``batch_size``, ``shards``,
        ``backend``, ``num_parts``, ``window``, ...), which are validated
        eagerly against the chosen algorithm's declared capabilities.

    Returns
    -------
    RunResult
        Exactly what a direct invocation of the chosen algorithm returns —
        byte-identical solution, identical distance accounting.
    """
    if isinstance(data, SolveSpec):
        if k is not None or kwargs:
            raise InvalidParameterError(
                "pass either a SolveSpec or keyword arguments, not both"
            )
        spec = data
    else:
        spec = _spec_from_kwargs(data, k, kwargs)
    if spec.trace is None:
        return _solve(spec)
    with obs.tracing(spec.trace):
        with obs.span("solve") as span:
            return _solve(spec, span)


def _solve(spec: SolveSpec, span: Any = None) -> Any:
    """Resolve ``spec`` and run it.

    ``span`` is the ``solve`` span of a traced call, opened before data
    resolution so that the trace covers it; ``algorithm``, ``n`` and ``k``
    are set on it as they resolve.
    """
    if spec.data is None:
        raise InvalidParameterError(
            "solve() needs data; use open_session() for incremental ingestion"
        )

    resolved = _resolve_data(spec)
    entry = _resolve_entry(spec, len(resolved.group_sizes))
    if span is not None:
        span.set(algorithm=entry.name, n=resolved.size)
    context = _resolve_context(spec, entry, resolved.group_sizes, resolved)
    if span is not None:
        span.set(k=context.k)
    return entry.run(context)


def _resolve_context(
    spec: SolveSpec,
    entry: RegisteredAlgorithm,
    group_sizes: Dict[int, int],
    resolved: Optional[_ResolvedData],
) -> RunContext:
    """The one resolver behind :func:`solve`, :func:`open_session` and the harness.

    Validates the options against ``entry``, builds the constraint and
    checks that the entry supports it and, when data is given
    (``resolved``), that every group holds its quota; then settles ``k``
    and returns the :class:`RunContext` the runner or session factory
    takes.  ``resolved`` is ``None`` for a session opened without data.

    Raises
    ------
    InvalidParameterError
        For unknown or out-of-range options, a missing ``k``, a constraint
        the entry does not support, or one that conflicts with ``k``.
    InfeasibleConstraintError
        If the data holds fewer elements of some group than its quota.
    """
    options = entry.validate_options(spec.options)
    if spec.k is None and spec.constraint is None:
        raise InvalidParameterError("the problem needs k (or an explicit constraint)")
    constraint = spec.constraint
    if entry.capabilities.constrained:
        constraint = _resolve_constraint(spec, group_sizes)
        if not entry.supports(constraint):
            raise InvalidParameterError(
                f"{entry.name} does not support m={constraint.num_groups} groups"
            )
        if resolved is not None:
            constraint.validate_feasible(group_sizes)
    return RunContext(
        metric=_resolve_metric(spec, resolved.metric if resolved else None),
        k=int(spec.k if spec.k is not None else spec.constraint.total_size),
        constraint=constraint,
        epsilon=spec.epsilon,
        seed=spec.seed,
        options=options,
        _elements=resolved.elements if resolved else None,
        _stream_factory=resolved.stream_factory if resolved else None,
        size=resolved.size if resolved else None,
    )


def _spec_from_kwargs(data: Any, k: Optional[int], kwargs: Dict[str, Any]) -> SolveSpec:
    """Split ``solve``/``open_session`` keywords into spec fields and options."""
    spec_fields = {
        name: kwargs.pop(name)
        for name in ("groups", "algorithm", "metric", "constraint", "fairness",
                     "epsilon", "seed", "trace")
        if name in kwargs
    }
    explicit_options = kwargs.pop("options", None)
    options = dict(explicit_options) if explicit_options else {}
    options.update(kwargs)  # everything left is an algorithm option
    return SolveSpec(data=data, k=k, options=options, **spec_fields)


def open_session(spec: Optional[SolveSpec] = None, **kwargs: Any) -> Any:
    """Open a long-lived streaming session (see :mod:`repro.api.session`).

    Accepts the same configuration as :func:`solve` — as a
    :class:`SolveSpec` or as keyword arguments — except that ``data`` is
    optional: sessions usually start empty and ingest through
    ``offer``/``offer_batch``/``offer_rows``.  When ``data`` *is* given,
    its elements are offered to the fresh session up front (in the spec's
    stream order).

    For sessions without data, ``groups`` lists the group labels the
    fairness constraint should cover (quotas come from the ``fairness``
    rule over ``k``); pass an explicit ``constraint`` for full control.

    Raises
    ------
    InvalidParameterError
        If the chosen algorithm is not session-capable (its registry entry
        lacks the ``sessions`` capability).
    """
    if spec is None:
        spec = _spec_from_kwargs(kwargs.pop("data", None), kwargs.pop("k", None), kwargs)
    elif kwargs:
        raise InvalidParameterError(
            "pass either a SolveSpec or keyword arguments, not both"
        )

    resolved = _resolve_data(spec) if spec.data is not None else None
    if resolved is not None:
        group_sizes = resolved.group_sizes
    elif spec.groups is not None:
        group_sizes = {int(group): 0 for group in spec.groups}
    else:
        group_sizes = {}

    entry = _resolve_entry(spec, len(group_sizes))
    if not entry.capabilities.sessions or entry.session_factory is None:
        raise InvalidParameterError(
            f"{entry.name} does not support sessions; session-capable "
            f"algorithms declare the 'sessions' capability "
            f"(see repro.algorithms())"
        )
    context = _resolve_context(spec, entry, group_sizes, resolved)
    if spec.trace is not None:
        # Sessions outlive the call, so the tracer cannot be scoped to it:
        # install the sink process-wide (mirrors the session constructors).
        obs.configure(sink=spec.trace, enabled=True)
    session = entry.session_factory(context)
    if resolved is not None:
        session.offer_batch(context.stream())
    return session
