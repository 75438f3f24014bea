"""Pluggable algorithm registry: one namespace for every solver in the library.

Every algorithm family the library ships — the paper's streaming algorithms,
the offline baselines, and the parallel / coreset / window extensions — is
registered here under a canonical name with declared
:class:`Capabilities` metadata (streaming or offline, group-count limits,
batch-ingestion support, session support, accepted options).  The
registration is decorator-based::

    @register_algorithm(
        "SFDM2",
        kind="streaming",
        aliases=("sfdm2",),
        description="...",
        capabilities=Capabilities(kind="streaming", streaming=True, ...),
    )
    def _run_sfdm2(context: RunContext) -> RunResult:
        ...

and everything downstream — :func:`repro.solve`, the experiment harness,
and the command-line interface — dispatches through the registry instead of
hand-built per-family closures.  Third-party algorithms plug in the same
way: decorate a runner, and it becomes addressable by name everywhere.

The registry module sits at the *bottom* of the API layer: it depends only
on the error types, so any algorithm module can import it without cycles.
The built-in registrations live in :mod:`repro.api.runners`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.utils.errors import InvalidParameterError

#: A runner takes a resolved :class:`RunContext` and returns a RunResult.
AlgorithmRunner = Callable[["RunContext"], Any]

#: The algorithm kinds the registry recognises (informational, used by
#: queries and the CLI listing; new kinds may be introduced by plugins).
KINDS = ("streaming", "offline", "parallel", "coreset", "window")


@dataclass(frozen=True)
class Capabilities:
    """Declared capability metadata of one registered algorithm.

    Attributes
    ----------
    kind:
        Family label (``"streaming"``, ``"offline"``, ``"parallel"``,
        ``"coreset"``, ``"window"``, or a plugin-defined kind).
    streaming:
        Whether the algorithm is order-sensitive (consumes a one-pass
        stream; the harness varies permutation seeds for such algorithms).
    constrained:
        Whether the algorithm consumes a :class:`FairnessConstraint`
        (``False`` for the unconstrained GMM / StreamingDM).
    max_groups:
        Largest supported number of groups (``None`` = unlimited).
    batch:
        Whether the ``batch_size`` (ingestion chunk size) option applies.
    store:
        Whether the algorithm consumes columnar
        :class:`~repro.data.store.ElementStore` sources natively.
    parallel:
        Whether the algorithm distributes work over shards/backends.
    sessions:
        Whether :func:`repro.open_session` can drive the algorithm
        incrementally (long-lived ingestion with mid-stream queries).
    constraint_kinds:
        Quota rules the algorithm is meaningful under; purely
        informational (shown by ``repro --list-algorithms``).
    options:
        Option names the runner recognises; anything else passed through
        :func:`repro.solve` or the harness is rejected eagerly.
    """

    kind: str
    streaming: bool
    constrained: bool = True
    max_groups: Optional[int] = None
    batch: bool = False
    store: bool = True
    parallel: bool = False
    sessions: bool = False
    constraint_kinds: Tuple[str, ...] = ("equal", "proportional")
    options: Tuple[str, ...] = ()

    def supports_groups(self, num_groups: int) -> bool:
        """Whether a problem with ``num_groups`` groups is within limits."""
        return self.max_groups is None or num_groups <= self.max_groups

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly representation (used by the CLI listing)."""
        return {
            "kind": self.kind,
            "streaming": self.streaming,
            "constrained": self.constrained,
            "max_groups": self.max_groups,
            "batch": self.batch,
            "store": self.store,
            "parallel": self.parallel,
            "sessions": self.sessions,
            "constraint_kinds": list(self.constraint_kinds),
            "options": list(self.options),
        }


@dataclass
class RunContext:
    """The resolved problem a registered runner executes on.

    Built by :func:`repro.solve` (from user data) and by the experiment
    harness (from a :class:`~repro.datasets.spec.DatasetSpec`); runners only
    ever see this one shape, which is what makes every calling convention in
    the library uniform.

    Attributes
    ----------
    metric:
        The distance metric of the problem.
    constraint:
        The fairness constraint, or ``None`` for unconstrained problems.
    k:
        The solution size (always set; equals ``constraint.total_size``
        for constrained problems).
    epsilon:
        Guess-ladder resolution for the streaming algorithms.
    seed:
        Stream-permutation / tie-breaking seed (``None`` = canonical order).
    options:
        Algorithm-specific options, already validated against the entry's
        declared option names.
    """

    metric: Any
    k: int
    constraint: Optional[Any] = None
    epsilon: float = 0.1
    seed: Optional[int] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    #: Offline view: the full element list in canonical order, or a
    #: zero-argument callable building it on the first read of
    #: :attr:`elements` (so streaming runners never pay for it).
    _elements: Union[Sequence[Any], Callable[[], Sequence[Any]], None] = None
    #: Streaming view: zero-argument callable producing a one-pass stream.
    _stream_factory: Optional[Callable[[], Iterable[Any]]] = None
    #: Number of elements, when known up front.
    size: Optional[int] = None

    @classmethod
    def from_dataset(
        cls,
        dataset: Any,
        constraint: Optional[Any],
        epsilon: float = 0.1,
        seed: Optional[int] = None,
        k: Optional[int] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "RunContext":
        """Context over a :class:`~repro.datasets.spec.DatasetSpec`-like object.

        The offline view is ``dataset.elements`` and the streaming view is
        ``dataset.stream(seed=seed)`` — exactly the conventions direct
        callers use, so registry dispatch is byte-identical to direct
        invocation.
        """
        if k is None:
            if constraint is None:
                raise InvalidParameterError(
                    "a RunContext needs k when no constraint is given"
                )
            k = constraint.total_size
        return cls(
            metric=dataset.metric,
            k=int(k),
            constraint=constraint,
            epsilon=epsilon,
            seed=seed,
            options=dict(options) if options else {},
            _elements=dataset.elements,
            _stream_factory=lambda: dataset.stream(seed=seed),
            size=dataset.size,
        )

    @property
    def elements(self) -> Sequence[Any]:
        """The full element list (offline algorithms' input), built once on first read."""
        if callable(self._elements):
            self._elements = self._elements()
        if self._elements is None:
            raise InvalidParameterError(
                "this problem has no offline element view; "
                "offline algorithms need materialised elements"
            )
        return self._elements

    def stream(self) -> Iterable[Any]:
        """A fresh one-pass stream (streaming algorithms' input)."""
        if self._stream_factory is not None:
            return self._stream_factory()
        return list(self.elements)

    def require_constraint(self) -> Any:
        """The fairness constraint; raises for unconstrained problems."""
        if self.constraint is None:
            raise InvalidParameterError(
                "this algorithm needs a fairness constraint; pass groups=/constraint= "
                "(or choose an unconstrained algorithm such as 'StreamingDM' or 'GMM')"
            )
        return self.constraint

    def option(self, name: str, default: Any = None) -> Any:
        """One option value, with ``None`` treated as absent."""
        value = self.options.get(name, default)
        return default if value is None else value


@dataclass(frozen=True)
class AlgorithmInfo:
    """Public, immutable snapshot of one registry entry."""

    name: str
    description: str
    capabilities: Capabilities
    aliases: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        """The entry's family label (shortcut for ``capabilities.kind``)."""
        return self.capabilities.kind


@dataclass
class RegisteredAlgorithm:
    """One registry entry: a runner plus its declared metadata."""

    name: str
    runner: AlgorithmRunner
    capabilities: Capabilities
    description: str = ""
    aliases: Tuple[str, ...] = ()
    #: Optional eager option validator (called with the options mapping
    #: before any run starts, so bad values fail loudly at spec time).
    validator: Optional[Callable[[Mapping[str, Any]], None]] = None
    #: Optional factory building a live session: ``factory(context) ->
    #: session``.  Only set for algorithms with ``capabilities.sessions``.
    session_factory: Optional[Callable[["RunContext"], Any]] = None

    def run(self, context: RunContext) -> Any:
        """Execute the runner on a resolved context."""
        return self.runner(context)

    def supports(self, constraint: Any) -> bool:
        """Whether this algorithm can run under ``constraint``."""
        return self.capabilities.supports_groups(constraint.num_groups)

    def validate_options(self, options: Mapping[str, Any]) -> Dict[str, Any]:
        """Check ``options`` eagerly; returns the cleaned mapping.

        ``None`` values are dropped (treated as "use the default"), unknown
        names raise, and the entry's custom validator — which checks value
        ranges, backend names, and the like — runs on the survivors.
        """
        cleaned = {key: value for key, value in options.items() if value is not None}
        unknown = sorted(set(cleaned) - set(self.capabilities.options))
        if unknown:
            raise InvalidParameterError(
                f"{self.name} does not accept option(s) {', '.join(map(repr, unknown))}; "
                f"recognised: {', '.join(self.capabilities.options) or '(none)'}"
            )
        if self.validator is not None:
            self.validator(cleaned)
        return cleaned

    def info(self) -> AlgorithmInfo:
        """The public snapshot of this entry."""
        return AlgorithmInfo(
            name=self.name,
            description=self.description,
            capabilities=self.capabilities,
            aliases=self.aliases,
        )


_REGISTRY: Dict[str, RegisteredAlgorithm] = {}
#: Lower-cased name/alias -> canonical name.
_LOOKUP: Dict[str, str] = {}

_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Load the built-in registrations on first registry access.

    Lets callers import any registry-consuming module (the harness, the
    CLI) directly — without going through the ``repro`` package — and
    still see the full built-in catalogue.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.api.runners  # noqa: F401  (registers the built-ins)


def register_algorithm(
    name: str,
    *,
    kind: str,
    capabilities: Optional[Capabilities] = None,
    description: str = "",
    aliases: Sequence[str] = (),
    validator: Optional[Callable[[Mapping[str, Any]], None]] = None,
    session_factory: Optional[Callable[[RunContext], Any]] = None,
    replace: bool = False,
    **capability_kwargs: Any,
) -> Callable[[AlgorithmRunner], AlgorithmRunner]:
    """Decorator registering a runner under ``name`` with its capabilities.

    Parameters
    ----------
    name:
        Canonical algorithm name (lookup is case-insensitive).
    kind:
        Family label; also becomes ``capabilities.kind`` when the
        capabilities are given as keyword shorthand.
    capabilities:
        Full :class:`Capabilities` object; alternatively pass its fields
        directly as keyword arguments (``streaming=True, max_groups=2,
        ...``) and they are assembled here.
    description:
        One-line human-readable summary (falls back to the runner's
        docstring summary line).
    aliases:
        Extra lookup names (e.g. the lower-case short form).
    validator:
        Eager option validator; see
        :meth:`RegisteredAlgorithm.validate_options`.
    session_factory:
        Factory for long-lived sessions (algorithms with
        ``sessions=True``).
    replace:
        Allow re-registering an existing name (used by tests and plugins
        that shadow a built-in); the default is to fail loudly.
    """
    if capabilities is None:
        capabilities = Capabilities(kind=kind, **capability_kwargs)
    elif capability_kwargs:
        raise InvalidParameterError(
            "pass either a Capabilities object or capability keywords, not both"
        )

    def _decorate(runner: AlgorithmRunner) -> AlgorithmRunner:
        summary = description
        if not summary and runner.__doc__:
            summary = runner.__doc__.strip().splitlines()[0]
        entry = RegisteredAlgorithm(
            name=name,
            runner=runner,
            capabilities=capabilities,
            description=summary,
            aliases=tuple(aliases),
            validator=validator,
            session_factory=session_factory,
        )
        _register(entry, replace=replace)
        return runner

    return _decorate


def _register(entry: RegisteredAlgorithm, replace: bool = False) -> None:
    """Insert ``entry`` into the registry, maintaining the lookup table.

    ``replace`` only permits shadowing an entry of the *same* canonical
    name — a name or alias that currently resolves to a different entry is
    always a collision, otherwise a replacement could silently hijack
    (and, on teardown, orphan) another algorithm's lookups.
    """
    keys = [entry.name.lower(), *(alias.lower() for alias in entry.aliases)]
    for key in keys:
        existing = _LOOKUP.get(key)
        if existing is not None and existing != entry.name:
            raise InvalidParameterError(
                f"algorithm name {key!r} is already registered (by {existing!r})"
            )
    if not replace and entry.name in _REGISTRY:
        raise InvalidParameterError(
            f"algorithm {entry.name!r} is already registered; "
            f"pass replace=True to shadow it"
        )
    _REGISTRY[entry.name] = entry
    for key in keys:
        _LOOKUP[key] = entry.name


def unregister_algorithm(name: str) -> None:
    """Remove an entry (primarily for tests and plugin teardown)."""
    entry = _REGISTRY.pop(get_algorithm(name).name)
    for key, canonical in list(_LOOKUP.items()):
        if canonical == entry.name:
            del _LOOKUP[key]


def get_algorithm(name: str) -> RegisteredAlgorithm:
    """The registry entry for ``name`` (case-insensitive, aliases resolve).

    Raises
    ------
    InvalidParameterError
        For unknown names, listing what is available.
    """
    _ensure_builtins()
    canonical = _LOOKUP.get(str(name).lower())
    if canonical is None:
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; registered: {', '.join(algorithm_names())}"
        )
    return _REGISTRY[canonical]


def has_algorithm(name: str) -> bool:
    """Whether ``name`` (or an alias of it) is registered."""
    _ensure_builtins()
    return str(name).lower() in _LOOKUP


def algorithm_names(kind: Optional[str] = None) -> List[str]:
    """Canonical registered names, in registration order, optionally by kind."""
    _ensure_builtins()
    return [
        entry.name
        for entry in _REGISTRY.values()
        if kind is None or entry.capabilities.kind == kind
    ]


def algorithms(kind: Optional[str] = None) -> List[AlgorithmInfo]:
    """Public snapshots of every registered algorithm, optionally by kind.

    This is the ``repro.algorithms()`` helper: the programmatic counterpart
    of ``repro --list-algorithms``.
    """
    _ensure_builtins()
    return [
        entry.info()
        for entry in _REGISTRY.values()
        if kind is None or entry.capabilities.kind == kind
    ]


def query(
    *,
    kind: Optional[str] = None,
    streaming: Optional[bool] = None,
    sessions: Optional[bool] = None,
    num_groups: Optional[int] = None,
    constrained: Optional[bool] = None,
) -> List[RegisteredAlgorithm]:
    """Registry entries matching every given capability filter."""
    _ensure_builtins()
    matches = []
    for entry in _REGISTRY.values():
        caps = entry.capabilities
        if kind is not None and caps.kind != kind:
            continue
        if streaming is not None and caps.streaming != streaming:
            continue
        if sessions is not None and caps.sessions != sessions:
            continue
        if constrained is not None and caps.constrained != constrained:
            continue
        if num_groups is not None and not caps.supports_groups(num_groups):
            continue
        matches.append(entry)
    return matches
