"""Public-API surface gate: snapshot exported names + signatures, fail on drift.

The public surface of the package is every name in ``repro.__all__`` plus
every name in ``repro.api.__all__``.  For each export the tool records its
kind and — for callables — its signature (for classes: the constructor
signature and the signatures of all public methods).  The snapshot is the
tracked ``API_SURFACE.json`` at the repository root:

* ``python tools/check_api_surface.py`` regenerates the snapshot in memory
  and fails (exit 1, with a readable diff) when it differs from the tracked
  file — this runs in ``make ci``, so the public API cannot drift silently;
* ``python tools/check_api_surface.py --write`` refreshes the tracked file
  (``make api-surface``) for intentional changes, which then show up in
  review as a JSON diff.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "API_SURFACE.json"
sys.path.insert(0, str(ROOT / "src"))


def _signature_of(obj) -> str:
    """``str(inspect.signature(obj))``, or a placeholder when unavailable."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _describe_class(cls) -> dict:
    """Constructor signature plus public method/property signatures.

    A class that inherits ``object.__init__`` is recorded with the
    signature of calling the class itself, ``()``, not the inherited
    ``(self, /, *args, **kwargs)``: such a class takes no arguments.
    """
    methods = {}
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            methods[name] = "<property>"
        elif isinstance(member, staticmethod):
            methods[name] = "static" + _signature_of(member.__func__)
        elif isinstance(member, classmethod):
            methods[name] = "class" + _signature_of(member.__func__)
        elif callable(member):
            methods[name] = _signature_of(member)
    init = cls if cls.__init__ is object.__init__ else cls.__init__
    return {
        "kind": "class",
        "init": _signature_of(init),
        "methods": methods,
    }


def _describe(obj) -> dict:
    """JSON-friendly description of one exported object."""
    if inspect.isclass(obj):
        return _describe_class(obj)
    if callable(obj):
        return {"kind": "function", "signature": _signature_of(obj)}
    return {"kind": "value", "type": type(obj).__name__}


def build_surface() -> dict:
    """The current public surface of ``repro`` and ``repro.api``."""
    import repro
    import repro.api

    surface = {}
    for module_name, module in (("repro", repro), ("repro.api", repro.api)):
        exports = {}
        for name in sorted(set(module.__all__)):
            exports[name] = _describe(getattr(module, name))
        surface[module_name] = exports
    return surface


def _flatten(surface: dict, prefix: str = "") -> dict:
    """Flatten the nested surface into dotted-path -> leaf string."""
    flat = {}
    for key, value in surface.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{path}."))
        else:
            flat[path] = value
    return flat


def diff_surfaces(tracked: dict, current: dict) -> list:
    """Human-readable drift lines between two surface snapshots."""
    old, new = _flatten(tracked), _flatten(current)
    lines = []
    for path in sorted(set(old) - set(new)):
        lines.append(f"removed: {path} (was {old[path]!r})")
    for path in sorted(set(new) - set(old)):
        lines.append(f"added:   {path} = {new[path]!r}")
    for path in sorted(set(old) & set(new)):
        if old[path] != new[path]:
            lines.append(f"changed: {path}: {old[path]!r} -> {new[path]!r}")
    return lines


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="refresh the tracked API_SURFACE.json instead of checking it",
    )
    args = parser.parse_args(argv)

    current = build_surface()
    if args.write:
        SNAPSHOT.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {SNAPSHOT}")
        return 0

    if not SNAPSHOT.exists():
        print(f"missing {SNAPSHOT}; run `make api-surface` to create it", file=sys.stderr)
        return 1
    tracked = json.loads(SNAPSHOT.read_text())
    drift = diff_surfaces(tracked, current)
    if drift:
        print("public API surface drifted from API_SURFACE.json:", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        print(
            "intentional? run `make api-surface` and commit the refreshed snapshot",
            file=sys.stderr,
        )
        return 1
    print(f"API surface OK ({sum(len(v) for v in tracked.values())} exports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
