"""Schema checker for ``repro.obs`` JSONL trace files.

Validates every record a :class:`repro.obs.JsonlSink` wrote:

* each line is a JSON object with ``type`` (``"span"`` or ``"event"``),
  a non-empty ``name``, numeric ``ts``/``mono`` clocks, and an ``attrs``
  object;
* spans carry a unique positive ``span_id``, a non-negative ``dur`` and
  ``depth``, and a ``parent_id`` that is null or references another span
  in the file;
* events carry a ``span_id`` that is null or references a span in the
  file, and a non-negative ``depth``.

Used by ``make trace-smoke``, which runs a traced SFDM2 solve through
the CLI and a traced ``repro.solve`` on an ``(n, d)`` array, and feeds
both files through this checker.  Exit status 0 means the file
is a valid trace; 1 means at least one record is malformed (each problem
is reported with its line number).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Fields every record must carry, with their accepted types.
_COMMON_FIELDS: Tuple[Tuple[str, tuple], ...] = (
    ("type", (str,)),
    ("name", (str,)),
    ("ts", (int, float)),
    ("mono", (int, float)),
    ("attrs", (dict,)),
)


def _check_record(line_no: int, record: Any, problems: List[str]) -> Dict[str, Any]:
    """Validate one parsed record's own fields (no cross-record checks)."""
    if not isinstance(record, dict):
        problems.append(f"line {line_no}: not a JSON object")
        return {}
    for field, types in _COMMON_FIELDS:
        if field not in record:
            problems.append(f"line {line_no}: missing {field!r}")
        elif not isinstance(record[field], types):
            problems.append(
                f"line {line_no}: {field!r} has type "
                f"{type(record[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    kind = record.get("type")
    if kind not in ("span", "event"):
        problems.append(f"line {line_no}: type must be 'span' or 'event', got {kind!r}")
        return record
    if not record.get("name"):
        problems.append(f"line {line_no}: empty span/event name")
    depth = record.get("depth")
    if not isinstance(depth, int) or depth < 0:
        problems.append(f"line {line_no}: depth must be a non-negative int, got {depth!r}")
    if kind == "span":
        span_id = record.get("span_id")
        if not isinstance(span_id, int) or span_id < 1:
            problems.append(
                f"line {line_no}: span_id must be a positive int, got {span_id!r}"
            )
        dur = record.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(
                f"line {line_no}: dur must be a non-negative number, got {dur!r}"
            )
        parent = record.get("parent_id")
        if parent is not None and not isinstance(parent, int):
            problems.append(
                f"line {line_no}: parent_id must be null or an int, got {parent!r}"
            )
        error = record.get("error")
        if error is not None and not isinstance(error, str):
            problems.append(
                f"line {line_no}: error must be a string, got {error!r}"
            )
    else:
        span_id = record.get("span_id")
        if span_id is not None and not isinstance(span_id, int):
            problems.append(
                f"line {line_no}: event span_id must be null or an int, got {span_id!r}"
            )
    return record


def check_trace(path: Path) -> List[str]:
    """All schema problems found in the trace file at ``path``."""
    problems: List[str] = []
    records: List[Tuple[int, Dict[str, Any]]] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    if not lines:
        return [f"{path}: empty trace (no records)"]
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as error:
            problems.append(f"line {line_no}: invalid JSON ({error})")
            continue
        records.append((line_no, _check_record(line_no, record, problems)))

    # Cross-record checks: unique span ids, resolvable references.
    span_ids = set()
    for line_no, record in records:
        if record.get("type") == "span" and isinstance(record.get("span_id"), int):
            if record["span_id"] in span_ids:
                problems.append(f"line {line_no}: duplicate span_id {record['span_id']}")
            span_ids.add(record["span_id"])
    for line_no, record in records:
        kind = record.get("type")
        ref = record.get("parent_id") if kind == "span" else record.get("span_id")
        if kind in ("span", "event") and isinstance(ref, int) and ref not in span_ids:
            field = "parent_id" if kind == "span" else "span_id"
            problems.append(
                f"line {line_no}: {field} {ref} references a span not in the file"
            )
    return problems


def main(argv=None) -> int:
    """Check each trace file; 0 = all valid, 1 = any problem."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="JSONL trace files to validate")
    parser.add_argument(
        "--expect-span",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one span with this name (repeatable)",
    )
    args = parser.parse_args(argv)

    status = 0
    for raw in args.paths:
        path = Path(raw)
        problems = check_trace(path)
        names = set()
        spans = events = 0
        if not problems:
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                names.add(record["name"])
                if record["type"] == "span":
                    spans += 1
                else:
                    events += 1
            for expected in args.expect_span:
                if expected not in names:
                    problems.append(f"no span named {expected!r} in the trace")
        if problems:
            status = 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: OK ({spans} spans, {events} events, {len(names)} names)")
    return status


if __name__ == "__main__":
    sys.exit(main())
