"""Formatting experiment records as aligned-text tables and CSV files.

The benchmark scripts print the same rows the paper's tables and figures
report, so a reader can diff the shape of the reproduction against the
original numbers without any plotting dependencies.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.evaluation.harness import ExperimentRecord


def records_to_rows(
    records: Sequence[ExperimentRecord],
    columns: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Convert experiment records to plain dictionaries, optionally projected.

    Parameters
    ----------
    records:
        The records to convert.
    columns:
        If given, only these keys are kept (in this order).
    """
    rows = [record.as_dict() for record in records]
    if columns is None:
        return rows
    return [{column: row.get(column, "") for column in columns} for row in rows]


def _format_value(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_format)
    return str(value)


def format_table(
    rows: Iterable[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = ".4f",
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned monospaced table.

    Parameters
    ----------
    rows:
        The rows; all dictionaries should share the same keys.
    columns:
        Column order; defaults to the keys of the first row.
    float_format:
        ``format()`` specifier applied to float values.
    title:
        Optional title line printed above the table.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [
        [_format_value(row.get(column, ""), float_format) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(rendered_row[i]) for rendered_row in rendered))
        for i, column in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "-+-".join("-" * widths[i] for i in range(len(columns)))
    lines.append(header)
    lines.append(separator)
    for rendered_row in rendered:
        lines.append(" | ".join(rendered_row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def write_csv(
    rows: Sequence[Dict[str, object]],
    path: Union[str, Path],
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write rows to a CSV file and return the path.

    Parameters
    ----------
    rows:
        The rows to write; all dictionaries should share the same keys.
    path:
        Target file path (parent directories are created).
    columns:
        Column order; defaults to the keys of the first row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    if columns is None:
        columns = list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def load_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL trace written by :class:`repro.obs.JsonlSink`.

    Parameters
    ----------
    path:
        The trace file (one JSON record per line; blank lines skipped).

    Returns
    -------
    list of dict
        The span/event records in file (completion) order.
    """
    import json

    records: List[Dict[str, object]] = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def summarize_trace(
    records: Iterable[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Aggregate trace records into per-name rows for :func:`format_table`.

    One row per span/event name: occurrence count, total and mean span
    duration and total self time in milliseconds (zero for events), sorted
    by total duration descending — the quickest way to see where a traced
    run spent its time::

        rows = summarize_trace(load_trace("run.jsonl"))
        print(format_table(rows, columns=["name", "count", "total_ms", "self_ms", "mean_ms"]))

    A span's self time is its duration minus the part of it that its child
    spans cover.  Children are clipped to the parent's interval and merged
    first, so children that overlap each other or outlive their parent
    never count twice or drive a self time below zero.
    """
    records = list(records)
    children: Dict[object, List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("type") == "span" and record.get("parent_id") is not None:
            start = float(record["mono"])
            children.setdefault(record["parent_id"], []).append(
                (start, start + float(record["dur"]))
            )
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        name = str(record.get("name"))
        entry = totals.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        if record.get("type") == "span":
            duration = float(record.get("dur", 0.0))
            covered = _covered_seconds(record, children.get(record.get("span_id"), []))
            entry["total_ms"] += duration * 1000.0
            entry["self_ms"] += (duration - covered) * 1000.0
    rows = [
        {
            "name": name,
            "count": int(entry["count"]),
            "total_ms": entry["total_ms"],
            "mean_ms": entry["total_ms"] / entry["count"],
            "self_ms": entry["self_ms"],
        }
        for name, entry in totals.items()
    ]
    rows.sort(key=lambda row: row["total_ms"], reverse=True)
    return rows


def _covered_seconds(span: Dict[str, object], children: List[Tuple[float, float]]) -> float:
    """How much of ``span``'s interval the ``(start, stop)`` intervals cover together."""
    start = float(span["mono"])
    stop = start + float(span["dur"])
    covered, cursor = 0.0, start
    for child_start, child_stop in sorted(children):
        child_start, child_stop = max(child_start, cursor), min(child_stop, stop)
        if child_stop > child_start:
            covered += child_stop - child_start
            cursor = child_stop
    return covered
