"""Line-coverage gate: measure test coverage of ``src/repro`` and enforce a floor.

Preferred tool: ``pytest-cov``.  When it is importable the gate simply runs
the suite under it with ``--cov=repro --cov-fail-under=<threshold>``.  The
pinned offline environment ships neither ``pytest-cov`` nor ``coverage``,
so the gate falls back to a standard-library tracer: it installs a
``sys.settrace`` hook filtered to files under ``src/repro`` (call events
outside the package return ``None``, so the per-line cost lands only on
package frames), runs pytest in-process, and compares the executed lines
against the executable lines of every package module (the union of
``co_lines()`` over each file's compiled code objects).

The suite runs without ``@pytest.mark.slow`` tests by default (they are
subprocess-heavy example scripts that contribute no in-process coverage);
pass ``--all`` to include them.

The threshold is a **ratchet**: it is pinned at the currently measured
percentage (rounded down) and may only be raised as coverage improves —
``make ci`` fails when a PR drops below it.  Raise ``THRESHOLD`` whenever
measured coverage has durably gone up.

Exit status 0 means coverage is at or above the threshold (and the suite
passed); 1 means the suite failed or coverage regressed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Pinned line-coverage floor (percent).  Ratchet: only ever raise it.
#: Measured 95.0% when raised from 93.5%; the margin absorbs thread-timing
#: noise in the backend tests, not structural regressions.
THRESHOLD = 94.5

#: Pytest selection the gate measures (slow tests excluded by default).
PYTEST_ARGS = ["tests", "-q", "-p", "no:cacheprovider"]


def _package_files() -> list[Path]:
    """Every Python source file of the measured package."""
    return sorted(PACKAGE.rglob("*.py"))


def _executable_lines(path: Path) -> set[int]:
    """Line numbers that can execute in ``path`` (union over code objects)."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for *_, line in obj.co_lines() if line)
        stack.extend(const for const in obj.co_consts if hasattr(const, "co_lines"))
    return lines


def _run_with_pytest_cov(threshold: float, pytest_args: list[str]) -> int:
    """Run the suite under pytest-cov (preferred when installed)."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        *pytest_args,
        "--cov=repro",
        f"--cov-fail-under={threshold:g}",
    ]
    merged = dict(os.environ)
    merged["PYTHONPATH"] = str(SRC) + (
        os.pathsep + merged["PYTHONPATH"] if merged.get("PYTHONPATH") else ""
    )
    return subprocess.run(command, cwd=ROOT, env=merged).returncode


def _run_with_tracer(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process under a settrace hook; return (exit, hits)."""
    prefix = str(PACKAGE)
    hits: dict[str, set[int]] = {}

    def _local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return _local

    def _global(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            return _local
        return None

    import pytest

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(exit_code), hits


def main(argv=None) -> int:
    """Measure coverage and enforce the pinned floor; 0 = green."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help=f"minimum accepted line coverage percent (default {THRESHOLD:g})",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="include @pytest.mark.slow tests (default: excluded)",
    )
    parser.add_argument(
        "--report",
        type=int,
        default=10,
        metavar="N",
        help="print the N least-covered files (default 10)",
    )
    args = parser.parse_args(argv)

    pytest_args = list(PYTEST_ARGS)
    if not args.all:
        pytest_args += ["-m", "not slow"]

    if importlib.util.find_spec("pytest_cov") is not None:
        return _run_with_pytest_cov(args.threshold, pytest_args)

    print("coverage gate: pytest-cov unavailable; using the stdlib tracer fallback")
    sys.path.insert(0, str(SRC))
    exit_code, hits = _run_with_tracer(pytest_args)
    if exit_code != 0:
        print(f"coverage gate: test suite failed (exit {exit_code})")
        return 1

    total_executable = 0
    total_covered = 0
    per_file = []
    for path in _package_files():
        executable = _executable_lines(path)
        if not executable:
            continue
        covered = hits.get(str(path), set()) & executable
        total_executable += len(executable)
        total_covered += len(covered)
        per_file.append(
            (100.0 * len(covered) / len(executable), path.relative_to(ROOT), len(executable))
        )

    percent = 100.0 * total_covered / total_executable if total_executable else 0.0
    print(
        f"coverage gate: {percent:.1f}% of {total_executable} executable lines "
        f"({total_covered} covered) across {len(per_file)} files"
    )
    if args.report:
        print(f"  least-covered files (top {args.report}):")
        for file_percent, rel_path, executable_count in sorted(per_file)[: args.report]:
            print(f"    {file_percent:5.1f}%  {rel_path}  ({executable_count} lines)")

    if percent < args.threshold:
        print(
            f"coverage gate: FAIL — {percent:.1f}% is below the pinned "
            f"threshold {args.threshold:g}%"
        )
        return 1
    print(f"coverage gate: OK (threshold {args.threshold:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
