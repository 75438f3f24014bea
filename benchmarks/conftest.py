"""Shared configuration and helpers for the benchmark suite.

Every benchmark module reproduces one table or figure of the paper.  Because
the original datasets are replaced by laptop-scale surrogates (see
DESIGN.md §2.3), the absolute numbers differ from the paper; the benches
print the same *rows/series* so the qualitative shape can be compared, and
they persist their rows as CSV files under ``benchmarks/results/``.

The instance sizes are deliberately small (a few thousand points) so the
whole suite finishes in minutes; pass larger sizes via the environment
variables ``REPRO_BENCH_N`` and ``REPRO_BENCH_REPS`` for a longer run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

RESULTS_DIR = Path(__file__).parent / "results"

#: The shared perf-baseline file at the repo root.  Every engine bench
#: writes its headline numbers here (under its own section key) so the
#: baseline lives in one tracked JSON; ``tools/perf_gate.py`` checks the
#: smoke run against the committed copy.  Overridable so ``make
#: bench-smoke`` writes its sections to a gitignored copy without touching
#: the committed baseline.
BENCH_JSON = Path(
    os.environ.get(
        "REPRO_BENCH_JSON", str(Path(__file__).parent.parent / "BENCH_hot_paths.json")
    )
)


def record_bench_section(section: str, payload: dict) -> None:
    """Merge ``payload`` into the shared ``BENCH_hot_paths.json`` under ``section``.

    Existing sections are preserved; the target section is replaced
    wholesale.  Keys are written sorted so diffs stay reviewable.
    """
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

#: Default number of points per surrogate dataset in benchmark runs.
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "1000"))
#: Default number of stream permutations averaged per streaming measurement.
BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "1"))
#: Base RNG seed for dataset generation and stream permutations.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark CSV outputs are collected."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


#: Datasets whose group skew makes small samples infeasible for equal
#: representation (the paper's Adult race groups are 85.5% / ... / 0.8%); they
#: are generated with a larger default n so every quota stays satisfiable.
N_MULTIPLIERS = {
    "adult-race": 4,
    "adult-sex+race": 4,
}


def bench_dataset(name: str, n: int = None, seed: int = None):
    """Load a registry dataset at benchmark scale."""
    from repro.datasets.registry import load_dataset

    if n is None:
        n = BENCH_N * N_MULTIPLIERS.get(name, 1)
    return load_dataset(name, n=n, seed=BENCH_SEED if seed is None else seed)


def scaled_csv_name(stem: str, scale: int, canonical: int) -> str:
    """CSV filename for a bench run at ``scale``.

    Canonical-scale runs keep the tracked filename; smaller (smoke) scales
    get a ``_smoke`` suffix, which is gitignored, so `make bench-smoke` /
    `make ci` never clobber the committed acceptance-scale rows.
    """
    return f"{stem}.csv" if scale >= canonical else f"{stem}_smoke.csv"


def print_table(rows, columns, title):
    """Print an aligned table to stdout (visible with ``pytest -s``)."""
    from repro.evaluation.reporting import format_table

    print()
    print(format_table(rows, columns=columns, title=title))
