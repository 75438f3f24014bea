"""Unit tests for the perf gate's check table (tools/perf_gate.py)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", REPO_ROOT / "tools" / "perf_gate.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

COMMITTED = json.loads((REPO_ROOT / "BENCH_hot_paths.json").read_text())

#: The rows that compare wall-clock figures across machines.
WALL_CLOCK = {
    "hot_paths_smoke (fresh).sfdm2_ingest_store_s",
    "hot_paths_smoke (fresh).greedy_fair_fill_store_s",
    "hot_paths_smoke (fresh).gmm_store_s",
    "serving_smoke (fresh).offers_per_s",
    "serving_smoke (fresh).p99_query_ms",
}


def _files():
    """The committed file, and its own smoke sections as the fresh file."""
    baseline = copy.deepcopy(COMMITTED)
    fresh = {name: copy.deepcopy(section) for name, section in COMMITTED.items()
             if name.endswith("_smoke")}
    return baseline, fresh


def _row_id(row):
    bench, key, kind, bound = row
    return f"{bench}.{key}-{kind}-{bound!r}"


def _named(lines, name):
    return [line for line in lines if line.startswith(name + ":")
            or line.startswith(name + " =")]


def test_committed_file_passes_against_its_own_smoke_sections():
    failures, skipped = gate.check(*_files())
    assert failures == []
    # The committed acceptance section was recorded on one CPU.
    assert [line.split(":")[0] for line in skipped] == [
        "parallel_scaling.per_shards.4.speedup"
    ]


@pytest.mark.parametrize("row", gate.CHECKS, ids=_row_id)
def test_one_perturbation_fails_each_row(row):
    bench, key, kind, bound = row
    baseline, fresh = _files()
    if isinstance(bound, gate.MultiCore):
        target, name = baseline[bench], f"{bench}.{key}"
        target["cpus"] = gate.MULTICORE_CPUS
    else:
        target, name = fresh[f"{bench}_smoke"], f"{bench}_smoke (fresh).{key}"
    *path, last = key.split(".")
    for part in path:
        target = target[part]
    value = target[last]
    if isinstance(value, bool):
        target[last] = not value
    else:
        target[last] = {"exact": value + 1, "floor": 0, "ceiling": 1e12}[kind]
    failures, _ = gate.check(baseline, fresh)
    assert _named(failures, name), failures


@pytest.mark.parametrize("section", sorted({f"{row[0]}_smoke" for row in gate.CHECKS}))
def test_missing_fresh_section_fails(section):
    baseline, fresh = _files()
    del fresh[section]
    failures, _ = gate.check(baseline, fresh)
    assert failures
    assert all(
        line.startswith(f"{section} (fresh).") and line.endswith(": section missing")
        for line in failures
    )


@pytest.mark.parametrize(
    "row",
    [row for row in gate.CHECKS if not isinstance(row[3], gate.MultiCore)],
    ids=_row_id,
)
def test_missing_fresh_key_fails(row):
    bench, key, _, _ = row
    baseline, fresh = _files()
    del fresh[f"{bench}_smoke"][key]
    failures, _ = gate.check(baseline, fresh)
    assert _named(failures, f"{bench}_smoke (fresh).{key}"), failures


def test_cpu_count_mismatch_skips_only_the_wall_clock_rows():
    baseline, fresh = _files()
    _, matched = gate.check(baseline, fresh)
    for section in fresh.values():
        section["cpus"] += 1
    failures, skipped = gate.check(baseline, fresh)
    assert failures == []
    assert {line.split(":")[0] for line in skipped} - {
        line.split(":")[0] for line in matched
    } == WALL_CLOCK
