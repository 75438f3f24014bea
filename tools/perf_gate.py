"""Perf-regression gate: the smoke bench run against the committed baseline.

``make perf-gate`` runs ``make bench-smoke`` first, which writes every
engine bench at smoke scale into the gitignored
``.bench_out/bench_smoke.json``.  This script runs nothing: it loads that
file and the committed ``BENCH_hot_paths.json`` and evaluates ``CHECKS``.

A row is ``(bench, key, kind, bound)``.  ``bench`` names a committed
acceptance section; ``<bench>_smoke`` is its smoke section, committed and
fresh.  ``key`` may be a dotted path.  ``kind`` is ``"exact"``,
``"floor"`` (at least the bound) or ``"ceiling"`` (at most the bound).
The bound's type says which copies the row reads:

* a constant or a :class:`Key` (another key of the same section) is an
  invariant of the committed acceptance, committed smoke and fresh copies;
* a :class:`Smoke` factor binds the fresh run to the committed smoke
  value with that much slack: a floor is the value divided by the factor,
  a ceiling the value times it (:data:`SMOKE`: the value itself);
* a :class:`WallClock` factor does the same, but only when the fresh run
  has the CPU count the committed smoke section was recorded on;
* a :class:`MultiCore` constant binds the committed acceptance section
  alone, when it was recorded on at least :data:`MULTICORE_CPUS` CPUs.

A missing section or value fails its row.  Exit status 0 means every row
that applies passed (skipped ones are printed); 1 means a row failed.
Refresh the baseline by running a bench without ``REPRO_BENCH_JSON`` (its
``make bench-*`` target for the acceptance section, its bench-smoke line
for the smoke section) and committing the JSON.
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hot_paths.json"
#: Where ``make bench-smoke`` writes the fresh smoke sections.
SMOKE_PATH = REPO_ROOT / ".bench_out" / "bench_smoke.json"

#: Allowed factor between a fresh smoke figure and its committed value for
#: ratio and wall-clock rows (scheduler noise, slower same-shaped hardware).
TOLERANCE = 2.5
#: CPU count a :class:`MultiCore` row needs before it applies.
MULTICORE_CPUS = 4


class Key(str):
    """Bound: the value of another key of the same section."""


class Smoke(float):
    """Bound: the committed smoke value, with this factor of slack (fresh run only)."""


class WallClock(Smoke):
    """A :class:`Smoke` bound that applies only when the CPU counts match."""


class MultiCore(float):
    """Bound on the committed acceptance section recorded on many CPUs."""


#: The committed smoke value itself.
SMOKE = Smoke(1.0)

CHECKS = (
    # Hot paths: the store-vs-element-list ingest bench.
    ("hot_paths", "n", "exact", SMOKE),
    ("hot_paths", "stream_distance_computations", "exact", SMOKE),
    ("hot_paths", "sfdm2_ingest_speedup", "floor", Smoke(TOLERANCE)),
    ("hot_paths", "sfdm2_ingest_store_s", "ceiling", WallClock(TOLERANCE)),
    ("hot_paths", "greedy_fair_fill_store_s", "ceiling", WallClock(TOLERANCE)),
    ("hot_paths", "gmm_store_s", "ceiling", WallClock(TOLERANCE)),
    # Observability: the disabled tracing path costs <= 2% of SFDM2 ingest
    # and tracing never changes the distance accounting.
    ("obs_overhead", "n", "exact", SMOKE),
    ("obs_overhead", "disabled_overhead_pct", "ceiling", 2.0),
    ("obs_overhead", "traced_stream_distance_computations", "exact",
     Key("stream_distance_computations")),
    ("obs_overhead", "stream_distance_computations", "exact", SMOKE),
    # Parallel: one solution on every backend and transport, descriptors
    # ship fewer bytes than column pickles, and on >= 4 CPUs the process
    # backend beats serial at the reference shard count.
    ("parallel_scaling", "n", "exact", SMOKE),
    ("parallel_scaling", "solutions_identical", "exact", True),
    ("parallel_scaling", "shm_payload_bytes", "ceiling", Key("pickle_payload_bytes")),
    ("parallel_scaling", "pickle_payload_bytes", "exact", SMOKE),
    ("parallel_scaling", "per_shards.4.speedup", "floor", MultiCore(1.5)),
    # Window: the stale-pool counts are deterministic per seed and scale,
    # and so are the sliding window's quality ratios (a dip is a regression).
    ("window", "n", "exact", SMOKE),
    ("window", "k", "exact", SMOKE),
    ("window", "blocks", "exact", SMOKE),
    ("window", "baseline_w750_stale_pool", "exact", SMOKE),
    ("window", "baseline_w1500_stale_pool", "exact", SMOKE),
    ("window", "baseline_w3000_stale_pool", "exact", SMOKE),
    ("window", "sliding_w750_quality_ratio", "floor", SMOKE),
    ("window", "sliding_w1500_quality_ratio", "floor", SMOKE),
    ("window", "sliding_w3000_quality_ratio", "floor", SMOKE),
    # Serving: eviction never changes an answer, micro-batching wins, and
    # the fixed identity schedule's counters are deterministic.
    ("serving", "rows", "exact", SMOKE),
    ("serving", "sessions", "exact", SMOKE),
    ("serving", "eviction_identity", "exact", True),
    ("serving", "batched_speedup", "floor", 1.0),
    ("serving", "identity_offers_total", "exact", SMOKE),
    ("serving", "identity_evictions", "exact", SMOKE),
    ("serving", "identity_restores", "exact", SMOKE),
    ("serving", "offers_per_s", "floor", WallClock(TOLERANCE)),
    ("serving", "p99_query_ms", "ceiling", WallClock(TOLERANCE)),
    # Quality: true approximation ratios against the MWU oracle (the runs
    # are deterministic per seed and scale, so a dip is a regression) and
    # a clean exact sweep with reproducible counters.
    ("quality", "n", "exact", SMOKE),
    ("quality", "sfdm2_ratio", "floor", 0.55),
    ("quality", "sliding_window_ratio", "floor", 0.60),
    ("quality", "coreset_ratio", "floor", 0.70),
    ("quality", "mwu_certified_ratio", "floor", 0.40),
    ("quality", "exact_cases", "floor", 1),
    ("quality", "exact_within_10pct", "exact", Key("exact_cases")),
    ("quality", "exact_cases", "exact", SMOKE),
    ("quality", "exact_within_10pct", "exact", SMOKE),
    ("quality", "exact_sweep_evals", "exact", SMOKE),
    ("quality", "mwu_distance_evals", "exact", SMOKE),
)

PASSES = {"exact": operator.eq, "floor": operator.ge, "ceiling": operator.le}


def _lookup(section: Optional[dict], key: str):
    """The value at dotted ``key`` in ``section``, or ``None``."""
    for part in key.split("."):
        section = section.get(part) if isinstance(section, dict) else None
    return section


def check(baseline: dict, fresh: dict) -> Tuple[List[str], List[str]]:
    """Evaluate :data:`CHECKS` on the committed and fresh bench files.

    Returns ``(failures, skipped)``, one line per failing or skipped row
    and copy, each naming ``section.key``.
    """
    failures: List[str] = []
    skipped: List[str] = []
    for bench, key, kind, bound in CHECKS:
        smoke = f"{bench}_smoke"
        committed = baseline.get(smoke)
        copies = [(f"{smoke} (fresh)", fresh.get(smoke))]
        if isinstance(bound, MultiCore):
            copies = [(bench, baseline.get(bench))]
        elif not isinstance(bound, Smoke):
            copies = [(bench, baseline.get(bench)), (smoke, committed)] + copies
        for label, section in copies:
            name = f"{label}.{key}"
            if section is None:
                failures.append(f"{name}: section missing")
                continue
            cpus, committed_cpus = section.get("cpus"), _lookup(committed, "cpus")
            if isinstance(bound, WallClock) and cpus != committed_cpus:
                skipped.append(f"{name}: cpus {cpus} vs committed {committed_cpus}")
                continue
            if isinstance(bound, MultiCore) and (cpus or 0) < MULTICORE_CPUS:
                skipped.append(f"{name}: recorded on {cpus} cpus, not >= {MULTICORE_CPUS}")
                continue
            limit = bound
            if isinstance(bound, Key):
                limit = _lookup(section, bound)
            elif isinstance(bound, Smoke):
                limit = _lookup(committed, key)
                if limit is not None and bound != 1:
                    limit = limit / bound if kind == "floor" else limit * bound
            value = _lookup(section, key)
            if value is None or limit is None:
                failures.append(f"{name}: missing value or bound")
            elif not PASSES[kind](value, limit):
                failures.append(f"{name} = {value!r} fails {kind} {limit!r}")
    return failures, skipped


def _load(path: Path) -> dict:
    if not path.exists():
        raise SystemExit(f"perf gate: missing {path} (run `make bench-smoke`)")
    return json.loads(path.read_text())


def main() -> int:
    """Check the smoke file against the committed baseline; 0 = green."""
    failures, skipped = check(_load(BASELINE_PATH), _load(SMOKE_PATH))
    for line in skipped:
        print(f"perf gate: skipped {line}")
    if failures:
        print("perf gate: FAIL")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"perf gate: OK ({len(CHECKS)} rows, {len(skipped)} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
