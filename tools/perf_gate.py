"""Perf-regression gate: fresh smoke bench vs. the committed baseline.

Runs ``benchmarks/bench_hot_paths.py`` at smoke scale into a scratch JSON
and compares the numbers against the ``hot_paths_smoke`` section committed
in ``BENCH_hot_paths.json`` at the repo root:

* **hardware-independent checks always apply** — the charged distance
  count must match the baseline exactly (the accounting is deterministic
  for a fixed seed and scale), and the store-over-object ingest speedup
  must not collapse below the baseline ratio divided by the tolerance;
* **absolute wall-clock checks are hardware-gated** (like the parallel
  bench's ≥ 4-core assertion): they only apply when the current machine
  reports the same usable CPU count the baseline was recorded on, and
  allow a ``--tolerance`` factor (default 2.5x) for scheduler noise and
  slower-but-same-shaped hardware.

The gate also covers the observability layer
(``benchmarks/bench_obs_overhead.py``): the committed ``obs_overhead``
section and a fresh smoke run must both show the disabled tracing path
accounting for <= 2% of the SFDM2 ingest wall-clock, with traced and
untraced runs charging identical distance counts.

And the parallel layer (``benchmarks/bench_parallel_scaling.py``): the
committed ``parallel_scaling`` / ``parallel_scaling_smoke`` sections and
a fresh smoke run must all show identical solutions across backends and
transports and a shared-memory per-worker payload strictly below the
pickle payload (both hardware-independent); when the committed
acceptance-scale section was recorded on >= 4 cores, the process+shm
speedup at the reference shard count must be at least 1.5x over serial.

And the serving layer (``benchmarks/bench_serving.py``): the committed
``serving`` / ``serving_smoke`` sections and a fresh smoke run must all
record ``eviction_identity`` true (evict/restore never changes served
answers) with a micro-batching speedup above 1x, and the fresh smoke
run must reproduce the baseline's deterministic identity-schedule
counters (offers/evictions/restores) exactly; the smoke throughput and
p99 query-latency bars apply only on matching hardware, with the usual
``--tolerance``.

And the quality layer (``benchmarks/bench_quality.py``): the committed
``quality`` / ``quality_smoke`` sections and a fresh smoke run must all
show true approximation ratios (vs the MWU + LP-rounding oracle) above
the per-algorithm floors, an MWU-vs-upper-bound certified ratio above its
floor, and a clean exact sweep (MWU within 10% of ``exact_fdm`` on every
seeded small configuration); the fresh smoke run must reproduce the
sweep's deterministic integer counters (cases, hits, counted distance
evaluations) exactly.

Exit status 0 means no regression (or hardware mismatch, reported); 1
means a check failed.  Refresh the baseline by re-running
``make bench-hot`` (acceptance scale) and the smoke bench
(``REPRO_BENCH_HOT_N=8000 python -m pytest benchmarks/bench_hot_paths.py``)
and committing the updated JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hot_paths.json"
SMOKE_SECTION = "hot_paths_smoke"
OBS_SECTION = "obs_overhead"
OBS_SMOKE_SECTION = "obs_overhead_smoke"
PARALLEL_SECTION = "parallel_scaling"
PARALLEL_SMOKE_SECTION = "parallel_scaling_smoke"
SERVING_SECTION = "serving"
SERVING_SMOKE_SECTION = "serving_smoke"
QUALITY_SECTION = "quality"
QUALITY_SMOKE_SECTION = "quality_smoke"

#: Hardware-independent floors on the true approximation ratios recorded
#: by the quality bench (diversity over MWU diversity, same instance and
#: stream permutation; `mwu_certified_ratio` is MWU diversity over the
#: ``2 * div(GMM)`` upper bound on the optimum).  The runs are
#: deterministic per seed/scale, so a dip below a floor is an algorithmic
#: regression, not noise.
QUALITY_RATIO_FLOORS = {
    "sfdm2_ratio": 0.55,
    "sliding_window_ratio": 0.60,
    "coreset_ratio": 0.70,
    "mwu_certified_ratio": 0.40,
}

#: Deterministic integer counters of the quality bench's exact sweep (and
#: the MWU scale run); a fresh smoke run must reproduce them exactly.
QUALITY_EXACT_KEYS = (
    "exact_cases",
    "exact_within_10pct",
    "exact_sweep_evals",
    "mwu_distance_evals",
)

#: Acceptance bar on the serving sections: batching the offer queues
#: must beat the unbatched front end by at least this factor.
SERVING_MIN_SPEEDUP = 1.0

#: Deterministic counters of the serving bench's fixed identity schedule.
SERVING_IDENTITY_KEYS = (
    "identity_offers_total",
    "identity_evictions",
    "identity_restores",
)

#: Acceptance bar on the committed acceptance-scale ``parallel_scaling``
#: section when it was recorded on multi-core hardware: the process
#: backend with the shm transport must beat serial by this factor at the
#: reference shard count.
PARALLEL_TARGET_SPEEDUP = 1.5

#: Acceptance bar on the observability sections: the disabled tracing
#: path may account for at most this share of the SFDM2 ingest time.
OBS_MAX_OVERHEAD_PCT = 2.0

#: Wall-clock keys compared against the baseline (seconds, lower is better).
TIMED_KEYS = (
    "sfdm2_ingest_store_s",
    "greedy_fair_fill_store_s",
    "gmm_store_s",
)


def _run_bench(module: str, env_extra: dict, scratch_json: Path, section: str) -> dict:
    """Run one bench module at smoke scale, writing to ``scratch_json``."""
    env = dict(os.environ)
    env.update(env_extra)
    env["REPRO_BENCH_JSON"] = str(scratch_json)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable,
        "-m",
        "pytest",
        module,
        "-q",
        "--no-header",
        "-p",
        "no:cacheprovider",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if completed.returncode != 0:
        raise SystemExit(f"perf gate: {module} failed (exit {completed.returncode})")
    data = json.loads(scratch_json.read_text())
    result = data.get(section)
    if result is None:
        raise SystemExit(
            f"perf gate: {module} did not record the {section!r} section"
        )
    return result


def _run_smoke_bench(smoke_n: int, scratch_json: Path) -> dict:
    """Run the hot-paths bench at smoke scale, writing to ``scratch_json``."""
    # The bench's own smoke-scale speedup assertion is redundant under the
    # gate (which applies a tolerance-based ratio check below) and could
    # fail on pure scheduler noise before any gating logic runs.
    return _run_bench(
        "benchmarks/bench_hot_paths.py",
        {"REPRO_BENCH_HOT_N": str(smoke_n), "REPRO_BENCH_HOT_NO_ASSERT": "1"},
        scratch_json,
        SMOKE_SECTION,
    )


def _check_obs_overhead(section: dict, label: str, failures: list) -> None:
    """The disabled-path-overhead and tracing-identity checks on one section."""
    overhead = section.get("disabled_overhead_pct")
    if overhead is None:
        failures.append(f"{label}: missing disabled_overhead_pct")
    elif float(overhead) > OBS_MAX_OVERHEAD_PCT:
        failures.append(
            f"{label}: disabled tracing overhead {float(overhead):.3f}% exceeds "
            f"the {OBS_MAX_OVERHEAD_PCT:g}% bar"
        )
    untraced = section.get("stream_distance_computations")
    traced = section.get("traced_stream_distance_computations")
    if untraced is None or traced is None:
        failures.append(f"{label}: missing traced/untraced distance counts")
    elif int(traced) != int(untraced):
        failures.append(
            f"{label}: tracing changed the distance accounting "
            f"(traced {traced} != untraced {untraced})"
        )


def _check_parallel_transport(section: dict, label: str, failures: list) -> None:
    """Solution identity and the shm-beats-pickle payload claim on one section."""
    if section.get("solutions_identical") is not True:
        failures.append(
            f"{label}: cross-backend/transport solutions are not identical"
        )
    shm_bytes = section.get("shm_payload_bytes")
    pickle_bytes = section.get("pickle_payload_bytes")
    if shm_bytes is None or pickle_bytes is None:
        failures.append(f"{label}: missing shm/pickle payload byte counts")
    elif int(shm_bytes) >= int(pickle_bytes):
        failures.append(
            f"{label}: shm payload ({shm_bytes} B) does not undercut "
            f"pickle payload ({pickle_bytes} B)"
        )


def _check_serving(section: dict, label: str, failures: list) -> None:
    """Eviction identity and the micro-batching claim on one serving section."""
    if section.get("eviction_identity") is not True:
        failures.append(
            f"{label}: evicted/restored sessions diverged from resident ones"
        )
    speedup = section.get("batched_speedup")
    if speedup is None:
        failures.append(f"{label}: missing batched_speedup")
    elif float(speedup) < SERVING_MIN_SPEEDUP:
        failures.append(
            f"{label}: micro-batching speedup {float(speedup):.2f}x below "
            f"the {SERVING_MIN_SPEEDUP:g}x bar"
        )


def _check_quality(section: dict, label: str, failures: list) -> None:
    """Ratio floors and the clean exact sweep on one quality section."""
    for key, floor in QUALITY_RATIO_FLOORS.items():
        ratio = section.get(key)
        if ratio is None:
            failures.append(f"{label}: missing {key}")
        elif float(ratio) < floor:
            failures.append(
                f"{label}: {key} {float(ratio):.4f} below the {floor:g} floor"
            )
    cases = section.get("exact_cases")
    within = section.get("exact_within_10pct")
    if cases is None or within is None:
        failures.append(f"{label}: missing exact_cases/exact_within_10pct")
    elif int(within) != int(cases) or int(cases) < 1:
        failures.append(
            f"{label}: MWU within 10% of exact on only {within}/{cases} configs"
        )


def main(argv=None) -> int:
    """Compare a fresh smoke run with the committed baseline; 0 = green."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.5,
        help="allowed slowdown factor for wall-clock checks (default 2.5)",
    )
    args = parser.parse_args(argv)

    if not BASELINE_PATH.exists():
        raise SystemExit(f"perf gate: missing baseline {BASELINE_PATH}")
    baseline_data = json.loads(BASELINE_PATH.read_text())
    baseline = baseline_data.get(SMOKE_SECTION)
    if baseline is None:
        raise SystemExit(
            f"perf gate: baseline {BASELINE_PATH.name} has no {SMOKE_SECTION!r} section"
        )

    obs_baseline = baseline_data.get(OBS_SECTION)
    obs_smoke_baseline = baseline_data.get(OBS_SMOKE_SECTION)
    if obs_baseline is None or obs_smoke_baseline is None:
        raise SystemExit(
            f"perf gate: baseline {BASELINE_PATH.name} is missing the "
            f"{OBS_SECTION!r}/{OBS_SMOKE_SECTION!r} sections; run "
            f"`make bench-obs` and the smoke bench, then commit the JSON"
        )

    parallel_baseline = baseline_data.get(PARALLEL_SECTION)
    parallel_smoke_baseline = baseline_data.get(PARALLEL_SMOKE_SECTION)
    if parallel_baseline is None or parallel_smoke_baseline is None:
        raise SystemExit(
            f"perf gate: baseline {BASELINE_PATH.name} is missing the "
            f"{PARALLEL_SECTION!r}/{PARALLEL_SMOKE_SECTION!r} sections; run "
            f"`make bench-parallel` and the smoke bench, then commit the JSON"
        )

    serving_baseline = baseline_data.get(SERVING_SECTION)
    serving_smoke_baseline = baseline_data.get(SERVING_SMOKE_SECTION)
    if serving_baseline is None or serving_smoke_baseline is None:
        raise SystemExit(
            f"perf gate: baseline {BASELINE_PATH.name} is missing the "
            f"{SERVING_SECTION!r}/{SERVING_SMOKE_SECTION!r} sections; run "
            f"`make bench-serving` and the smoke bench, then commit the JSON"
        )

    quality_baseline = baseline_data.get(QUALITY_SECTION)
    quality_smoke_baseline = baseline_data.get(QUALITY_SMOKE_SECTION)
    if quality_baseline is None or quality_smoke_baseline is None:
        raise SystemExit(
            f"perf gate: baseline {BASELINE_PATH.name} is missing the "
            f"{QUALITY_SECTION!r}/{QUALITY_SMOKE_SECTION!r} sections; run "
            f"`make bench-quality` and the smoke bench, then commit the JSON"
        )

    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch_dir:
        fresh = _run_smoke_bench(
            int(baseline.get("n", 8000)), Path(scratch_dir) / "bench.json"
        )
        fresh_obs = _run_bench(
            "benchmarks/bench_obs_overhead.py",
            {
                "REPRO_BENCH_OBS_N": str(obs_smoke_baseline.get("n", 8000)),
                "REPRO_BENCH_HOT_NO_ASSERT": "1",
            },
            Path(scratch_dir) / "bench_obs.json",
            OBS_SMOKE_SECTION,
        )
        fresh_parallel = _run_bench(
            "benchmarks/bench_parallel_scaling.py::test_parallel_scaling",
            {
                "REPRO_BENCH_PARALLEL_N": str(
                    parallel_smoke_baseline.get("n", 4000)
                ),
            },
            Path(scratch_dir) / "bench_parallel.json",
            PARALLEL_SMOKE_SECTION,
        )
        fresh_serving = _run_bench(
            "benchmarks/bench_serving.py",
            {
                "REPRO_BENCH_SERVING_ROWS": str(
                    serving_smoke_baseline.get("rows", 4000)
                ),
                "REPRO_BENCH_SERVING_SESSIONS": str(
                    serving_smoke_baseline.get("sessions", 8)
                ),
            },
            Path(scratch_dir) / "bench_serving.json",
            SERVING_SMOKE_SECTION,
        )
        fresh_quality = _run_bench(
            "benchmarks/bench_quality.py",
            {
                "REPRO_BENCH_QUALITY_N": str(quality_smoke_baseline.get("n", 2000)),
            },
            Path(scratch_dir) / "bench_quality.json",
            QUALITY_SMOKE_SECTION,
        )

    failures = []

    # --- Observability layer -----------------------------------------
    # Committed acceptance-scale and committed smoke sections carry the
    # recorded claim; the fresh smoke run re-proves it on this machine.
    _check_obs_overhead(obs_baseline, OBS_SECTION, failures)
    _check_obs_overhead(obs_smoke_baseline, OBS_SMOKE_SECTION, failures)
    _check_obs_overhead(fresh_obs, f"{OBS_SMOKE_SECTION} (fresh)", failures)
    expected_obs_calls = obs_smoke_baseline.get("stream_distance_computations")
    actual_obs_calls = fresh_obs.get("stream_distance_computations")
    if expected_obs_calls is not None and actual_obs_calls != expected_obs_calls:
        failures.append(
            f"{OBS_SMOKE_SECTION}.stream_distance_computations changed: "
            f"{actual_obs_calls} != baseline {expected_obs_calls}"
        )

    # --- Parallel layer ----------------------------------------------
    # Solution identity across backends and transports, and the payload
    # claim (descriptors beat column pickles), hold on any hardware; the
    # committed sections carry the recorded claim and the fresh smoke run
    # re-proves both on this machine.
    _check_parallel_transport(parallel_baseline, PARALLEL_SECTION, failures)
    _check_parallel_transport(
        parallel_smoke_baseline, PARALLEL_SMOKE_SECTION, failures
    )
    _check_parallel_transport(
        fresh_parallel, f"{PARALLEL_SMOKE_SECTION} (fresh)", failures
    )
    # The pickled-store payload is deterministic for a fixed n/dim/plan.
    expected_payload = parallel_smoke_baseline.get("pickle_payload_bytes")
    actual_payload = fresh_parallel.get("pickle_payload_bytes")
    if expected_payload is not None and actual_payload != expected_payload:
        failures.append(
            f"{PARALLEL_SMOKE_SECTION}.pickle_payload_bytes changed: "
            f"{actual_payload} != baseline {expected_payload}"
        )
    # Wall-clock speedup is only meaningful where true CPU parallelism
    # exists: gate the committed acceptance-scale claim on the hardware it
    # was recorded on.
    if int(parallel_baseline.get("cpus", 1)) >= 4:
        reference = str(parallel_baseline.get("shards", 4))
        recorded = (
            parallel_baseline.get("per_shards", {}).get(reference, {}).get("speedup")
        )
        if recorded is None:
            failures.append(
                f"{PARALLEL_SECTION}: missing per_shards[{reference!r}].speedup"
            )
        elif float(recorded) < PARALLEL_TARGET_SPEEDUP:
            failures.append(
                f"{PARALLEL_SECTION}: process+shm speedup {float(recorded):.2f}x "
                f"below the {PARALLEL_TARGET_SPEEDUP:g}x multi-core bar"
            )

    # --- Serving layer -----------------------------------------------
    # Eviction identity and the micro-batching win hold on any hardware;
    # the fixed identity schedule's counters are deterministic and must
    # reproduce exactly.  Throughput/latency compare only on matching
    # hardware.
    _check_serving(serving_baseline, SERVING_SECTION, failures)
    _check_serving(serving_smoke_baseline, SERVING_SMOKE_SECTION, failures)
    _check_serving(fresh_serving, f"{SERVING_SMOKE_SECTION} (fresh)", failures)
    for key in SERVING_IDENTITY_KEYS:
        expected = serving_smoke_baseline.get(key)
        actual = fresh_serving.get(key)
        if expected is not None and actual != expected:
            failures.append(
                f"{SERVING_SMOKE_SECTION}.{key} changed: "
                f"{actual} != baseline {expected}"
            )
    if fresh_serving.get("cpus") == serving_smoke_baseline.get("cpus"):
        base_rate = serving_smoke_baseline.get("offers_per_s")
        fresh_rate = fresh_serving.get("offers_per_s")
        if base_rate and fresh_rate and (
            float(fresh_rate) < float(base_rate) / args.tolerance
        ):
            failures.append(
                f"{SERVING_SMOKE_SECTION}.offers_per_s collapsed: "
                f"{float(fresh_rate):.0f}/s < baseline {float(base_rate):.0f}/s "
                f"/ tolerance {args.tolerance:g}"
            )
        base_p99 = serving_smoke_baseline.get("p99_query_ms")
        fresh_p99 = fresh_serving.get("p99_query_ms")
        if base_p99 and fresh_p99 and (
            float(fresh_p99) > float(base_p99) * args.tolerance
        ):
            failures.append(
                f"{SERVING_SMOKE_SECTION}.p99_query_ms regressed: "
                f"{float(fresh_p99):.1f}ms > baseline {float(base_p99):.1f}ms "
                f"* {args.tolerance:g}"
            )
    else:
        print(
            f"perf gate: hardware mismatch for serving "
            f"(cpus {fresh_serving.get('cpus')} vs baseline "
            f"{serving_smoke_baseline.get('cpus')}); skipping "
            f"throughput/latency checks"
        )

    # --- Quality layer -----------------------------------------------
    # True-approximation-ratio floors and the clean exact sweep hold on
    # any hardware; the sweep's integer counters are deterministic per
    # seed/scale and must reproduce exactly on the fresh smoke run.
    _check_quality(quality_baseline, QUALITY_SECTION, failures)
    _check_quality(quality_smoke_baseline, QUALITY_SMOKE_SECTION, failures)
    _check_quality(fresh_quality, f"{QUALITY_SMOKE_SECTION} (fresh)", failures)
    for key in QUALITY_EXACT_KEYS:
        expected = quality_smoke_baseline.get(key)
        actual = fresh_quality.get(key)
        if expected is not None and actual != expected:
            failures.append(
                f"{QUALITY_SMOKE_SECTION}.{key} changed: "
                f"{actual} != baseline {expected}"
            )

    # Accounting is deterministic for a fixed seed/scale on any hardware.
    expected_calls = baseline.get("stream_distance_computations")
    actual_calls = fresh.get("stream_distance_computations")
    if expected_calls is not None and actual_calls != expected_calls:
        failures.append(
            f"stream distance computations changed: {actual_calls} != baseline {expected_calls}"
        )

    # The relative store-vs-object advantage must not collapse, regardless
    # of absolute machine speed.
    base_ratio = float(baseline.get("sfdm2_ingest_speedup", 1.0))
    fresh_ratio = float(fresh.get("sfdm2_ingest_speedup", 0.0))
    floor = base_ratio / args.tolerance
    if fresh_ratio < floor:
        failures.append(
            f"ingest speedup collapsed: {fresh_ratio:.2f}x < floor {floor:.2f}x "
            f"(baseline {base_ratio:.2f}x / tolerance {args.tolerance:g})"
        )

    # Absolute wall-clock: only comparable on matching hardware.
    same_hardware = fresh.get("cpus") == baseline.get("cpus")
    if same_hardware:
        for key in TIMED_KEYS:
            base_value = baseline.get(key)
            fresh_value = fresh.get(key)
            if base_value is None or fresh_value is None:
                continue
            if float(fresh_value) > float(base_value) * args.tolerance:
                failures.append(
                    f"{key}: {float(fresh_value):.4f}s > "
                    f"{float(base_value):.4f}s * {args.tolerance:g}"
                )
    else:
        print(
            f"perf gate: hardware mismatch (cpus {fresh.get('cpus')} vs baseline "
            f"{baseline.get('cpus')}); skipping absolute wall-clock checks"
        )

    if failures:
        print("perf gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "perf gate: OK "
        f"(ingest {fresh_ratio:.2f}x vs baseline {base_ratio:.2f}x, "
        f"store ingest {float(fresh.get('sfdm2_ingest_store_s', 0.0)):.3f}s, "
        f"tracing overhead {float(fresh_obs.get('disabled_overhead_pct', 0.0)):.3f}%, "
        f"shm payload {float(fresh_parallel.get('payload_reduction', 0.0)):.0f}x "
        f"below pickle, "
        f"serving batched {float(fresh_serving.get('batched_speedup', 0.0)):.1f}x "
        f"with eviction identity, "
        f"MWU exact sweep {fresh_quality.get('exact_within_10pct', 0)}"
        f"/{fresh_quality.get('exact_cases', 0)} within 10%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
