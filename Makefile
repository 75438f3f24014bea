# Developer entry points. All targets assume the repository root as CWD and
# use the src layout directly (no install needed).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast cov doctest golden bench-smoke bench-parallel bench-hot bench-window bench-obs bench-serving bench-quality serve-smoke trace-smoke perf-gate docs-check api-check api-surface ci

## Run the full test suite (tier-1 gate).
test:
	$(PYTHON) -m pytest -x -q

## Run the test suite without @pytest.mark.slow tests (subprocess-heavy
## example scripts) — the quick local iteration loop.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Line-coverage gate: run the (fast) suite under pytest-cov when
## installed, or the stdlib settrace fallback otherwise, and fail below
## the pinned threshold in tools/coverage_gate.py (a ratchet: raise it as
## coverage improves, never lower it).
cov:
	$(PYTHON) tools/coverage_gate.py

## Run the examples in the package's docstrings (the quickstart in
## repro/__init__.py and the CallableMetric example).
doctest:
	$(PYTHON) -m pytest --doctest-modules src/repro -q

## Regenerate the golden-pin file (tests/golden/solutions.json) after an
## intentional algorithm behaviour change; commit the JSON diff.
golden:
	$(PYTHON) tests/integration/test_golden_solutions.py --write

## Small-scale end-to-end benchmark pass, and the only one: the hot-path,
## parallel-scaling, window, observability, serving and quality benches at
## a reduced n plus one representative figure bench. Their sections go to
## the gitignored .bench_out/bench_smoke.json (deleted first, so no section
## of an earlier run survives), never to the tracked BENCH_hot_paths.json;
## the perf gate checks that file against the committed baseline. The obs
## bench skips its own overhead assertion here, which scheduler noise can
## trip at this scale; the gate bounds the same figure. The full acceptance
## runs are the per-bench targets below.
BENCH_SMOKE_JSON := .bench_out/bench_smoke.json
bench-smoke:
	@mkdir -p $(dir $(BENCH_SMOKE_JSON))
	rm -f $(BENCH_SMOKE_JSON)
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_HOT_N=8000 $(PYTHON) -m pytest benchmarks/bench_hot_paths.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_PARALLEL_N=4000 $(PYTHON) -m pytest benchmarks/bench_parallel_scaling.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_WINDOW_N=6000 $(PYTHON) -m pytest benchmarks/bench_window.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_OBS_N=8000 REPRO_BENCH_HOT_NO_ASSERT=1 $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_SERVING_ROWS=4000 $(PYTHON) -m pytest benchmarks/bench_serving.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_QUALITY_N=2000 $(PYTHON) -m pytest benchmarks/bench_quality.py -q -s
	REPRO_BENCH_JSON=$(BENCH_SMOKE_JSON) REPRO_BENCH_N=500 $(PYTHON) -m pytest benchmarks/bench_fig7_time_vs_k.py -q -s

## Acceptance-scale parallel engine benchmark (ParallelFDM, n = 100_000:
## per-shard-count process+shm vs serial scan, solution identity across
## backends and with the pickle fallback, and per-worker bytes shipped —
## the shm descriptor payload must undercut the pickled-store payload at
## every scale; the >= 2.5x process-over-serial assertion applies on
## machines with >= 4 usable cores). Refreshes the `parallel_scaling`
## section of BENCH_hot_paths.json; the committed `parallel_scaling_smoke`
## section is the perf gate's baseline for the bench-smoke run.
bench-parallel:
	$(PYTHON) -m pytest benchmarks/bench_parallel_scaling.py -q -s

## Acceptance-scale columnar-store benchmark (SFDM2 ingest of a store vs
## an element list at n = 100_000 with identical solutions and counts, plus
## post-processing and baseline hot paths). Refreshes the `hot_paths`
## section of BENCH_hot_paths.json.
bench-hot:
	$(PYTHON) -m pytest benchmarks/bench_hot_paths.py -q -s

## Acceptance-scale windowing benchmark (SlidingWindowFDM vs the
## checkpointed baseline at n = 30_000: throughput under a per-block query
## schedule, quality ratio vs offline-on-window, stale-pool counts).
## Refreshes the `window` section of BENCH_hot_paths.json.
bench-window:
	$(PYTHON) -m pytest benchmarks/bench_window.py -q -s

## Acceptance-scale observability-overhead benchmark (disabled tracing
## path <= 2% of SFDM2 ingest at n = 100_000; traced and untraced runs
## byte-identical). Refreshes the `obs_overhead` section of
## BENCH_hot_paths.json.
bench-obs:
	$(PYTHON) -m pytest benchmarks/bench_obs_overhead.py -q -s

## Acceptance-scale serving benchmark (HTTP load generation over 100_000
## rows across 8 sessions: sustained offers/s, p99 solution-query
## latency, micro-batched vs unbatched front end, plus the always-on
## eviction-identity schedule). Refreshes the `serving` section of
## BENCH_hot_paths.json; the committed `serving_smoke` section is the perf
## gate's baseline for the bench-smoke run.
bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q -s

## Acceptance-scale quality benchmark (true approximation ratios vs the
## MWU + LP-rounding oracle at n = 10_000: SFDM2, SlidingWindowFDM, and
## the coreset pipeline scored against the near-exact fair optimum, plus
## the seeded exact sweep proving MWU within 10% of exact_fdm on every
## small configuration). Refreshes the `quality` section of
## BENCH_hot_paths.json; the committed `quality_smoke` section is the perf
## gate's baseline for the bench-smoke run.
bench-quality:
	$(PYTHON) -m pytest benchmarks/bench_quality.py -q -s

## Serving smoke test: start `repro serve` on an ephemeral port and run a
## scripted client through the full lifecycle — create sessions past the
## live bound (forcing an eviction), offer rows (forcing a restore),
## query solutions, overflow the bounded queue (429), then SIGTERM and
## assert a clean drain with resumable checkpoints.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Trace smoke test: run one traced SFDM2 solve through the CLI and one
## traced `repro.solve` on an (n, d) array, and validate both JSONL files
## against the span schema + taxonomy (tools/check_trace.py); every
## `ingest.chunk` span must say how many rows the radius screen rechecked
## and how many head rows the in-chunk resolve evaluated.
## The traces go to the gitignored .bench_out/.
TRACE_DIR := .bench_out
trace-smoke:
	@mkdir -p $(TRACE_DIR)
	$(PYTHON) -m repro run --dataset synthetic-m2 --algorithm SFDM2 -k 6 \
		--n 400 --batch-size 64 --trace-out $(TRACE_DIR)/trace_smoke_cli.jsonl >/dev/null
	$(PYTHON) tools/check_trace.py $(TRACE_DIR)/trace_smoke_cli.jsonl \
		--expect-span run --expect-span ingest --expect-span ingest.chunk \
		--expect-span postprocess --expect-span sfdm2.guess \
		--expect-attr ingest.chunk:rechecked --expect-attr ingest.chunk:heads
	$(PYTHON) -c "import numpy as np, repro; \
		rng = np.random.default_rng(7); \
		repro.solve(rng.normal(size=(400, 4)), groups=rng.integers(0, 2, 400), k=6, \
		            algorithm='SFDM2', batch_size=64, trace='$(TRACE_DIR)/trace_smoke_array.jsonl')"
	$(PYTHON) tools/check_trace.py $(TRACE_DIR)/trace_smoke_array.jsonl \
		--expect-span solve --expect-span ingest.chunk \
		--expect-attr ingest.chunk:rechecked --expect-attr ingest.chunk:heads

## Perf-regression gate: the bench-smoke output checked against the
## committed BENCH_hot_paths.json baseline, one table of rows in
## tools/perf_gate.py (wall-clock rows are hardware-gated; accounting,
## scale, invariant and speedup-ratio rows always apply).
perf-gate: bench-smoke
	$(PYTHON) tools/perf_gate.py

## Docstring completeness gate for the public API.
##
## Preferred tool: pydocstyle (numpy convention). It is not available in the
## pinned offline environment, so the target falls back to
## tools/check_docstrings.py, which enforces the same core rules (public
## docstring presence + period-terminated summaries; __init__ exempt per the
## numpydoc convention) with the standard library only.
docs-check:
	@$(PYTHON) -c "import pydocstyle" 2>/dev/null \
		&& $(PYTHON) -m pydocstyle --convention=numpy src/repro/metrics src/repro/streaming src/repro/parallel \
		|| $(PYTHON) tools/check_docstrings.py src/repro

## Public-API drift gate: the exported names and signatures of `repro` and
## `repro.api` must match the tracked API_SURFACE.json snapshot.
api-check:
	$(PYTHON) tools/check_api_surface.py

## Refresh the tracked API_SURFACE.json after an intentional API change.
api-surface:
	$(PYTHON) tools/check_api_surface.py --write

## One-command PR gate: tests, docstring completeness, API-surface drift,
## the line-coverage gate, the docstring examples, the smoke-scale
## benchmark pass, the traced-run schema smoke, the serving end-to-end
## smoke, and the perf-regression gate.
ci: test docs-check api-check cov doctest bench-smoke trace-smoke serve-smoke perf-gate
