"""Run one benchmark workload against the repository's source tree.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` repeats the workload with tracing on afterwards and prints
every per-layer metric.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it carry the machine fingerprint and the
run's details (sample counts, failed checks).  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "solve-default": "solve_default",
    "session-query": "session_query",
    "serve-mixed": "serve_mixed",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import importlib

    from common import fingerprint, pairwise_ms

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    checks = outcome.checks
    # Calibrate after the workload, so its buffers never set the workload's peak RSS.
    calibration = pairwise_ms()
    print(json.dumps({"fingerprint": fingerprint(ROOT, calibration)}), flush=True)
    outcome.layer.setdefault("metrics.pairwise_ms", calibration)
    outcome.layer.setdefault("error_rate", checks.error_rate)

    metrics, not_applicable = {}, []
    if args.trace:
        for entry in spec["per_layer"]:
            if entry["name"] not in outcome.layer:
                not_applicable.append(entry["name"])
            value = outcome.layer.get(entry["name"], 0.0)
            metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": float(outcome.e2e[entry["name"]]), "unit": entry["unit"]
            }
    correct = checks.attempted > 0 and checks.failed == 0
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "details": outcome.details,
        "not_applicable": not_applicable,
        "failed_checks": checks.reasons,
    }, default=str), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
