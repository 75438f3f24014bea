"""Command-line interface for running fair diversity maximization experiments.

Examples
--------
Run SFDM2 on the Adult (race) surrogate with k = 20::

    python -m repro run --dataset adult-race --algorithm SFDM2 -k 20

Run SFDM2 on a large stream with 1024-row ingestion chunks::

    python -m repro run --dataset synthetic-m2 --algorithm SFDM2 -k 20 \
        --n 50000 --batch-size 1024

Run the sharded parallel engine over four worker processes::

    python -m repro run --dataset synthetic-m2 --algorithm ParallelFDM -k 20 \
        --n 100000 --shards 4 --backend process

Maintain a fair solution over a sliding window of the most recent 5 000
elements::

    python -m repro run --dataset synthetic-m2 --algorithm SlidingWindowFDM \
        -k 20 --n 50000 --window 5000 --blocks 8

Compare every applicable algorithm on a synthetic stream and save a CSV::

    python -m repro compare --dataset synthetic-m10 -k 20 --output results.csv

List the available datasets, or the registered algorithms with their
capabilities::

    python -m repro datasets
    python -m repro --list-algorithms
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional, Sequence

from repro import obs
from repro.api.registry import algorithm_names, algorithms, get_algorithm
from repro.datasets.registry import dataset_names, load_dataset
from repro.evaluation.harness import (
    ExperimentConfig,
    algorithm_spec,
    default_algorithms,
    extended_algorithms,
    run_algorithm,
    run_experiment,
)
from repro.evaluation.reporting import format_table, records_to_rows, write_csv
from repro.parallel.backends import backend_names
from repro.utils.errors import ReproError


def format_algorithm_table() -> str:
    """The registry catalogue as a fixed-width table (``--list-algorithms``)."""
    rows = []
    for info in algorithms():
        caps = info.capabilities
        flags = [
            flag
            for flag, enabled in (
                ("batch", caps.batch),
                ("sessions", caps.sessions),
                ("parallel", caps.parallel),
            )
            if enabled
        ]
        rows.append(
            {
                "algorithm": info.name,
                "kind": caps.kind,
                "groups": "any" if caps.max_groups is None else f"<= {caps.max_groups}",
                "constraint": "fair" if caps.constrained else "none",
                "capabilities": ",".join(flags) or "-",
                "description": info.description,
            }
        )
    columns = ["algorithm", "kind", "groups", "constraint", "capabilities", "description"]
    return format_table(rows, columns=columns, title="registered algorithms")


class _ListAlgorithmsAction(argparse.Action):
    """``repro --list-algorithms``: print the registry catalogue and exit."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        print(format_algorithm_table())
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming fair diversity maximization (ICDE 2022 reproduction)",
    )
    parser.add_argument(
        "--list-algorithms",
        action=_ListAlgorithmsAction,
        help="print the registered algorithms with kinds and capabilities, then exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list available datasets")
    datasets_parser.set_defaults(func=_cmd_datasets)

    algorithms_parser = subparsers.add_parser(
        "algorithms", help="list registered algorithms and their capabilities"
    )
    algorithms_parser.set_defaults(func=_cmd_algorithms)

    run_parser = subparsers.add_parser("run", help="run one algorithm on one dataset")
    _add_common_arguments(run_parser)
    run_parser.add_argument(
        "--algorithm",
        choices=tuple(algorithm_names()),
        default="SFDM2",
        help="algorithm to run, by registry name (default: SFDM2)",
    )
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="run every applicable algorithm on one dataset"
    )
    _add_common_arguments(compare_parser)
    compare_parser.add_argument(
        "--include-fair-gmm",
        action="store_true",
        help="also run the enumeration-based FairGMM baseline (small k/m only)",
    )
    compare_parser.add_argument(
        "--include-extended",
        action="store_true",
        help=(
            "also run the extended suite (Coreset, WindowFDM, SlidingWindowFDM "
            "with --window/--blocks, and ParallelFDM with --shards/--backend)"
        ),
    )
    compare_parser.add_argument("--output", help="write the result rows to this CSV file")
    compare_parser.set_defaults(func=_cmd_compare)

    serve_parser = subparsers.add_parser(
        "serve", help="run the multi-tenant HTTP/JSON session server"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8747,
        help="TCP port; 0 picks an ephemeral port (default 8747)",
    )
    serve_parser.add_argument(
        "--state-dir",
        default="serving-state",
        help="directory for eviction/drain checkpoints (default ./serving-state)",
    )
    serve_parser.add_argument(
        "--max-sessions",
        type=int,
        default=10_000,
        help="total named sessions admitted, live + evicted (default 10000)",
    )
    serve_parser.add_argument(
        "--max-live",
        type=int,
        default=256,
        help="sessions resident in memory before LRU eviction (default 256)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="queued rows that force an immediate flush (default 256)",
    )
    serve_parser.add_argument(
        "--flush-ms",
        type=float,
        default=20.0,
        help="deadline before a partial offer queue flushes anyway (default 20)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=8_192,
        help="per-session queued-row bound; beyond it offers get 429 (default 8192)",
    )
    serve_parser.add_argument(
        "--default-algorithm",
        choices=tuple(algorithm_names()),
        default="SFDM2",
        help="algorithm when a create request names none (default SFDM2)",
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help="emit hierarchical span traces to stderr while serving",
    )
    serve_parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write span traces as JSON lines to PATH (implies tracing)",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    return parser


def _shards_arg(value: str):
    """``--shards`` parser: a positive integer or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        required=True,
        help=f"dataset name (one of: {', '.join(dataset_names())})",
    )
    parser.add_argument("-k", type=int, default=20, help="solution size (default 20)")
    parser.add_argument("--epsilon", type=float, default=0.1, help="guess-ladder epsilon")
    parser.add_argument("--n", type=int, default=None, help="override the dataset size")
    parser.add_argument("--seed", type=int, default=42, help="base RNG seed")
    parser.add_argument(
        "--fairness",
        choices=("equal", "proportional"),
        default="equal",
        help="quota rule (default: equal representation)",
    )
    parser.add_argument(
        "--repetitions", type=int, default=1, help="stream permutations to average over"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "rows per chunk of the stream ingestion engine of StreamingDM/SFDM1/"
            "SFDM2 (default: 512); the solution does not depend on it"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_shards_arg,
        default=4,
        help=(
            "shard count for the ParallelFDM engine, or 'auto' to plan it "
            "from the input size and usable CPUs (default 4)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=tuple(backend_names()) + ("auto",),
        default="serial",
        help=(
            "execution backend for the ParallelFDM shards; 'auto' picks one "
            "from the input size and CPU count (default: serial)"
        ),
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help=(
            "window length for the windowed algorithms (WindowFDM, "
            "SlidingWindowFDM); default: the whole stream"
        ),
    )
    parser.add_argument(
        "--blocks",
        type=int,
        default=8,
        help="number of blocks the window is divided into (default 8)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help=(
            "MWU iterations (oracle calls + weight updates) per distance "
            "guess for the MWU quality oracle (default 32)"
        ),
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=(
            "randomized-rounding attempts per distance guess for the MWU "
            "quality oracle (default 8)"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="emit hierarchical span traces to stderr while the command runs",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write span traces as JSON lines to PATH (implies tracing)",
    )


_COLUMNS = [
    "dataset",
    "algorithm",
    "k",
    "m",
    "fairness",
    "diversity",
    "total_seconds",
    "stored_elements",
]


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    dataset = load_dataset(args.dataset, n=args.n, seed=args.seed)
    return ExperimentConfig(
        dataset=dataset,
        k=args.k,
        epsilon=args.epsilon,
        fairness=args.fairness,
        repetitions=args.repetitions,
        base_seed=args.seed,
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name in dataset_names():
        print(name)
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    print(format_algorithm_table())
    return 0


def _options_for(args: argparse.Namespace, name: str) -> dict:
    """The CLI flags that apply to algorithm ``name``, per its capabilities.

    Flags the entry does not declare (e.g. ``--shards`` for SFDM2) are
    dropped — every flag has a sensible default, so filtering by declared
    option names keeps ``repro run`` forgiving while ``repro.solve`` stays
    strict.
    """
    accepted = get_algorithm(name).capabilities.options
    flag_values = {
        "batch_size": args.batch_size,
        "shards": args.shards,
        "backend": args.backend,
        "window": args.window,
        "blocks": args.blocks,
        "iterations": args.iterations,
        "rounds": args.rounds,
    }
    return {key: value for key, value in flag_values.items() if key in accepted}


def _cmd_run(args: argparse.Namespace) -> int:
    config = _make_config(args)
    spec = algorithm_spec(args.algorithm, **_options_for(args, args.algorithm))
    record = run_algorithm(spec, config)
    rows = records_to_rows([record], columns=_COLUMNS)
    print(format_table(rows, columns=_COLUMNS, title=f"{args.algorithm} on {args.dataset}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _make_config(args)
    algorithms = default_algorithms(
        include_fair_gmm=args.include_fair_gmm,
        batch_size=args.batch_size,
    )
    if args.include_extended:
        algorithms += extended_algorithms(
            shards=args.shards,
            backend=args.backend,
            window=args.window,
            blocks=args.blocks,
        )
    records = run_experiment([config], algorithms=algorithms)
    rows = records_to_rows(records, columns=_COLUMNS)
    print(format_table(rows, columns=_COLUMNS, title=f"comparison on {args.dataset}"))
    if args.output:
        path = write_csv(rows, args.output, columns=_COLUMNS)
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import ManagerConfig, run_server

    config = ManagerConfig(
        state_dir=args.state_dir,
        max_sessions=args.max_sessions,
        max_live=args.max_live,
        max_batch=args.max_batch,
        flush_ms=args.flush_ms,
        max_queue=args.max_queue,
        default_algorithm=args.default_algorithm,
    )
    return run_server(config, host=args.host, port=args.port)


def _trace_scope(args: argparse.Namespace):
    """The tracing context the parsed flags ask for (no-op by default).

    ``--trace-out PATH`` routes spans to a JSONL file; ``--trace`` alone
    renders them on stderr.  Commands without the common flags (e.g.
    ``datasets``) simply never set the attributes.
    """
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        return obs.tracing(trace_out)
    if getattr(args, "trace", False):
        return obs.tracing("stderr")
    return contextlib.nullcontext()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _trace_scope(args):
            return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
