"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_datasets_subcommand_parses(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "adult-sex"])
        assert args.algorithm == "SFDM2"
        assert args.k == 20
        assert args.fairness == "equal"

    def test_compare_with_output(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "synthetic-m2", "-k", "8", "--output", "x.csv"]
        )
        assert args.k == 8
        assert args.output == "x.csv"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "adult-sex", "--algorithm", "Magic"])

    def test_parallel_flag_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "adult-sex"])
        assert args.shards == 4
        assert args.backend == "serial"

    def test_parallel_algorithm_accepted(self):
        args = build_parser().parse_args(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "ParallelFDM",
                "--shards",
                "8",
                "--backend",
                "process",
            ]
        )
        assert args.algorithm == "ParallelFDM"
        assert args.shards == 8
        assert args.backend == "process"

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "gpu"], ["--index", "kd"]],
        ids=["unknown-backend", "removed-index-flag"],
    )
    def test_bad_run_flag_rejected(self, flags):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "adult-sex", *flags])

    def test_compare_include_extended_flag(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "synthetic-m2", "--include-extended"]
        )
        assert args.include_extended

    def test_missing_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])


class TestMain:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "adult-sex" in output
        assert "lyrics-genre" in output

    def test_run_small_experiment(self, capsys):
        code = main(
            ["run", "--dataset", "synthetic-m2", "-k", "6", "--n", "200", "--seed", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SFDM2" in output
        assert "diversity" in output

    def test_run_offline_algorithm(self, capsys):
        code = main(
            ["run", "--dataset", "synthetic-m2", "--algorithm", "GMM", "-k", "5", "--n", "150"]
        )
        assert code == 0
        assert "GMM" in capsys.readouterr().out

    def test_compare_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "rows.csv"
        code = main(
            [
                "compare",
                "--dataset",
                "synthetic-m2",
                "-k",
                "6",
                "--n",
                "200",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        content = output.read_text()
        assert "SFDM1" in content and "SFDM2" in content

    def test_run_parallel_algorithm(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "ParallelFDM",
                "-k",
                "6",
                "--n",
                "300",
                "--shards",
                "3",
                "--backend",
                "thread",
            ]
        )
        assert code == 0
        assert "ParallelFDM" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["Coreset", "WindowFDM"])
    def test_run_extended_algorithms(self, algorithm, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                algorithm,
                "-k",
                "6",
                "--n",
                "300",
            ]
        )
        assert code == 0
        assert algorithm in capsys.readouterr().out

    def test_run_sliding_window_with_window_flags(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "SlidingWindowFDM",
                "-k",
                "6",
                "--n",
                "400",
                "--window",
                "150",
                "--blocks",
                "5",
            ]
        )
        assert code == 0
        assert "SlidingWindowFDM" in capsys.readouterr().out

    def test_invalid_window_fails_cleanly(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "SlidingWindowFDM",
                "-k",
                "6",
                "--n",
                "400",
                "--window",
                "0",
            ]
        )
        assert code == 1
        assert "window" in capsys.readouterr().err

    def test_invalid_shards_fails_cleanly(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "ParallelFDM",
                "-k",
                "4",
                "--n",
                "200",
                "--shards",
                "0",
            ]
        )
        assert code == 1
        assert "shards" in capsys.readouterr().err

    def test_compare_include_extended_runs_parallel(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "synthetic-m2",
                "-k",
                "6",
                "--n",
                "200",
                "--include-extended",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for name in ("ParallelFDM", "Coreset", "WindowFDM", "SlidingWindowFDM"):
            assert name in output

    def test_unknown_dataset_fails_cleanly(self, capsys):
        code = main(["run", "--dataset", "not-a-dataset", "-k", "4"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_proportional_fairness_option(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "-k",
                "6",
                "--n",
                "200",
                "--fairness",
                "proportional",
            ]
        )
        assert code == 0
        assert "proportional" in capsys.readouterr().out


class TestAlgorithmListing:
    def test_list_algorithms_flag_prints_catalogue_and_exits(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--list-algorithms"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        for name in ("SFDM1", "SFDM2", "GMM", "ParallelFDM", "WindowFDM"):
            assert name in output
        assert "sessions" in output and "kind" in output

    def test_algorithms_subcommand(self, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        assert "StreamingDM" in output and "capabilities" in output

    def test_choices_come_from_registry(self):
        from repro.api.registry import algorithm_names

        args = build_parser().parse_args(
            ["run", "--dataset", "adult-sex", "--algorithm", "StreamingDM"]
        )
        assert args.algorithm == "StreamingDM"
        assert set(algorithm_names()) >= {"StreamingDM", "SFDM2", "ParallelFDM"}

    def test_run_streaming_dm(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "synthetic-m2",
                "--algorithm",
                "StreamingDM",
                "-k",
                "5",
                "--n",
                "150",
            ]
        )
        assert code == 0
        assert "StreamingDM" in capsys.readouterr().out


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8747
        assert args.max_live == 256
        assert args.default_algorithm == "SFDM2"
        assert args.state_dir == "serving-state"

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--max-sessions", "50",
                "--max-live", "4",
                "--max-batch", "32",
                "--flush-ms", "5",
                "--max-queue", "100",
                "--state-dir", "/tmp/x",
                "--default-algorithm", "SFDM1",
            ]
        )
        assert args.port == 0 and args.max_live == 4 and args.max_batch == 32
        assert args.flush_ms == 5.0 and args.max_queue == 100
        assert args.default_algorithm == "SFDM1"

    def test_serve_rejects_unknown_default_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--default-algorithm", "Magic"])

    def test_serve_bad_config_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["serve", "--max-live", "0", "--state-dir", str(tmp_path / "s")]
        )
        assert code == 1
        assert "max_live" in capsys.readouterr().err

    def test_serve_subprocess_announces_and_drains(self, tmp_path):
        """Full binary path: spawn, parse the announce line, SIGTERM, exit 0."""
        import json
        import os
        import signal
        import subprocess
        import sys
        from http.client import HTTPConnection

        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", str(tmp_path / "state")],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            announce = proc.stdout.readline().strip()
            assert announce.startswith("serving on http://")
            port = int(announce.rsplit(":", 1)[1])
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request(
                "POST",
                "/sessions",
                body=json.dumps({"k": 3, "groups": 2, "name": "cli"}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 201
            response.read()
            conn.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "drained 1 session(s)" in output
        assert (tmp_path / "state" / "cli.ckpt").exists()
