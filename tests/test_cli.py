"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import _build_parser, cmd_fork_lengths, main


class TestParser:
    def test_observations_defaults(self):
        args = _build_parser().parse_args(["observations"])
        assert args.command == "observations"
        assert args.days == 270  # the paper's full window

    def test_figure_requires_valid_number(self):
        parser = _build_parser()
        args = parser.parse_args(["figure", "3", "--days", "20"])
        assert args.number == 3
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([])

    def test_run_all_defaults(self):
        args = _build_parser().parse_args(["run-all"])
        assert args.command == "run-all"
        assert args.jobs == 1
        assert args.cache_dir == ".repro-cache"
        assert args.no_cache is False
        assert args.manifest is None

    def test_run_all_flags_parse(self):
        args = _build_parser().parse_args(
            ["run-all", "--days", "5", "--jobs", "2", "--no-cache",
             "--manifest", "m.json", "--timeout", "30", "--retries", "2"]
        )
        assert args.days == 5
        assert args.jobs == 2
        assert args.no_cache is True
        assert args.manifest == "m.json"
        assert args.timeout == 30.0
        assert args.retries == 2

    def test_fault_sweep_flags_parse(self):
        args = _build_parser().parse_args(
            ["fault-sweep", "--nodes", "10", "--churn", "0", "0.01",
             "--loss", "0.2", "--split", "0", "300", "--no-resilience",
             "--jobs", "2"]
        )
        assert args.command == "fault-sweep"
        assert args.nodes == 10
        assert args.churn == [0.0, 0.01]
        assert args.loss == [0.2]
        assert args.split == [0.0, 300.0]
        assert args.no_resilience is True

    def test_topology_sweep_flags_parse(self):
        args = _build_parser().parse_args(
            ["topology-sweep", "--nodes", "12", "--degree", "4",
             "--topologies", "uniform", "geo", "--gamma", "2.4",
             "--intra-bias", "0.8", "--no-infer", "--jobs", "2"]
        )
        assert args.command == "topology-sweep"
        assert args.nodes == 12
        assert args.degree == 4
        assert args.topologies == ["uniform", "geo"]
        assert args.gamma == 2.4
        assert args.intra_bias == 0.8
        assert args.no_infer is True

    def test_topology_sweep_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(
                ["topology-sweep", "--topologies", "torus"]
            )

    def test_topology_sweep_validation(self, capsys):
        assert main(["topology-sweep", "--jobs", "0"]) == 2
        assert main(["topology-sweep", "--infer-probes", "0"]) == 2
        assert main(["topology-sweep", "--retries", "-1"]) == 2
        assert main(["topology-sweep", "--chunk-size", "0"]) == 2
        # Spec-level validation surfaces as a usage error, not a crash.
        assert main(["topology-sweep", "--gamma", "0.5"]) == 2
        capsys.readouterr()

    def test_chunked_flags_parse(self):
        args = _build_parser().parse_args(
            ["fault-sweep", "--chunk-size", "2", "--resume",
             "--max-quarantined", "1", "--ledger-dir", "led",
             "--lease-seconds", "30", "--retry-backoff", "0.5",
             "--max-events", "1000"]
        )
        assert args.chunk_size == 2
        assert args.resume is True
        assert args.max_quarantined == 1
        assert args.ledger_dir == "led"
        assert args.lease_seconds == 30.0
        assert args.retry_backoff == 0.5
        assert args.max_events == 1000

    def test_chunked_defaults_keep_classic_path(self):
        for command in ("run-all", "fault-sweep"):
            args = _build_parser().parse_args([command])
            assert args.chunk_size is None
            assert args.resume is False
            assert args.max_quarantined is None
            assert args.retry_backoff == 0.0

    def test_chunked_validation(self, capsys):
        assert main(["fault-sweep", "--chunk-size", "0"]) == 2
        assert main(["fault-sweep", "--resume"]) == 2
        assert main(["run-all", "--retry-backoff", "-1"]) == 2
        assert main(["run-all", "--chunk-size", "2",
                     "--max-quarantined", "-1"]) == 2
        assert main(["fault-sweep", "--max-events", "0"]) == 2
        assert main(["run-all", "--cache-max-bytes", "-1"]) == 2
        capsys.readouterr()

    def test_trace_defaults(self):
        args = _build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.scenario == "partition"
        assert args.out is None
        assert args.stats is False
        assert args.ring == 4096

    def test_trace_flags_parse(self):
        args = _build_parser().parse_args(
            ["trace", "--scenario", "chaos-partition", "--nodes", "8",
             "--horizon", "300", "--out", "t.jsonl", "--stats",
             "--ring", "128"]
        )
        assert args.scenario == "chaos-partition"
        assert args.out == "t.jsonl"
        assert args.stats is True
        assert args.ring == 128
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["trace", "--scenario", "bogus"])

    def test_bench_defaults(self):
        args = _build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.smoke is False
        assert args.repeats is None
        assert args.only is None
        assert args.out_dir == "."
        assert args.report_dir == "benchmarks/output"

    def test_bench_flags_parse(self):
        args = _build_parser().parse_args(
            ["bench", "--smoke", "--repeats", "2", "--only", "forksim",
             "--out-dir", "out", "--report-dir", ""]
        )
        assert args.smoke is True
        assert args.repeats == 2
        assert args.only == ["forksim"]
        assert args.out_dir == "out"
        assert args.report_dir == ""
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["bench", "--only", "bogus"])


class TestCommands:
    def test_fork_lengths_prints_table(self, capsys):
        assert main(["fork-lengths"]) == 0
        out = capsys.readouterr().out
        assert "ETH/EIP-150" in out
        assert "3583" in out

    def test_bench_smoke_run(self, forksim_bench_smoke):
        """The forksim bench smoke through the CLI; the payload itself is
        checked by ``TestBenchHarness`` in ``test_perf_kernels``."""
        run = forksim_bench_smoke
        # Exit 0 is run_bench's ``all_match``: every fast/reference
        # digest pair agreed and every memory gate held.
        assert run.code == 0
        assert "diverged" not in run.err
        assert "BENCH_forksim.json" in run.out
        assert (run.out_dir / "BENCH_forksim.json").exists()
        assert (run.out_dir / "reports" / "bench_forksim.txt").exists()

    def test_bench_bad_repeats_rejected(self, capsys):
        assert main(["bench", "--repeats", "0"]) == 2
        assert "--repeats" in capsys.readouterr().err

    def test_figure_command_small_run(self, capsys):
        assert main(["figure", "1", "--days", "6", "--sample-days", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "2016-07" in out

    def test_figure_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        assert main(
            ["figure", "2", "--days", "6", "--csv", str(csv_path)]
        ) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "ETH difficulty" in header

    def test_figure_csv_creates_missing_parent_dirs(self, tmp_path, capsys):
        csv_path = tmp_path / "deep" / "nested" / "fig.csv"
        assert main(
            ["figure", "2", "--days", "6", "--csv", str(csv_path)]
        ) == 0
        assert csv_path.exists()

    def test_figure_csv_unwritable_path_fails_cleanly(self, tmp_path, capsys):
        # The parent "directory" is a regular file: mkdir/open must fail,
        # and the CLI should report it without a traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        csv_path = blocker / "fig.csv"
        assert main(
            ["figure", "2", "--days", "6", "--csv", str(csv_path)]
        ) == 1
        err = capsys.readouterr().err
        assert "error: cannot write CSV" in err
        assert "Traceback" not in err

    def test_fault_sweep_small(self, tmp_path, capsys):
        code = main(
            ["fault-sweep", "--nodes", "8", "--miners", "2",
             "--horizon", "300", "--churn", "0", "--loss", "0",
             "--split", "0", "120", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--output-dir", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "out" / "robustness.txt").exists()
        assert (tmp_path / "out" / "robustness.json").exists()
        assert (tmp_path / "out" / "fault-sweep-manifest.json").exists()
        assert "jobs ok" in captured.out

    def test_topology_sweep_small(self, tmp_path, capsys):
        base = ["topology-sweep", "--nodes", "8", "--miners", "2",
                "--horizon", "300", "--degree", "3",
                "--topologies", "uniform", "geo",
                "--infer-probes", "2", "--jobs", "1"]
        code = main(
            base + ["--cache-dir", str(tmp_path / "cache"),
                    "--output-dir", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "out" / "topology.txt").exists()
        assert (tmp_path / "out" / "topology.json").exists()
        assert (tmp_path / "out" / "topology-sweep-manifest.json").exists()
        assert "jobs ok" in captured.out

        # The CI reproducibility gate: a cold --no-cache rerun must land
        # on the byte-identical sweep digest.
        code = main(
            base + ["--no-cache",
                    "--output-dir", str(tmp_path / "out2")]
        )
        capsys.readouterr()
        assert code == 0
        import json

        first = json.loads((tmp_path / "out" / "topology.json").read_text())
        second = json.loads(
            (tmp_path / "out2" / "topology.json").read_text()
        )
        assert second["sweep_digest"] == first["sweep_digest"]

    def test_trace_small(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "--nodes", "6", "--miners", "2",
             "--horizon", "120", "--out", str(out_path), "--stats"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "trace events" in captured.out
        assert "events by kind" in captured.out
        lines = out_path.read_text().splitlines()
        assert lines
        import json

        first = json.loads(lines[0])
        assert "t" in first and "kind" in first

    def test_trace_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        code = main(
            ["trace", "--nodes", "6", "--miners", "2",
             "--horizon", "120", "--out", str(blocker / "t.jsonl")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err

    def test_fault_sweep_chunked_small(self, tmp_path, capsys):
        base = ["fault-sweep", "--nodes", "8", "--miners", "2",
                "--horizon", "300", "--churn", "0", "--loss", "0",
                "--split", "0", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path / "out"),
                "--chunk-size", "1"]
        code = main(base)
        captured = capsys.readouterr()
        assert code == 0
        assert "sweep complete (exit 0)" in captured.err
        assert (tmp_path / "out" / "robustness.json").exists()
        assert (tmp_path / "out" / "sweep-ledger" / "ledger.db").exists()
        # Re-attaching the same finished sweep needs --resume...
        assert main(base) == 2
        err = capsys.readouterr().err
        assert "--resume" in err
        # ...and with it, stitches from the ledger without recomputing.
        assert main(base + ["--resume"]) == 0
        capsys.readouterr()

    def test_fault_sweep_refuses_an_old_ledger(self, tmp_path, capsys):
        # A version-1 ledger (chunk digests, no summary column) is
        # refused up front as a usage error, not at its first write.
        import sqlite3

        ledger_dir = tmp_path / "out" / "sweep-ledger"
        ledger_dir.mkdir(parents=True)
        conn = sqlite3.connect(ledger_dir / "ledger.db")
        conn.executescript(
            "CREATE TABLE meta (name TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '1');"
            "CREATE TABLE chunks (chunk_id TEXT PRIMARY KEY, seq INTEGER,"
            " stage INTEGER, label TEXT, state TEXT, owner TEXT,"
            " lease_expires REAL, attempts INTEGER, failures INTEGER,"
            " digest TEXT, error TEXT, updated_at REAL);"
        )
        conn.close()
        code = main(
            ["fault-sweep", "--nodes", "8", "--miners", "2",
             "--horizon", "300", "--churn", "0", "--loss", "0",
             "--split", "0", "--jobs", "1", "--no-cache",
             "--output-dir", str(tmp_path / "out"),
             "--chunk-size", "1", "--resume"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "schema version 1" in err
        assert "Traceback" not in err

    def test_fault_sweep_poisoned_exits_degraded(self, tmp_path, capsys):
        code = main(
            ["fault-sweep", "--nodes", "8", "--miners", "2",
             "--horizon", "300", "--churn", "0", "--loss", "0",
             "--split", "0", "--jobs", "1", "--no-cache",
             "--output-dir", str(tmp_path / "out"),
             "--chunk-size", "1", "--max-events", "10"]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert "sweep degraded (exit 4)" in captured.err
        assert "quarantined" in captured.err

    def test_run_all_small(self, tmp_path, capsys):
        code = main(
            ["run-all", "--days", "2", "--jobs", "1",
             "--cache-dir", str(tmp_path / "cache"),
             "--output-dir", str(tmp_path / "out"),
             "--manifest", str(tmp_path / "out" / "manifest.json")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "out" / "figure5.txt").exists()
        assert (tmp_path / "out" / "observations.txt").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert "jobs ok" in captured.out
        # The CLI's figures run the same jobs: the same CSV bytes.
        for number in range(1, 6):
            csv_path = tmp_path / f"cli{number}.csv"
            assert main(
                ["figure", str(number), "--days", "2",
                 "--csv", str(csv_path)]
            ) == 0
            assert csv_path.read_bytes() == (
                tmp_path / "out" / f"figure{number}.csv"
            ).read_bytes()


class TestServeParser:
    def test_serve_defaults(self):
        args = _build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8734
        assert args.cache_dir == ".repro-cache"
        assert args.db == ".repro-serve.db"
        assert args.allow_kind is None

    def test_serve_flags_parse(self):
        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--no-cache",
             "--db", "none", "--max-inflight", "4",
             "--tenant-max-inflight", "1", "--tenant-max-queued", "2",
             "--cache-max-bytes", "1000000", "--drain-timeout", "5",
             "--allow-kind", "selftest-echo"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.no_cache is True
        assert args.db == "none"
        assert args.max_inflight == 4
        assert args.tenant_max_inflight == 1
        assert args.tenant_max_queued == 2
        assert args.cache_max_bytes == 1_000_000
        assert args.drain_timeout == 5.0
        assert args.allow_kind == ["selftest-echo"]

    def test_run_all_cache_max_bytes(self):
        args = _build_parser().parse_args(
            ["run-all", "--cache-max-bytes", "4096"]
        )
        assert args.cache_max_bytes == 4096
        assert _build_parser().parse_args(["run-all"]).cache_max_bytes is None

    def test_serve_retry_backoff(self, capsys):
        args = _build_parser().parse_args(["serve", "--retry-backoff", "1.5"])
        assert args.retry_backoff == 1.5
        assert _build_parser().parse_args(["serve"]).retry_backoff == 0.0
        assert main(["serve", "--retry-backoff", "-1"]) == 2

    def test_serve_rejects_bad_port(self, capsys):
        assert main(["serve", "--port", "-1"]) == 2

    def test_serve_rejects_bad_cache_budget(self, capsys):
        assert main(["serve", "--cache-max-bytes", "-5"]) == 2
