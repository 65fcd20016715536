"""CLI: argument handling and command output."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.method == "HC-O"
        assert args.dataset == "tiny"
        assert args.tau == 8

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--method", "HC-X"])

    def test_compare_accepts_method_list(self):
        args = build_parser().parse_args(
            ["compare", "--methods", "EXACT", "HC-O"]
        )
        assert args.methods == ["EXACT", "HC-O"]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "sogou-sim" in out and "HC-O" in out

    def test_experiment_runs(self, capsys):
        rc = main([
            "experiment", "--dataset", "tiny", "--scale", "0.25",
            "--method", "HC-D", "--tau", "5", "--k", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "HC-D" in out and "t_response_s" in out

    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--dataset", "tiny", "--scale", "0.25", "--tau", "5",
            "--k", "5", "--methods", "NO-CACHE", "HC-O",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NO-CACHE" in out and "HC-O" in out

    def test_tune_runs(self, capsys):
        rc = main(["tune", "--dataset", "tiny", "--scale", "0.25", "--k", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tau*" in out

    def test_experiment_metrics_table_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        rc = main([
            "experiment", "--dataset", "tiny", "--scale", "0.25",
            "--method", "HC-O", "--k", "5",
            "--metrics", "--metrics-out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine_queries_total" in out
        assert "cache_hits_total" in out
        payload = json.loads(out_path.read_text())
        assert "observed_vs_predicted" in payload
        names = {m["name"] for m in payload["metrics"]}
        assert "engine_queries_total" in names and "engine_rho_hit" in names

    def test_experiment_metrics_prom_format(self, capsys):
        rc = main([
            "experiment", "--dataset", "tiny", "--scale", "0.25",
            "--method", "NO-CACHE", "--k", "5",
            "--metrics", "--metrics-format", "prom",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_queries_total counter" in out
        assert "engine_phase_seconds_bucket" in out

    def test_compare_metrics_out(self, capsys, tmp_path):
        out_path = tmp_path / "cmp.json"
        rc = main([
            "compare", "--dataset", "tiny", "--scale", "0.25", "--k", "5",
            "--methods", "NO-CACHE", "HC-O", "--metrics-out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--- metrics: HC-O ---" in out
        payload = json.loads(out_path.read_text())
        assert sorted(payload["methods"]) == ["HC-O", "NO-CACHE"]
        for snap in payload["methods"].values():
            assert "observed_vs_predicted" in snap


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.method == "HC-O"
        assert args.rate == 0.0
        assert args.max_batch == 32
        assert args.queue_depth == 256

    def test_serve_saturating_smoke(self, capsys, tmp_path, monkeypatch):
        # The CLI server runs on a ManualClock, so no queued request ever
        # waits out max_wait_us however slowly the burst is admitted: the
        # micro-batcher flushes on fill alone and the fill is exact.
        from repro.serve import ManualClock

        monkeypatch.setattr("repro.serve.server.RealClock", ManualClock)
        out_path = tmp_path / "serve.json"
        rc = main([
            "serve", "--dataset", "tiny", "--scale", "0.25", "--k", "5",
            "--requests", "24", "--max-batch", "8", "--rate", "0",
            "--metrics", "--metrics-out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve" in out and "p99_ms" in out
        assert "serve_requests_total" in out
        payload = json.loads(out_path.read_text())
        assert payload["load"]["served"] == 24
        assert payload["load"]["rejected"] == 0
        # Saturating load fills micro-batches to max_batch.
        assert payload["load"]["mean_batch_size"] == 8.0
        assert payload["serve"]["tiers"]["default"]["served"] == 24

    def test_serve_with_deadline_tier(self, capsys):
        rc = main([
            "serve", "--dataset", "tiny", "--scale", "0.25", "--k", "5",
            "--requests", "8", "--deadline-ms", "1000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded" in out


class TestSnapshotServe:
    """``snapshot serve`` replays through the Server: --deadline-ms and
    --metrics plumb all the way down (the closed-loop regression)."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "snap"
        rc = main([
            "snapshot", "build", str(path), "--dataset", "tiny",
            "--scale", "0.25", "--method", "HC-O", "--k", "5",
        ])
        assert rc == 0
        return path

    def test_serve_with_metrics(self, snapshot_path, capsys, tmp_path):
        out_path = tmp_path / "snapserve.json"
        rc = main([
            "snapshot", "serve", str(snapshot_path), "--limit", "6",
            "--metrics", "--metrics-out", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "served from" in out
        assert "serve_requests_total" in out
        payload = json.loads(out_path.read_text())
        assert payload["serve"]["tiers"]["default"]["served"] == 6
        assert payload["serve"]["tiers"]["default"]["degraded"] == 0

    def test_deadline_ms_degrades(self, snapshot_path, capsys):
        # A budget far below any real query time: every replayed query
        # must degrade (charged from admission) instead of crashing.
        rc = main([
            "snapshot", "serve", str(snapshot_path), "--limit", "4",
            "--deadline-ms", "0.0001",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded answers: 4/4" in out

    def test_generous_deadline_stays_complete(self, snapshot_path, capsys):
        rc = main([
            "snapshot", "serve", str(snapshot_path), "--limit", "4",
            "--deadline-ms", "60000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded answers" not in out
