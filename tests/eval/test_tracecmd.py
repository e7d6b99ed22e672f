"""Tests for ``python -m repro.eval trace``: one traced run, one report."""

import json
import math
from dataclasses import fields

import pytest

from repro.errors import SkilError
from repro.eval.__main__ import main
from repro.eval.trace_report import CostBreakdown
from repro.eval.tracecmd import run_trace_command, run_traced, trace_report_text
from repro.obs import validate_chrome_trace


class TestRunTraced:
    def test_unknown_app_rejected(self):
        with pytest.raises(SkilError):
            run_traced("quicksort")

    def test_shpaths_rounds_to_grid(self):
        run = run_traced("shpaths", p=4, n=11)
        assert run.n == 12  # rounded up to the torus side 2
        assert run.machine.tracer is not None
        assert run.seconds > 0

    def test_report_sections(self):
        run = run_traced("gauss-full", p=4, n=12)
        text = trace_report_text(run)
        assert "per-skeleton breakdown" in text
        assert "flamegraph rollup" in text
        assert "metrics:" in text
        assert "array_fold" in text


class TestTraceJson:
    def test_shpaths_trace_has_rank_tracks_and_paired_spans(self, tmp_path):
        """Acceptance: the emitted Chrome JSON for a shortest-paths run
        has one track per rank plus the skeleton-span track and per-rank
        idle-wait tracks, and every skeleton span is closed (begin paired
        with end)."""
        out = tmp_path / "shp.json"
        run_trace_command("shpaths", p=4, n=12, whatif=False,
                          trace_out=str(out))
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        events = obj["traceEvents"]
        span_names = {
            e["name"] for e in events if e["ph"] == "X" and e["tid"] == 0
        }
        assert "array_gen_mult" in span_names
        rank_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and 0 < e["tid"] <= 4
        }
        assert rank_tids == {1, 2, 3, 4}  # one track per rank
        idle_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and e.get("cat") == "idle-wait"
        }
        assert idle_tids <= {1001, 1002, 1003, 1004}
        assert obj["otherData"]["p"] == 4


class TestCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["trace", "--app", "gauss-full", "--p", "4", "--n", "12",
                   "--trace", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "per-skeleton breakdown" in printed
        assert str(out) in printed
        assert validate_chrome_trace(json.loads(out.read_text())) == []

    def test_trace_without_json_file(self, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", "4", "--n", "8",
                   "--level", "1"])
        assert rc == 0
        assert "flamegraph rollup" in capsys.readouterr().out


class TestReport:
    """The report's sections, in order, and the ``repro-trace/1`` JSON."""

    SECTIONS = (
        "per-skeleton breakdown (exclusive)",
        "wall attribution",
        "critical path over",
        "per-skeleton critical-path attribution",
        "rank loads",
        "per-skeleton imbalance",
        "top blocking edges",
        "what-if replays",
        "flamegraph rollup",
        "metrics:",
    )

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "snap.json"
        text = run_trace_command("gauss", p=9, n=18, json_out=str(out))
        return text, json.loads(out.read_text())

    def test_report_sections(self, report):
        text, _ = report
        at = [text.index(needle) for needle in self.SECTIONS]
        assert at == sorted(at)
        assert text.index("run ") < at[0]  # the run breakdown leads

    def test_snapshot_attribution_sums(self, report):
        _, snap = report
        total = math.fsum(snap["components"].values())
        assert total == pytest.approx(snap["makespan_s"], rel=1e-12)

    def test_snapshot_whatifs_within_bounds(self, report):
        _, snap = report
        assert snap["whatif"], "what-if replays ran by default"
        for w in snap["whatif"]:
            assert w["within_bound"] in (True, None)

    def test_snapshot_names_the_run_and_its_breakdown(self, report):
        _, snap = report
        assert snap["schema"] == "repro-trace/1"
        assert (snap["app"], snap["n"], snap["seed"], snap["p"]) == ("gauss", 18, 0, 9)
        assert set(snap["breakdown"]) == {f.name for f in fields(CostBreakdown)}
        # the app's own timing leaves out setup and teardown
        assert 0 < snap["breakdown"]["makespan"] <= snap["makespan_s"]

    def test_both_run_times_are_named(self, report):
        """The breakdown's time is the app's timed region
        (``breakdown.makespan``), the critical path's the machine's
        (``makespan_s``); each line says which it prints."""
        text, snap = report
        header, row, note = text.splitlines()[:3]
        assert header.split()[1:3] == ["app", "[s]"]
        assert row.split()[3] == f"{snap['breakdown']['makespan']:.3f}"
        assert note.startswith("app [s]: the application's timed region")
        assert "setup and teardown left out" in note
        assert (f"machine makespan {snap['makespan_s']:.6f}s (the whole run, "
                "setup and teardown included)") in text
        assert snap["breakdown"]["makespan"] < snap["makespan_s"]

    def test_snapshot_is_byte_reproducible(self, tmp_path):
        for name in ("a.json", "b.json"):
            run_trace_command("shpaths", p=4, n=8, json_out=str(tmp_path / name))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_no_whatif_skips_replays(self):
        text = run_trace_command("gauss", p=4, n=8, whatif=False)
        assert "what-if replays" not in text
        assert "critical path over" in text

    def test_cli_dispatch(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        rc = main([
            "trace", "--app", "gauss", "--p", "4", "--n", "8",
            "--no-whatif", "--json-out", str(out),
        ])
        assert rc == 0
        assert "critical path over" in capsys.readouterr().out
        snap = json.loads(out.read_text())
        assert snap["p"] == 4 and "whatif" not in snap

    def test_level_1_has_no_analysis_and_no_json(self, tmp_path, capsys):
        assert main(["trace", "--app", "gauss", "--p", "4", "--n", "8",
                     "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "critical path" not in out and "flamegraph rollup" in out
        rc = main(["trace", "--app", "gauss", "--p", "4", "--n", "8",
                   "--level", "1", "--json-out", str(tmp_path / "a.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "--json-out needs --level 2" in err
        assert not (tmp_path / "a.json").exists()


class TestTraceMode:
    def test_machine_picks_stream_mode(self, tmp_path, capsys, monkeypatch):
        """Without --stream the trace mode is Machine's: at p >=
        STREAM_AUTO_P the run streams and --trace is the JSONL spill."""
        import repro.machine.machine as machine

        monkeypatch.setattr(machine, "STREAM_AUTO_P", 16)
        spill = tmp_path / "f"
        rc = main(["trace", "--app", "shpaths", "--p", "16", "--n", "16",
                   "--no-whatif", "--trace", str(spill)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(stream mode: totals and blocking edges, no steps)" in out
        assert "flamegraph rollup" not in out
        assert f"JSONL event spill written to {spill}" in out
        lines = spill.read_text().splitlines()
        assert lines and all("ph" in json.loads(ln) for ln in lines[:10])

    def test_record_mode_below_the_threshold(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "--app", "shpaths", "--p", "16", "--n", "16",
                     "--no-whatif", "--trace", str(out)]) == 0
        assert "Chrome trace written" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(out.read_text())) == []


class TestTraceMetricsOut:
    def test_metrics_out_writes_exposition(self, tmp_path):
        path = tmp_path / "m.prom"
        text = run_trace_command(
            "gauss", p=4, n=8, whatif=False, metrics_out=str(path)
        )
        assert "Prometheus metrics written" in text
        body = path.read_text()
        assert "# TYPE" in body
        assert "net_message_bytes_bucket" in body
        assert '{le="+Inf"}' in body

    def test_cli_flag(self, tmp_path):
        path = tmp_path / "m.prom"
        rc = main([
            "trace", "--app", "gauss", "--p", "4", "--n", "8",
            "--metrics-out", str(path),
        ])
        assert rc == 0
        assert path.exists()


class TestWallTime:
    """Where wall time went is part of every traced run: the report
    prints wall columns and the dispatch / kernel / idle split, and the
    Chrome JSON carries the same split in ``otherData["wall"]``."""

    def test_gauss_threads_ok(self, tmp_path):
        from repro.obs import write_chrome_trace
        from repro.obs.span import attribution_ok

        # n = 368: eliminate touches two 1.08 MB pools, enough to
        # dispatch on two workers (fuse.plan); smaller gauss runs inline
        run = run_traced("gauss", p=8, n=368, trace_level=1,
                         backend="threads", workers=2)
        text = trace_report_text(run)
        write_chrome_trace(tmp_path / "wall.json", run.machine)
        doc = json.loads((tmp_path / "wall.json").read_text())
        run.machine.close()
        assert "wall attribution" in text and "FAILED" not in text
        wall = doc["otherData"]["wall"]
        assert attribution_ok(wall)
        assert wall["calls"] > 0  # gauss kernels really dispatch
        assert wall["blocks"] <= 2 * wall["calls"]

    def test_sim_backend_ok_without_dispatches(self):
        run = run_traced("shpaths", p=4, n=4, backend="sim")
        wall = run.machine.tracer.wall_attribution()
        run.machine.close()
        assert wall["calls"] == 0
        assert wall["kernel_s"] == wall["measured_wall_s"] > 0
        assert wall["idle_s"] == 0.0

    def test_report_has_per_skeleton_table(self):
        run = run_traced("gauss", p=8, n=16, backend="threads", workers=2)
        text = trace_report_text(run)
        run.machine.close()
        header = next(
            ln for ln in text.splitlines() if ln.startswith("skeleton ")
        )
        assert "busy [s]" in header  # simulated ...
        assert "wall [s]" in header and "us/call" in header  # ... and wall

    def test_trace_writes_the_dual_clock_trace(self, tmp_path):
        """On ``--backend threads`` the trace JSON gains the wall tracks
        (a subprocess: ``--backend`` sets the process-wide default)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.obs.export import _WALL_PID

        root = Path(__file__).resolve().parents[2]
        trace = tmp_path / "t.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.eval", "trace", "--app", "gauss",
             "--p", "4", "--n", "8", "--backend", "threads", "--workers",
             "2", "--trace", str(trace)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "wall attribution" in proc.stdout
        doc = json.loads(trace.read_text())
        assert any(ev["pid"] == _WALL_PID for ev in doc["traceEvents"])
        assert {"dispatch_s", "kernel_s", "idle_s"} <= set(doc["otherData"]["wall"])
