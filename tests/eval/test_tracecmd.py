"""Tests for the ``python -m repro.eval trace`` subcommand."""

import json

import pytest

from repro.errors import SkilError
from repro.eval.__main__ import main
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
        run_trace_command("shpaths", p=4, n=12, out=str(out))
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
                   "--json", str(out)])
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
