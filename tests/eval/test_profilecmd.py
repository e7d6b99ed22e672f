"""``python -m repro.eval profile`` — the sim-vs-wall correlation
report, its ``repro-profile/2`` snapshot and the shared
``--profile``/``--profile-out`` flag plumbing."""

from __future__ import annotations

import json

import pytest

from repro.eval.__main__ import _build_parser, main
from repro.eval.profilecmd import profile_snapshot_text, run_profile_command
from repro.obs.prof import PROFILE_SCHEMA

SNAPSHOT_KEYS = {
    "schema", "app", "p", "n", "seed", "backend", "workers",
    "sim_seconds", "serial_sim_seconds", "sim_speedup", "sim_identical",
    "unprofiled_wall_s", "profiled_wall_s", "profile_overhead",
    "measured_wall_s", "sim_backend_wall_s", "wall_speedup_vs_sim",
    "parallel_efficiency", "attribution", "attribution_tol",
    "attribution_ok", "skeletons", "dispatch_calls", "dispatch_blocks",
    "worker_stats", "imbalance", "metrics",
}


@pytest.fixture
def untimed(monkeypatch):
    """Tier-1 checks the command's wiring on runs of a few milliseconds,
    whose wall ratio is the host's, not the profiler's: stop timing
    after the minimum of pairs and let any ratio pass.  The ceiling is
    tested on scripted walls (``TestProfileOverhead``) and applied to a
    real run by the CI ``profile-smoke`` job."""
    import repro.eval.profilecmd as pc

    monkeypatch.setattr(pc, "OVERHEAD_TIMED_S", 0.0)
    monkeypatch.setattr(pc, "PROFILE_OVERHEAD_LIMIT", float("inf"))


@pytest.mark.usefixtures("untimed")
class TestRunProfileCommand:
    def test_gauss_threads_ok(self, tmp_path):
        out = tmp_path / "prof.json"
        text, rc = run_profile_command(
            app="gauss", p=8, n=16, backend="threads", workers=2,
            json_out=str(out),
        )
        assert rc == 0
        assert "IDENTICAL" in text
        assert "wall attribution" in text
        snap = json.loads(out.read_text())
        assert snap["schema"] == PROFILE_SCHEMA
        assert SNAPSHOT_KEYS <= set(snap)
        assert snap["sim_identical"] is True
        assert snap["attribution_ok"] is True
        attr = snap["attribution"]
        assert set(attr) == {"dispatch_s", "kernel_s", "idle_s"}
        total = sum(attr.values())
        mw = snap["measured_wall_s"]
        assert abs(total - mw) <= max(snap["attribution_tol"] * mw, 1e-9)
        assert snap["dispatch_calls"] > 0  # gauss kernels really dispatch

    def test_sim_backend_ok_without_dispatches(self):
        text, rc = run_profile_command(app="shpaths", p=4, n=4,
                                       backend="sim", workers=1)
        assert rc == 0
        assert "none dispatched" in text

    def test_snapshot_text_roundtrip(self):
        _, rc = run_profile_command(app="gauss", p=4, n=8, backend="sim",
                                    workers=1, quiet=True)
        assert rc == 0

    def test_report_has_per_skeleton_table(self):
        text, rc = run_profile_command(app="gauss", p=8, n=16,
                                       backend="threads", workers=2)
        assert rc == 0
        assert "skeleton" in text
        assert "sim x" in text and "wall x" in text


class TestProfileOverhead:
    """``profile_overhead`` is the one measurement of profiler cost: a
    cold first run must not decide it, nor the order within a pair, and
    exceeding the ceiling is the command's third nonzero-exit condition."""

    @staticmethod
    def _scripted(monkeypatch, walls_off, walls_on):
        """Real runs, scripted wall readings; the first call (the
        warm-up) reads an absurd 99 s that must never be reported."""
        import repro.eval.profilecmd as pc

        real = pc._timed_run
        script = {False: iter(walls_off), True: iter(walls_on)}
        calls = []

        def fake(app, p, n, seed, backend, workers, profile):
            run, _ = real(app, p, n, seed, backend, workers, profile)
            calls.append((backend, p, profile))
            if len(calls) == 1:
                return run, 99.0
            # the sim reference and p=1 serial runs discard their wall
            timed = (backend, p) == ("threads", 4)
            return run, next(script[profile]) if timed else 0.0

        monkeypatch.setattr(pc, "_timed_run", fake)
        return calls

    @pytest.mark.parametrize("ratio, rc", [(1.1, 0), (1.4, 1)])
    def test_warm_up_then_median_of_alternating_pairs(
        self, monkeypatch, tmp_path, ratio, rc
    ):
        from repro.eval.profilecmd import OVERHEAD_PAIRS
        from repro.obs.prof import PROFILE_OVERHEAD_LIMIT

        assert PROFILE_OVERHEAD_LIMIT == 1.25 and OVERHEAD_PAIRS == 3
        # pair ratios 0.5, `ratio`, 2.0: the first pair alone reads 0.5
        # and least-over-least 1.0, whatever `ratio` is
        calls = self._scripted(
            monkeypatch, [2.0, 1.0, 4.0], [1.0, ratio, 8.0]
        )
        out = tmp_path / "p.json"
        text, got = run_profile_command(
            app="gauss", p=4, n=8, backend="threads", workers=2,
            json_out=str(out), quiet=True,
        )
        target = [c for c in calls if c[:2] == ("threads", 4)]
        assert calls[0] == target[0]  # the warm-up comes first
        assert [c[2] for c in target[1:]] == [False, True] * OVERHEAD_PAIRS
        snap = json.loads(out.read_text())
        assert snap["unprofiled_wall_s"] == 1.0
        assert snap["profiled_wall_s"] == ratio
        assert snap["profile_overhead"] == ratio
        assert snap["sim_identical"] and snap["attribution_ok"]
        assert got == rc
        assert ("EXCEEDED" in text) == (rc != 0)


@pytest.mark.usefixtures("untimed")
class TestCliWiring:
    def test_profile_subcommand_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = main([
            "profile", "--app", "gauss", "--p", "8", "--n", "16",
            "--backend", "threads", "--workers", "2",
            "--json-out", str(out), "--quiet",
        ])
        assert rc == 0
        assert "profile gauss" in capsys.readouterr().out
        assert json.loads(out.read_text())["schema"] == PROFILE_SCHEMA

    def test_profile_out_alias_on_profile_subcommand(self, tmp_path):
        out = tmp_path / "alias.json"
        rc = main([
            "profile", "--app", "gauss", "--p", "4", "--n", "8",
            "--backend", "sim", "--profile-out", str(out), "--quiet",
        ])
        assert rc == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "sub",
        ["table1", "table2", "figure1", "ablations", "all", "trace",
         "analyze", "profile"],
    )
    def test_profile_flags_parse_on_every_subcommand(self, sub):
        args = _build_parser().parse_args(
            [sub, "--profile", "--profile-out", "p.json"]
        )
        assert args.profile is True
        assert args.profile_out == "p.json"

    @pytest.mark.parametrize("sub", ["trace", "analyze", "table1"])
    def test_profile_out_without_profile_is_a_usage_error(self, sub, capsys):
        rc = main([sub, "--profile-out", "p.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--profile-out requires --profile" in err
        assert "Traceback" not in err

    def test_trace_profile_writes_snapshot_and_dual_trace(
        self, tmp_path, capsys
    ):
        from repro.obs.export import _WALL_PID

        trace = tmp_path / "t.json"
        snap = tmp_path / "p.json"
        rc = main([
            "trace", "--app", "gauss", "--p", "4", "--n", "8",
            "--profile", "--trace", str(trace),
            "--profile-out", str(snap),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile snapshot written" in out or "wall-clock profile" in out
        doc = json.loads(trace.read_text())
        assert any(ev["pid"] == _WALL_PID for ev in doc["traceEvents"])
        assert json.loads(snap.read_text())["schema"] == PROFILE_SCHEMA

    def test_analyze_accepts_profile(self, tmp_path):
        snap = tmp_path / "p.json"
        rc = main([
            "analyze", "--app", "gauss", "--p", "4", "--n", "8",
            "--no-whatif", "--quiet",
            "--profile", "--profile-out", str(snap),
        ])
        assert rc == 0
        assert json.loads(snap.read_text())["schema"] == PROFILE_SCHEMA


class TestSnapshotText:
    def test_formatter_accepts_minimal_snapshot(self):
        snap = {
            "app": "gauss", "p": 4, "n": 8, "backend": "sim",
            "workers": 1, "seed": 0,
            "sim_seconds": 1.0, "serial_sim_seconds": 2.0,
            "sim_speedup": 2.0, "sim_identical": True,
            "unprofiled_wall_s": 0.5, "profiled_wall_s": 0.55,
            "profile_overhead": 1.1, "measured_wall_s": 0.4,
            "sim_backend_wall_s": 0.4, "wall_speedup_vs_sim": 1.0,
            "parallel_efficiency": 1.0,
            "attribution": {"dispatch_s": 0.0, "kernel_s": 0.4,
                            "idle_s": 0.0},
            "attribution_tol": 0.02, "attribution_ok": True,
            "skeletons": [
                {"name": "map", "calls": 3, "sim_s": 0.6, "wall_s": 0.3,
                 "sim_speedup": 2.0, "wall_speedup": None},
            ],
            "dispatch_calls": 0, "dispatch_blocks": 0,
            "worker_stats": [], "imbalance": None,
        }
        text = profile_snapshot_text(snap)
        assert "profile gauss" in text
        assert "IDENTICAL" in text
        assert "none dispatched" in text
