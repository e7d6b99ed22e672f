"""The shared observability flags (``--trace`` / ``--metrics-out`` /
``--quiet``) must be accepted uniformly by every ``repro.eval``
subcommand — the flag-drift fix — plus the ``trace --stream`` and
``all --progress`` entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.__main__ import _build_parser, main

ROOT = Path(__file__).resolve().parents[2]

COMMON = ["--trace", "t.json", "--metrics-out", "m.prom", "--quiet"]


class TestFlagUniformity:
    @pytest.mark.parametrize(
        "sub",
        ["table1", "table2", "figure1", "ablations", "all", "trace",
         "analyze"],
    )
    def test_common_flags_parse_on_every_subcommand(self, sub):
        args = _build_parser().parse_args([sub, *COMMON])
        assert args.trace == "t.json"
        assert args.metrics_out == "m.prom"
        assert args.quiet is True

    def test_trace_keeps_json_alias(self):
        args = _build_parser().parse_args(["trace", "--json", "x.json"])
        assert args.trace == "x.json"


class TestRunTargetParent:
    """trace/analyze share --app/--p/--n/--seed through one parent."""

    @pytest.mark.parametrize("sub", ["trace", "analyze"])
    def test_run_target_flags_parse(self, sub):
        args = _build_parser().parse_args(
            [sub, "--app", "shpaths", "--p", "4", "--n", "8", "--seed", "7"]
        )
        assert (args.app, args.p, args.n, args.seed) == ("shpaths", 4, 8, 7)

    @pytest.mark.parametrize("sub", ["trace", "analyze"])
    def test_run_target_defaults_match(self, sub):
        args = _build_parser().parse_args([sub])
        assert (args.app, args.p, args.n, args.seed) == ("gauss-full", 9, 48, 0)


class TestUsageValidation:
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_nonpositive_p_is_a_clean_usage_error(self, bad, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", bad, "--n", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--p must be a positive integer" in err
        assert "Traceback" not in err

    def test_nonpositive_workers_is_a_clean_usage_error(self, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", "4", "--n", "8",
                   "--workers", "0"])
        assert rc == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_workers_flag_sets_the_env_default(self, monkeypatch):
        import os

        from repro.eval.cliopts import apply_backend

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        apply_backend(None, 3)
        assert os.environ["REPRO_WORKERS"] == "3"
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    @pytest.mark.parametrize("bad", ["two", "0", "-1", "1.5"])
    def test_bad_workers_env_is_a_backend_error(self, bad, monkeypatch, capsys):
        from repro.errors import BackendError
        from repro.machine.machine import Machine

        monkeypatch.setenv("REPRO_WORKERS", bad)
        for backend in ("sim", "threads"):
            with pytest.raises(BackendError) as exc:
                Machine(4, backend=backend)
            assert "REPRO_WORKERS" in str(exc.value)
            assert repr(bad) in str(exc.value)
        # an explicit workers= never consults the variable
        Machine(4, backend="threads", workers=2).close()
        # the CLI reports it like a usage error, not a traceback
        assert main(["trace", "--app", "shpaths", "--p", "4", "--n", "8"]) == 2
        err = capsys.readouterr().err
        assert f"REPRO_WORKERS={bad!r}" in err and "Traceback" not in err

    def test_require_positive_accepts_none_and_positive(self):
        from repro.eval.cliopts import require_positive

        require_positive("--p", None)
        require_positive("--p", 1)

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--trace", "{d}/x.json"], "--trace"),
        (["trace", "--json", "{d}/x.json"], "--trace"),
        (["trace", "--stream", "--trace", "{d}/x.jsonl"], "--trace"),
        (["trace", "--metrics-out", "{d}/m.prom"], "--metrics-out"),
        (["analyze", "--json-out", "{d}/a.json"], "--json-out"),
        (["table1", "--trace", "{d}/t.json"], "--trace"),
    ])
    def test_unwritable_output_is_a_usage_error_before_the_run(
        self, argv, flag, tmp_path, capsys, monkeypatch
    ):
        """An output path in a directory that does not exist ends in one
        line naming the flag, exit 2 — not a FileNotFoundError after the
        whole run and report."""
        import repro.eval.tracecmd as tracecmd

        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the path check")

        monkeypatch.setattr(tracecmd, "run_traced", no_run)
        missing = tmp_path / "nonexistent"
        rc = main([a.format(d=missing) for a in argv])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert flag in err and str(missing) in err
        assert "Traceback" not in err

    def test_output_in_the_working_directory_is_accepted(self, tmp_path, monkeypatch):
        from repro.eval.cliopts import require_output_dir

        monkeypatch.chdir(tmp_path)
        require_output_dir("--trace", "t.json")  # bare name: the cwd
        require_output_dir("--trace", None)

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--top", "-3"], "--top must be a positive integer, got -3"),
        (["analyze", "--top", "0"], "--top must be a positive integer, got 0"),
        (["trace", "--stream", "--heartbeat-every", "-1"],
         "--heartbeat-every must be a positive number, got -1.0"),
        (["trace", "--stream", "--heartbeat-every", "0"],
         "--heartbeat-every must be a positive number, got 0.0"),
    ])
    def test_nonpositive_top_and_heartbeat_are_usage_errors(
        self, argv, message, capsys
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_sample_size_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--stream", "--sample-size", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sample-size" in capsys.readouterr().err

    def test_profile_flag_is_gone(self):
        """``--profile`` went with the separate wall profiler: argparse's
        usage error, exit 2, not a traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.eval", "trace", "--profile"],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        last = proc.stderr.strip().splitlines()[-1]
        assert last.endswith("error: unrecognized arguments: --profile")
        assert "Traceback" not in proc.stderr

    def test_removed_bench_subcommand_is_a_usage_error(self, capsys):
        """``eval bench`` (and ``skil-eval bench``, the same ``main``)
        says where the benchmark went — not argparse's choice list, not
        an ImportError for a module that no longer exists."""
        import importlib.util
        import sys

        rc = main(["bench", "--quick"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "'bench' subcommand was removed" in err
        assert "python3 bench/run.py" in err and "bench/compare.py" in err
        assert "Traceback" not in err and "invalid choice" not in err
        assert "repro.eval.bench" not in sys.modules
        # no compatibility shims left behind
        assert importlib.util.find_spec("repro.eval.bench") is None
        assert importlib.util.find_spec("repro.obs.regress") is None
        pyproject = (ROOT / "pyproject.toml").read_text()
        assert 'skil-eval = "repro.eval.__main__:main"' in pyproject


class TestStreamTraceCli:
    def test_trace_stream_runs_and_spills(self, tmp_path, capsys):
        spill = tmp_path / "spill.jsonl"
        rc = main([
            "trace", "--app", "shpaths", "--p", "4", "--n", "8",
            "--stream", "--trace", str(spill),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("per-skeleton breakdown (exclusive)") == 1
        assert "inclusive" not in out and "p99 [s]" in out
        assert "JSONL event spill" in out
        lines = spill.read_text().splitlines()
        assert lines
        assert all("ph" in json.loads(ln) for ln in lines[:10])

    def test_trace_stream_without_spill(self, capsys):
        rc = main(["trace", "--app", "shpaths", "--p", "4", "--n", "8",
                   "--stream"])
        assert rc == 0
        assert "streamed aggregates" in capsys.readouterr().out

    def test_record_mode_unchanged(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        rc = main(["trace", "--app", "gauss", "--p", "4", "--n", "8",
                   "--trace", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Chrome trace written" in out
        # the same per-skeleton table stream mode prints
        assert out.count("per-skeleton breakdown (exclusive)") == 1
        assert "p99 [s]" in out
        assert json.loads(out_file.read_text())["traceEvents"]


class TestProgress:
    def test_all_progress_emits_step_lines(self, capsys):
        rc = main(["table1", "--scale", "0.1", "--progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "table1: shpaths" in err

    def test_quiet_suppresses_progress(self, capsys):
        rc = main(["table1", "--scale", "0.1", "--progress", "--quiet"])
        assert rc == 0
        assert capsys.readouterr().err == ""
