"""The ``repro.check`` pillars and their CLI run green on a small
budget, and every failure path yields a replayable one-line command."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import run_charging, run_diff, run_fuzz, run_oracle
from repro.check.__main__ import MERGED, main
from repro.check.report import CheckResult, Failure, format_failure, format_result


class TestFuzzPillar:
    def test_small_budget_green(self):
        res = run_fuzz(seed=0, budget=8)
        assert res.trials == 8
        assert res.ok, format_result(res)

    def test_coverage_counters_populated(self):
        res = run_fuzz(seed=1, budget=8)
        assert any(k.startswith("op.") for k in res.coverage)

    def test_raw_seed_replays_exact_trial(self):
        from repro.check.fuzz import run_fuzz_raw

        base = run_fuzz(seed=3, budget=3)
        assert base.ok, format_result(base)
        # the i-th trial of base seed 3 has per-trial seed 3*1_000_003+i
        res = run_fuzz_raw(3 * 1_000_003 + 1, budget=1)
        assert res.trials == 1
        assert res.ok, format_result(res)


class TestOraclePillar:
    def test_one_round_robin_covers_every_skeleton(self):
        from repro.check.oracle import ORACLE_TRIALS

        res = run_oracle(seed=0, budget=len(ORACLE_TRIALS))
        assert res.ok, format_result(res)
        assert set(res.coverage) == set(ORACLE_TRIALS)

    def test_raw_seed_replay(self):
        from repro.check.oracle import run_oracle_raw

        res = run_oracle_raw(5 * 1_000_003 + 2, budget=1)
        assert res.trials == 1
        assert res.ok, format_result(res)


class TestDiffPillar:
    def test_small_budget_green(self):
        res = run_diff(seed=0, budget=12)
        assert res.ok, format_result(res)
        assert res.trials == 12
        # Network vs Engine only: the obs probe is the trace pillar's
        assert "diff.obs" not in res.coverage
        assert all(k.startswith("diff.") for k in res.coverage)

    def test_raw_seed_replay(self):
        from repro.check.diffcheck import run_diff_raw

        res = run_diff_raw(2 * 1_000_003, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)


class TestBatchPillar:
    """The ``charging`` pillar (the former ``batch`` and ``scale``)."""

    FAMILIES = ("p2p", "shift", "tree", "fan", "ring", "hops", "plan_reuse",
                "fused_comm")

    def test_small_budget_green(self):
        # one round-robin over the eight families; at base seed 2 the
        # tree and the fan trial both draw a p in the hundreds
        res = run_charging(seed=2, budget=len(self.FAMILIES))
        assert res.ok, format_result(res)
        assert res.trials == len(self.FAMILIES)
        for family in self.FAMILIES:
            assert any(
                k.split(".")[1] == family for k in res.coverage
            ), (family, res.coverage)
        assert res.coverage["charging.tree.big"] == 1

    def test_raw_seed_replay(self):
        from repro.check.charging import run_charging_raw

        # trial seed s runs family s % 8: these two are the tree trial
        # (the big-p one of the round-robin above) and the fan trial
        res = run_charging_raw(2 * 1_000_003 + 4, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)
        assert res.coverage["charging.tree.big"] == 1
        assert any(k.startswith("charging.fan.") for k in res.coverage)


class TestStreamPillar:
    """The ``trace`` pillar, which runs the former ``stream`` pillar's
    record-vs-stream checks on every family."""

    def test_small_budget_green(self):
        from repro.check import run_trace

        res = run_trace(seed=0, budget=6)
        assert res.ok, format_result(res)
        assert res.trials == 6
        # the four trial families interleave round-robin, patterns and
        # skeletons twice in a round of six
        assert sum(v for k, v in res.coverage.items()
                   if k.startswith("trace.app_")) == 1
        assert sum(v for k, v in res.coverage.items()
                   if k.startswith("trace.engine_")) == 1
        assert res.coverage["trace.pattern"] == res.coverage["trace.skeleton"] == 2

    def test_raw_seed_replay(self):
        from repro.check.tracecheck import run_trace_raw

        res = run_trace_raw(6 * 1_000_003 + 1, budget=2)
        assert res.trials == 2
        assert res.ok, format_result(res)

    def test_cli_pillar_registered(self, capsys):
        assert main(["trace", "--seed", "2", "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "[trace]" in out


class TestCli:
    def test_all_green_exit_zero(self, capsys):
        assert main(["all", "--seed", "0", "--budget", "6"]) == 0
        out = capsys.readouterr().out
        ran = [ln[1:ln.index("]")] for ln in out.splitlines() if ln.startswith("[")]
        assert ran == ["fuzz", "oracle", "diff", "charging", "trace",
                       "backend", "fusion"]
        assert "0 failure(s)" in out

    def test_single_pillar(self, capsys):
        assert main(["oracle", "--seed", "2", "--budget", "4"]) == 0
        out = capsys.readouterr().out
        assert "[oracle]" in out
        assert "[fuzz]" not in out

    def test_time_budget_stops_early(self, capsys):
        assert main(["fuzz", "--budget", "100000", "--time-budget", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "failure(s)" in out

    def test_raw_seed_flag(self, capsys):
        assert main(["diff", "--seed", "0", "--budget", "1", "--raw-seed"]) == 0


class TestRemovedEntryPoints:
    @pytest.mark.parametrize(
        "argv", [["batch"], ["scale", "--seed", "1"], ["--budget", "3", "batch"],
                 ["dag"], ["stream", "--seed", "0", "--budget", "120"]]
    )
    def test_merged_pillars_are_a_usage_error_naming_charging(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        merged = next(a for a in argv if a in MERGED)
        assert f"merged into '{MERGED[merged]}'" in err
        assert f"python -m repro.check {MERGED[merged]}`" in err
        assert "Traceback" not in err and "invalid choice" not in err
        # no compatibility shims left behind
        assert importlib.util.find_spec("repro.check.netbatch") is None
        assert importlib.util.find_spec("repro.check.scalecheck") is None
        assert importlib.util.find_spec("repro.check.dagcheck") is None
        assert importlib.util.find_spec("repro.check.streamcheck") is None

    @pytest.mark.parametrize(
        "flag", ["--fused", "--no-fused", "--fusion", "--no-fusion"]
    )
    def test_fused_flags_are_unrecognised_on_both_clis(self, flag, capsys):
        from repro.eval.__main__ import main as eval_main

        for cli, argv in (
            (main, ["oracle", "--budget", "1"]),
            (eval_main, ["table1", "--scale", "0.25"]),
        ):
            with pytest.raises(SystemExit) as exc:
                cli([*argv, flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_repro_fused_in_the_environment_is_not_honoured(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "from repro.machine.machine import Machine\n"
            "from repro.skeletons import SkilContext\n"
            "print(SkilContext(Machine(4)).fused)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_FUSED": "0", "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.strip() == "True", done.stderr

    def test_repro_fusion_in_the_environment_is_not_honoured(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "from repro.apps.skil_sources import SHPATHS_SKIL\n"
            "from repro.lang import compile_skil\n"
            "print(compile_skil(SHPATHS_SKIL).fusion_report)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_FUSION": "1", "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.stdout.strip() == "None", done.stderr

    def test_compiler_fusion_is_chosen_only_where_a_program_is_compiled(self):
        from repro.machine.machine import Machine
        from repro.skeletons import SkilContext, fuse

        with pytest.raises(TypeError, match="fusion"):
            SkilContext(Machine(4), fusion=True)
        assert not hasattr(SkilContext(Machine(4)), "fusion")
        assert not hasattr(fuse, "set_program_fusion_default")
        assert not hasattr(fuse, "program_fusion_default")


class TestReport:
    def test_failure_replay_command_default(self):
        # every failure's seed is a per-trial seed: one replay form
        f = Failure(pillar="fuzz", seed=42, title="boom")
        assert f.replay_command() == (
            "PYTHONPATH=src python -m repro.check fuzz --seed 42 --budget 1 "
            "--raw-seed"
        )

    def test_format_failure_includes_reproducer(self):
        f = Failure(
            pillar="fuzz",
            seed=7,
            title="mismatch",
            detail="expected 1, got 2",
            reproducer="int entry () { return 1; }",
        )
        text = format_failure(f)
        assert "seed=7" in text
        assert "replay:" in text
        assert "minimized reproducer" in text
        assert "int entry" in text

    def test_merge_accumulates(self):
        a = CheckResult("fuzz", trials=2, coverage={"op.map": 1})
        b = CheckResult("fuzz", trials=3, coverage={"op.map": 2, "op.fold": 1})
        b.failures.append(Failure(pillar="fuzz", seed=1, title="x"))
        a.merge(b)
        assert a.trials == 5
        assert a.coverage == {"op.map": 3, "op.fold": 1}
        assert not a.ok


class TestShrinking:
    def test_shrinker_reduces_failing_spec(self):
        """Plant an artificial bug (fuzz against a corrupted comparator)
        and check the shrinker returns a smaller spec with the same
        failure stage."""
        from repro.check import fuzz as fz

        spec = fz.generate_spec(0)
        # a spec with several ops; drop-ops candidates must shrink it
        candidates = list(fz._shrink_candidates(spec))
        assert candidates, "generator produced an unshrinkable spec"
        for cand in candidates:
            assert len(cand.ops) <= len(spec.ops)

    @pytest.mark.parametrize("budget", [4, 120])
    def test_shrink_keeps_the_stage_within_budget(self, budget, monkeypatch):
        """``shrink`` against a stubbed run that fails at one stage while
        the spec still has an op of one kind: a smaller spec that still
        fails there, after at most *budget* runs."""
        from repro.check import fuzz as fz

        seed = next(s for s in range(100) if len(fz.generate_spec(s).ops) >= 4)
        spec = fz.generate_spec(seed)
        kind = spec.ops[0].kind
        runs = []

        def fake_run_spec(cand):
            runs.append(cand)
            if any(op.kind == kind for op in cand.ops):
                return "run", "planted"
            return "compile", "other stage"

        monkeypatch.setattr(fz, "_run_spec", fake_run_spec)
        small = fz.shrink(spec, "run", budget=budget)
        assert len(runs) <= budget
        assert len(small.ops) < len(spec.ops)
        assert fake_run_spec(small)[0] == "run"
        if budget == 120:  # enough to shed every op but one of the kind
            assert [op.kind for op in small.ops] == [kind]
