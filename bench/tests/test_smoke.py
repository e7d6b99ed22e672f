"""Smoke test of the benchmark itself.  Not part of tier-1:

    python -m pytest bench/tests -q

Runs every workload at ``--quick`` sizes (one pass, numbers mean nothing) and
holds the metric names of ``BENCHMARK.json`` and the output together.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import compare  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = run("--quick", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_every_workload_and_metric_is_reported(quick):
    assert list(quick["workloads"]) == list(WORKLOADS)
    for name, entry in quick["workloads"].items():
        assert NAME.fullmatch(name)
        assert entry["ops"] > 0 and entry["failed_ops"] == 0, entry["errors"]
        assert set(entry["end_to_end"]) == set(END_TO_END)
        assert set(entry["per_layer"]) == set(PER_LAYER)
        for m in (*END_TO_END, *PER_LAYER):
            assert NAME.fullmatch(m)
        assert all(s["value"] > 0 for s in entry["end_to_end"].values())
        assert entry["per_layer"]["bench.trace_overhead_x"]["value"] > 0
        assert entry["trace"]["self_time_gap"] < 0.02
        assert (ROOT / entry["trace"]["trace_file"]).is_file()
    for key in ("nproc", "python", "numpy", "loadavg_1min", "git_commit"):
        assert key in quick["host"]


def test_a_file_compared_with_itself_is_ok(quick):
    lines, fine = compare.compare(quick, quick)
    assert fine
    rows = [ln for ln in lines if ln.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)
    assert all(row.split()[-2] == "ok" for row in rows)


def test_compare_flags_a_slowdown_and_a_changed_count(quick):
    slow = json.loads(json.dumps(quick))
    wall = slow["workloads"]["skil_compile"]["end_to_end"]["wall_s"]
    wall["value"] *= 2.0
    wall["samples"] = [2.0 * s for s in wall["samples"]]
    slow["workloads"]["scale_obs"]["sim_s"] += 1.0
    lines, fine = compare.compare(quick, slow)
    assert not fine
    assert any("worse" in ln and "skil_compile" in ln for ln in lines)
    assert any("sim_s differs" in ln for ln in lines)


def test_benchmark_json_keeps_to_its_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert len(set(names)) == len(names) and all(NAME.fullmatch(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert END_TO_END["setup_s"] == ("s", "lower", max(m["bound"] for m in doc["end_to_end"]))


@pytest.mark.parametrize("trace,declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_last_line_of_a_workload_run_is_the_result(trace, declared):
    proc = run("--workload", "scale_obs", "--seed", "7", "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    assert all(v["unit"] == declared[m][0] for m, v in result["metrics"].items())
