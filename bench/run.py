"""The repository benchmark.  One command prints every metric by name.

    python3 bench/run.py --seed 0 [--workload NAME] [--trace] [--out FILE]

Each workload runs in its own subprocess, strictly one after another, as a
closed loop of one client.  End-to-end metrics come from untraced passes,
pooled over ``ROUNDS`` fresh processes (each pays set-up once, so ``setup_s``
has ``ROUNDS`` samples); with ``--trace`` one more process runs the workload on
instrumented objects and reports the per-layer ledger.  Every metric is printed
with its unit, value, median, quartiles and sample count; ``--out`` writes the
same as JSON, which ``bench/compare.py`` reads.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics, or
with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import BENCH_DIR, REPO_ROOT, nproc
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, quartiles

SCHEMA = "repo-bench/1"
#: fresh processes per workload; each contributes one set-up sample
ROUNDS = 5
#: a run must end within 180 s, whatever the host does
RUN_TIMEOUT_S = 170.0
PINNED_ENV = {
    # one BLAS thread: the scheduler, not the program, was a third of an
    # unpinned table2 run on the 2-core reference host
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: process-wide toggles of the program under test; the benchmark measures defaults
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_FUSED", "REPRO_FUSION")


def git_commit() -> str:
    if not (REPO_ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    try:
        head = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1min": os.getloadavg()[0],
        "git_commit": git_commit(),
        "pinned_env": PINNED_ENV,
    }


def run_worker(workload: str, seed: int, seconds: float, mode: str, quick: bool,
               deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if quick:
        cmd.append("--quick")
    # own session: a timeout must also reach worker processes of the mp probe
    proc = subprocess.Popen(cmd, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: the run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(stdout.strip().splitlines()[-1])


def least_parts(rounds: list[dict[str, float]], whole: list[float]) -> dict:
    """A metric that is the sum of parts timed in every round.  The host
    flips between two speeds, up to 2x apart, every few tens of milliseconds,
    and how often drifts over minutes (bench/README.md), so a median measures
    the neighbours; the value is the sum of each part's least time over all
    rounds, which moves with the code.  The samples are the same sum within
    each round; the quartiles are those of the wholes as timed."""
    pooled = {part: min(r[part] for r in rounds if part in r)
              for part in set().union(*rounds)}
    return {"value": math.fsum(pooled.values()),
            "samples": [math.fsum(r.values()) for r in rounds],
            **quartiles(whole)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, untraced: bool,
                 quick: bool) -> dict:
    entry: dict = {"why": WORKLOADS[name], "ops": 0, "failed_ops": 0,
                   "attempted": 0, "failed": 0, "errors": {}}
    deadline = monotonic() + RUN_TIMEOUT_S

    def absorb(out: dict) -> None:
        entry["ops"] = out["ops"]
        entry["sizes"] = out["sizes"]
        entry["sim_s"] = out["sim_s"]
        entry["attempted"] += out["attempted"]
        entry["failed"] += out["failed"]
        entry["errors"].update(out["errors"])
        entry["failed_ops"] = len(entry["errors"])

    if untraced:
        outs = [run_worker(name, seed, seconds / ROUNDS, "measure", quick, deadline)
                for _ in range(1 if quick else ROUNDS)]
        for out in outs:
            absorb(out)
        rss = [out["peak_rss_mb"] for out in outs]
        entry["end_to_end"] = {
            # parts: the ops of a pass; wholes: the passes
            "wall_s": least_parts([out["best_wall"] for out in outs],
                                  [t for out in outs for t in out["wall_s"]]),
            "cpu_s": least_parts([out["best_cpu"] for out in outs],
                                 [t for out in outs for t in out["cpu_s"]]),
            # parts: import, inputs and references, each op of the cold pass
            "setup_s": least_parts([out["setup"] for out in outs],
                                   [sum(out["setup"].values()) for out in outs]),
            "peak_rss_mb": {"value": statistics.median(rss), "samples": rss,
                            **quartiles(rss)},
        }
        for m, s in entry["end_to_end"].items():
            s["unit"] = END_TO_END[m][0]
    if trace:
        out = run_worker(name, seed, seconds, "trace", quick, deadline)
        absorb(out)
        entry["per_layer"] = {
            m: {"unit": PER_LAYER[m][0], "value": out["per_layer"][m]}
            for m in PER_LAYER
        }
        entry["trace"] = {k: out[k] for k in
                          ("trace_file", "traced_passes", "self_time_gap")}
    return entry


def print_entry(name: str, entry: dict) -> None:
    print(f"{name}: ops={entry['ops']} failed_ops={entry['failed_ops']} "
          f"attempted={entry['attempted']} failed={entry['failed']}")
    for op_id, err in entry["errors"].items():
        print(f"  FAILED {op_id}: {err}")
    for m, s in entry.get("end_to_end", {}).items():
        print(f"  {name} {m} [{s['unit']}] value={s['value']:.6g} "
              f"median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for m, s in entry.get("per_layer", {}).items():
        print(f"  {name} {m} [{s['unit']}] value={s['value']:.6g} n=1")
    if "trace" in entry:
        t = entry["trace"]
        print(f"  trace: {t['trace_file']} ({t['traced_passes']} traced passes; "
              f"self times sum to each op's span within {t['self_time_gap']:.2e})")


def contract_line(entry: dict, trace: bool) -> str:
    if trace:
        metrics = {m: {"value": s["value"], "unit": s["unit"]}
                   for m, s in entry["per_layer"].items()}
    else:
        metrics = {m: {"value": s["value"], "unit": s["unit"]}
                   for m, s in entry["end_to_end"].items()}
    return json.dumps({
        "correct": entry["failed"] == 0 and entry["failed_ops"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{REPO_ROOT / 'src' / 'repro'}: the program under test is missing")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload and end with the one-line JSON result")
    ap.add_argument("--seed", type=int, default=0,
                    help="drives every generated input (default 0)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="measuring time per workload run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="also run traced and report the per-layer ledger; with "
                         "--workload, 1 reports only the per-layer metrics")
    ap.add_argument("--out", type=Path, help="write every result as JSON")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, one pass (smoke test; numbers mean nothing)")
    args = ap.parse_args(argv)

    host = host_fingerprint()
    print(f"host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"load={host['loadavg_1min']:.2f} commit={host['git_commit']}")
    if host["loadavg_1min"] > host["nproc"]:
        print(f"WARNING: 1-minute load average {host['loadavg_1min']:.2f} exceeds "
              f"nproc={host['nproc']}; timings will be inflated")

    contract = args.workload is not None and args.out is None
    names = [args.workload] if args.workload else list(WORKLOADS)
    doc = {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
           "quick": args.quick, "host": host, "workloads": {}}
    for name in names:
        entry = run_workload(name, args.seed, args.seconds, trace=bool(args.trace),
                             untraced=not (contract and args.trace), quick=args.quick)
        doc["workloads"][name] = entry
        print_entry(name, entry)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    if contract:
        print(contract_line(doc["workloads"][args.workload], bool(args.trace)))
    return 0 if all(e["failed"] == 0 and e["failed_ops"] == 0
                    for e in doc["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
