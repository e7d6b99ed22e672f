"""CLI for the conformance pillars: ``python -m repro.check``.

Examples
--------
Run everything with the default budget::

    PYTHONPATH=src python -m repro.check all --seed 0 --budget 200

Replay one failure printed by a previous run (the per-trial seed goes
with ``--raw-seed``, exactly as the failure's replay line says)::

    PYTHONPATH=src python -m repro.check fuzz --seed 7000021 --budget 1 --raw-seed
"""

from __future__ import annotations

import argparse
import sys

from repro.check.backendcheck import run_backend, run_backend_raw
from repro.check.charging import run_charging, run_charging_raw
from repro.check.diffcheck import run_diff, run_diff_raw
from repro.check.fusioncheck import run_fusion, run_fusion_raw
from repro.check.fuzz import run_fuzz, run_fuzz_raw
from repro.check.oracle import run_oracle, run_oracle_raw
from repro.check.report import CheckResult, format_result
from repro.check.tracecheck import run_trace, run_trace_raw
from repro.errors import UsageError

#: pillar -> (base-seed runner, raw-seed replayer), in the order ``all``
#: runs them
PILLARS = {
    "fuzz": (run_fuzz, run_fuzz_raw),
    "oracle": (run_oracle, run_oracle_raw),
    "diff": (run_diff, run_diff_raw),
    "charging": (run_charging, run_charging_raw),
    "trace": (run_trace, run_trace_raw),
    "backend": (run_backend, run_backend_raw),
    "fusion": (run_fusion, run_fusion_raw),
}


#: merged pillar -> the pillar that runs its checks now
MERGED = {"batch": "charging", "scale": "charging", "dag": "trace", "stream": "trace"}


def _pillar_name(name: str) -> str:
    # runs before argparse's choice check, so a removed pillar ends in
    # its own message rather than the generic choice list
    if name in MERGED:
        raise UsageError(
            f"the '{name}' pillar was merged into '{MERGED[name]}': run "
            f"`python -m repro.check {MERGED[name]}`"
        )
    return name


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Skil conformance checks: fuzzer, skeleton oracle, "
        "Network/Engine differential tests, traced-run invariants.",
    )
    ap.add_argument(
        "pillar",
        type=_pillar_name,
        choices=[*PILLARS, "all"],
        nargs="?",
        default="all",
        help="which pillar to run (default: all)",
    )
    ap.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    ap.add_argument(
        "--budget", type=int, default=200,
        help="number of trials per pillar (default 200)",
    )
    ap.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop each pillar after this many wall-clock seconds",
    )
    ap.add_argument(
        "--raw-seed", action="store_true",
        help="treat --seed as an exact per-trial seed from a failure "
        "report instead of a base seed",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    try:
        args = ap.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results: list[CheckResult] = []
    for pillar in PILLARS if args.pillar == "all" else [args.pillar]:
        run, run_raw = PILLARS[pillar]
        if args.raw_seed:
            res = run_raw(args.seed, args.budget)
        else:
            res = run(
                args.seed,
                args.budget,
                time_budget=args.time_budget,
                verbose=args.verbose,
            )
        results.append(res)
        print(format_result(res))
        sys.stdout.flush()

    failures = sum(len(r.failures) for r in results)
    trials = sum(r.trials for r in results)
    print(f"repro.check: {trials} trial(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
