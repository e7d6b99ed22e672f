"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both values, each with the
median and quartiles of its whole passes, the ratio B/A (base: A, the
parent), the bound, and a verdict.

``worse``       B's value is worse than A's by more than the bound
``unresolved``  it is not, but the spread between a file's rounds (the
                distance between their quartiles over the value, the wider
                of the two files) is wider than the bound, so "unchanged"
                cannot be claimed; unless every round of B reads better
                than every round of A
``ok``          neither

Simulated seconds, op counts and every per-layer count repeat exactly at
equal seeds, so they are compared for equality.  Exit code 1 on any
``worse``, on a count that differs at equal seeds, or on a higher share of
failed ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import END_TO_END, PER_LAYER

EXACT_UNITS = {"count", "B", "sim_s"}


def spread(s: dict) -> float:
    """Distance between the quartiles of the rounds, over the value.  The
    quartiles are inclusive: of five rounds the second and the fourth, so one
    stray round (the first set-up of a run pays the host's first-touch page
    faults) does not decide the verdict."""
    if len(s["samples"]) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(s["samples"], n=4, method="inclusive")
    return (q3 - q1) / s["value"]


def verdict(a: dict, b: dict, bound: float) -> str:
    if b["value"] > a["value"] * (1.0 + bound):
        return "worse"
    if max(spread(a), spread(b)) > bound and not max(b["samples"]) < min(a["samples"]):
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether B may land."""
    lines: list[str] = []
    fine = True
    same_seed = a["seed"] == b["seed"] and a["quick"] == b["quick"]
    if not same_seed:
        lines.append(f"seeds differ ({a['seed']} vs {b['seed']}): simulated seconds "
                     "and counts are not comparable and are not checked")
    lines.append(f"{'workload':16} {'metric':12} {'A (q1 median q3)':>36} "
                 f"{'B (q1 median q3)':>36} {'B/A':>7} {'bound':>6}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name}: missing from B")
            fine = False
            continue
        for m, (unit, _, bound) in END_TO_END.items():
            if "end_to_end" not in wa or "end_to_end" not in wb:
                break
            sa, sb = wa["end_to_end"][m], wb["end_to_end"][m]
            v = verdict(sa, sb, bound)
            fine &= v != "worse"
            lines.append(
                f"{name:16} {m:12} "
                f"{sa['value']:10.4f} ({sa['q1']:.4f} {sa['median']:.4f} {sa['q3']:.4f}) "
                f"{sb['value']:10.4f} ({sb['q1']:.4f} {sb['median']:.4f} {sb['q3']:.4f}) "
                f"{sb['value'] / sa['value']:7.3f} {bound:6.0%}  {v} [{unit}]")
        share_a = wa["failed_ops"] / wa["ops"]
        share_b = wb["failed_ops"] / wb["ops"]
        if share_b > share_a:
            lines.append(f"{name}: failed ops rose from {wa['failed_ops']}/{wa['ops']} "
                         f"to {wb['failed_ops']}/{wb['ops']}")
            fine = False
        if not same_seed:
            continue
        exact = [("ops", wa["ops"], wb["ops"]), ("sim_s", wa["sim_s"], wb["sim_s"])]
        if "per_layer" in wa and "per_layer" in wb:
            exact += [(m, wa["per_layer"][m]["value"], wb["per_layer"][m]["value"])
                      for m, (unit, _) in PER_LAYER.items() if unit in EXACT_UNITS]
        for m, va, vb in exact:
            if va != vb:
                lines.append(f"{name}: {m} differs at equal seeds: {va!r} vs {vb!r}")
                fine = False
    return lines, fine


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    lines, fine = compare(a, b)
    print("\n".join(lines))
    print("verdict: " + ("ok" if fine else "WORSE"))
    return 0 if fine else 1


if __name__ == "__main__":
    raise SystemExit(main())
