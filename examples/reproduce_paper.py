"""One-shot miniature reproduction of the paper's whole evaluation.

Runs Table 1, Table 2, Figure 1 and all five ablations at a small scale
(~1 minute) and prints the same artefacts the paper reports, each with
its shape-check verdict.  Use ``python -m repro.eval all`` (scale 1.0)
for the paper-size run; see EXPERIMENTS.md for paper-vs-measured.

Run:  python examples/reproduce_paper.py [scale] [--trace out.json]

``--trace`` additionally runs a fully traced Gaussian elimination (the
``python -m repro.eval trace`` report) and writes its Chrome
trace-event JSON (open in Perfetto / chrome://tracing).
"""

import argparse
import sys

from repro.eval.experiments import (
    ablation_equal_c,
    ablation_full_gauss,
    ablation_instantiation,
    ablation_sync_comm,
    ablation_topology,
    figure1,
    table1,
    table2,
)
from repro.eval.figures import format_figure1
from repro.eval.tables import format_ablation, format_table1, format_table2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scale", nargs="?", type=float, default=0.2,
        help="problem-size scale in (0, 1]; paper sizes = 1.0",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="also write a Chrome trace of a gauss-full run (Perfetto)",
    )
    args = parser.parse_args(argv)
    scale = args.scale

    print(f"reproducing the evaluation at scale {scale} "
          f"(paper sizes = 1.0)\n")

    rows = table1(scale=scale)
    print(format_table1(rows))
    ok = all(4 < r.speedup_vs_dpfl < 9 and r.ratio_vs_c_old < 1.1 for r in rows)
    print(f"--> Table 1 shape {'✓' if ok else '✗'}: Skil ~6x over DPFL, "
          "beats old C everywhere\n")

    cells = table2(scale=scale)
    print(format_table2(cells))
    ok = all(
        (c.dpfl_over_skil is None or 2.5 < c.dpfl_over_skil < 8)
        and 0.8 < c.skil_over_c < 3.0
        for c in cells
    )
    print(f"--> Table 2 shape {'✓' if ok else '✗'}: DPFL/Skil in the 3.5-6.7 "
          "band, Skil/C around 2 shrinking with p\n")

    ups, downs = figure1(cells)
    print(format_figure1(ups, downs))

    for ab in (
        ablation_equal_c(scale=scale),
        ablation_full_gauss(scale=scale),
        ablation_instantiation(scale=scale),
        ablation_topology(scale=scale),
        ablation_sync_comm(scale=scale),
    ):
        print(format_ablation(ab))
        print()

    if args.trace:
        from repro.eval.tracecmd import run_trace_command

        print(run_trace_command("gauss-full", p=8, n=max(16, int(48 * scale)),
                                trace_out=args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
