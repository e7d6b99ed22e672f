"""Command-line entry point: regenerate the paper's tables and figure.

Usage::

   python -m repro.eval table1 [--scale 0.25]
   python -m repro.eval table2 [--scale 0.25]
   python -m repro.eval figure1 [--scale 0.25] [--csv]
   python -m repro.eval ablations [--scale 0.25]
   python -m repro.eval all [--scale 0.25] [--progress]
   python -m repro.eval trace [--app gauss-full] [--p 9] [--n 48]
                              [--stream] [--trace t.json]
                              [--metrics-out m.prom]
   python -m repro.eval analyze [--app gauss] [--p 16] [--n 48]
                              [--json-out analyze.json] [--no-whatif]

``--scale 1.0`` (the default) runs the paper's exact problem sizes —
the Table 2 grid takes a few minutes of wall-clock time because the
simulation really performs the numeric work; smaller scales shrink the
matrices proportionally.

Every subcommand accepts the shared observability flags ``--trace``,
``--metrics-out``, ``--quiet``, ``--backend`` and ``--workers`` (see
:mod:`repro.eval.cliopts`).  ``trace`` keeps ``--json`` as a
back-compatible alias of ``--trace``.  ``--backend threads`` runs the
skeleton kernels on real cores — every artefact stays bit-identical
because simulated time is charged analytically either way.  Where wall
time went is part of every traced run: ``trace`` prints wall columns
beside the simulated ones and the dispatch / kernel / idle split of
the skeleton wall.

Wall-clock benchmarking lives outside the package: ``python3
bench/run.py`` measures, ``python3 bench/compare.py`` gates.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import BackendError, UsageError
from repro.eval.cliopts import (
    apply_backend,
    obs_parent,
    representative_obs_run,
    require_output_dir,
    require_positive,
    require_square_grid,
    run_target_parent,
    write_obs_artifacts,
)

_ARTEFACTS = ("table1", "table2", "figure1", "ablations", "all")


def _build_parser() -> argparse.ArgumentParser:
    parent = obs_parent()
    target = run_target_parent()
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the evaluation of the Skil paper (HPDC '96).",
    )
    sub = parser.add_subparsers(dest="what", required=True, metavar="what")

    for name in _ARTEFACTS:
        sp = sub.add_parser(
            name,
            parents=[parent],
            help=f"regenerate {name}"
            if name != "all"
            else "regenerate every artefact",
        )
        sp.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="problem-size scale in (0, 1]; 1.0 = the paper's sizes",
        )
        sp.add_argument(
            "--csv",
            action="store_true",
            help="emit figure series as CSV too",
        )
        sp.add_argument(
            "--out",
            metavar="DIR",
            default=None,
            help="also write each artefact into DIR (table1.txt, table2.txt, "
            "figure1.txt, figure1_*.csv, ablations.txt)",
        )
        sp.add_argument(
            "--progress",
            action="store_true",
            help="print a wall-clock progress line per evaluation step "
            "(stderr)",
        )

    tr = sub.add_parser(
        "trace",
        parents=[parent, target],
        help="trace one run (spans with sim and wall time, timeline, metrics)",
    )
    tr.add_argument(
        "--json",
        dest="trace",
        metavar="FILE",
        help="alias of --trace (back-compatible)",
    )
    tr.add_argument(
        "--level",
        type=int,
        choices=[1, 2],
        default=2,
        help="1 = spans + metrics, 2 = also per-rank timeline",
    )
    tr.add_argument(
        "--stream",
        action="store_true",
        help="run under trace_mode='stream': O(p) memory, aggregates "
        "only; --trace becomes the JSONL event spill",
    )
    tr.add_argument(
        "--heartbeat-every",
        type=float,
        default=None,
        metavar="SEC",
        help="stream: emit a progress heartbeat every SEC wall-seconds",
    )

    an = sub.add_parser(
        "analyze",
        parents=[parent, target],
        help="critical-path/straggler analysis of one run",
    )
    an.add_argument(
        "--json-out",
        metavar="FILE",
        default=None,
        help="write the analysis snapshot (repro-analyze/1 JSON)",
    )
    an.add_argument(
        "--no-whatif",
        action="store_true",
        help="skip the perturbed-cost what-if replays",
    )
    an.add_argument(
        "--top",
        type=int,
        default=8,
        help="rows in the blocking-edge/imbalance tables",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return _main(argv)
    except (UsageError, BackendError) as exc:
        # a removed/unknown --backend or REPRO_BACKEND, a bad
        # REPRO_WORKERS: configuration mistakes, reported like usage
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str]) -> int:
    if argv[:1] == ["bench"]:
        # checked before argparse, so a removed subcommand ends in its
        # own message rather than the generic choice list
        raise UsageError(
            "the 'bench' subcommand was removed; the repository benchmark "
            "is `python3 bench/run.py` (compare two runs with "
            "`python3 bench/compare.py`)"
        )

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.what in ("trace", "analyze"):
        require_positive("--p", args.p)
        require_positive("--n", args.n)
        require_square_grid(args.app, args.p)
    require_positive("--top", getattr(args, "top", None))
    require_positive("--heartbeat-every", getattr(args, "heartbeat_every", None))
    for flag in ("--trace", "--metrics-out", "--json-out"):
        require_output_dir(
            flag, getattr(args, flag[2:].replace("-", "_"), None)
        )
    apply_backend(args.backend, args.workers)

    if args.what == "trace":
        from repro.eval.tracecmd import run_trace_command

        text = run_trace_command(
            args.app,
            p=args.p,
            n=args.n,
            out=args.trace,
            trace_level=args.level,
            seed=args.seed,
            metrics_out=args.metrics_out,
            stream=args.stream,
            heartbeat_every=args.heartbeat_every
            if not args.quiet
            else None,
        )
        print(text)
        return 0

    if args.what == "analyze":
        from repro.eval.tracecmd import run_analyze_command

        print(
            run_analyze_command(
                args.app,
                p=args.p,
                n=args.n,
                seed=args.seed,
                top=args.top,
                whatif=not args.no_whatif,
                json_out=args.json_out,
                trace_out=args.trace,
                metrics_out=args.metrics_out,
            )
        )
        return 0

    # ---------------------------------------------------------- artefacts
    if not (0 < args.scale <= 1.0):
        parser.error("--scale must be in (0, 1]")

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
    from repro.eval.figures import format_figure1, series_csv
    from repro.eval.tables import format_ablation, format_table1, format_table2

    progress = None
    if args.progress and not args.quiet:
        from repro.obs.stream import ProgressReporter

        reporter = ProgressReporter()
        progress = reporter.note

    outdir = None
    if args.out is not None:
        from pathlib import Path

        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, text: str) -> None:
        print(text)
        print()
        if outdir is not None:
            (outdir / name).write_text(text + "\n")

    if args.what in ("table1", "all"):
        emit("table1.txt", format_table1(table1(scale=args.scale,
                                                progress=progress)))
    if args.what in ("table2", "figure1", "all"):
        cells = table2(scale=args.scale, progress=progress)
        if args.what in ("table2", "all"):
            emit("table2.txt", format_table2(cells))
        if args.what in ("figure1", "all"):
            ups, downs = figure1(cells)
            emit("figure1.txt", format_figure1(ups, downs))
            if args.csv or outdir is not None:
                up_csv = series_csv(ups, "speedup_vs_dpfl")
                down_csv = series_csv(downs, "slowdown_vs_c")
                if args.csv:
                    print(up_csv)
                    print(down_csv)
                if outdir is not None:
                    (outdir / "figure1_speedups.csv").write_text(up_csv + "\n")
                    (outdir / "figure1_slowdowns.csv").write_text(down_csv + "\n")
    if args.what in ("ablations", "all"):
        texts = []
        for fn in (
            ablation_equal_c,
            ablation_full_gauss,
            ablation_instantiation,
            ablation_topology,
            ablation_sync_comm,
        ):
            if progress is not None:
                progress(f"ablation: {fn.__name__}")
            texts.append(format_ablation(fn(scale=args.scale)))
        emit("ablations.txt", "\n\n".join(texts))

    footer = representative_obs_run(args.trace, args.metrics_out)
    if footer and not args.quiet:
        print("\n".join(footer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
