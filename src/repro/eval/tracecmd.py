"""The ``trace`` subcommand: run one application with full tracing.

Runs a single simulated application on a machine constructed with
``trace_level=2`` (span tracer + metrics + per-rank timeline), prints
the cost analysis — overall shares, exclusive per-skeleton breakdown
in simulated and wall seconds, the wall attribution, flamegraph rollup,
metrics — and optionally writes a Chrome trace-event JSON loadable in
Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shpaths,
)
from repro.errors import SkilError
from repro.eval.trace_report import (
    breakdown,
    format_breakdowns,
    format_skeleton_breakdowns,
    format_wall_attribution,
    skeleton_breakdowns,
)
from repro.machine.costmodel import SKIL, CostModel
from repro.machine.machine import Machine
from repro.obs import flame_rollup, write_chrome_trace
from repro.skeletons import SkilContext

__all__ = ["TRACE_APPS", "TraceRun", "run_traced", "trace_report_text",
           "run_trace_command", "run_analyze_command"]

#: applications the trace subcommand can run
TRACE_APPS = ("shpaths", "gauss", "gauss-full")


@dataclass
class TraceRun:
    """One traced application run and everything needed to report on it."""

    app: str
    n: int
    machine: Machine
    seconds: float


def run_traced(
    app: str,
    p: int = 9,
    n: int = 48,
    trace_level: int = 2,
    seed: int = 0,
    cost: CostModel | None = None,
    balance_compute: bool = False,
    trace_mode: str | None = None,
    stream=None,
    heartbeat_every: float | None = None,
    backend: str | None = None,
    workers: int | None = None,
) -> TraceRun:
    """Run *app* on a fresh traced machine; returns the run handle.

    *n* is rounded up to whatever divisibility the application needs
    (torus side for shpaths, p for gauss), mirroring the paper's rule.
    *cost* and *balance_compute* exist for the what-if replays of
    ``repro.obs.analysis``: the same application under a perturbed cost
    model and/or with per-step compute averaged across ranks.

    *trace_mode* ``None`` lets :class:`~repro.machine.machine.Machine`
    choose (stream at ``p >= STREAM_AUTO_P``).  ``"stream"`` runs under
    the memory-bounded streaming sinks (optionally configured by
    *stream*, a :class:`~repro.obs.stream.StreamConfig`);
    *heartbeat_every* then attaches a wall-clock progress heartbeat at
    that interval.

    *backend*/*workers* pick the execution backend (``None`` keeps the
    process default); neither changes simulated seconds.
    """
    if app not in TRACE_APPS:
        raise SkilError(f"unknown trace app {app!r}; choose from {TRACE_APPS}")
    machine = Machine(
        p,
        trace_level=trace_level,
        trace_mode=trace_mode,
        stream=stream,
        backend=backend,
        workers=workers,
        **({"cost": cost} if cost is not None else {}),
    )
    if heartbeat_every is not None and machine.stream_obs is not None:
        from repro.obs.stream import ProgressReporter

        machine.stream_obs.heartbeat = ProgressReporter(
            machine, interval=heartbeat_every
        )
    machine.network.balance_compute = balance_compute
    ctx = SkilContext(machine, SKIL)
    if app == "shpaths":
        n_eff = round_up_to_grid(n, machine.mesh.rows)
        dist = random_distance_matrix(n_eff, density=0.25, seed=seed)
        _, report = shpaths(ctx, dist)
    else:
        n_eff = round_up_to_grid(n, p)
        a_mat, rhs = random_system(n_eff, seed=seed)
        driver = gauss_full if app == "gauss-full" else gauss_simple
        _, report = driver(ctx, a_mat, rhs)
    return TraceRun(app=app, n=n_eff, machine=machine, seconds=report.seconds)


def trace_report_text(run: TraceRun) -> str:
    """The full plain-text analysis of one traced run.

    Both modes print the same exclusive per-skeleton table, simulated
    and wall columns side by side, and the wall attribution; record
    mode adds the flamegraph rollup (it needs the span tree), stream
    mode the critical-path analysis ``eval analyze`` prints.
    """
    m = run.machine
    label = f"{run.app} p={m.p} n={run.n}"
    parts = [
        format_breakdowns([breakdown(label, run.seconds, m.stats)]),
        "",
        "per-skeleton breakdown (exclusive):",
        format_skeleton_breakdowns(skeleton_breakdowns(m)),
        "",
        format_wall_attribution(m.tracer.wall_attribution()),
    ]
    if m.stream_obs is None:
        parts += [
            "",
            "flamegraph rollup:",
            flame_rollup(m.tracer, timeline=m.timeline),
        ]
    elif m.trace_level >= 2:
        from repro.obs.analysis import analyze_machine, format_analysis

        parts += ["", format_analysis(analyze_machine(m))]
    if m.metrics is not None:
        parts += ["", "metrics:", m.metrics.format()]
    return "\n".join(parts)


def run_trace_command(
    app: str,
    p: int = 9,
    n: int = 48,
    out: str | None = None,
    trace_level: int = 2,
    seed: int = 0,
    metrics_out: str | None = None,
    stream: bool = False,
    heartbeat_every: float | None = None,
) -> str:
    """Drive one traced run; returns the report text, writes *out* JSON.

    With *stream* the run uses ``trace_mode="stream"`` and *out* (the
    ``--trace`` file) becomes the streaming JSONL event spill — the
    stream retains no recording, so there is no Chrome JSON to write
    after the fact; events spill as they happen instead.
    """
    stream_cfg = None
    if stream:
        from repro.obs.stream import StreamConfig

        stream_cfg = StreamConfig(spill_path=out)
    run = run_traced(
        app,
        p=p,
        n=n,
        trace_level=trace_level,
        seed=seed,
        trace_mode="stream" if stream else "record",
        stream=stream_cfg,
        heartbeat_every=heartbeat_every,
    )
    text = trace_report_text(run)
    if out is not None:
        if stream:
            run.machine.close()
            text += (
                f"\n\nstreaming JSONL event spill written to {out} "
                "(rotated segments keep the tail of long runs)"
            )
        else:
            write_chrome_trace(out, run.machine)
            text += f"\n\nChrome trace written to {out} (open in Perfetto)"
    if metrics_out is not None:
        if run.machine.metrics is None:
            raise SkilError(
                "--metrics-out needs trace_level >= 1 (no metrics registry)"
            )
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(run.machine.metrics.render_text())
        text += f"\n\nPrometheus metrics written to {metrics_out}"
    return text


def run_analyze_command(
    app: str,
    p: int = 9,
    n: int = 48,
    seed: int = 0,
    top: int = 8,
    whatif: bool = True,
    json_out: str | None = None,
    trace_out: str | None = None,
    metrics_out: str | None = None,
) -> str:
    """Drive one traced run through the critical-path analysis.

    Prints the critical-path report — makespan attribution,
    per-skeleton shares, rank loads, straggler skew, the top blocking
    message edges — and (unless *whatif* is off) replays the run under
    each perturbed cost model to cross-check the attribution bounds.
    The trace mode is the one ``Machine`` picks for *p*: at ``p >=
    STREAM_AUTO_P`` the run streams (no path steps; *trace_out* becomes
    the JSONL spill).  *json_out* additionally writes the analysis
    snapshot (``repro-analyze/1``) for regression comparisons.
    """
    import json

    from repro.obs.analysis import analyze_machine, run_whatif
    from repro.obs.stream import StreamConfig

    run = run_traced(app, p=p, n=n, seed=seed,
                     stream=StreamConfig(spill_path=trace_out))
    analysis = analyze_machine(run.machine)
    whatifs = None
    if whatif:
        def _replay(cost: CostModel, balance: bool) -> float:
            rerun = run_traced(
                app, p=p, n=n, trace_level=0, seed=seed,
                cost=cost, balance_compute=balance,
            )
            return rerun.machine.time

        whatifs = run_whatif(analysis, run.machine.cost, _replay)
    from repro.obs.analysis import format_analysis

    header = f"analyze {app} p={p} n={run.n} (seed {seed})"
    text = header + "\n" + "=" * len(header) + "\n"
    text += format_analysis(analysis, whatifs, top=top)
    if json_out is not None:
        snap = analysis.snapshot()
        snap["app"] = app
        snap["n"] = run.n
        snap["seed"] = seed
        if whatifs:
            snap["whatif"] = [
                {
                    "scenario": w.scenario,
                    "makespan_s": w.makespan,
                    "delta_s": w.delta,
                    "bound_s": w.bound,
                    "within_bound": w.within_bound,
                }
                for w in whatifs
            ]
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        text += f"\n\nanalysis snapshot written to {json_out}"
    if trace_out is not None or metrics_out is not None:
        from repro.eval.cliopts import write_obs_artifacts

        for line in write_obs_artifacts(run.machine, trace_out, metrics_out):
            text += f"\n\n{line}"
    return text
