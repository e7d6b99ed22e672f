"""The ``trace`` subcommand: one traced run, one report.

Runs a single simulated application on a traced machine and prints one
report, in this order: the run breakdown; the exclusive per-skeleton
table in simulated and wall seconds; the wall attribution; at
``trace_level=2`` the critical-path analysis (either trace mode) and
the what-if replays; the flamegraph rollup (record mode only: it needs
the span tree); the metrics.  :class:`~repro.machine.machine.Machine`
picks the trace mode (stream at ``p >= STREAM_AUTO_P``) unless stream
mode is asked for.

The run writes at most three artefacts: the Chrome trace-event JSON
(the JSONL event spill in stream mode), the Prometheus metrics, and one
``repro-trace/1`` JSON of simulated quantities only — on ``sim`` two
runs of one target write the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shpaths,
)
from repro.errors import SkilError, UsageError
from repro.eval.cliopts import write_obs_artifacts
from repro.eval.trace_report import (
    CostBreakdown,
    breakdown,
    format_breakdowns,
    format_skeleton_breakdowns,
    format_wall_attribution,
    skeleton_breakdowns,
)
from repro.machine.costmodel import SKIL, CostModel
from repro.machine.machine import Machine
from repro.obs import flame_rollup
from repro.obs.analysis import (
    RunAnalysis,
    WhatIf,
    analyze_machine,
    format_analysis,
    run_whatif,
)
from repro.obs.stream import StreamConfig
from repro.skeletons import SkilContext

__all__ = ["TRACE_APPS", "TraceRun", "run_traced", "trace_report_text",
           "run_trace_command"]

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


def trace_report_text(
    run: TraceRun,
    analysis: RunAnalysis | None = None,
    whatifs: list[WhatIf] | None = None,
    top: int = 8,
) -> str:
    """The plain-text report of one traced run.

    At ``trace_level=2`` the critical-path *analysis* is computed here
    unless the caller already has it; *whatifs* and *top* go to
    :func:`~repro.obs.analysis.format_analysis`.
    """
    m = run.machine
    if analysis is None and m.trace_level >= 2:
        analysis = analyze_machine(m)
    parts = [
        format_breakdowns([_breakdown(run)]),
        "app [s]: the application's timed region, setup and teardown left out",
        "",
        "per-skeleton breakdown (exclusive):",
        format_skeleton_breakdowns(skeleton_breakdowns(m)),
        "",
        format_wall_attribution(m.tracer.wall_attribution()),
    ]
    if analysis is not None:
        parts += ["", format_analysis(analysis, whatifs, top=top)]
    if m.stream_obs is None:
        parts += [
            "",
            "flamegraph rollup:",
            flame_rollup(m.tracer, timeline=m.timeline),
        ]
    if m.metrics is not None:
        parts += ["", "metrics:", m.metrics.format()]
    return "\n".join(parts)


def _breakdown(run: TraceRun) -> CostBreakdown:
    label = f"{run.app} p={run.machine.p} n={run.n}"
    return breakdown(label, run.seconds, run.machine.stats)


def run_trace_command(
    app: str,
    p: int = 9,
    n: int = 48,
    seed: int = 0,
    trace_level: int = 2,
    stream: bool = False,
    heartbeat_every: float | None = None,
    whatif: bool = True,
    top: int = 8,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    json_out: str | None = None,
) -> str:
    """Drive one traced run; returns the report text and writes the
    requested artefacts.

    *stream* forces ``trace_mode="stream"``; otherwise ``Machine``
    picks.  *trace_out* is the Chrome JSON in record mode and the JSONL
    event spill in stream mode.  Unless *whatif* is off, a
    ``trace_level=2`` run is replayed under each perturbed cost model
    to cross-check the attribution bounds.  *json_out* (``trace_level=2``
    only) gets the ``repro-trace/1`` snapshot: the analysis keys
    (:meth:`~repro.obs.analysis.RunAnalysis.snapshot`), the run target
    and the run breakdown.
    """
    if json_out is not None and trace_level < 2:
        raise UsageError("--json-out needs --level 2 (the critical-path "
                         "analysis)")
    run = run_traced(
        app,
        p=p,
        n=n,
        trace_level=trace_level,
        seed=seed,
        trace_mode="stream" if stream else None,
        stream=StreamConfig(spill_path=trace_out),
        heartbeat_every=heartbeat_every,
    )
    analysis = analyze_machine(run.machine) if trace_level >= 2 else None
    whatifs = None
    if analysis is not None and whatif:
        def replay(cost: CostModel, balance: bool) -> float:
            rerun = run_traced(app, p=p, n=n, trace_level=0, seed=seed,
                               cost=cost, balance_compute=balance)
            return rerun.machine.time

        whatifs = run_whatif(analysis, run.machine.cost, replay)
    out = [trace_report_text(run, analysis, whatifs, top)]
    if json_out is not None:
        snap = {"schema": "repro-trace/1", "app": app, "n": run.n,
                "seed": seed, "breakdown": asdict(_breakdown(run)),
                **analysis.snapshot(whatifs)}
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.append(f"trace snapshot written to {json_out}")
    out += write_obs_artifacts(run.machine, trace_out, metrics_out)
    return "\n\n".join(out)
