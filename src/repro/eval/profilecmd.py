"""The ``profile`` subcommand: sim-vs-wall correlation for one run.

``python -m repro.eval profile --app gauss --p 16 --backend threads`` runs
the app on the target backend once to warm up (thread-pool spin-up,
probe memos and imports are paid there, not by whichever timed run goes
first), then:

1. alternating **unprofiled** / **profiled** runs on the target
   backend, at least :data:`OVERHEAD_PAIRS` pairs and
   :data:`OVERHEAD_TIMED_S` seconds of them.  The profiler overhead is
   the median of the pairs' profiled/unprofiled ratios; above
   :data:`~repro.obs.prof.PROFILE_OVERHEAD_LIMIT` the command exits
   nonzero.  Everything below is reported from the first profiled run,
   whose simulated seconds, :class:`TraceStats` and metrics exposition
   are compared **bitwise** against the first unprofiled one: profiling
   must not perturb the cost model (the command exits nonzero if it
   does);
2. **profiled** on the ``sim`` backend at the same ``p`` — the
   single-process wall reference that measured wall speedup is computed
   against (skipped when the target *is* sim);
3. unprofiled ``sim`` at ``p = 1`` — the simulated serial baseline, so
   per-skeleton *simulated* speedup can sit next to the *measured* wall
   speedup.

The report correlates the two clocks per skeleton, shows parallel
efficiency against ``--workers``, and prints the wall attribution
(dispatch / kernel / idle), which must sum to the measured wall
within :data:`~repro.obs.prof.ATTRIBUTION_TOL` (exits nonzero
otherwise — the CI ``profile-smoke`` job relies on all three checks).
``--json-out``/``--profile-out`` write the ``repro-profile/2``
snapshot.
"""

from __future__ import annotations

import json
import time

from repro.eval.tracecmd import run_traced
from repro.machine.backend import backend_default, default_workers
from repro.obs.prof import (
    ATTRIBUTION_TOL,
    PROFILE_OVERHEAD_LIMIT,
    PROFILE_SCHEMA,
)

__all__ = ["run_profile_command", "profile_snapshot_text"]

#: ``profile_overhead`` times at least this many unprofiled/profiled
#: pairs ...
OVERHEAD_PAIRS = 3

#: ... and at least this many wall seconds of them.  On a shared host
#: the two runs of a pair see the same neighbours, so a pair's ratio is
#: steadier than either wall, and the median ignores the pairs a speed
#: change split.  Measured on the 2-vCPU VM with both cores contended
#: (gauss p=16, 17 ms a run): the median of 15 pair ratios stayed within
#: 0.95-1.15 over 286 windows; least-over-least of the same 15 pairs read
#: 0.81-1.42, any estimator over 3 pairs left [0.9, 1.25] in 6-8 %.
OVERHEAD_TIMED_S = 0.5


def _stats_tuple(stats) -> tuple:
    return (
        stats.messages,
        stats.bytes_sent,
        stats.hops_crossed,
        stats.comm_seconds,
        stats.idle_seconds,
        stats.compute_seconds,
        stats.skeleton_calls,
    )


def _fingerprint(machine) -> tuple:
    """Everything profiling must not perturb, in comparable form."""
    metrics = (
        machine.metrics.render_text() if machine.metrics is not None else ""
    )
    return (machine.time, _stats_tuple(machine.stats), metrics)


def _per_skeleton_sim(tracer) -> dict[str, dict]:
    """Simulated seconds of the root skeleton spans, grouped by name."""
    out: dict[str, dict] = {}
    for s in tracer.closed_spans():
        if len(tracer.path(s)) != 1:
            continue
        agg = out.setdefault(s.name, {"calls": 0, "sim_s": 0.0})
        agg["calls"] += 1
        agg["sim_s"] += s.duration
    return out


def _timed_run(app, p, n, seed, backend, workers, profile):
    t0 = time.perf_counter()
    run = run_traced(
        app, p=p, n=n, trace_level=1, seed=seed,
        backend=backend, workers=workers, profile=profile,
    )
    return run, time.perf_counter() - t0


def run_profile_command(
    app: str = "gauss",
    p: int = 16,
    n: int = 48,
    seed: int = 0,
    backend: str | None = None,
    workers: int | None = None,
    json_out: str | None = None,
    quiet: bool = False,
) -> tuple[str, int]:
    """Run the sim-vs-wall protocol; returns ``(text, rc)``.

    ``rc`` is nonzero when profiling perturbed the simulated run (the
    bitwise identity check), the wall attribution failed to sum to the
    measured wall within tolerance, or the profiled run took more than
    :data:`~repro.obs.prof.PROFILE_OVERHEAD_LIMIT` times the unprofiled
    one.
    """
    backend = backend if backend is not None else backend_default()
    workers = workers if workers is not None else default_workers(p)
    target = (app, p, n, seed, backend, workers)

    def wall_of(profile: bool) -> float:
        run, wall = _timed_run(*target, profile)
        run.machine.close()
        return wall

    wall_of(True)  # warm-up: its reading is dropped

    run_off, wall_off = _timed_run(*target, False)
    fp_off = _fingerprint(run_off.machine)
    n_eff = run_off.n
    run_off.machine.close()

    run_on, wall_on = _timed_run(*target, True)
    fp_on = _fingerprint(run_on.machine)
    sim_identical = fp_off == fp_on
    prof = run_on.machine.profiler
    sim_per_skel = _per_skeleton_sim(run_on.machine.tracer)
    sim_seconds = run_on.machine.time
    run_on.machine.close()

    pairs = [(wall_off, wall_on)]
    while (
        len(pairs) < OVERHEAD_PAIRS
        or sum(map(sum, pairs)) < OVERHEAD_TIMED_S
    ):
        pairs.append((wall_of(False), wall_of(True)))
    pairs.sort(key=lambda w: w[1] / w[0])
    wall_off, wall_on = pairs[(len(pairs) - 1) // 2]
    overhead = wall_on / wall_off

    if backend == "sim":
        sim_wall_per_skel = prof.per_skeleton_wall()
        sim_measured_wall = prof.skeleton_wall_s()
    else:
        run_ref, _ = _timed_run(app, p, n, seed, "sim", workers, True)
        sim_wall_per_skel = run_ref.machine.profiler.per_skeleton_wall()
        sim_measured_wall = run_ref.machine.profiler.skeleton_wall_s()
        run_ref.machine.close()

    run_serial, _ = _timed_run(app, 1, n_eff, seed, "sim", 1, False)
    serial_per_skel = _per_skeleton_sim(run_serial.machine.tracer)
    serial_sim_seconds = run_serial.machine.time
    run_serial.machine.close()

    attr = prof.attribution()
    attribution_ok = prof.attribution_ok(attr)
    measured_wall = attr["measured_wall_s"]
    stats = prof.worker_stats()

    wall_per_skel = prof.per_skeleton_wall()
    skeletons = []
    for name in sorted(wall_per_skel):
        wall = wall_per_skel[name]
        sim = sim_per_skel.get(name, {})
        serial = serial_per_skel.get(name, {})
        ref = sim_wall_per_skel.get(name, {})
        sim_s = sim.get("sim_s", 0.0)
        ref_wall = ref.get("wall_s", 0.0)
        skeletons.append(
            {
                "name": name,
                "calls": wall["calls"],
                "sim_s": sim_s,
                "wall_s": wall["wall_s"],
                "sim_speedup": (
                    serial.get("sim_s", 0.0) / sim_s if sim_s > 0 else None
                ),
                "wall_speedup": (
                    ref_wall / wall["wall_s"] if wall["wall_s"] > 0 else None
                ),
            }
        )

    wall_speedup = (
        sim_measured_wall / measured_wall if measured_wall > 0 else None
    )
    snapshot = {
        "schema": PROFILE_SCHEMA,
        "app": app,
        "p": p,
        "n": n_eff,
        "seed": seed,
        "backend": backend,
        "workers": workers,
        "sim_seconds": sim_seconds,
        "serial_sim_seconds": serial_sim_seconds,
        "sim_speedup": (
            serial_sim_seconds / sim_seconds if sim_seconds > 0 else None
        ),
        "sim_identical": sim_identical,
        "unprofiled_wall_s": wall_off,
        "profiled_wall_s": wall_on,
        "profile_overhead": overhead,
        "measured_wall_s": measured_wall,
        "sim_backend_wall_s": sim_measured_wall,
        "wall_speedup_vs_sim": wall_speedup,
        "parallel_efficiency": (
            wall_speedup / workers if wall_speedup is not None else None
        ),
        "attribution": {
            "dispatch_s": attr["dispatch_s"],
            "kernel_s": attr["kernel_s"],
            "idle_s": attr["idle_s"],
        },
        "attribution_tol": ATTRIBUTION_TOL,
        "attribution_ok": attribution_ok,
        "skeletons": skeletons,
        "dispatch_calls": len(prof.dispatches),
        "dispatch_blocks": sum(len(d.blocks) for d in prof.dispatches),
        "worker_stats": stats["workers"],
        "imbalance": stats["imbalance"],
        "metrics": prof.metrics.snapshot(),
    }

    text = profile_snapshot_text(snapshot)
    if json_out is not None:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not quiet:
            text += f"\n\nprofile snapshot written to {json_out}"
    ok = sim_identical and attribution_ok and _overhead_ok(overhead)
    return text, 0 if ok else 1


def _overhead_ok(overhead: float | None) -> bool:
    return overhead is None or overhead <= PROFILE_OVERHEAD_LIMIT


def _fmt_x(value) -> str:
    return f"{value:.2f}x" if value is not None else "-"


def profile_snapshot_text(snap: dict) -> str:
    """Human-readable report of a ``repro-profile/2`` snapshot."""
    header = (
        f"profile {snap['app']} p={snap['p']} n={snap['n']} "
        f"backend={snap['backend']} workers={snap['workers']} "
        f"(seed {snap['seed']})"
    )
    lines = [header, "=" * len(header)]
    lines.append(
        f"simulated: {snap['sim_seconds']:.6f}s "
        f"(serial {snap['serial_sim_seconds']:.6f}s, "
        f"speedup {_fmt_x(snap['sim_speedup'])})"
    )
    lines.append(
        f"wall: measured {snap['measured_wall_s']:.4f}s, "
        f"sim-backend reference {snap['sim_backend_wall_s']:.4f}s, "
        f"speedup {_fmt_x(snap['wall_speedup_vs_sim'])}, "
        f"parallel efficiency {_fmt_x(snap['parallel_efficiency'])} "
        f"over {snap['workers']} workers"
    )
    over = snap["profile_overhead"]
    lines.append(
        f"profiler overhead: {_fmt_x(over)} "
        f"({snap['profiled_wall_s']:.4f}s profiled vs "
        f"{snap['unprofiled_wall_s']:.4f}s unprofiled: the median of "
        f">= {OVERHEAD_PAIRS} warm pairs; "
        f"limit {PROFILE_OVERHEAD_LIMIT}x): "
        f"{'ok' if _overhead_ok(over) else 'EXCEEDED'}"
    )
    ident = "IDENTICAL" if snap["sim_identical"] else "PERTURBED"
    lines.append(
        f"cost-model identity with profiling on vs off: {ident} "
        "(clocks + stats + metrics, bitwise)"
    )
    attr = snap["attribution"]
    total = sum(attr.values())
    mw = snap["measured_wall_s"]
    lines.append("")
    lines.append("wall attribution (of measured skeleton wall):")
    for key in ("dispatch_s", "kernel_s", "idle_s"):
        share = attr[key] / mw if mw > 0 else 0.0
        lines.append(
            f"  {key[:-2]:<10}{attr[key]:>10.4f}s{share:>8.1%}"
        )
    ok = "ok" if snap["attribution_ok"] else "FAILED"
    lines.append(
        f"  sum {total:.4f}s vs measured {mw:.4f}s "
        f"(tolerance {snap['attribution_tol']:.0%}): {ok}"
    )
    lines.append("")
    lines.append(
        f"{'skeleton':<26}{'calls':>6}{'sim [s]':>10}{'wall [s]':>10}"
        f"{'sim x':>8}{'wall x':>8}"
    )
    for s in sorted(snap["skeletons"], key=lambda s: -s["wall_s"]):
        lines.append(
            f"{s['name']:<26}{s['calls']:>6}{s['sim_s']:>10.5f}"
            f"{s['wall_s']:>10.5f}"
            f"{_fmt_x(s['sim_speedup']):>8}{_fmt_x(s['wall_speedup']):>8}"
        )
    if snap["worker_stats"]:
        lines.append("")
        lines.append(
            f"workers: {len(snap['worker_stats'])} used, "
            f"imbalance {_fmt_x(snap['imbalance'])} (max/mean busy); "
            f"{snap['dispatch_calls']} dispatches, "
            f"{snap['dispatch_blocks']} blocks"
        )
        for w in snap["worker_stats"]:
            lines.append(
                f"  worker {w['worker']}: busy {w['busy_s']:.4f}s, "
                f"utilization {w['utilization']:.1%} of dispatch windows"
            )
    else:
        lines.append("")
        lines.append(
            "workers: none dispatched (sim backend inlines kernels on "
            "the main thread)"
        )
    return "\n".join(lines)
