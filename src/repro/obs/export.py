"""Exporters: Chrome trace-event JSON and a flamegraph-style rollup.

The JSON follows the Trace Event Format (the ``traceEvents`` array of
complete ``"ph": "X"`` events plus ``"M"`` metadata records) and loads
directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Simulated seconds are exported as microseconds,
the unit the format expects.

Track layout: one process ("skil machine"), thread 0 carries the
skeleton spans (nested by stack discipline), threads ``1..p`` carry the
per-rank compute/send/recv/idle intervals, and threads ``1001..1000+p``
carry the derived **idle-wait** tracks — the maximal gaps of each rank
(explicit idle intervals and untracked holes merged, from
:meth:`~repro.obs.timeline.Timeline.idle_gaps`), the same quantity the
critical-path analysis attributes as ``idle``.

Every export path validates its own output
(:func:`validate_chrome_trace` inside :func:`write_chrome_trace`), so a
malformed trace fails at write time — in the CLI and in Engine-mode
(``divide_and_conquer``/``farm``) runs alike, not just under the tests.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.errors import SkilError
from repro.obs.span import Span, SpanTracer
from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "span_event",
    "interval_event",
    "chrome_trace_events",
    "wall_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "flame_rollup",
]

_PID = 1
_SPAN_TID = 0
#: thread-id base for the derived per-rank idle-wait tracks
_IDLE_TID_BASE = 1000
#: dual-clock export: wall-clock tracks live in their own process row,
#: so Perfetto shows simulated and measured time side by side without
#: the two clock domains sharing an axis origin
_WALL_PID = 2


def _us(seconds: float) -> float:
    return seconds * 1e6


def span_event(span: Span) -> dict[str, Any]:
    """The complete event of one closed span (export and stream spill)."""
    return {
        "ph": "X",
        "name": span.name,
        "cat": span.category,
        "pid": _PID,
        "tid": _SPAN_TID,
        "ts": _us(span.begin_time),
        "dur": _us(span.duration),
        "args": {
            "compute_s": span.compute_seconds,
            "comm_s": span.comm_seconds,
            "idle_s": span.idle_seconds,
            "messages": span.messages,
            "bytes": span.bytes_sent,
            "ranks": list(span.ranks),
        },
    }


def interval_event(rank, kind, start, end, detail: str = "") -> dict[str, Any]:
    """The complete event of one rank interval (export and stream spill)."""
    return {
        "ph": "X",
        "name": detail or kind,
        "cat": kind,
        "pid": _PID,
        "tid": int(rank) + 1,
        "ts": _us(float(start)),
        "dur": _us(float(end) - float(start)),
        "args": {},
    }


def chrome_trace_events(
    tracer: SpanTracer | None = None,
    timeline: Timeline | None = None,
    label: str = "skil machine",
) -> list[dict[str, Any]]:
    """Build the ``traceEvents`` list from a tracer and/or a timeline."""
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": label},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _PID,
            "tid": _SPAN_TID,
            "args": {"name": "skeleton spans"},
        },
    ]
    if tracer is not None:
        events.extend(span_event(s) for s in tracer.spans if s.closed)
    if timeline is not None:
        for r in timeline.ranks():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": r + 1,
                    "args": {"name": f"rank {r}"},
                }
            )
        events.extend(
            interval_event(iv.rank, iv.kind, iv.start, iv.end, iv.detail)
            for iv in timeline.intervals
        )
        # derived idle-wait tracks: one per rank, maximal gaps only
        for r in timeline.ranks():
            gaps = timeline.idle_gaps(r)
            if not gaps:
                continue
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": _IDLE_TID_BASE + r + 1,
                    "args": {"name": f"rank {r} idle-wait"},
                }
            )
            for a, b in gaps:
                events.append(
                    {
                        "ph": "X",
                        "name": "idle-wait",
                        "cat": "idle-wait",
                        "pid": _PID,
                        "tid": _IDLE_TID_BASE + r + 1,
                        "ts": _us(a),
                        "dur": _us(b - a),
                        "args": {"seconds": b - a},
                    }
                )
    return events


def wall_trace_events(
    profiler, label: str = "wall clock (worker plane)"
) -> list[dict[str, Any]]:
    """Wall-clock tracks from a :class:`~repro.obs.prof.WallProfiler`.

    Everything is shifted so the earliest recorded stamp is ``ts = 0``
    (monotonic origins are arbitrary; the validator requires
    non-negative timestamps).  Thread 0 carries the skeleton wall
    intervals; threads ``1..w`` carry the per-worker kernel blocks, one
    track per worker that executed anything.
    """
    stamps = [sw.t0 for sw in profiler.skeleton_walls]
    stamps += [d.t_begin for d in profiler.dispatches]
    if not stamps:
        return []
    origin = min(stamps)

    def ts(t: float) -> float:
        return _us(max(0.0, t - origin))

    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _WALL_PID,
            "tid": 0,
            "args": {"name": label},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _WALL_PID,
            "tid": _SPAN_TID,
            "args": {"name": "skeleton wall"},
        },
    ]
    for sw in profiler.skeleton_walls:
        events.append(
            {
                "ph": "X",
                "name": sw.name,
                "cat": "skeleton-wall",
                "pid": _WALL_PID,
                "tid": _SPAN_TID,
                "ts": ts(sw.t0),
                "dur": _us(sw.wall_s),
                "args": {"depth": sw.depth},
            }
        )
    workers_seen: set[int] = set()
    for d in profiler.dispatches:
        for b in d.blocks:
            if b.worker not in workers_seen:
                workers_seen.add(b.worker)
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": _WALL_PID,
                        "tid": b.worker + 1,
                        "args": {"name": f"worker {b.worker}"},
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "name": f"{d.skeleton}:{d.kernel}",
                    "cat": "kernel-wall",
                    "pid": _WALL_PID,
                    "tid": b.worker + 1,
                    "ts": ts(b.start),
                    "dur": _us(b.kernel_s),
                    "args": {
                        "backend": d.backend,
                        "dispatch_latency_s": b.latency_s,
                    },
                }
            )
    return events


def write_chrome_trace(path, machine: "Machine") -> dict[str, Any]:
    """Write a machine's trace to *path*; returns the JSON object.

    Dual-clock: with a wall profiler attached
    (``Machine(profile=True)``), the wall-clock tracks are appended as a
    second process row alongside the simulated ones.
    """
    events = chrome_trace_events(machine.tracer, machine.timeline)
    profiler = getattr(machine, "profiler", None)
    if profiler is not None:
        events += wall_trace_events(profiler)
    obj = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "p": machine.p,
            "makespan_s": machine.time,
        },
    }
    problems = validate_chrome_trace(obj)
    if problems:
        raise SkilError(
            f"refusing to write an invalid Chrome trace to {path}: "
            + "; ".join(problems[:5])
        )
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))  # the C encoder; json.dump's is pure Python
    return obj


def validate_chrome_trace(obj: Any) -> list[str]:
    """Check *obj* against the trace-event schema; returns problems.

    An empty list means the trace is structurally valid: a
    ``traceEvents`` array whose entries carry ``ph``/``name``/``pid``/
    ``tid``, with numeric non-negative ``ts``/``dur`` on complete
    events.  Used by the tests and the CI smoke job.
    """
    problems: list[str] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' array"]
    for i, ev in enumerate(obj["traceEvents"]):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)):
                    problems.append(f"event {i}: {key!r} must be a number")
                elif v < 0:
                    problems.append(f"event {i}: {key!r} is negative")
        elif ph == "M":
            if not isinstance(ev.get("args"), dict):
                problems.append(f"event {i}: metadata without args")
        elif ph is not None:
            problems.append(f"event {i}: unsupported phase {ph!r}")
    return problems


def flame_rollup(
    tracer: SpanTracer,
    min_share: float = 0.0,
    timeline: Timeline | None = None,
) -> str:
    """Flamegraph-style plain-text rollup of the span tree.

    Spans are aggregated by their root-to-leaf name path; every line
    shows inclusive simulated busy seconds (compute+comm+idle summed
    over the participating processors), call count and the compute /
    comm / idle split.  Children are indented under their parents and
    sorted by busy time.  With a *timeline*, a per-rank idle-wait
    section follows — gap counts and totals from
    :meth:`~repro.obs.timeline.Timeline.idle_gaps`, worst rank first.
    """
    agg: dict[tuple[str, ...], dict[str, float]] = {}
    for s in tracer.closed_spans():
        key = tracer.path(s)
        a = agg.setdefault(
            key,
            {"calls": 0, "busy": 0.0, "compute": 0.0, "comm": 0.0, "idle": 0.0},
        )
        a["calls"] += 1
        a["busy"] += s.busy_total
        a["compute"] += s.compute_seconds
        a["comm"] += s.comm_seconds
        a["idle"] += s.idle_seconds

    total = sum(a["busy"] for p, a in agg.items() if len(p) == 1) or 1.0
    lines = [
        f"{'span':<44}{'busy [s]':>10}{'share':>7}{'calls':>7}"
        f"{'compute':>9}{'comm':>7}{'idle':>7}"
    ]

    def emit(prefix: tuple[str, ...]) -> None:
        children = sorted(
            (p for p in agg if len(p) == len(prefix) + 1 and p[: len(prefix)] == prefix),
            key=lambda p: -agg[p]["busy"],
        )
        for p in children:
            a = agg[p]
            share = a["busy"] / total
            if share < min_share:
                continue
            busy = a["busy"] or 1.0
            indent = "  " * (len(p) - 1)
            lines.append(
                f"{indent + p[-1]:<44}{a['busy']:>10.4f}{share:>7.1%}"
                f"{int(a['calls']):>7}"
                f"{a['compute'] / busy:>8.0%}{a['comm'] / busy:>7.0%}"
                f"{a['idle'] / busy:>7.0%}"
            )
            emit(p)

    emit(())

    if timeline is not None and timeline.ranks():
        rows = []
        for r in timeline.ranks():
            gaps = timeline.idle_gaps(r)
            rows.append((sum(b - a for a, b in gaps), len(gaps), r))
        rows.sort(reverse=True)
        lines.append("")
        lines.append(
            f"{'per-rank idle-wait':<44}{'idle [s]':>10}{'gaps':>7}"
            f"{'busy':>9}"
        )
        for idle, ngaps, r in rows:
            lines.append(
                f"{f'rank {r}':<44}{idle:>10.4f}{ngaps:>7}"
                f"{timeline.busy_fraction(r):>9.1%}"
            )
    return "\n".join(lines)
