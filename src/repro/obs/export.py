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
critical-path analysis attributes as ``idle``.  On a parallel backend
a second process (pid 2) carries the wall clock: every span at its
``perf_counter`` stamps and, per worker, the blocks the backend
dispatched; ``otherData["wall"]`` holds the dispatch / kernel / idle
attribution.

Every export path validates its own output (dict events with
:func:`validate_chrome_trace`, encoded columns by the same rules inside
:func:`encode_complete`), so a malformed trace fails at write time — in
the CLI and in Engine-mode (``divide_and_conquer``/``farm``) runs alike,
not just under the tests.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import SkilError
from repro.obs.span import Span, SpanTracer
from repro.obs.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "span_event",
    "encode_complete",
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
#: ``json``'s own string encoder (what ``json.dumps`` calls on a ``str``)
_json_str = json.encoder.encode_basestring_ascii
#: events the exporter encodes and writes at a time
_BATCH = 1 << 14


def _us(seconds: float) -> float:
    return seconds * 1e6


def _complete(name, cat, tid, ts, dur, args, pid=_PID) -> dict[str, Any]:
    """A complete event built as a dict (spans and wall tracks)."""
    return {"ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
            "ts": ts, "dur": dur, "args": args}


def _metadata(tid: int, name: str, pid: int = _PID,
              what: str = "thread_name") -> dict[str, Any]:
    return {"ph": "M", "name": what, "pid": pid, "tid": tid, "args": {"name": name}}


def span_event(span: Span) -> dict[str, Any]:
    """The complete event of one closed span (export and stream spill)."""
    return _complete(span.name, span.category, _SPAN_TID, _us(span.begin_time),
                     _us(span.duration),
                     {"compute_s": span.compute_seconds, "comm_s": span.comm_seconds,
                      "idle_s": span.idle_seconds, "messages": span.messages,
                      "bytes": span.bytes_sent, "ranks": list(span.ranks)})


def encode_complete(
    ranks,
    starts,
    ends,
    labels: list[tuple[str, str]],
    which=None,
    *,
    tid_base: int = 1,
    args: tuple = (),
    jsonl: bool = False,
) -> str:
    """A wave of complete events, formatted straight from columns.

    Each event is byte for byte ``json.dumps`` of its dict: name and cat
    from *labels* (``(name, cat)`` pairs, one for the wave or picked per
    event by *which*), ``tid = rank + tid_base``, µs ``ts``/``dur`` and
    *args* (``(key, column)`` pairs).  Times go through ``repr`` once
    per distinct value and the wave is one ``%`` format;
    *jsonl* picks the spill's compact lines over the export's ``", "``
    joined events.  A negative or non-finite time is a
    :class:`SkilError` naming the event's rank and kind: strict JSON has
    no ``Infinity`` or ``NaN``.
    """
    k = len(starts)
    if not k:
        return ""
    if k == 1:  # one event (an interval-at-a-time emitter): plain floats
        start = float(starts[0])
        ts, dur = [start * 1e6], [(float(ends[0]) - start) * 1e6]
        ok = 0.0 <= ts[0] < math.inf and 0.0 <= dur[0] < math.inf
        tss, durs = [repr(ts[0])], [repr(dur[0])]
    else:
        times = np.empty((2, k))  # ts, dur: one validation
        np.multiply(starts, 1e6, out=times[0])
        np.subtract(ends, starts, out=times[1])
        times[1] *= 1e6
        ok = (np.minimum.reduce(times, None) >= 0.0
              and np.maximum.reduce(times, None) < math.inf)
        if ok:  # few distinct times: one repr each, told apart by their bits
            bits, at = np.unique(times.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            tss, durs = text[at.reshape(2, k)].tolist()
        else:
            ts, dur = times.tolist()
    if not ok:
        i = next(i for i, (a, b) in enumerate(zip(ts, dur))
                 if not (0.0 <= a < math.inf and 0.0 <= b < math.inf))
        kind = labels[0 if which is None else which[i]][1]
        raise SkilError(
            f"event on rank {np.asarray(ranks)[i]} ({kind}) has ts={ts[i]!r} "
            f"dur={dur[i]!r} us: trace times must be finite and non-negative")
    sep, kv = (",", ":") if jsonl else (", ", ": ")
    heads = [f'{{"ph"{kv}"X"{sep}"name"{kv}{_json_str(name)}{sep}"cat"{kv}'
             f'{_json_str(cat)}{sep}"pid"{kv}{_PID}{sep}"tid"{kv}'
             for name, cat in labels]
    fmt = (f'%d{sep}"ts"{kv}%s{sep}"dur"{kv}%s{sep}"args"{kv}{{'
           + sep.join(f'"{key}"{kv}%r' for key, _ in args) + "}}")
    cols = [(np.asarray(ranks) + tid_base).tolist(), tss, durs,
            *(np.asarray(c).tolist() for _, c in args)]
    if which is None:
        fmt = heads[0].replace("%", "%%") + fmt
    else:
        fmt = "%s" + fmt
        cols.insert(0, list(map(heads.__getitem__, which)))
    wave = (fmt + "\n") * k if jsonl else ", ".join([fmt] * k)
    return wave % tuple(chain.from_iterable(zip(*cols)))


def wall_trace_events(
    tracer: SpanTracer, label: str = "wall clock"
) -> list[dict[str, Any]]:
    """Wall-clock tracks from a record-mode tracer's stamps.

    Shifted so the earliest stamp is ``ts = 0`` (``perf_counter`` has
    no meaningful origin, and the validator requires non-negative
    timestamps).  Thread 0 carries the spans at their wall stamps;
    threads ``1..w`` the dispatched blocks, one track per worker that
    ran any.
    """
    spans = tracer.closed_spans()
    stamps = [s.wall_begin for s in spans]
    stamps += [d.t_post for d in tracer.dispatches]
    if not stamps:
        return []
    origin = min(stamps)

    def ts(t: float) -> float:
        return _us(max(0.0, t - origin))

    events = [_metadata(0, label, _WALL_PID, "process_name"),
              _metadata(_SPAN_TID, "skeleton wall", _WALL_PID)]
    events += [_complete(s.name, f"{s.category}-wall", _SPAN_TID, ts(s.wall_begin),
                         _us(max(0.0, s.wall_end - s.wall_begin)), {"depth": s.depth},
                         _WALL_PID) for s in spans]
    workers_seen: set[int] = set()
    for d in tracer.dispatches:
        for worker, start, end in d.blocks:
            if worker not in workers_seen:
                workers_seen.add(worker)
                events.append(_metadata(worker + 1, f"worker {worker}", _WALL_PID))
            events.append(_complete(d.skeleton, "kernel-wall", worker + 1, ts(start),
                                    _us(max(0.0, end - start)),
                                    {"lag_s": max(0.0, start - d.t_post)}, _WALL_PID))
    return events


def _timeline_texts(timeline: Timeline) -> Iterator[str]:
    """The rank tracks and the derived idle-wait tracks, encoded in
    batches of events: every interval in emission order, then per rank
    its maximal gaps."""
    ranks = timeline.ranks()
    yield from (json.dumps(_metadata(r + 1, f"rank {r}")) for r in ranks)
    rank, start, end, which, labels = timeline.columns()
    heads = [(detail or kind, kind) for kind, detail in labels]
    for i in range(0, rank.size, _BATCH):
        at = slice(i, i + _BATCH)
        yield encode_complete(rank[at], start[at], end[at], heads, which[at].tolist())
    for r in ranks:
        gaps = np.array(timeline.idle_gaps(r)).reshape(-1, 2)
        if gaps.size:
            yield json.dumps(_metadata(_IDLE_TID_BASE + r + 1, f"rank {r} idle-wait"))
            a, b = gaps.T
            yield encode_complete(np.full(a.size, r), a, b, [("idle-wait", "idle-wait")],
                                  tid_base=_IDLE_TID_BASE + 1,
                                  args=(("seconds", b - a),))


def write_chrome_trace(path, machine: "Machine") -> None:
    """Write a recorded machine's trace to *path*, in batches of events:
    metadata, spans and wall events through ``json.dumps``, rank
    intervals and idle-wait gaps through :func:`encode_complete`, each
    validated on the way; an invalid trace is a :class:`SkilError` and
    leaves no file.  A stream-mode machine has no recording to export.

    Dual-clock on a parallel backend (``threads``): the traced
    machine's wall tracks follow as a second process row, and
    ``otherData["wall"]`` carries
    :meth:`~repro.obs.span.SpanTracer.wall_attribution`.  On ``sim``
    every kernel runs inline, so there is no worker plane to draw and
    the split is all kernel; its export stays a function of the
    simulation alone, byte-identical from run to run (the per-skeleton
    table still prints its wall columns).
    """
    if machine.stream_obs is not None:
        raise SkilError(
            f"cannot write a Chrome trace to {path}: this machine runs in "
            "stream mode (the default at p >= STREAM_AUTO_P) and keeps no "
            "recording; build it with StreamConfig(spill_path=...) to get "
            "its events as a JSONL spill")
    tracer = machine.tracer
    head = [_metadata(0, "skil machine", what="process_name"),
            _metadata(_SPAN_TID, "skeleton spans")]
    other: dict[str, Any] = {"p": machine.p, "makespan_s": machine.time}
    wall: list[dict[str, Any]] = []
    if tracer is not None:
        head += [span_event(s) for s in tracer.spans if s.closed]
        if machine.backend.parallel:
            wall = wall_trace_events(tracer)
            other["wall"] = tracer.wall_attribution()
    problems = validate_chrome_trace({"traceEvents": head + wall})
    if problems:
        raise SkilError(
            f"refusing to write an invalid Chrome trace to {path}: "
            + "; ".join(problems[:5])
        )
    texts = chain(map(json.dumps, head),
                  () if machine.timeline is None else _timeline_texts(machine.timeline),
                  map(json.dumps, wall))
    tmp = f"{path}.partial"
    try:
        with open(tmp, "w") as fh:
            fh.write('{"traceEvents": [' + next(texts))
            for text in texts:
                fh.write(", " + text)
            fh.write('], "displayTimeUnit": "ms", "otherData": '
                     + json.dumps(other) + "}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def validate_chrome_trace(obj: Any) -> list[str]:
    """Check *obj* against the trace-event schema; returns problems.

    An empty list means the trace is structurally valid: a
    ``traceEvents`` array whose entries carry ``ph``/``name``/``pid``/
    ``tid``, with finite non-negative numeric ``ts``/``dur`` (not
    booleans) on complete events.  Used by the exporter on the events it
    builds as dicts, by the tests and by the CI smoke jobs.
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
            where = f"event {i} ({ev.get('cat')!r} on tid {ev.get('tid')!r})"
            for key in ("ts", "dur"):
                v = ev.get(key)
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    problems.append(f"{where}: {key!r} must be a number")
                elif not math.isfinite(v):
                    problems.append(f"{where}: {key!r} is not finite")
                elif v < 0:
                    problems.append(f"{where}: {key!r} is negative")
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
