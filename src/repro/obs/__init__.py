"""Observability for the simulated Skil machine.

The paper's whole evaluation is an argument about *where time goes* —
compute vs. communication vs. idle as partitions shrink.  This package
makes that attribution first-class instead of a single global counter
set:

* :mod:`repro.obs.span` — paired ``begin``/``end`` **spans** around
  skeleton invocations (nested spans for composite skeletons), each
  recording the compute/comm/idle seconds, messages, bytes and
  participating ranks that accrued while it was open, and the one
  in-process **wall** instrument: each span's ``perf_counter`` stamps
  and the backend's dispatch stamps, folded into a registry of their
  own and split into dispatch / kernel / idle wall
  (docs/OBSERVABILITY.md, "Wall time on spans");
* :mod:`repro.obs.timeline` — a per-rank **timeline** of
  compute/send/recv/idle intervals, filled in by both the analytic
  clock layer (:mod:`repro.machine.network`) and the discrete-event
  engine (:mod:`repro.machine.engine`);
* :mod:`repro.obs.metrics` — a **metrics registry** of counters and
  histograms (message sizes, hop counts, instantiation cache
  behaviour);
* :mod:`repro.obs.export` — **exporters**: Chrome trace-event JSON
  (open in Perfetto or ``chrome://tracing``; one track per rank, a
  skeleton-span track and per-rank idle-wait tracks) and a
  flamegraph-style plain-text rollup, with the wall tracks and the
  wall attribution beside the simulated ones;
* :mod:`repro.obs.analysis` — the **critical path** of a traced run
  over its happens-before order, with exact
  compute/latency/bandwidth/idle attribution, per-rank straggler
  metrics and what-if cost replays (``python -m repro.eval analyze``);
* :mod:`repro.obs.stream` — the **streaming sinks** behind
  ``Machine(trace_mode="stream")``: exact O(p) online aggregates, the
  per-skeleton table filled as spans close and a rotating JSONL spill,
  keeping observability memory O(p) at extreme scale
  (docs/OBSERVABILITY.md, "Streaming mode").

Everything is opt-in through ``Machine(trace_level=...)`` and costs a
single ``is None`` check per operation when off, so the simulated
makespans are bit-identical with tracing disabled.
"""

from repro.obs.analysis import (
    CriticalPath,
    PathStep,
    RunAnalysis,
    StreamAnalysis,
    analyze_machine,
    analyze_stream,
    critical_path,
    format_stream_analysis,
)
from repro.obs.stream import (
    ProgressReporter,
    StreamConfig,
    StreamObserver,
    StreamTimeline,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    global_metrics,
    isolated_metrics,
)
from repro.obs.span import ATTRIBUTION_TOL, SkeletonAgg, Span, SpanTracer
from repro.obs.timeline import Interval, Timeline
from repro.obs.export import (
    chrome_trace_events,
    flame_rollup,
    validate_chrome_trace,
    wall_trace_events,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
    "isolated_metrics",
    "Span",
    "SpanTracer",
    "SkeletonAgg",
    "Interval",
    "Timeline",
    "chrome_trace_events",
    "flame_rollup",
    "validate_chrome_trace",
    "wall_trace_events",
    "write_chrome_trace",
    "ATTRIBUTION_TOL",
    "CriticalPath",
    "PathStep",
    "RunAnalysis",
    "analyze_machine",
    "critical_path",
    "StreamAnalysis",
    "analyze_stream",
    "format_stream_analysis",
    "ProgressReporter",
    "StreamConfig",
    "StreamObserver",
    "StreamTimeline",
]
