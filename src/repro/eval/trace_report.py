"""Per-run cost breakdowns: where did the simulated (and wall) time go?

The paper explains its efficiency cliffs narratively ("the communication
overhead gains more importance, leading to a drop of efficiency" for
small partitions on large networks); this module makes the same analysis
quantitative from the trace statistics: compute vs communication vs idle
share per run, message/byte counts, and a comparison table across
languages or configurations.  The per-skeleton table and the wall
attribution also read the wall stamps every span carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.machine.trace import TraceStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine
    from repro.obs.span import SkeletonAgg

__all__ = [
    "CostBreakdown",
    "breakdown",
    "format_breakdowns",
    "skeleton_breakdowns",
    "format_skeleton_breakdowns",
    "format_wall_attribution",
]


@dataclass(frozen=True)
class CostBreakdown:
    """Aggregated shares of one run.

    Shares are fractions of total processor-seconds (compute + comm +
    idle), so they compare across configurations with different p.
    """

    label: str
    makespan: float
    compute_seconds: float
    comm_seconds: float
    idle_seconds: float
    messages: int
    bytes_sent: int
    skeleton_calls: int

    @property
    def busy_total(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.idle_seconds

    @property
    def compute_share(self) -> float:
        return self.compute_seconds / self.busy_total if self.busy_total else 0.0

    @property
    def comm_share(self) -> float:
        return self.comm_seconds / self.busy_total if self.busy_total else 0.0

    @property
    def idle_share(self) -> float:
        return self.idle_seconds / self.busy_total if self.busy_total else 0.0


def breakdown(label: str, makespan: float, stats: TraceStats) -> CostBreakdown:
    """Summarise one finished run."""
    return CostBreakdown(
        label=label,
        makespan=makespan,
        compute_seconds=stats.compute_seconds,
        comm_seconds=stats.comm_seconds,
        idle_seconds=float(stats.idle_seconds),
        messages=stats.messages,
        bytes_sent=stats.bytes_sent,
        skeleton_calls=stats.skeleton_calls,
    )


def format_breakdowns(rows: list[CostBreakdown]) -> str:
    """Render a comparison table of several runs.  The time is each
    run's own ``makespan`` (an app's timed region, which leaves out its
    setup and teardown), not the machine's."""
    out = [
        f"{'run':<24}{'app [s]':>10}{'compute':>9}{'comm':>7}{'idle':>7}"
        f"{'msgs':>8}{'MB sent':>9}"
    ]
    for r in rows:
        out.append(
            f"{r.label:<24}{r.makespan:>10.3f}"
            f"{r.compute_share:>8.0%}{r.comm_share:>7.0%}{r.idle_share:>7.0%}"
            f"{r.messages:>8}{r.bytes_sent / 1e6:>9.2f}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# the per-skeleton table, one for both trace modes
# ---------------------------------------------------------------------------
def skeleton_breakdowns(machine: "Machine") -> list[SkeletonAgg]:
    """Exclusive per-skeleton costs of a traced run, busiest first: the
    span tracer's table, which it folds as the skeleton spans close in
    either trace mode.  A nested skeleton counts under its own name
    (:attr:`repro.obs.span.Span.exclusive`), so summing the rows never
    double-counts a simulated second.
    """
    return sorted(machine.tracer.skeletons.values(), key=lambda a: a.busy_total,
                  reverse=True)


def format_skeleton_breakdowns(rows: list[SkeletonAgg]) -> str:
    """Render the per-skeleton cost table; p50 / p99 are of one call's
    simulated duration (nested calls included), the last two columns
    the exclusive wall seconds and wall microseconds per call."""
    out = [
        f"{'skeleton':<24}{'calls':>6}{'busy [s]':>10}{'compute':>9}"
        f"{'comm':>7}{'idle':>7}{'msgs':>8}{'MB sent':>9}"
        f"{'p50 [s]':>10}{'p99 [s]':>10}{'wall [s]':>10}{'us/call':>9}"
    ]
    for r in rows:
        b = r.busy_total or 1.0
        out.append(
            f"{r.name:<24}{r.calls:>6}{r.busy_total:>10.3f}"
            f"{r.compute_seconds / b:>8.0%}{r.comm_seconds / b:>7.0%}"
            f"{r.idle_seconds / b:>7.0%}"
            f"{r.messages:>8}{r.bytes_sent / 1e6:>9.2f}"
            f"{r.durations.quantile(0.5):>10.2e}"
            f"{r.durations.quantile(0.99):>10.2e}"
            f"{r.wall_seconds:>10.4f}{r.wall_seconds / r.calls * 1e6:>9.1f}"
        )
    return "\n".join(out)


def format_wall_attribution(attr: dict) -> str:
    """Render :meth:`repro.obs.span.SpanTracer.wall_attribution`: the
    measured skeleton wall split into dispatch / kernel / idle."""
    from repro.obs.span import ATTRIBUTION_TOL, attribution_ok

    mw = attr["measured_wall_s"]
    out = [f"wall attribution (of {mw:.4f}s measured skeleton wall):"]
    for key in ("dispatch_s", "kernel_s", "idle_s"):
        share = attr[key] / mw if mw > 0 else 0.0
        out.append(f"  {key[:-2]:<10}{attr[key]:>10.4f}s{share:>8.1%}")
    ok = "ok" if attribution_ok(attr) else "FAILED"
    out.append(
        f"  {attr['calls']} dispatches, {attr['blocks']} blocks; parts sum "
        f"within {ATTRIBUTION_TOL:.0%} of measured: {ok}"
    )
    for worker, busy in sorted(attr["workers"].items(), key=lambda w: int(w[0])):
        share = busy / attr["window_s"] if attr["window_s"] > 0 else 0.0
        out.append(
            f"  worker {worker}: busy {busy:.4f}s, {share:.1%} of the "
            "dispatch windows"
        )
    return "\n".join(out)
