"""A small metrics registry: counters and histograms.

Modelled on the Prometheus client conventions but in-process and
allocation-light: instruments are created on first use and held by name
in a :class:`MetricsRegistry`.  The machine owns a registry when
``trace_level >= 1``; layers without a machine at hand (the compiler
front end) report into the process-wide :func:`global_metrics` registry.
"""

from __future__ import annotations

import bisect
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.machine.trace import batch_messages, drain

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
    "isolated_metrics",
    "POW2_BUCKETS",
]

#: power-of-two byte buckets, 1 B .. 16 MB — message sizes
POW2_BUCKETS = tuple(float(1 << k) for k in range(25))
#: hop-count buckets (1..16 mesh hops)
HOP_BUCKETS = tuple(float(h) for h in range(1, 17))


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


@dataclass
class Histogram:
    """Bucketed distribution with sum/count/min/max.

    *buckets* are inclusive upper bounds; values above the last bound
    land in the implicit overflow bucket.
    """

    name: str
    buckets: tuple[float, ...] = POW2_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        #: the bounds as an array, built once for :meth:`observe_many`
        self._bounds = np.asarray(self.buckets, dtype=np.float64)

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect.bisect_left(self.buckets, v)] += 1
        self.total += v
        self.count += 1
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    def summarize(self, values: np.ndarray) -> tuple:
        """``(bucket hits, count, min, max, sum)`` of a non-empty array,
        for :meth:`add`: ``searchsorted`` buckets as ``bisect_left`` does,
        and the sum an exact ``int`` when every value is a non-negative
        integer (``None`` otherwise)."""
        hits = np.bincount(np.searchsorted(self._bounds, values, side="left")).tolist()
        lo, hi = float(values.min()), float(values.max())
        exact = values.dtype.kind in "iu" and lo >= 0.0
        return list(enumerate(hits)), values.size, lo, hi, int(values.sum()) if exact else None

    def add(self, summaries) -> bool:
        """Fold in :meth:`summarize` results of non-negative integers
        that keep the running ``total`` an integer below 2**53: exact, as
        every partial sum of the scalar ``+=`` loop is, so their order
        does not matter.  ``False``, with nothing changed, otherwise."""
        sums = [s[4] for s in summaries]
        if (None in sums or not float(self.total).is_integer()
                or self.total + sum(sums) >= 2.0 ** 53):
            return False
        for summary in summaries:
            self._count(summary)
        self.total += float(sum(sums))
        return True

    def _count(self, summary) -> None:
        hits, k, lo, hi, _ = summary
        for i, n in hits:
            self.counts[i] += n
        self.count += k
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

    def observe_many(self, values) -> None:
        """Vectorized :meth:`observe` over a sequence of values,
        bit-identical to observing them one at a time in order: the
        buckets, min and max are order-free, and the running ``total`` is
        :meth:`add`'s exact sum or a seeded left-to-right
        ``np.add.accumulate``, whose rounding is the scalar loop's."""
        vals = np.asarray(values)
        if vals.size == 0:
            return
        summary = self.summarize(vals)
        if not self.add([summary]):
            buf = np.empty(vals.size + 1, dtype=np.float64)
            buf[0] = self.total
            buf[1:] = vals
            self.total = float(np.add.accumulate(buf)[-1])
            self._count(summary)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs.

        One pair per configured bound plus the terminal ``+Inf`` bucket;
        counts are running totals, so the last equals :attr:`count`.
        """
        out: list[tuple[float, int]] = []
        cum = 0
        for i, bound in enumerate(self.buckets):
            cum += self.counts[i]
            out.append((bound, cum))
        out.append((math.inf, cum + self.counts[len(self.buckets)]))
        return out

    def quantile(self, q: float) -> float:
        """Approximate *q*-quantile from the bucket counts.

        Linear interpolation inside the winning bucket (Prometheus
        ``histogram_quantile`` semantics), clamped to the observed
        min/max so q=0 and q=1 are exact.  Returns 0.0 with no
        observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return 0.0
        target = q * self.count
        cum = 0
        lo = 0.0
        for i, bound in enumerate(self.buckets):
            c = self.counts[i]
            if cum + c >= target and c > 0:
                frac = (target - cum) / c
                lo_eff = max(lo, self.min)
                hi_eff = min(bound, self.max)
                if hi_eff < lo_eff:
                    hi_eff = lo_eff
                return min(max(lo_eff + frac * (hi_eff - lo_eff), self.min),
                           self.max)
            cum += c
            lo = bound
        return self.max

    def nonzero_buckets(self) -> list[tuple[str, int]]:
        """(upper-bound label, count) for buckets that saw any value."""
        out = []
        for i, c in enumerate(self.counts):
            if not c:
                continue
            label = f"<={self.buckets[i]:g}" if i < len(self.buckets) else (
                f">{self.buckets[-1]:g}"
            )
            out.append((label, c))
        return out


class MetricsRegistry:
    """Named instruments, created on demand."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        #: the Network's wave log this registry drains before a read
        self._log = None

    def observe_messages(self, entries) -> None:
        """The messages of a drained batch of the Network's wave log
        (:class:`~repro.machine.trace.WaveLog`): sizes and hop counts
        into two histograms, a count per wave and tag.  A wave of one
        byte count is one bucket, a wave that carries its plan has its
        hops summarized once per plan (memoized with it), the other
        values are summarized in one pass; :meth:`Histogram.add` folds
        the lot in exactly, or the batch's values go through
        :meth:`Histogram.observe_many` in emission order.  Either way the
        state is the per-message loop's, bit for bit."""
        waves = [e[0] for e in entries if e[0] is not None]
        if not waves:
            return
        sizes = self.histogram("net.message_bytes")
        hops = self.histogram("net.message_hops", HOP_BUCKETS)
        known, rest = ([], []), ([], [])
        for tag, _, _, nb, hop, _, arrivals, cut in waves:
            k = np.size(arrivals)
            self.inc(f"net.messages.{tag or 'untagged'}", k)
            if isinstance(nb, int) and nb >= 0:
                at = bisect.bisect_left(sizes.buckets, nb)
                known[0].append(([(at, k)], k, float(nb), float(nb), nb * k))
            else:
                rest[0].append(nb)
            if cut is not None:
                known[1].append(_hop_summary(hops, *cut))
            else:
                rest[1].append(hop)
        for col, h, summaries, values in zip((2, 3), (sizes, hops), known, rest):
            if values:
                summaries.append(h.summarize(np.concatenate(values, axis=None)))
            if summaries and not h.add(summaries):
                h.observe_many(batch_messages(entries, (col,))[2][0])

    # ------------------------------------------------------------ accessors
    def counter(self, name: str) -> Counter:
        drain(self._log)
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str, buckets: tuple[float, ...] = POW2_BUCKETS) -> Histogram:
        drain(self._log)
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets=buckets)
        return h

    # ------------------------------------------------------------ shortcuts
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] = POW2_BUCKETS
    ) -> None:
        self.histogram(name, buckets=buckets).observe(value)

    def observe_many(
        self, name: str, values, buckets: tuple[float, ...] = POW2_BUCKETS
    ) -> None:
        """Vectorized :meth:`observe`; see :meth:`Histogram.observe_many`."""
        self.histogram(name, buckets=buckets).observe_many(values)

    # ------------------------------------------------------------ output
    def snapshot(self) -> dict[str, dict]:
        """Plain-dict dump (stable key order) for JSON export and tests."""
        drain(self._log)
        out: dict[str, dict] = {"counters": {}, "histograms": {}}
        for name in sorted(self._counters):
            out["counters"][name] = self._counters[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            out["histograms"][name] = {
                "count": h.count,
                "sum": h.total,
                "mean": h.mean,
                "min": h.min,
                "max": h.max,
                "buckets": dict(h.nonzero_buckets()),
            }
        return out

    def format(self) -> str:
        """Human-readable dump, one instrument per line."""
        drain(self._log)
        lines: list[str] = []
        for name in sorted(self._counters):
            lines.append(f"{name:<40}{self._counters[name].value:>14g}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            lines.append(
                f"{name:<40}{h.count:>8} obs  mean={h.mean:g} "
                f"min={h.min if h.min is not None else '-'} "
                f"max={h.max if h.max is not None else '-'}"
            )
        return "\n".join(lines)

    def render_text(self, quantiles: tuple[float, ...] = (0.5, 0.9, 0.99)) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Counters render as ``<name>_total``, histograms with cumulative
        ``_bucket{le="..."}`` series ending in ``+Inf`` plus ``_sum`` /
        ``_count``, and — as gauges, since the exposition format has no
        native quantile series for histograms — the requested
        approximate quantiles as ``<name>{quantile="..."}``.  Metric
        names are sanitised to the Prometheus charset; the output is
        sorted and ends with a newline, scrape-ready for a file-based
        textfile collector.
        """
        drain(self._log)
        lines: list[str] = []
        for name in sorted(self._counters):
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total {_prom_value(self._counters[name].value)}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} histogram")
            for bound, cum in h.cumulative_buckets():
                le = "+Inf" if math.isinf(bound) else _prom_value(bound)
                lines.append(f'{pname}_bucket{{le="{le}"}} {cum}')
            lines.append(f"{pname}_sum {_prom_value(h.total)}")
            lines.append(f"{pname}_count {h.count}")
            if h.count:
                lines.append(f"# TYPE {pname}_quantile gauge")
                for q in quantiles:
                    lines.append(
                        f'{pname}_quantile{{quantile="{_prom_value(q)}"}} '
                        f"{_prom_value(h.quantile(q))}"
                    )
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()


def _hop_summary(hist: Histogram, plan, lo, hi) -> tuple:
    """:meth:`Histogram.summarize` of the hops of *plan*'s edges
    ``lo .. hi - 1``, memoized with the plan."""
    key = ("hop_hist", lo, hi)
    seen = plan.memo.get(key)
    if seen is None:
        seen = plan.keep(key, hist.summarize(plan.hops[lo:hi]))
    return seen


_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitise to the Prometheus metric-name charset."""
    out = _NAME_BAD.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(v: float) -> str:
    """Render a sample value: integers without the trailing ``.0``."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


_GLOBAL = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """Process-wide registry for layers with no machine in scope
    (the compiler front end); tests may :meth:`~MetricsRegistry.clear` it.
    Code that must not leak observations into (or observe leakage from)
    other work should use :func:`isolated_metrics` instead of clearing."""
    return _GLOBAL


@contextmanager
def isolated_metrics() -> Iterator[MetricsRegistry]:
    """Swap in a fresh process-wide registry for the duration of the block.

    Everything that calls :func:`global_metrics` inside the ``with``
    observes (and pollutes) only the temporary registry, which is
    yielded for inspection; the previous registry — with its
    accumulated values intact — is restored on exit, even on error.
    ``repro.check`` wraps each trial in this so fuzz/oracle/diff trials
    cannot leak counters into each other or into the host test process.
    """
    global _GLOBAL
    prev = _GLOBAL
    fresh = MetricsRegistry()
    _GLOBAL = fresh
    try:
        yield fresh
    finally:
        _GLOBAL = prev
