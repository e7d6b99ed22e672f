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

    def summarize(self, values, count: int = 1):
        """``([(bucket index, count), ...], min, max)`` of *values*, an
        array or one number *count* times, for :meth:`observe_many`."""
        if np.ndim(values) == 0:
            v = float(values)
            return [(bisect.bisect_left(self.buckets, v), count)], v, v
        vals = np.asarray(values, dtype=np.float64)
        hits = np.bincount(np.searchsorted(self._bounds, vals, side="left")).tolist()
        return ([(i, n) for i, n in enumerate(hits) if n],
                *((float(vals.min()), float(vals.max())) if vals.size else (0.0, 0.0)))

    def observe_many(self, values, summary=None) -> None:
        """Vectorized :meth:`observe` over a sequence of values.

        Bit-identical to observing the values one at a time in order:
        bucketing uses ``searchsorted`` (same semantics as
        ``bisect_left``), and the running ``total`` is folded with a
        seeded left-to-right ``np.add.accumulate`` so the float rounding
        matches the scalar ``+=`` loop exactly.  Min/max are order-free.
        A caller that knows the values' :meth:`summarize` (a plan's hop
        counts, one byte count for a whole wave) passes it, and *values*
        may then be one number for all.
        """
        hits, lo, hi = self.summarize(values) if summary is None else summary
        k = 0
        for i, n in hits:
            self.counts[i] += n
            k += n
        if k == 0:
            return
        buf = np.empty(k + 1, dtype=np.float64)
        buf[0] = self.total
        buf[1:] = values
        self.total = float(np.add.accumulate(buf)[-1])
        self.count += k
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)

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

    # ------------------------------------------------------------ accessors
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str, buckets: tuple[float, ...] = POW2_BUCKETS) -> Histogram:
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
