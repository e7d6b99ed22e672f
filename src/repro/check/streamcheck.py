"""Streamed-vs-recorded aggregate equality (the ``stream`` pillar).

``Machine(trace_mode="stream")`` promises that every *aggregate* it
keeps — per-rank per-kind interval seconds, the ``*_seen`` counters,
exclusive per-skeleton attribution with online duration histograms — is
**bit-identical** to folding a full ``trace_level=2`` recording of the
same run through the same sinks.  That reference fold lives here (:func:`fold_recorded`,
:func:`compare_observers`): production never runs it.

Every trial builds two identical machines, runs the same workload on
both — one recording, one streaming — and compares:

* the streamed observer against the record fold with
  :func:`compare_observers` (bitwise arrays, histograms
  field-by-field),
* the two critical-path folds with :func:`compare_folds` (every
  per-rank array bitwise: the stream-mode critical path *is* the
  record-mode one),
* every per-rank clock with ``==`` (streaming must not perturb the
  simulation),
* the stats counters exactly and the stats floats bitwise,
* the metrics registries via their rendered exposition text,
* the streamed observer's own memory bound (no closed span alive, O(p)
  cells).

Three trial families interleave: skeleton applications (shortest paths
/ Gaussian elimination at p ∈ {4, 16, 64}), raw network op sequences
(scalar and batched p2p, shifts, tree collectives — the paths that
emit whole waves: ``add_many`` / ``add_lanes`` / ``record_messages``),
and Engine workloads (``divide_and_conquer`` / ``farm``) whose
intervals arrive one ``add`` at a time.
"""

from __future__ import annotations

import random

import numpy as np

from repro.check.report import TrialRunner
from repro.errors import SkilError
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.obs.metrics import isolated_metrics
from repro.obs.span import Span, SpanTracer
from repro.obs.stream import StreamObserver
from repro.skeletons import MIN, PLUS, SkilContext

__all__ = [
    "fold_recorded",
    "compare_observers",
    "compare_folds",
    "run_stream",
    "run_stream_raw",
]


# ---------------------------------------------------------------------------
# the reference fold
# ---------------------------------------------------------------------------
def _close_order(tracer: SpanTracer) -> list[Span]:
    """Closed spans of a record-mode tracer in the order they closed.

    Under stack discipline the close sequence is exactly the post-order
    of the span forest with children visited in begin (index) order —
    do *not* sort by ``end_time``, which ties for spans closing at the
    same simulated instant.
    """
    children: dict[int | None, list[Span]] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    out: list[Span] = []

    def visit(span: Span) -> None:
        for c in children.get(span.index, []):
            visit(c)
        if span.closed:
            out.append(span)

    for root in children.get(None, []):
        visit(root)
    return out


def fold_recorded(machine: Machine) -> StreamObserver:
    """Fold a full ``trace_level=2`` recording into stream aggregates.

    Replays the recorded timeline intervals (append order), message
    records (append order) and closed spans (close order) through a
    fresh :class:`StreamObserver` using the same scalar update
    arithmetic as live streaming.  Every aggregate is bit-identical to
    running the same workload under ``trace_mode="stream"`` — the
    equality the pillar asserts via :func:`compare_observers`.
    """
    timeline = machine.timeline
    tracer = machine.tracer
    if timeline is None or tracer is None or not machine.stats.keep_records:
        raise SkilError(
            "fold_recorded needs a full recording: "
            "Machine(trace_level=2) in the default record mode"
        )
    obs = StreamObserver(machine.p)
    for iv in timeline.intervals:
        obs.timeline.add(iv.rank, iv.kind, iv.start, iv.end, iv.detail)
    for rec in machine.stats.records:
        obs.on_message(
            rec.time, rec.src, rec.dst, rec.nbytes, rec.hops, rec.tag, rec.depart
        )
    for span in _close_order(tracer):
        obs.on_span(span)
    return obs


def _diff_arrays(name: str, a: np.ndarray, b: np.ndarray, problems: list[str]) -> None:
    if a.shape != b.shape:
        problems.append(f"{name}: shape {a.shape} vs {b.shape}")
        return
    if not np.array_equal(a, b):
        idx = int(np.argmax(a != b))
        problems.append(f"{name}: first diff at [{idx}]: {a[idx]!r} vs {b[idx]!r}")


def compare_observers(a: StreamObserver, b: StreamObserver) -> list[str]:
    """Bitwise comparison of two observers' exact state.

    Returns human-readable problems (empty list = identical).  The
    spill writer is not compared.
    """
    problems: list[str] = []
    if a.p != b.p:
        return [f"p: {a.p} vs {b.p}"]
    ta, tb = a.timeline, b.timeline
    if set(ta.seconds) != set(tb.seconds):
        problems.append(
            f"timeline kinds: {sorted(ta.seconds)} vs {sorted(tb.seconds)}"
        )
    else:
        for kind in sorted(ta.seconds):
            _diff_arrays(f"timeline.seconds[{kind}]", ta.seconds[kind],
                         tb.seconds[kind], problems)
    if ta.intervals_seen != tb.intervals_seen:
        problems.append(
            f"intervals_seen: {ta.intervals_seen} vs {tb.intervals_seen}"
        )
    for name in ("messages_seen", "spans_seen"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            problems.append(f"{name}: {va} vs {vb}")
    if set(a.skeletons) != set(b.skeletons):
        problems.append(
            f"skeleton keys: {sorted(a.skeletons)} vs {sorted(b.skeletons)}"
        )
    else:
        for key in sorted(a.skeletons):
            ga, gb = a.skeletons[key], b.skeletons[key]
            for fname in (
                "calls",
                "compute_seconds",
                "comm_seconds",
                "idle_seconds",
                "messages",
                "bytes_sent",
            ):
                va, vb = getattr(ga, fname), getattr(gb, fname)
                if va != vb:
                    problems.append(f"skeletons[{key}].{fname}: {va!r} vs {vb!r}")
            ha, hb = ga.durations, gb.durations
            if (ha.counts, ha.total, ha.count, ha.min, ha.max) != (
                hb.counts, hb.total, hb.count, hb.min, hb.max
            ):
                problems.append(f"skeletons[{key}].durations histogram differs")
    return problems


def compare_folds(a, b) -> list[str]:
    """Bitwise comparison of two machines' critical-path folds
    (:class:`repro.obs.analysis.PathFold`; the record-mode segment log
    is not compared)."""
    problems: list[str] = []
    for name in ("skeletons", "tags"):
        if getattr(a, name) != getattr(b, name):
            problems.append(
                f"fold {name}: {getattr(a, name)} vs {getattr(b, name)}")
    if not problems:
        for name in ("val", "state", "busy", "_since", "_waited"):
            _diff_arrays(f"fold.{name}", getattr(a, name).ravel(),
                         getattr(b, name).ravel(), problems)
    return problems


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _stats_tuple(stats):
    return (
        stats.messages,
        stats.bytes_sent,
        stats.hops_crossed,
        stats.comm_seconds,
        stats.idle_seconds,
        stats.compute_seconds,
        stats.skeleton_calls,
    )


def _compare_modes(m_rec: Machine, m_str: Machine, label: str) -> str | None:
    """Record machine vs stream machine, bitwise."""
    if not np.array_equal(m_rec.network.clocks, m_str.network.clocks):
        i = int(np.argmax(m_rec.network.clocks != m_str.network.clocks))
        return (
            f"clock mismatch ({label}): rank {i} "
            f"record={float(m_rec.network.clocks[i])!r} "
            f"stream={float(m_str.network.clocks[i])!r}"
        )
    if _stats_tuple(m_rec.stats) != _stats_tuple(m_str.stats):
        return (
            f"stats mismatch ({label}): record={_stats_tuple(m_rec.stats)} "
            f"stream={_stats_tuple(m_str.stats)}"
        )
    if m_rec.metrics is not None and m_str.metrics is not None:
        if m_rec.metrics.render_text() != m_str.metrics.render_text():
            return f"metrics exposition mismatch ({label})"
    problems = compare_observers(fold_recorded(m_rec), m_str.stream_obs)
    problems += compare_folds(m_rec.network.path, m_str.network.path)
    if problems:
        return f"aggregate mismatch ({label}): " + "; ".join(problems[:4])
    try:
        m_str.stream_obs.assert_bounded()
    except SkilError as exc:
        return f"stream accounting unbounded ({label}): {exc}"
    return None


def _machine_pair(p: int) -> tuple[Machine, Machine]:
    return (
        Machine(p, trace_level=2),
        Machine(p, trace_level=2, trace_mode="stream"),
    )


# ---------------------------------------------------------------------------
# trial families
# ---------------------------------------------------------------------------
def trial_stream_app(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A full skeleton application, recorded vs streamed."""
    app = rng.choice(["shpaths", "shpaths", "gauss"])
    if app == "shpaths":
        p = rng.choice([4, 4, 16, 16, 64])
        side = int(round(p**0.5))
        n = side * rng.randint(1, 2 if p == 64 else 3)
    else:
        p = rng.choice([4, 4, 16])
        n = p * rng.randint(2, 3)
    seed = rng.randrange(2**31)
    cov = {f"stream.app_{app}": 1, f"stream.p{p}": 1}

    def run(machine: Machine) -> None:
        ctx = SkilContext(machine)
        if app == "shpaths":
            from repro.apps.shortest_paths import (
                random_distance_matrix,
                shpaths,
            )

            shpaths(ctx, random_distance_matrix(n, density=0.3, seed=seed))
        else:
            from repro.apps.gauss import gauss_simple, random_system

            a_mat, rhs = random_system(n, seed=seed)
            gauss_simple(ctx, a_mat, rhs)

    m_rec, m_str = _machine_pair(p)
    with isolated_metrics():
        run(m_rec)
    with isolated_metrics():
        run(m_str)
    return _compare_modes(m_rec, m_str, f"{app} p={p} n={n}"), cov


def trial_stream_netops(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A random raw network op sequence, recorded vs streamed.

    Exercises the vectorized wave branches (``p2p_batch``, batched
    shifts, round-batched collectives) against their record-mode
    interval/record loops, plus scalar ops that go through the stream
    timeline's scalar ``add``.
    """
    p = rng.choice([4, 8, 16, 64])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    n_ops = rng.randint(1, 12)
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(
            ["compute", "p2p", "p2p_batch", "shift", "bcast", "reduce",
             "allreduce"]
        )
        if kind == "compute":
            ops.append(("compute", [rng.uniform(0.0, 1e-5) for _ in range(p)]))
        elif kind == "p2p":
            ops.append((
                "p2p", rng.randrange(p), rng.randrange(p),
                rng.choice([0, 1, rng.randint(1, 4096)]),
                rng.random() < 0.4,
            ))
        elif kind == "p2p_batch":
            k = rng.randint(1, 24)
            ops.append((
                "p2p_batch",
                [rng.randrange(p) for _ in range(k)],
                [rng.randrange(p) for _ in range(k)],
                [rng.choice([0, 1, rng.randint(1, 4096)]) for _ in range(k)],
                rng.random() < 0.4,
            ))
        elif kind == "shift":
            ranks = list(range(p))
            rng.shuffle(ranks)
            perm = ranks[: rng.randint(1, p)]
            pairs = list(zip(perm, perm[1:] + perm[:1]))
            ops.append(("shift", pairs, rng.randint(1, 2048),
                        rng.random() < 0.4))
        elif kind == "bcast":
            ops.append(("bcast", rng.randrange(p), rng.randint(1, 4096)))
        elif kind == "reduce":
            ops.append(("reduce", rng.randrange(p), rng.randint(1, 4096),
                        rng.choice([0.0, 1e-6])))
        else:
            ops.append(("allreduce", rng.randint(1, 4096),
                        rng.choice([0.0, 1e-6])))
    cov = {f"stream.net_{op[0]}": 1 for op in ops}
    cov[f"stream.p{p}"] = 1

    def run(machine: Machine) -> None:
        net = machine.network
        topo = machine.topology(distr)
        for op in ops:
            if op[0] == "compute":
                net.compute(np.asarray(op[1]))
            elif op[0] == "p2p":
                net.p2p(op[1], op[2], op[3], topo, sync=op[4], tag="sc-p2p")
            elif op[0] == "p2p_batch":
                net.p2p_batch(
                    np.asarray(op[1], dtype=np.int64),
                    np.asarray(op[2], dtype=np.int64),
                    np.asarray(op[3], dtype=np.int64),
                    topo, sync=op[4], tag="sc-batch",
                )
            elif op[0] == "shift":
                net.shift(op[1], op[2], topo, sync=op[3], tag="sc-shift")
            elif op[0] == "bcast":
                net.broadcast(op[1], op[2], topo, tag="sc-bcast")
            elif op[0] == "reduce":
                net.reduce(op[1], op[2], topo, combine_seconds=op[3],
                           tag="sc-reduce")
            else:
                net.allreduce(op[1], topo, combine_seconds=op[2])

    m_rec, m_str = _machine_pair(p)
    with isolated_metrics():
        run(m_rec)
    with isolated_metrics():
        run(m_str)
    label = f"netops p={p} distr={distr} ops={[o[0] for o in ops]}"
    return _compare_modes(m_rec, m_str, label), cov


def trial_stream_engine(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Engine workloads (dc / farm): intervals arrive via the scalar
    timeline API with the engine's t0 offset; spans close through the
    streaming tracer."""
    from repro.skeletons.functional import skil_fn as sf

    p = rng.choice([4, 8, 16])
    kind = rng.choice(["dc", "farm", "both"])
    n_items = rng.randint(8, 40)
    seed = rng.randrange(2**31)
    cov = {f"stream.engine_{kind}": 1, f"stream.p{p}": 1}

    def run(machine: Machine) -> None:
        ctx = SkilContext(machine)
        if rng_offset:
            machine.network.compute(1e-4)
        if kind in ("dc", "both"):
            is_trivial = sf(ops=1)(lambda pb: len(pb) <= 2)
            solve = sf(ops=1)(lambda pb: sum(pb))
            split = sf(ops=1)(
                lambda pb: [pb[: len(pb) // 2], pb[len(pb) // 2:]]
            )
            join = sf(ops=1)(lambda rs: sum(rs))
            ctx.divide_and_conquer(
                is_trivial, solve, split, join, list(range(n_items))
            )
        if kind in ("farm", "both"):
            worker = sf(ops=2)(lambda t: t * 2 + seed % 7)
            ctx.farm(worker, list(range(n_items)), size_of=lambda t: 1 + t % 3)

    rng_offset = rng.random() < 0.5
    m_rec, m_str = _machine_pair(p)
    with isolated_metrics():
        run(m_rec)
    with isolated_metrics():
        run(m_str)
    label = f"engine {kind} p={p} items={n_items}"
    return _compare_modes(m_rec, m_str, label), cov


_RUNNER = TrialRunner(
    "stream", (trial_stream_app, trial_stream_netops, trial_stream_engine), budget=120
)
run_stream, run_stream_raw = _RUNNER.run, _RUNNER.run_raw
