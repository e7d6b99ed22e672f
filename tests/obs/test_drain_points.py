"""Where the Network's wave log drains changes no byte and no value.

A traced Network logs every charged wave once and its sinks drain the
log in batches (``repro.machine.trace.WaveLog``).  Draining after every
wave, at random waves or only when a reader asks must give the same
trace files (the goldens of ``test_trace_bytes.py``) and the same
records, timeline, stream aggregates, metrics and critical-path fold;
and every public reader, read mid-run, must see what a run that drains
after every wave would show it at that point.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.check.tracecheck import DRAINS, compare_drains, compare_folds, drain_at
from repro.errors import SkilError
from repro.machine.costmodel import T800_PARSYTEC
from repro.machine.machine import Machine
from repro.machine.network import Network
from repro.machine.topology import DefaultMapping, Mesh2D
from repro.machine.trace import LOG_BUDGET, TraceStats, WaveLog
from repro.obs import analyze_machine, write_chrome_trace
from repro.obs import stream as stream_mod
from repro.obs import timeline as timeline_mod
from repro.obs.analysis import PathFold
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import ProgressReporter
from repro.obs.timeline import Timeline
from repro.skeletons import SkilContext
from tests.obs.test_trace_bytes import GOLDEN, _machine, _sha

CASES = ["shpaths-p16", "engine-p4"]


def _drain(monkeypatch, where: str) -> None:
    """Every wave log made from now on drains *where* (:data:`DRAINS`)."""
    rng, init = random.Random(5), WaveLog.__init__

    def init_at(self, sinks):
        init(self, sinks)
        drain_at(self, where, rng)

    monkeypatch.setattr(WaveLog, "__init__", init_at)


def _runs(case: str, tmp, tag: str) -> tuple[Machine, Machine]:
    """*case* recorded, and streamed with its spill closed."""
    spill = os.path.join(tmp, f"{case}-{tag}.jsonl")
    with _machine(case, "stream", spill=spill) as st:
        pass
    return _machine(case, "record"), st


@pytest.mark.parametrize("where", DRAINS)
@pytest.mark.parametrize("case", CASES)
def test_where_the_log_drains_changes_no_byte(case, where, tmp_path, monkeypatch):
    rec, st = _runs(case, tmp_path, "default")
    _drain(monkeypatch, where)
    rec_at, st_at = _runs(case, tmp_path, where)
    export = os.path.join(tmp_path, "export.json")
    write_chrome_trace(export, rec_at)
    assert _sha(export) == GOLDEN[f"export/{case}"]
    assert _sha(st_at.stream_obs.spill.path) == GOLDEN[f"spill/{case}"]
    assert compare_drains(rec, rec_at) == []
    assert compare_drains(st, st_at) == []


# ---------------------------------------------------------------- mid-run
def _fold(fold) -> tuple:
    state = fold.state.tobytes()  # a reader: drains first
    return fold.val.tobytes(), state, fold.busy_seconds().tobytes()


def _busy(fold, net) -> bytes:
    return fold.busy_seconds().tobytes()


def _steps(fold, net) -> list:
    """A record-mode fold's steps of rank 0, to the makespan."""
    return fold.steps(0, net.time)


def _readers(m: Machine, tmp) -> tuple:
    """What every public reader of *m* shows now (the heartbeat line
    without its wall clock); the fold's busy seconds first, so they
    drain on their own."""
    common = (m.network.path.busy_seconds().tobytes(), m.metrics.snapshot(),
              _fold(m.network.path), analyze_machine(m).snapshot(),
              ProgressReporter(m).format_line().split(" ", 1)[1])
    if m.stream_obs is not None:
        acc = m.stream_obs.assert_bounded()
        del acc["log_pending"]  # how much the log held, not what it holds
        return common + (acc,)
    cols = m.timeline.columns()
    path = os.path.join(tmp, "mid.json")
    write_chrome_trace(path, m)
    return common + (list(m.stats.records), [c.tobytes() for c in cols[:4]], cols[4],
                     len(m.timeline.intervals), _sha(path))


def _read_in_skeletons(mode: str, tmp) -> list[tuple]:
    """Shortest paths at p = 16, its readers read whenever a phase
    opens inside a skeleton."""
    m = Machine(16, trace_level=2, trace_mode=mode)
    reads, begin = [], m.tracer.begin

    def begin_and_read(name, category="skeleton"):
        span = begin(name, category)
        if category == "phase" and m.tracer.innermost_skeleton() is not None:
            reads.append(_readers(m, tmp))
        return span

    m.tracer.begin = begin_and_read
    shpaths(SkilContext(m), random_distance_matrix(16, density=0.25, seed=0))
    reads.append(_readers(m, tmp))
    return reads


@pytest.mark.parametrize("mode", ["record", "stream"])
def test_readers_inside_a_skeleton_see_every_wave(mode, tmp_path, monkeypatch):
    reads = _read_in_skeletons(mode, tmp_path)
    _drain(monkeypatch, "wave")
    assert len(reads) > 10
    assert reads == _read_in_skeletons(mode, tmp_path)


def _bare(where: str | None):
    """A traced Network with no machine: stats records, metrics, a
    timeline and the fold attached by hand."""
    net = Network(T800_PARSYTEC, 16, TraceStats(keep_records=True))
    net.attach(MetricsRegistry(), Timeline(), PathFold(16, T800_PARSYTEC, record=True))
    if where is not None:
        drain_at(net.log, where, random.Random(1))
    return net, DefaultMapping(Mesh2D.for_processors(16))


def test_readers_between_charges_on_a_bare_network():
    """Each reader drains on its own: the fold's busy seconds and steps
    are each read first once."""
    def run(where, fold_readers):
        net, topo = _bare(where)
        reads = []
        for charge in (lambda: net.broadcast(3, 512, topo),
                       lambda: net.compute(np.linspace(1e-4, 2e-4, 16)),
                       lambda: net.shift_batch(np.arange(16), (np.arange(16) + 5) % 16,
                                               256, topo, sync=True),
                       lambda: net.gather(0, 64, topo)):
            charge()
            fold = [read(net.path, net) for read in fold_readers]
            cols = net.timeline.columns()
            reads.append((fold, list(net.stats.records), [c.tobytes() for c in cols[:4]],
                          cols[4], net.metrics.snapshot(), _fold(net.path)))
        return net, reads

    for fold_readers in ((_busy, _steps), (_steps, _busy)):
        net, reads = run(None, fold_readers)
        ref, per_wave = run("wave", fold_readers)
        assert reads == per_wave
        assert compare_folds(net.path, ref.path) == []


def test_stream_accounting_counts_what_the_log_holds():
    """``assert_bounded`` holds the log's pending elements to its
    budget: a log that never drains on its own breaks it."""
    def run(where):
        m = Machine(64, trace_level=2, trace_mode="stream")
        if where is not None:
            drain_at(m.network.log, where, random.Random(0))
        shpaths(SkilContext(m), random_distance_matrix(64, density=0.25, seed=0))
        return m

    m = run(None)
    assert m.stream_obs.assert_bounded()["log_pending"] <= LOG_BUDGET
    with pytest.raises(SkilError, match="wave log held"):
        run("end").stream_obs.assert_bounded()


@pytest.mark.parametrize("case", CASES)
def test_a_stream_without_a_spill_logs_no_interval_lanes(case, monkeypatch):
    """Only a sink that keeps or writes intervals asks for lanes: a
    streamed run without a spill logs none and derives none, and its
    fold, metrics and analysis still equal the recording's."""
    rec = _machine(case, "record")
    rec.network.log.drain()  # its timeline's intervals, before they are refused
    lanes, append = [], WaveLog.append

    def logged(self, entry, size=1):
        lanes.append(entry[1])
        append(self, entry, size)

    def refused(entries):
        raise AssertionError("intervals derived for no sink")

    monkeypatch.setattr(WaveLog, "append", logged)
    for module in (stream_mod, timeline_mod):
        monkeypatch.setattr(module, "batch_intervals", refused)
    st = _machine(case, "stream")
    assert lanes and all(lane is None for lane in lanes)
    assert compare_folds(rec.network.path, st.network.path) == []
    assert rec.metrics.snapshot() == st.metrics.snapshot()
    assert analyze_machine(rec).snapshot() == analyze_machine(st).snapshot()
