"""The ``trace`` pillar catches a fault in each of its check groups with
a replay line that fails again, every ``TrialRunner`` pillar's raw-seed
replay runs the trial that failed, and the fold agrees with the walk on
the shifts the merged generator draws."""

import random

import numpy as np
import pytest

from repro.check.__main__ import PILLARS, main
from repro.check.diffcheck import generate_pattern
from repro.check.tracecheck import invariant_problems, watch_charges
from repro.machine.machine import DISTR_TORUS2D, Machine
from repro.obs.analysis import analyze_machine
from repro.skeletons import SkilContext


def _fails_again(pillar: str, seed: int, capsys) -> str:
    """Run one raw-seed trial that must fail, then its printed replay
    line through the CLI; returns the replayed output."""
    res = PILLARS[pillar][1](seed, 1)
    assert len(res.failures) == 1, res
    failure = res.failures[0]
    argv = failure.replay_command().split(" -m repro.check ")[1].split()
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert f"FAIL [{pillar}] seed={seed}: {failure.title}" in out, out
    return out


class TestReplayRunsTheFailingTrial:
    def test_oracle(self, monkeypatch, capsys):
        from repro.check.oracle import ORACLE_TRIALS

        monkeypatch.setitem(ORACLE_TRIALS, "farm", lambda rng: "injected")
        # trial seed 12 is the farm trial (the 13th of the table)
        assert "injected" in _fails_again("oracle", 12, capsys)

    def test_diff(self, monkeypatch, capsys):
        from repro.machine.engine import Engine

        run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda self: run(self) + 1.0)
        assert "makespan mismatch" in _fails_again("diff", 3_000_009, capsys)


class TestTracePillarCatchesFaults:
    """Seed 1 is a skeleton trial, seed 0 a pattern trial."""

    def test_interval_past_the_makespan(self, monkeypatch, capsys):
        from repro.obs.timeline import Timeline

        add_many = Timeline.add_many

        def with_phantom(self, ranks, kind, starts, ends, detail=""):
            add_many(self, ranks, kind, starts, ends, detail)
            self.add(0, "compute", 1e3, 1e3 + 1.0, "phantom")

        monkeypatch.setattr(Timeline, "add_many", with_phantom)
        assert "escapes" in _fails_again("trace", 1, capsys)

    def test_perturbed_stream_aggregate(self, monkeypatch, capsys):
        from repro.obs.stream import StreamTimeline

        add_lanes = StreamTimeline.add_lanes

        def miscounted(self, lanes, detail=""):
            add_lanes(self, lanes, detail)
            self.intervals_seen += 1

        monkeypatch.setattr(StreamTimeline, "add_lanes", miscounted)
        assert "intervals_seen" in _fails_again("trace", 1, capsys)

    def test_clock_moved_by_tracing(self, monkeypatch, capsys):
        from repro.machine.network import Network

        work = Network._work  # the emission of traced compute only

        def emitting_moves_the_clock(self, ranks, starts, ends, detail=""):
            work(self, ranks, starts, ends, detail)
            self.clocks[0] += 1e-9

        monkeypatch.setattr(Network, "_work", emitting_moves_the_clock)
        assert "tracing moved a clock" in _fails_again("trace", 1, capsys)


class TestFoldEqualsWalkOnShifts:
    def test_rendezvous_second_transfer(self):
        """A rank that both sends and receives in a rendezvous shift
        pays a second transfer: the timeline covers it and the fold
        books it where the walk does."""
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]

        def run(machine):
            net, topo = machine.network, machine.topology(DISTR_TORUS2D)
            net.shift(pairs, 195, topo, sync=True)
            net.shift(pairs, 1185, topo, sync=False)
            net.reduce(0, 1551, topo, combine_seconds=0.0)

        untraced, m = Machine(4), Machine(4, trace_level=2)
        labels = watch_charges(m)
        run(untraced)
        run(m)
        assert invariant_problems(m, labels) == []
        assert np.array_equal(untraced.network.clocks, m.network.clocks)
        assert (untraced.stats.comm_seconds, untraced.stats.idle_seconds) == (
            m.stats.comm_seconds, m.stats.idle_seconds)
        serial = [iv for iv in m.timeline.for_rank(2)
                  if iv.kind == "send" and iv.start == 0.00055]
        assert len(serial) == 1 and serial[0].end == pytest.approx(0.00095)

    @pytest.mark.parametrize("sync", [False, True])
    def test_shift_to_oneself(self, sync):
        m = Machine(2, trace_level=2)
        labels = watch_charges(m)
        net, topo = m.network, m.topology(DISTR_TORUS2D)
        net.compute(np.array([1e-5, 2e-5]))
        net.shift([(0, 0)], 100, topo, sync=sync)
        assert invariant_problems(m, labels) == []

    def test_wide_patterns_draw_rendezvous_shifts(self):
        ops = [op for s in range(20)
               for op in generate_pattern(random.Random(s), 8, True, wide=True)]
        assert any(op[0] == "pairs" and op[-1] for op in ops)
        assert {"p2p_batch", "pairs"} <= {op[0] for op in ops}


def _square(t):
    return t * t


def _farm(ctx):
    ctx.farm(_square, list(range(23)), size_of=lambda t: 1 + t % 4)


def _dc(ctx):
    ctx.divide_and_conquer(lambda v: len(v) <= 2, sum,
                           lambda v: [v[: len(v) // 2], v[len(v) // 2:]], sum,
                           list(range(40)))


def _farm_after_work(ctx):
    ctx.machine.network.compute(1e-4)
    _farm(ctx)


@pytest.mark.parametrize("run", [_farm, _dc, _farm_after_work],
                         ids=["farm", "dc", "farm-after-work"])
def test_farm_compute_intervals_are_disjoint_and_bounded(run):
    """The engine's events are booked once: per rank, compute intervals
    are disjoint and lie inside the run, and the stats hold no more
    compute than p * makespan."""
    m = Machine(4, trace_level=2)
    run(SkilContext(m))
    for r in range(4):
        ivs = sorted((iv.start, iv.end) for iv in m.timeline.for_rank(r)
                     if iv.kind == "compute")
        assert all(b[0] >= a[1] for a, b in zip(ivs, ivs[1:])), r
        assert all(0.0 <= a and b <= m.time for a, b in ivs), r
    assert m.stats.compute_seconds <= 4 * m.time


def test_farm_path_names_the_masters_messages():
    """The master computes nothing but its invocation overhead, and the
    critical path through a farm crosses its sends and transfers."""
    m = Machine(4, trace_level=2)
    ctx = SkilContext(m)
    _farm(ctx)
    master = [(iv.start, iv.end) for iv in m.timeline.for_rank(0)
              if iv.kind == "compute"]
    assert master == [(0.0, ctx.profile.skeleton_overhead)]
    analysis = analyze_machine(m)
    assert {"send", "transfer"} <= {s.kind for s in analysis.path.steps}
    assert analysis.components["compute"] < 0.5 * m.time
