"""The happens-before DAG and critical-path checks of the ``trace``
pillar (the former ``dag`` pillar): invariants hold, corruption is
caught."""

import random

from repro.check.tracecheck import (
    _RUNNER,
    invariant_problems,
    run_trace,
    run_trace_raw,
)
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


class TestPillarRuns:
    def test_batch_is_green(self):
        res = run_trace(seed=0, budget=12)
        assert res.trials == 12
        assert res.failures == []
        families = ("trace.pattern", "trace.skeleton", "trace.app_",
                    "trace.engine_")
        for family in families:
            assert any(k.startswith(family) for k in res.coverage), family

    def test_raw_seed_replay_matches(self):
        seed = 5 * 1_000_003 + 3
        res = run_trace_raw(seed, budget=1)
        assert res.trials == 1 and res.failures == []

    def test_trials_are_deterministic(self):
        for family in _RUNNER.families:
            assert family(random.Random(42)) == family(random.Random(42))

    def test_time_budget_stops_early(self):
        res = run_trace(seed=0, budget=100000, time_budget=1.0)
        assert 0 < res.trials < 100000


class TestCorruptionIsCaught:
    def test_tampered_timeline_fails_invariants(self):
        import numpy as np

        from repro.machine.machine import DISTR_RING

        m = Machine(3, trace_level=2)
        ctx = SkilContext(m)
        a = ctx.array_create(1, (6,), (0,), (-1,), lambda ix: ix[0],
                             DISTR_RING, dtype=np.int64)
        ctx.array_broadcast_part(a, (0,))
        assert invariant_problems(m) == []
        # push an interval past the makespan: the DAG check must object
        m.timeline.add(0, "compute", m.time + 1.0, m.time + 2.0, "phantom")
        assert any("escapes" in p or "makespan" in p
                   for p in invariant_problems(m))
