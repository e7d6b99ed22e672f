"""DAG/critical-path invariant checker: the ``dag`` pillar.

Every traced run carries enough information to build its
happens-before DAG and extract the critical path
(:mod:`repro.obs.analysis`).  This pillar generates random traced
workloads — both raw collective patterns on the analytic network and
skeleton programs through the full language context — and asserts the
structural invariants that must hold for *any* run:

* the happens-before DAG is acyclic: every program edge moves forward
  in one rank's time, every message edge departs no later than it
  arrives;
* the critical path **tiles** ``[0, makespan]``: consecutive steps
  share their boundary bit-for-bit, the first starts at 0, the last
  ends at the makespan;
* the four-way attribution (compute / latency / bandwidth / idle)
  partitions every step and therefore sums to the makespan;
* the busy part of the path cannot exceed the makespan and the
  makespan cannot exceed the path's busy+idle total (the two-sided
  bound ``busy <= makespan <= busy + idle``);
* per-rank busy fractions stay in ``[0, 1]``.

Each trial runs under :func:`~repro.obs.metrics.isolated_metrics`, so
the process-global registry neither leaks observations into the host
(e.g. a test runner asserting on its own counters) nor between trials.
"""

from __future__ import annotations

import random

from repro.check.diffcheck import apply_network, generate_pattern, _obs_workload
from repro.check.report import TrialRunner
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.obs.analysis import invariant_problems
from repro.obs.metrics import isolated_metrics

__all__ = ["run_dag", "run_dag_raw", "trial_dag"]


def _pattern_machine(rng: random.Random) -> tuple[Machine, str]:
    """A random collective pattern run on a traced machine."""
    p = rng.choice([1, 2, 3, 4, 5, 8, 9, 16])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    machine = Machine(p, trace_level=2)
    topo = machine.topology(distr)
    ops = generate_pattern(rng, p, ring=True)
    apply_network(machine.network, topo, ops)
    return machine, f"pattern p={p} distr={distr} ops={[o[0] for o in ops]}"


def _skeleton_machine(rng: random.Random) -> tuple[Machine, str]:
    """A random skeleton workload on a traced machine."""
    seed = rng.randrange(2**31)
    _, machine = _obs_workload(seed, trace_level=2)
    return machine, f"skeleton workload seed={seed}"


def trial_dag(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    skeleton = rng.random() < 0.5
    with isolated_metrics():
        machine, label = (
            _skeleton_machine(rng) if skeleton else _pattern_machine(rng)
        )
        problems = invariant_problems(machine)
    cov = {"dag.skeleton" if skeleton else "dag.pattern": 1}
    if problems:
        shown = "\n  ".join(problems[:8])
        return f"{len(problems)} invariant violation(s) ({label}):\n  {shown}", cov
    return None, cov


_RUNNER = TrialRunner("dag", (trial_dag,), budget=60)
run_dag, run_dag_raw = _RUNNER.run, _RUNNER.run_raw
