"""One pass over a workload's op list, and the determinism guard."""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass
from time import perf_counter

from bench.env import Op
from bench.spans import Recorder


@dataclass
class Outcome:
    ok: bool
    wall: float
    cpu: float
    sim_s: float | None
    counts: dict
    error: str | None = None

    @property
    def signature(self):
        return (self.ok, self.sim_s, sorted(self.counts.items()))


@dataclass
class Pass:
    wall: float
    cpu: float
    outcomes: dict[str, Outcome]

    def failed(self) -> list[str]:
        return [i for i, o in self.outcomes.items() if not o.ok]


def cpu_now() -> float:
    """Process CPU seconds: user + system, this process and its children."""
    a = resource.getrusage(resource.RUSAGE_SELF)
    b = resource.getrusage(resource.RUSAGE_CHILDREN)
    return a.ru_utime + a.ru_stime + b.ru_utime + b.ru_stime


def run_pass(ops: list[Op], rec: Recorder | None = None) -> Pass:
    """Run every op once.  An op that raises, or whose value check fails,
    is failed and contributes no time; nothing is raised past the op."""
    wall = cpu = 0.0
    outcomes: dict[str, Outcome] = {}
    for op in ops:
        root = None
        if rec is not None:
            rec.op = op.id
            root = rec.begin("bench", op.id)
        res = error = None
        c0 = cpu_now()
        t0 = perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # the op boundary must keep the pass running
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        c1 = cpu_now()
        if rec is not None:
            rec.end(root)
            rec.op = None
        if error is None and op.check is not None:
            try:
                if not op.check(res):
                    error = "value differs from the reference"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            if not op.trace_only:
                wall += t1 - t0
                cpu += c1 - c0
            outcomes[op.id] = Outcome(True, t1 - t0, c1 - c0, res.sim_s, res.counts)
        else:
            outcomes[op.id] = Outcome(False, t1 - t0, c1 - c0, None, {}, error)
    return Pass(wall, cpu, outcomes)


def best(ops: list[Op], passes: list[Pass], clock: str) -> dict[str, float]:
    """Each op's least time over the passes in which it succeeded."""
    out = {}
    for op in ops:
        times = [getattr(p.outcomes[op.id], clock) for p in passes
                 if p.outcomes[op.id].ok]
        if times:
            out[op.id] = min(times)
    return out


def guard(first: Pass, later: Pass, what: str) -> None:
    """Same inputs, same program: every simulated second and count repeats."""
    for op_id, o in later.outcomes.items():
        base = first.outcomes.get(op_id)
        if base is not None and base.signature != o.signature:
            print(f"determinism guard: op {op_id!r} differs in {what}:\n"
                  f"  first {base.signature}\n  now   {o.signature}",
                  file=sys.stderr)
            raise SystemExit(3)
