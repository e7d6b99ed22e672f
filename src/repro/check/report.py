"""Failure records and result summaries for the ``repro.check`` pillars.

Every pillar reports through the same two types so the CLI can print a
uniform summary and, for every failure, a **one-line replay command**
(the per-trial seed with ``--raw-seed``) plus, when the fuzzer produced
one, a minimized reproducer program.  :class:`TrialRunner` is the seeded
trial loop of every pillar whose trials are plain functions of a random
generator (``oracle``, ``diff``, ``charging``, ``trace``, ``backend``);
``fuzz`` keeps its own loop because it shrinks a failing program, and
``fusion`` because it attaches the failing source.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import isolated_metrics

__all__ = [
    "Failure",
    "CheckResult",
    "TrialRunner",
    "format_failure",
    "format_result",
]


@dataclass
class Failure:
    """One check failure, self-contained enough to replay."""

    pillar: str  #: the pillar's name on the ``repro.check`` command line
    seed: int  #: the per-trial seed that deterministically reproduces it
    title: str  #: one-line description of what went wrong
    detail: str = ""  #: the mismatch / traceback text
    reproducer: str = ""  #: minimized Skil source (fuzz pillar only)

    def replay_command(self) -> str:
        """The one-line shell command that replays the failure."""
        return (
            f"PYTHONPATH=src python -m repro.check {self.pillar} "
            f"--seed {self.seed} --budget 1 --raw-seed"
        )


@dataclass
class CheckResult:
    """Outcome of one pillar run."""

    pillar: str
    trials: int = 0
    failures: list[Failure] = field(default_factory=list)
    #: free-form coverage counters (skeleton -> number of trials, ...)
    coverage: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CheckResult") -> "CheckResult":
        self.trials += other.trials
        self.failures.extend(other.failures)
        for k, v in other.coverage.items():
            self.coverage[k] = self.coverage.get(k, 0) + v
        return self


@dataclass(frozen=True)
class TrialRunner:
    """Run the trial *families* of one pillar over per-trial seeds.

    A family takes a seeded ``random.Random`` and returns ``(failure
    text or None, coverage counters)``.  Trial seed *s* runs family
    ``s % len(families)`` under :func:`isolated_metrics`, so consecutive
    seeds interleave the families and a failure replays from its seed
    alone; an exception inside a trial is that trial's failure.
    """

    pillar: str
    families: tuple[Callable[[random.Random], tuple[str | None, dict[str, int]]], ...]
    budget: int  #: default number of trials of :meth:`run`

    def run(
        self,
        seed: int = 0,
        budget: int | None = None,
        time_budget: float | None = None,
        verbose: bool = False,
    ) -> CheckResult:
        """Run *budget* trials from base *seed*, fewer if *time_budget*
        wall-clock seconds run out first."""
        res = CheckResult(self.pillar)
        t0 = time.monotonic()
        for i in range(self.budget if budget is None else budget):
            if time_budget is not None and time.monotonic() - t0 > time_budget:
                break
            self._trial(seed * 1_000_003 + i, res, verbose)
        return res

    def run_raw(self, seed: int, budget: int = 1) -> CheckResult:
        """Replay exact per-trial seeds printed by a failure report."""
        res = CheckResult(self.pillar)
        for k in range(budget):
            self._trial(seed + k, res, False)
        return res

    def _trial(self, trial_seed: int, res: CheckResult, verbose: bool) -> None:
        fn = self.families[trial_seed % len(self.families)]
        res.trials += 1
        try:
            with isolated_metrics():
                msg, cov = fn(random.Random(trial_seed))
        except Exception:
            msg, cov = traceback.format_exc(limit=8), {}
        for k, v in cov.items():
            res.coverage[k] = res.coverage.get(k, 0) + v
        if msg is not None:
            res.failures.append(
                Failure(
                    pillar=self.pillar,
                    seed=trial_seed,
                    title=fn.__name__,
                    detail=msg,
                )
            )
            if verbose:
                print(f"{self.pillar} seed {trial_seed}: FAIL")


def format_failure(f: Failure) -> str:
    lines = [
        f"FAIL [{f.pillar}] seed={f.seed}: {f.title}",
        f"  replay: {f.replay_command()}",
    ]
    if f.detail:
        for ln in f.detail.strip().splitlines():
            lines.append(f"  | {ln}")
    if f.reproducer:
        lines.append("  minimized reproducer:")
        for ln in f.reproducer.strip().splitlines():
            lines.append(f"  > {ln}")
    return "\n".join(lines)


def format_result(res: CheckResult) -> str:
    status = "OK" if res.ok else f"{len(res.failures)} FAILURE(S)"
    lines = [f"[{res.pillar}] {res.trials} trial(s): {status}"]
    if res.coverage:
        cov = ", ".join(f"{k}={v}" for k, v in sorted(res.coverage.items()))
        lines.append(f"  coverage: {cov}")
    for f in res.failures:
        lines.append(format_failure(f))
    return "\n".join(lines)
