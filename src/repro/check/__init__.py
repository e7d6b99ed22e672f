"""Conformance and differential-testing subsystem (``python -m repro.check``).

Seven pillars, each seeded and replayable (the table is
``repro.check.__main__.PILLARS``, in the order ``all`` runs them):

* :mod:`repro.check.fuzz` — grammar-driven generator of well-typed Skil
  programs, round-tripped through parse → typecheck → instantiate →
  codegen → exec and compared against a direct AST interpreter
  (:mod:`repro.check.interp`), with shrinking to minimal reproducers;
* :mod:`repro.check.oracle` — sequential reference implementations of
  every public skeleton, checked against the distributed versions over
  randomized shapes, distributions, topologies and processor counts;
* :mod:`repro.check.diffcheck` — the analytic ``Network`` clocks versus
  the message-granularity ``Engine`` on random communication patterns;
* :mod:`repro.check.charging` — planned ``Network`` charging versus the
  scalar loops it replaced, bitwise;
* :mod:`repro.check.tracecheck` — one workload run untraced, recorded
  and streamed: tracing moves no clock, the happens-before DAG and the
  critical-path fold hold, record and stream agree bitwise;
* :mod:`repro.check.backendcheck` — the ``sim`` and ``threads`` backends
  bit-identical;
* :mod:`repro.check.fusioncheck` — compiler fusion leaves values and
  clocks equal.

All but two run on :class:`~repro.check.report.TrialRunner`: ``fuzz``
keeps its own loop because it shrinks a failing program, ``fusion``
because it attaches the failing source.  See ``docs/TESTING.md`` for
the checks and the seed-reproduction workflow.
"""

from repro.check.backendcheck import run_backend
from repro.check.charging import run_charging
from repro.check.diffcheck import run_diff
from repro.check.fuzz import run_fuzz
from repro.check.interp import Interp, InterpUnsupported
from repro.check.oracle import run_oracle
from repro.check.report import CheckResult, Failure, format_failure, format_result
from repro.check.tracecheck import run_trace

__all__ = [
    "run_fuzz",
    "run_oracle",
    "run_diff",
    "run_charging",
    "run_trace",
    "run_backend",
    "Interp",
    "InterpUnsupported",
    "CheckResult",
    "Failure",
    "format_failure",
    "format_result",
]
