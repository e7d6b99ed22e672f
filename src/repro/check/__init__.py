"""Conformance and differential-testing subsystem (``python -m repro.check``).

Eight pillars, each seeded and replayable (the table is
``repro.check.__main__.PILLARS``); the three the subsystem started from:

* :mod:`repro.check.fuzz` — grammar-driven generator of well-typed Skil
  programs, round-tripped through parse → typecheck → instantiate →
  codegen → exec and compared against a direct AST interpreter
  (:mod:`repro.check.interp`), with shrinking to minimal reproducers;
* :mod:`repro.check.oracle` — sequential reference implementations of
  every public skeleton, checked against the distributed versions over
  randomized shapes, distributions, topologies and processor counts;
* :mod:`repro.check.diffcheck` — the analytic ``Network`` clocks versus
  the message-granularity ``Engine`` on random communication patterns,
  plus structural consistency of the ``repro.obs`` traces.

See ``docs/TESTING.md`` for the other five (``dag``, ``charging``,
``stream``, ``backend``, ``fusion``) and the seed-reproduction workflow.
"""

from repro.check.backendcheck import run_backend
from repro.check.charging import run_charging
from repro.check.diffcheck import run_diff
from repro.check.fuzz import run_fuzz
from repro.check.interp import Interp, InterpUnsupported
from repro.check.oracle import run_oracle
from repro.check.report import CheckResult, Failure, format_failure, format_result
from repro.check.streamcheck import run_stream

__all__ = [
    "run_fuzz",
    "run_oracle",
    "run_diff",
    "run_charging",
    "run_stream",
    "run_backend",
    "Interp",
    "InterpUnsupported",
    "CheckResult",
    "Failure",
    "format_failure",
    "format_result",
]
