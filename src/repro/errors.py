"""Exception hierarchy for the Skil reproduction.

All library-raised exceptions derive from :class:`SkilError` so callers can
catch everything coming out of the package with one ``except`` clause while
still being able to distinguish subsystems.
"""

from __future__ import annotations


class SkilError(Exception):
    """Base class of every exception raised by this package."""


class UsageError(SkilError):
    """Invalid command-line usage (e.g. a nonpositive ``--p``/``--workers``).

    The CLI entry points catch this and print the message without a
    traceback, exiting with argparse's conventional status 2.
    """


class MachineError(SkilError):
    """Errors in the simulated machine (bad rank, bad topology, ...)."""


class MemoryLimitError(MachineError):
    """A node exceeded its configured memory capacity (1 MB on the T800)."""


class TopologyError(MachineError):
    """Invalid topology construction or addressing."""


class DeadlockError(MachineError):
    """The event-driven engine detected that no process can make progress."""


class BackendError(MachineError):
    """An execution backend could not be selected or configured.

    Raised by backend selection (``Machine(backend=...)``,
    ``REPRO_BACKEND``, ``--backend``) for an unknown name or the removed
    ``mp`` backend, and for a ``REPRO_WORKERS`` value that is not a
    positive integer — the message names the variable and the value.
    """


class DistributionError(SkilError):
    """Invalid distribution parameters for a distributed array."""


class LocalityError(SkilError):
    """A non-local element access through ``array_get_elem``/``put_elem``.

    The paper restricts these macros to the partition placed on the current
    processor; any other index is a programming error, not a communication
    request.
    """


class SkeletonError(SkilError):
    """Invalid skeleton invocation (aliased arrays for gen_mult, non
    bijective permutation functions, shape mismatches, ...)."""


class SkilSyntaxError(SkilError):
    """Lexical or syntactic error in Skil source code."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class SkilTypeError(SkilError):
    """Polymorphic type-checking failure in Skil source code."""


class InstantiationError(SkilError):
    """Translation-by-instantiation failed (e.g. the restricted class of
    recursively-defined higher-order functions mentioned in the paper)."""


class SkilRuntimeError(SkilError):
    """Run-time error raised by executing a compiled Skil program
    (e.g. the ``error()`` builtin, or a singular matrix in gauss)."""
