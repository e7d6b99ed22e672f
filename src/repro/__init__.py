"""Reproduction of *Skil: An Imperative Language with Algorithmic Skeletons
for Efficient Distributed Programming* (Botorog & Kuchen, HPDC 1996).

Public API overview
-------------------

``repro.machine``
    The simulated distributed-memory machine (topologies, cost model,
    message-level engine) substituting the paper's transputer testbed.
``repro.arrays``
    The ``pardata array<$t>`` distributed data structure.
``repro.skeletons``
    The paper's skeleton library (map, fold, copy, broadcast_part,
    permute_rows, gen_mult, ...) plus the extensions flagged as future
    work.
``repro.lang``
    A working Skil compiler front end: lexer, parser, polymorphic type
    checker and *translation by instantiation*, generating executable
    Python kernels.
``repro.apps``
    Shortest paths, Gaussian elimination, matrix multiplication and a
    divide&conquer quicksort, written against the skeletons.
``repro.baselines``
    The DPFL (functional) and Parix-C (hand-written message passing)
    comparators of the evaluation section.
``repro.eval``
    The harness regenerating Table 1, Table 2 and Figure 1.
"""

from repro._version import __version__
from repro.errors import (
    DeadlockError,
    DistributionError,
    InstantiationError,
    LocalityError,
    MachineError,
    SkeletonError,
    SkilError,
    SkilRuntimeError,
    SkilSyntaxError,
    SkilTypeError,
    TopologyError,
)
from repro.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    DPFL,
    PARIX_C,
    PARIX_C_OLD,
    SKIL,
    SKIL_CLOSURES,
    CostModel,
    LanguageProfile,
    Machine,
)

__all__ = [
    "__version__",
    "Machine",
    "CostModel",
    "LanguageProfile",
    "SKIL",
    "SKIL_CLOSURES",
    "DPFL",
    "PARIX_C",
    "PARIX_C_OLD",
    "DISTR_DEFAULT",
    "DISTR_RING",
    "DISTR_TORUS2D",
    "SkilError",
    "MachineError",
    "TopologyError",
    "DeadlockError",
    "DistributionError",
    "LocalityError",
    "SkeletonError",
    "SkilSyntaxError",
    "SkilTypeError",
    "InstantiationError",
    "SkilRuntimeError",
]
