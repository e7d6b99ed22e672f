"""Simulated distributed-memory machine (the paper's Parsytec/Parix substrate).

See DESIGN.md §2 for why and how the hardware is simulated.
"""

from repro.machine.backend import (
    BACKENDS,
    ExecBackend,
    SimBackend,
    ThreadsBackend,
    backend_default,
    make_backend,
    set_backend_default,
)
from repro.machine.costmodel import (
    DPFL,
    PARIX_C,
    PARIX_C_OLD,
    PROFILES,
    SKIL,
    SKIL_CLOSURES,
    T800_PARSYTEC,
    CostModel,
    LanguageProfile,
)
from repro.machine.engine import Compute, Engine, ISend, Recv, Send, run_spmd
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.network import Network
from repro.machine.topology import (
    BinomialTree,
    DefaultMapping,
    Mesh2D,
    Ring,
    Torus2D,
    VirtualTopology,
    square_grid,
)
from repro.machine.trace import MessageRecord, TraceStats

__all__ = [
    "BACKENDS",
    "ExecBackend",
    "SimBackend",
    "ThreadsBackend",
    "make_backend",
    "backend_default",
    "set_backend_default",
    "CostModel",
    "LanguageProfile",
    "T800_PARSYTEC",
    "PARIX_C",
    "PARIX_C_OLD",
    "SKIL",
    "SKIL_CLOSURES",
    "DPFL",
    "PROFILES",
    "Machine",
    "Network",
    "TraceStats",
    "MessageRecord",
    "Mesh2D",
    "VirtualTopology",
    "DefaultMapping",
    "Ring",
    "Torus2D",
    "BinomialTree",
    "square_grid",
    "Engine",
    "run_spmd",
    "Compute",
    "Send",
    "ISend",
    "Recv",
    "DISTR_DEFAULT",
    "DISTR_RING",
    "DISTR_TORUS2D",
]
