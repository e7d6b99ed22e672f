"""The charge seam is complete and sufficient (ROADMAP item 4, step 1).

*Complete*: nothing in the skeletons, the apps or the hand-written C
comparators prices work or advances a clock itself — they only state
work to :class:`repro.machine.charge.Charge`.  *Sufficient*: the
sequence of statements a program makes does not depend on the profile,
and replaying one profile's sequence under another reproduces that
profile's clocks bit for bit — the precondition of item 4's cost tape
("the tape is the seam's argument sequence, kept"), without the tape.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.apps.matmul import matmul
from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.machine.charge import Charge
from repro.machine.costmodel import DPFL, SKIL, SKIL_CLOSURES
from repro.machine.machine import Machine
from repro.machine.topology import VirtualTopology
from repro.skeletons import SkilContext

from ..eval.test_golden_sim import DIRECT

SRC = Path(repro.__file__).parent

# ------------------------------------------------------------------ structural
#: every public ``Network`` method that moves a clock
CHARGING = {
    "compute", "compute_at", "p2p", "p2p_batch", "shift", "shift_batch",
    "broadcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "alltoall", "barrier", "balance_compute",
}
#: the ``LanguageProfile`` / ``CostModel`` fields that turn work into seconds
PRICING = {
    "t_mem", "comm_byte_factor", "copy_on_update", "async_comm",
    "skeleton_overhead", "elem_factor", "call_cost", "closure_cost",
}
#: ``(file, function)`` sites allowed to charge outside the seam.
#: ``_frontend_rank`` models the *front end* touching one distributed
#: element between skeleton calls: it has an array but no context, hence
#: no profile and no ``Charge`` to state the message to.
ALLOWED = {("lang/runtime.py", "_frontend_rank")}

SCANNED = [
    *sorted((SRC / "skeletons").glob("*.py")),
    *sorted((SRC / "baselines").glob("*.py")),
    *sorted((SRC / "apps").glob("*.py")),
    SRC / "lang" / "runtime.py",
]


def _through_seam(receiver: ast.expr) -> bool:
    """``charge.<op>(...)`` or ``<anything>.charge.<op>(...)``."""
    name = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", "")
    return name == "charge"


def _breaches(path: Path):
    """``(site, line, what)`` for every charge call and pricing read."""
    rel = path.relative_to(SRC).as_posix()
    for top in ast.parse(path.read_text()).body:
        site = (rel, getattr(top, "name", "<module>"))
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in PRICING:
                yield site, node.lineno, f"reads .{node.attr}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CHARGING
                and not _through_seam(node.func.value)
            ):
                yield site, node.lineno, f"calls .{node.func.attr}()"


def test_nothing_outside_the_seam_charges_or_prices():
    found = [b for path in SCANNED for b in _breaches(path)]
    outside = [f"{s[0]}:{line} {s[1]} {what}" for s, line, what in found if s not in ALLOWED]
    assert not outside, "\n".join(outside)
    # the allow-list names only sites that still need it
    assert {s for s, _, _ in found} == ALLOWED


# -------------------------------------------------------------------- semantic
class Recording:
    """Logs every statement made to a ``Charge``, then passes it on."""

    def __init__(self, charge: Charge, log: list):
        self._charge, self._log = charge, log

    def __getattr__(self, op):
        target = getattr(self._charge, op)
        if op == "elem_time":  # the pure pricing function: states nothing
            return target

        def stated(*args, **kwargs):
            self._log.append((op, _plain(args), _plain(kwargs)))
            return target(*args, **kwargs)

        return stated


def _plain(x):
    """*x* as plain Python values: comparable with ``==``, machine-free."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.tolist())
    if isinstance(x, VirtualTopology):
        return ("topology", x.distr_name)
    if isinstance(x, (tuple, list)):
        return tuple(_plain(v) for v in x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def _revive(x, machine: Machine):
    """Inverse of :func:`_plain`, over *machine*'s topologies."""
    if isinstance(x, tuple) and x[:1] == ("ndarray",):
        return np.array(x[2], dtype=x[1])
    if isinstance(x, tuple) and x[:1] == ("topology",):
        return machine.topology(x[1])
    if isinstance(x, tuple):
        return tuple(_revive(v, machine) for v in x)
    if isinstance(x, dict):
        return {k: _revive(v, machine) for k, v in x.items()}
    return x


def _shpaths(ctx):
    shpaths(ctx, random_distance_matrix(16, density=0.25, seed=0))


def _gauss_simple(ctx):
    gauss_simple(ctx, *random_system(16, seed=0))


def _gauss_full(ctx):  # the pivot rows, hence the messages, depend on the data
    gauss_full(ctx, *random_system(16, seed=0))


def _matmul(ctx):
    rng = np.random.default_rng(0)
    matmul(ctx, rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (16, 16)))


#: ``farm`` and ``divide_and_conquer`` are left out by name: they run on
#: the event engine, which books its events into the Network itself, so
#: the seam hears only their invocation and a replay has no clocks to
#: reproduce
PROGRAMS = {
    "shpaths": _shpaths,
    "gauss_simple": _gauss_simple,
    "gauss_full": _gauss_full,
    "matmul": _matmul,
    **{k: v for k, v in DIRECT.items() if k not in ("farm", "divide_and_conquer")},
}


def _record(program: str, profile):
    ctx = SkilContext(Machine(4), profile)
    log: list = []
    ctx.charge = Recording(ctx.charge, log)
    PROGRAMS[program](ctx)
    return log, ctx.machine


def _replay(log, profile) -> Machine:
    machine = Machine(4)
    charge = Charge(machine, profile)
    for op, args, kwargs in log:
        getattr(charge, op)(*_revive(args, machine), **_revive(kwargs, machine))
    return machine


@pytest.mark.parametrize("program", PROGRAMS)
def test_statements_are_profile_independent_and_sufficient(program):
    skil_log, _ = _record(program, SKIL)
    closures_log, _ = _record(program, SKIL_CLOSURES)
    dpfl_log, direct = _record(program, DPFL)
    assert skil_log, "the program stated nothing"
    assert skil_log == closures_log == dpfl_log

    replayed = _replay(skil_log, DPFL)
    assert np.array_equal(replayed.network.clocks, direct.network.clocks)
    assert replayed.stats.messages == direct.stats.messages
    assert replayed.stats.bytes_sent == direct.stats.bytes_sent


def test_no_module_names_the_escape_hatch():
    """``Charge.priced`` advanced every clock by seconds already priced;
    nothing charges that way since the event engine books into the
    Network, so no ``src/`` module names it."""
    assert not hasattr(Charge, "priced")
    named = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "priced" in (getattr(node, k, None) for k in ("attr", "name", "id", "arg"))
    )
    assert named == []
