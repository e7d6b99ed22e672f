"""``Machine.reset()`` must also reset backend worker state.

Back-to-back trials in one process must be deterministic on every
backend, traced (wall stamps on) or not.  These sit alongside the
reset-in-place tests in ``tests/obs/test_machine_tracing.py``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.machine.machine import Machine
from repro.skeletons import PLUS, SkilContext
from repro.skeletons.functional import skil_fn

BACKENDS = ["sim", "threads"]


def _trial(ctx: SkilContext):
    init = skil_fn(ops=1, vectorized=lambda g, e: (g[0] * 3 + 1).astype(float))(
        lambda i: float(i[0] * 3 + 1)
    )
    square = skil_fn(ops=2, vectorized=lambda b, g, e: b * b + g[0])(
        lambda x, i: x * x + i[0]
    )
    ident = skil_fn(ops=0, vectorized=lambda b, g, e: b)(lambda x, i: x)
    a = ctx.array_create(1, (32,), (0,), (-1,), init)
    b = ctx.array_create(1, (32,), (0,), (-1,), init)
    ctx.array_map(square, a, b)
    total = ctx.array_fold(ident, PLUS, b)
    view = b.global_view()
    ctx.array_destroy(a)
    ctx.array_destroy(b)
    return view, total


@pytest.mark.parametrize("backend", BACKENDS)
def test_back_to_back_trials_deterministic(backend):
    """Same trial twice on one machine with reset() between: identical
    contents, fold results and simulated clocks."""
    m = Machine(8, backend=backend, workers=2)
    try:
        view1, total1 = _trial(SkilContext(m))
        clocks1 = m.network.clocks.copy()
        m.reset()
        assert m.time == 0.0
        view2, total2 = _trial(SkilContext(m))
        assert np.array_equal(view1, view2)
        assert total1 == total2
        assert np.array_equal(clocks1, m.network.clocks)
    finally:
        m.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_back_to_back_trials_deterministic_profiled(backend):
    """The reset contract holds with wall stamps on, and reset() drops
    the stamps so trials never mix."""
    m = Machine(8, trace_level=1, backend=backend, workers=2)
    try:
        view1, total1 = _trial(SkilContext(m))
        clocks1 = m.network.clocks.copy()
        assert m.tracer.wall_attribution()["measured_wall_s"] > 0
        m.reset()
        assert m.tracer.wall_attribution()["measured_wall_s"] == 0.0
        assert m.tracer.wall.snapshot()["counters"] == {}
        assert m.tracer.dispatches == []
        view2, total2 = _trial(SkilContext(m))
        assert np.array_equal(view1, view2)
        assert total1 == total2
        assert np.array_equal(clocks1, m.network.clocks)
        assert m.tracer.wall_attribution()["measured_wall_s"] > 0
    finally:
        m.close()


def test_use_after_close_releases_the_restarted_pool():
    """A machine used again after close() lazily restarts its thread
    pool; the next close() must shut that one down too."""
    before = threading.active_count()
    m = Machine(8, backend="threads", workers=2)
    view1, _ = _trial(SkilContext(m))
    m.close()
    view2, _ = _trial(SkilContext(m))
    assert m.backend._pool is not None
    m.close()
    assert m.backend._pool is None
    assert threading.active_count() == before
    assert np.array_equal(view1, view2)


def test_sim_machines_unaffected_by_reset_hook():
    """The sim backend's reset is a no-op; the existing in-place reset
    contract (shared stats object) is untouched."""
    m = Machine(4)
    stats = m.stats
    SkilContext(m).array_create(
        1, (8,), (0,), (-1,),
        skil_fn(ops=1, vectorized=lambda g, e: g[0] * 1.0)(lambda i: float(i[0])),
    )
    m.reset()
    assert m.stats is stats
    assert m.time == 0.0
    m.close()  # harmless on sim
