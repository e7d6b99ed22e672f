"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.arrays.distribution import BLOCK_DISTRIBUTIONS
from repro.machine.topology import TOPOLOGIES
from repro.obs.metrics import isolated_metrics


@pytest.fixture(autouse=True)
def _isolated_global_metrics():
    """Give every test its own process-global metrics registry.

    Layers without a machine in scope (the compiler front end) report
    into ``global_metrics()``; without isolation a test asserting on
    those counters can pass or fail depending on which tests ran before
    it.  The swap-in/swap-out keeps each test hermetic and leaves the
    host process's registry untouched.
    """
    with isolated_metrics():
        yield


@pytest.fixture(autouse=True)
def _empty_intern_tables():
    """Start every test with no shared topology or block distribution.

    Shared values cannot change a result, but they are warm: a test
    counting the hop or geometry work a first use does would otherwise
    depend on which tests ran before it.
    """
    for table in (TOPOLOGIES, BLOCK_DISTRIBUTIONS):
        table._values.clear()
    yield
