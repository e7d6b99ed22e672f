"""Cross-subsystem integration tests.

These tie the layers together: Skil source -> compiler -> skeletons ->
machine, checked against the hand-written drivers and oracles, plus
consistency between the two timing engines.
"""

import warnings

import numpy as np
import pytest

from repro import Machine, SKIL
from repro.apps import (
    gauss_full,
    random_distance_matrix,
    random_system,
    shortest_paths_oracle,
    shpaths,
)
from repro.apps.skil_sources import GAUSS_SKIL, SHPATHS_SKIL
from repro.lang import compile_skil
from repro.skeletons import SkilContext

UINT_INF = 2**32 - 1


def ctx(p=4):
    return SkilContext(Machine(p), SKIL)


class TestCompiledVsNative:
    """The compiled Skil programs and the hand-written drivers must
    produce identical results and closely matching simulated times —
    they invoke the same skeletons on the same machine."""

    def test_shpaths_identical_results(self):
        n = 16
        dist = random_distance_matrix(n, seed=21)
        data = np.where(np.isinf(dist), UINT_INF, dist).astype(np.uint64)

        mod = compile_skil(SHPATHS_SKIL)
        c1 = ctx()
        arr = mod.run("shpaths", n, ctx=c1,
                      externals={"init_f": lambda ix: data[ix]})
        compiled = arr.global_view().astype(float)
        compiled[compiled >= UINT_INF] = np.inf

        c2 = ctx()
        native, _ = shpaths(c2, dist)
        np.testing.assert_allclose(compiled, native)
        np.testing.assert_allclose(compiled, shortest_paths_oracle(dist))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_identical_results(self):
        n, p = 16, 4
        a_mat, rhs = random_system(n, seed=22)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

        mod = compile_skil(GAUSS_SKIL)
        c1 = ctx(p)
        out = mod.run("gauss", n, p, ctx=c1,
                      externals={"init_ext": lambda ix: ext[ix]})
        x_compiled = out.global_view()[:, n]

        c2 = ctx(p)
        x_native, _ = gauss_full(c2, a_mat, rhs)
        np.testing.assert_allclose(x_compiled, x_native, rtol=1e-4, atol=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gauss_times_same_scale(self):
        n, p = 16, 4
        a_mat, rhs = random_system(n, seed=23)
        ext = np.concatenate([a_mat, rhs[:, None]], axis=1)

        mod = compile_skil(GAUSS_SKIL)
        c1 = ctx(p)
        mod.run("gauss", n, p, ctx=c1,
                externals={"init_ext": lambda ix: ext[ix]})
        c2 = ctx(p)
        gauss_full(c2, a_mat, rhs)
        ratio = c1.machine.time / c2.machine.time
        assert 0.5 < ratio < 2.0

    def test_skeleton_call_counts_match_shpaths(self):
        """Same program shape => same number of skeleton invocations."""
        n = 16
        dist = random_distance_matrix(n, seed=24)
        data = np.where(np.isinf(dist), UINT_INF, dist).astype(np.uint64)

        mod = compile_skil(SHPATHS_SKIL)
        c1 = ctx()
        mod.run("shpaths", n, ctx=c1, externals={"init_f": lambda ix: data[ix]})
        c2 = ctx()
        shpaths(c2, dist)
        # the compiled program keeps its result array alive (one fewer
        # array_destroy); everything else must match exactly
        diff = abs(
            c1.machine.stats.skeleton_calls - c2.machine.stats.skeleton_calls
        )
        assert diff <= 1


class TestMachineScalingLaws:
    """Sanity laws the simulated machine must satisfy."""

    def test_shpaths_scales_superlinearly_in_n(self):
        times = []
        for n in (8, 16, 32):
            c = ctx(4)
            shpaths(c, random_distance_matrix(n, seed=1))
            times.append(c.machine.time)
        # ~n^3 per squaring: quadrupling work per doubling at least
        assert times[1] > times[0] * 4
        assert times[2] > times[1] * 4

    def test_gauss_strong_scaling_efficiency(self):
        from repro.apps import gauss_simple

        n = 64
        a, b = random_system(n, seed=2)
        t = {}
        for p in (1, 4, 16):
            c = ctx(p)
            gauss_simple(c, a, b)
            t[p] = c.machine.time
        assert t[4] < t[1]
        assert t[16] < t[4]
        # efficiency decays but stays reasonable at this size
        speedup16 = t[1] / t[16]
        assert 4 < speedup16 <= 16

    def test_memory_accounting_during_run(self):
        c = ctx(4)
        n = 16
        a, b = random_system(n, seed=3)
        from repro.apps import gauss_simple

        gauss_simple(c, a, b)
        assert c.machine.max_memory_used() == 0  # all arrays destroyed


class TestProfilesEndToEnd:
    def test_language_ordering_holds_everywhere(self):
        """C <= Skil <= Skil-closures <= DPFL on the same workload."""
        from repro.eval.harness import run_gauss

        results = {
            lang: run_gauss(lang, 4, 32).seconds
            for lang in ("parix-c", "skil", "skil-closures", "dpfl")
        }
        assert (
            results["parix-c"]
            < results["skil"]
            < results["skil-closures"]
            < results["dpfl"]
        )
