"""Unit tests for the compiler-level skeleton discovery & fusion pass.

Each test compiles the same Skil source twice — pass off, pass on —
and asserts three things at once: the report says what fired, the
simulated machine charged strictly fewer skeleton rounds where a round
was eliminated, and the computed values are bit-equal.
"""

import inspect

import numpy as np
import pytest

from repro.lang import compile_skil
from repro.machine.machine import Machine
from repro.skeletons import SkilContext

MAP_MAP_SRC = """
int ramp (Index ix) { return ix[0] % 9973; }
int step1 (int v, Index ix) { return ((v * 3 + 1) % 9973); }
int step2 (int v, Index ix) { return ((v * 5 + 2) % 9973); }

array<int> entry () {
  array<int> a, t, b;
  a = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
  t = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
  b = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
  array_map (step1, a, t);
  array_map (step2, t, b);
  array_destroy (t);
  array_destroy (a);
  return b;
}
"""


#: a map whose only consumer is a fold nested in a loop; ``BODY`` is
#: what the loop does before the fold each iteration
NESTED_FOLD_SRC = """
int ramp (Index ix) { return ix[0] % 97; }
int addc (int c, int v, Index ix) { return v + c; }
int keep (int v, Index ix) { return v; }
int twice (int v, Index ix) { return v * 2; }

int entry () {
  array<int> a, t;
  int c, s, i;
  a = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
  t = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
  c = 1;
  s = 0;
  array_map (addc (c), a, t);
  for (i = 0; i < 3; i++) {
    BODY
    s += array_fold (keep, (+), t);
  }
  array_destroy (t);
  array_destroy (a);
  return s;
}
"""

#: the loop redefines the producer's captured scalar / its source array
NESTED_FOLD_CAPTURE_SRC = NESTED_FOLD_SRC.replace("BODY", "c = c + 100;")
NESTED_FOLD_SOURCE_SRC = NESTED_FOLD_SRC.replace("BODY", "array_map (twice, a, a);")
NESTED_FOLD_PLAIN_SRC = NESTED_FOLD_SRC.replace("BODY", "")


def _run_both(src, p=4, entry="entry", args=()):
    """(unfused value, fused value, unfused rounds, fused rounds, report)."""
    mod_u = compile_skil(src, fusion=False)
    mod_f = compile_skil(src, fusion=True)
    out = []
    for mod in (mod_u, mod_f):
        with Machine(p) as m:
            v = mod.run(entry, *args, ctx=SkilContext(m))
            if hasattr(v, "global_view"):
                v = np.array(v.global_view())
            out.append((v, m.stats.skeleton_calls))
    (v_u, r_u), (v_f, r_f) = out
    return v_u, v_f, r_u, r_f, mod_f.fusion_report


def _equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return np.asarray(a).item() == np.asarray(b).item()


class TestMapMapFusion:
    def test_chain_collapses(self):
        v_u, v_f, r_u, r_f, rep = _run_both(MAP_MAP_SRC)
        assert _equal(v_u, v_f)
        assert rep.fused_calls >= 1
        assert rep.arrays_eliminated >= 1
        assert r_f < r_u
        # the full collapse: one fused map, the temp's create+destroy
        # gone, the dead inits of t and b elided
        assert r_f == 2  # create a + fused map (destroy a stays)

    def test_report_counts_are_consistent(self):
        *_, rep = _run_both(MAP_MAP_SRC)
        assert rep.rounds_eliminated >= rep.fused_calls
        assert len(rep.rewrites) >= rep.fused_calls
        assert "fused skeleton calls" in rep.summary()

    def test_fusion_off_has_no_report(self):
        mod = compile_skil(MAP_MAP_SRC, fusion=False)
        assert mod.fusion_report is None

    def test_process_default_is_off(self):
        # a plain keyword default: no process-wide state stands behind it
        assert inspect.signature(compile_skil).parameters["fusion"].default is False
        assert compile_skil(MAP_MAP_SRC).fusion_report is None
        assert compile_skil(MAP_MAP_SRC, fusion=None).fusion_report is None


class TestOptOut:
    def test_no_fuse_lines_blocks_the_rewrite(self):
        full = compile_skil(MAP_MAP_SRC, fusion=True)
        assert full.fusion_report.fused_calls >= 1
        # veto every line carrying a skeleton call: nothing may fuse
        lines = [
            i + 1
            for i, text in enumerate(MAP_MAP_SRC.splitlines())
            if "array_" in text or "for " in text
        ]
        vetoed = compile_skil(MAP_MAP_SRC, fusion=True, no_fuse_lines=lines)
        assert vetoed.fusion_report.fused_calls == 0
        assert vetoed.fusion_report.inits_elided == 0
        with Machine(4) as m:
            v0 = np.array(
                vetoed.run("entry", ctx=SkilContext(m)).global_view()
            )
        with Machine(4) as m:
            v1 = np.array(full.run("entry", ctx=SkilContext(m)).global_view())
        assert np.array_equal(v0, v1)

    def test_no_fuse_lines_blocks_dead_array_removal(self):
        src = """
        int ramp (Index ix) { return ix[0] % 97; }

        int entry () {
          array<int> d;
          d = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          array_destroy (d);
          return 1;
        }
        """
        assert compile_skil(src, fusion=True).fusion_report.rewrites
        lines = [i + 1 for i, text in enumerate(src.splitlines()) if "array_" in text]
        vetoed = compile_skil(src, fusion=True, no_fuse_lines=lines)
        assert vetoed.fusion_report.rewrites == []


class TestNestedConsumer:
    """A fold nested in a loop after its producer: whatever the loop
    does before the fold runs again before the fold's next reading."""

    def test_loop_redefines_captured_scalar(self):
        v_u, v_f, _, _, rep = _run_both(NESTED_FOLD_CAPTURE_SRC)
        assert _equal(v_u, v_f)
        assert rep.fused_calls == 0

    def test_loop_rewrites_producer_source(self):
        v_u, v_f, _, _, rep = _run_both(NESTED_FOLD_SOURCE_SRC)
        assert _equal(v_u, v_f)
        assert rep.fused_calls == 0

    def test_loop_without_definer_still_fuses(self):
        v_u, v_f, r_u, r_f, rep = _run_both(NESTED_FOLD_PLAIN_SRC)
        assert _equal(v_u, v_f)
        assert [rw.kind for rw in rep.rewrites] == ["fuse:map.fold"]
        assert r_f < r_u


class TestNegativeCases:
    def test_rank_dependent_kernel_does_not_fuse(self):
        src = MAP_MAP_SRC.replace(
            "int step2 (int v, Index ix) { return ((v * 5 + 2) % 9973); }",
            "int step2 (int v, Index ix) { return ((v + procId) % 9973); }",
        )
        mod = compile_skil(src, fusion=True)
        # composing into step2 would not be env-free, so no rewrite may
        # involve it (create∘map on the rank-free first link is fine)
        assert all(
            "step2" not in rw.detail for rw in mod.fusion_report.rewrites
        )
        v_u, v_f, *_ = _run_both(src)
        assert _equal(v_u, v_f)

    def test_temp_read_later_blocks_fusion(self):
        src = """
        int ramp (Index ix) { return ix[0] % 9973; }
        int step1 (int v, Index ix) { return ((v * 3 + 1) % 9973); }
        int step2 (int v, Index ix) { return ((v * 5 + 2) % 9973); }
        int keep (int v, Index ix) { return v; }

        int entry () {
          array<int> a, t, b;
          int s;
          a = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          t = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          b = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          array_map (step1, a, t);
          array_map (step2, t, b);
          s = array_fold (keep, (+), t);
          return s;
        }
        """
        mod = compile_skil(src, fusion=True)
        # t is read by the fold after the consumer: eliminating it
        # would change the program
        assert all(
            "'t'" not in rw.detail for rw in mod.fusion_report.rewrites
        )
        v_u, v_f, *_ = _run_both(src)
        assert _equal(v_u, v_f)

    def test_in_situ_producer_is_not_deleted(self):
        src = """
        int ramp (Index ix) { return ix[0] % 9973; }
        int step1 (int v, Index ix) { return ((v * 3 + 1) % 9973); }
        int step2 (int v, Index ix) { return ((v * 5 + 2) % 9973); }

        array<int> entry () {
          array<int> a, b;
          a = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          b = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          array_map (step1, a, a);
          array_map (step2, a, b);
          array_destroy (a);
          return b;
        }
        """
        # a is both src and dst of the first map and outlives nothing:
        # the aliased producer must survive (src != dst is required)
        v_u, v_f, _, _, rep = _run_both(src)
        assert rep.fused_calls == 0
        assert _equal(v_u, v_f)


class TestDiscovery:
    def test_elementwise_loop_becomes_map(self):
        src = """
        int ramp (Index ix) { return ix[0] % 9973; }

        array<int> entry () {
          array<int> a, b;
          int i;
          a = array_create (1, {32}, {0}, {-1}, ramp, DISTR_DEFAULT);
          b = array_create (1, {32}, {0}, {-1}, ramp, DISTR_DEFAULT);
          for (i = 0; i < 32; i++) {
            array_put_elem (b, {i}, array_get_elem (a, {i}) * 2 + 1);
          }
          array_destroy (a);
          return b;
        }
        """
        v_u, v_f, _, _, rep = _run_both(src)
        assert rep.discovered_loops == 1
        assert _equal(v_u, v_f)

    def test_accumulation_loop_becomes_fold(self):
        src = """
        int ramp (Index ix) { return ix[0] % 97; }

        int entry () {
          array<int> a;
          int i;
          int s;
          a = array_create (1, {2048}, {0}, {-1}, ramp, DISTR_DEFAULT);
          s = 0;
          for (i = 0; i < 2048; i++) {
            s += array_get_elem (a, {i});
          }
          array_destroy (a);
          return s;
        }
        """
        v_u, v_f, _, _, rep = _run_both(src)
        assert rep.discovered_loops == 1
        assert _equal(v_u, v_f)


class TestInitElision:
    def test_overwritten_create_becomes_uninit(self):
        # array_copy fully overwrites b before any read, and copy
        # carries no kernel for create∘map to grab — this isolates the
        # dead-init elision from the fusion rewrites
        src = """
        int ramp (Index ix) { return ix[0] % 9973; }

        array<int> entry () {
          array<int> a, b;
          a = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          b = array_create (1, {64}, {0}, {-1}, ramp, DISTR_DEFAULT);
          array_copy (a, b);
          array_destroy (a);
          return b;
        }
        """
        mod = compile_skil(src, fusion=True)
        assert mod.fusion_report.inits_elided == 1
        assert "array_create_uninit" in mod.python_source
        v_u, v_f, r_u, r_f, _ = _run_both(src)
        assert _equal(v_u, v_f)
        assert r_f == r_u - 1  # exactly b's init round disappeared
