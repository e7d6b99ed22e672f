"""Edge cases of translation by instantiation: nested HOFs, operator
sections with lifted arguments, over-application of curried calls."""

import pytest

from repro.errors import SkilError
from repro.lang import compile_skil
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


def run(src, entry, *args):
    mod = compile_skil(src)
    return mod.run(entry, *args, ctx=SkilContext(Machine(1), SKIL))


class TestSectionPartialApplication:
    def test_times_two_through_hof(self):
        """The paper's map((*)(2), lst) idiom, through a user HOF."""
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        int g (int v) { return apply ((*)(2), v); }
        """
        assert run(src, "g", 21) == 42

    def test_plus_section_binary(self):
        src = """
        $a combine ($a f ($a, $a), $a x, $a y) { return f (x, y); }
        int g (int v) { return combine ((+), v, 5); }
        """
        assert run(src, "g", 3) == 8

    def test_comparison_section(self):
        src = """
        int pick (int cmp ($a, $a), $a x, $a y) { return cmp (x, y); }
        int g (int v) { return pick ((<), v, 10); }
        """
        assert run(src, "g", 3) == True  # noqa: E712 - C-style int bool

    def test_min_max_as_idents(self):
        src = """
        $a combine ($a f ($a, $a), $a x, $a y) { return f (x, y); }
        int lo (int v) { return combine (min, v, 10); }
        int hi (int v) { return combine (max, v, 10); }
        """
        assert run(src, "lo", 30) == 10
        assert run(src, "hi", 30) == 30


class TestNestedHOFs:
    def test_hof_forwards_functional_param(self):
        """apply2 passes its functional parameter on to apply — the
        descriptor must travel through both levels."""
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        $b apply2 ($b f ($a), $a x) { return apply (f, x); }
        int inc (int x) { return x + 1; }
        int g (int v) { return apply2 (inc, v); }
        """
        assert run(src, "g", 41) == 42

    def test_hof_forwards_partial_application(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        $b twice ($b f ($a), $a x) { return apply (f, apply (f, x)); }
        int addk (int k, int x) { return x + k; }
        int g (int v) { return twice (addk (10), v); }
        """
        assert run(src, "g", 1) == 21

    def test_three_levels(self):
        src = """
        $b l1 ($b f ($a), $a x) { return f (x); }
        $b l2 ($b f ($a), $a x) { return l1 (f, x); }
        $b l3 ($b f ($a), $a x) { return l2 (f, x); }
        int neg (int x) { return -x; }
        int g (int v) { return l3 (neg, v); }
        """
        assert run(src, "g", 7) == -7

    def test_two_functional_params(self):
        src = """
        $c compose ($c g2 ($b), $b g1 ($a), $a x) { return g2 (g1 (x)); }
        int dbl (int x) { return x * 2; }
        int inc (int x) { return x + 1; }
        int h (int v) { return compose (inc, dbl, v); }
        """
        assert run(src, "h", 5) == 11

    def test_instance_report_nested(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        $b apply2 ($b f ($a), $a x) { return apply (f, x); }
        int inc (int x) { return x + 1; }
        int g (int v) { return apply2 (inc, v); }
        """
        mod = compile_skil(src)
        assert len(mod.instantiation_report["apply"]) == 1
        assert len(mod.instantiation_report["apply2"]) == 1


class TestOverApplication:
    def test_curried_call_flattened(self):
        """g(a)(b) over a binary function works via call flattening."""
        src = """
        int add (int a, int b) { return a + b; }
        int g (int v) { return add (v) (10); }
        """
        assert run(src, "g", 5) == 15

    def test_triple_currying(self):
        src = """
        int add3 (int a, int b, int c) { return a + b + c; }
        int g (int v) { return add3 (v) (1) (2); }
        """
        assert run(src, "g", 10) == 13

    def test_partial_then_hof(self):
        src = """
        $b apply ($b f ($a), $a x) { return f (x); }
        int add3 (int a, int b, int c) { return a + b + c; }
        int g (int v) { return apply (add3 (1) (2), v); }
        """
        assert run(src, "g", 10) == 13


class TestHigherOrderFolds:
    def test_fold_with_user_binary_function(self):
        import numpy as np

        src = """
        float ident (float v, Index ix) { return v; }
        float safe_max (float x, float y) {
          if (x >= y) return x;
          return y;
        }
        float init_f (Index ix);
        float top (int n) {
          array<float> a;
          a = array_create (1, {n}, {0}, {-1}, init_f, DISTR_DEFAULT);
          return array_fold (ident, safe_max, a);
        }
        """
        mod = compile_skil(src)
        data = np.array([3.0, 9.5, -2.0, 7.0, 1.0, 9.5, 0.0, 4.0],
                        dtype=np.float32)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = mod.run("top", 8, ctx=SkilContext(Machine(4), SKIL),
                          externals={"init_f": lambda ix: data[ix[0]]})
        assert out == np.float32(9.5)


class TestReservedPythonNames:
    """A Skil identifier Python reserves compiles and runs: the
    generated module spells it with one more trailing underscore."""

    def test_keyword_parameter(self):
        assert run("int f (int def) { return def; }", "f", 7) == 7

    def test_keywords_as_function_local_and_constant_names(self):
        src = """
        int lambda (int None, int class) { int True = None + class; return True * 2; }
        int def_ (int x) { return x + 1; }
        int main () { return lambda (1, 2) + def_ (10); }
        """
        assert run(src, "main") == 17
        # the entry point keeps its Skil name; def_ does not collide
        assert run(src, "lambda", 4, 5) == 18
        assert run(src, "def_", 1) == 2

    def test_host_external_named_by_a_keyword(self):
        src = """
        int import (int x);
        int g (int v) { return import (v) * 2; }
        """
        mod = compile_skil(src)
        got = mod.run("g", 5, ctx=SkilContext(Machine(1), SKIL),
                      externals={"import": lambda x: x + 1})
        assert got == 12

    @pytest.mark.parametrize("fusion", [False, True])
    def test_keyword_names_in_skeleton_kernels(self, fusion):
        """Kernels go through the vectorizer too; fused or not, the
        keyword-named parameters and locals reach numpy intact."""
        src = """
        int init (Index ix) { return ix[0]; }
        int scale (int from, int yield, Index ix) { int with = from * yield; return with; }
        int ident (int v, Index ix) { return v; }
        int main (int n) {
          array<int> in, is;
          int pass;
          in = array_create (1, {n}, {0}, {-1}, init, DISTR_DEFAULT);
          is = array_create (1, {n}, {0}, {-1}, init, DISTR_DEFAULT);
          array_map (scale (3), in, is);
          pass = array_fold (ident, (+), is);
          array_destroy (in);
          array_destroy (is);
          return pass;
        }
        """
        mod = compile_skil(src, fusion=fusion)
        assert "_vec_scale" in mod.python_source  # the numpy kernel path
        assert mod.run("main", 8, ctx=SkilContext(Machine(4), SKIL)) == 84

    def test_the_spelling_is_injective(self):
        from repro.lang.codegen import py_name

        names = ["def", "def_", "def__", "None", "x", "_", "match", "print"]
        assert [py_name(n) for n in names] == [
            "def_", "def__", "def___", "None_", "x", "_", "match", "print"]
