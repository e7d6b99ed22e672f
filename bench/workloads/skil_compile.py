"""``skil_compile``: the Skil compiler over a corpus of programs.

Why: ``lang`` is a quarter of ``src/`` and ROADMAP item 4 rewrites it.
Skeleton and network work here is negligible (tiny arrays, p = 4), so a
``lang`` change moves this workload and nothing else.

The corpus: seeded fuzz programs (``repro.check.fuzz``) drawn until a token
budget is reached, so that the amount of source text is the same at every
seed; the five ``repro.apps.skil_sources`` programs; ``examples/skil/*.skil``;
the seven ``repro.check.fusionprog`` families.  Each program is compiled with
default settings and with ``fusion=True``, then both modules run at p = 4.

Checks: the default module's value against ``repro.check.interp.Interp`` (an
AST interpreter that shares no code with instantiation, code generation or
the skeletons) or, for programs it cannot run, against numpy; and the fused
module's value equal to the default module's.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.apps import skil_sources
from repro.apps.shortest_paths import random_distance_matrix, shortest_paths_oracle
from repro.check.fusionprog import FAMILIES
from repro.check.fuzz import generate_spec, render
from repro.check.interp import Interp
from repro.lang import check, compile_skil, instantiate_program, parse, tokenize
from repro.lang.codegen import generate_python
from repro.lang.fusion import fuse_program

from bench import REPO_ROOT
from bench.env import Env, Op, Result
from bench.workloads import Workload, seeded

P = 4
UINT_INF = 2**32 - 1


@dataclass
class Program:
    name: str
    source: str
    entry: str = "entry"
    args: tuple = ()
    externals: dict[str, Callable] = field(default_factory=dict)
    #: does the default-compiled module's value match the reference?
    expect: Callable[[Any], bool] = lambda value: True


def value_of(out: Any) -> Any:
    return np.array(out.global_view()) if hasattr(out, "global_view") else out


def same(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if a is None or b is None:
        return a is b
    return np.asarray(a).item() == np.asarray(b).item()


def interp_expect(source: str, entry: str, args: tuple, exact: bool) -> Callable:
    """Reference by direct interpretation of the checked AST, run in set-up."""
    ref = Interp(check(parse(source))).run(entry, *args)
    ref = np.array(ref.data) if hasattr(ref, "data") else ref

    def expect(value: Any) -> bool:
        if isinstance(ref, np.ndarray):
            if not isinstance(value, np.ndarray) or value.shape != ref.shape:
                return False
            if exact:
                return bool(np.array_equal(ref, value))
            return bool(np.allclose(ref, value, rtol=1e-8, atol=1e-8))
        if exact:
            return int(ref) == int(value)
        return bool(np.isclose(float(ref), float(value), rtol=1e-8, atol=1e-8))

    return expect


def fuzz_programs(seed: int, token_budget: int) -> list[Program]:
    out, tokens, i = [], 0, 0
    while tokens < token_budget:
        spec = generate_spec(seed * 1000 + i)
        src = render(spec)
        out.append(Program(f"fuzz{i}", src,
                           expect=interp_expect(src, "entry", (), spec.elem == "int")))
        tokens += len(tokenize(src))
        i += 1
    return out


def family_programs(seed: int) -> list[Program]:
    out = []
    for i, family in enumerate(FAMILIES):
        fp = family(random.Random(seed * 1000 + i))
        prog = Program(f"family/{fp.family}", fp.source, fp.entry, fp.args)
        if fp.interp_ok:
            prog.expect = interp_expect(fp.source, fp.entry, fp.args,
                                        fp.elem != "double")
        out.append(prog)
    return out


def fixed_programs(seed: int) -> list[Program]:
    """The hand-written sources, with seeded inputs and numpy references
    (the interpreter has no ``array_gen_mult``, broadcast or permutation)."""
    out = []

    n = 16
    dist = random_distance_matrix(n, density=0.25, seed=seed)
    data = np.where(np.isinf(dist), UINT_INF, dist).astype(np.uint64)
    paths = shortest_paths_oracle(dist)

    def shpaths_ok(value):
        got = value.astype(float)
        got[got >= UINT_INF] = np.inf
        return bool(np.allclose(got, paths))

    out.append(Program("apps/shpaths", skil_sources.SHPATHS_SKIL, "shpaths", (n,),
                       {"init_f": lambda ix: data[ix]}, shpaths_ok))

    a_mat = seeded(seed, 1).uniform(-1.0, 1.0, (n, n)) + np.eye(n) * (n + 1.0)
    rhs = seeded(seed, 2).uniform(-1.0, 1.0, n)
    ext = np.concatenate([a_mat, rhs[:, None]], axis=1)
    x_ref = np.linalg.solve(a_mat, rhs)
    out.append(Program("apps/gauss", skil_sources.GAUSS_SKIL, "gauss", (n, P),
                       {"init_ext": lambda ix: ext[ix]},
                       lambda v: bool(np.allclose(v[:, n], x_ref, rtol=1e-4, atol=1e-6))))

    ma = seeded(seed, 3).uniform(-1.0, 1.0, (n, n))
    mb = seeded(seed, 4).uniform(-1.0, 1.0, (n, n))
    out.append(Program("apps/matmul", skil_sources.MATMUL_SKIL, "matmul", (n,),
                       {"init_a": lambda ix: ma[ix], "init_b": lambda ix: mb[ix]},
                       lambda v: bool(np.allclose(v, ma @ mb, rtol=1e-12))))

    m = 32
    x = seeded(seed, 5).uniform(size=m).astype(np.float32)
    y = seeded(seed, 6).uniform(size=m).astype(np.float32)
    out.append(Program("apps/saxpy_scan", skil_sources.SAXPY_SCAN_SKIL,
                       "saxpy_prefix", (m, 2.5),
                       {"init_x": lambda ix: x[ix[0]], "init_y": lambda ix: y[ix[0]]},
                       lambda v: bool(np.allclose(v, np.cumsum(2.5 * x + y), rtol=1e-5))))

    th = seeded(seed, 7).uniform(0, 10, (8, 8)).astype(np.float32)
    # a void entry: there is no value, only the clocks and counts to hold
    out.append(Program("apps/threshold", skil_sources.THRESHOLD_SKIL, "threshold",
                       (8, 5.0), {"init_f": lambda ix: th[ix]}, lambda v: v is None))

    g = 32
    adj = (seeded(seed, 8).random((g, g)) < 0.06).astype(np.int64)
    np.fill_diagonal(adj, 1)
    reach = adj.astype(bool)
    for _ in range(5):  # log2(32) boolean squarings
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    skil_dir = REPO_ROOT / "examples" / "skil"
    out.append(Program("examples/connectivity",
                       (skil_dir / "connectivity.skil").read_text(), "closure", (g,),
                       {"adj": lambda ix: adj[ix]},
                       lambda v: bool(np.array_equal(v.astype(bool), reach))))

    k = 64
    sample = seeded(seed, 9).normal(5.0, 2.0, k).astype(np.float32)
    z_ref = (sample - sample.mean()) / np.sqrt(np.mean(sample**2) - sample.mean() ** 2)
    out.append(Program("examples/stats", (skil_dir / "stats.skil").read_text(),
                       "zscores", (k,), {"sample": lambda ix: sample[ix[0]]},
                       lambda v: bool(np.allclose(v, z_ref, rtol=1e-3, atol=1e-4))))
    return out


def build(env: Env, seed: int, quick: bool) -> Workload:
    token_budget = 1200 if quick else 5000
    corpus = fuzz_programs(seed, token_budget) + fixed_programs(seed)
    corpus += family_programs(seed)[: 2 if quick else None]
    tokens = {prog.name: len(tokenize(prog.source)) for prog in corpus}

    mods: dict[tuple[str, bool], Any] = {}
    ops: list[Op] = []

    def compile_op(prog: Program, fusion: bool) -> Op:
        def run() -> Result:
            with env.span("lang", "compile"):
                # None: the compiler's default setting, whatever that is
                mod = compile_skil(prog.source, fusion=True if fusion else None)
            mods[prog.name, fusion] = mod
            counts = {"py_bytes": len(mod.python_source.encode()),
                      "instances": len(mod.instantiated.instances)}
            if mod.fusion_report is not None:
                counts["fusion_rewrites"] = len(mod.fusion_report.rewrites)
                counts["rounds_eliminated"] = mod.fusion_report.rounds_eliminated
            return Result(counts=counts)

        kind = "compile_fusion" if fusion else "compile"
        return Op(f"{kind}/{prog.name}", run, group=kind)

    def run_module(prog: Program, fusion: bool):
        with env.machine(P) as m:
            with env.span("lang", "run"):
                out = mods[prog.name, fusion].run(
                    prog.entry, *prog.args, ctx=env.context(m),
                    externals=prog.externals)
            return value_of(out), m

    def run_op(prog: Program) -> Op:
        def run() -> Result:
            value, m = run_module(prog, False)
            fused_value, _ = run_module(prog, True)
            return Result(
                sim_s=m.time,
                counts={"msgs": m.stats.messages, "bytes": m.stats.bytes_sent,
                        "rounds": m.stats.skeleton_calls},
                value=(value, fused_value),
            )

        def ok(res: Result) -> bool:
            value, fused_value = res.value
            return prog.expect(value) and same(value, fused_value)

        return Op(f"run/{prog.name}", run, ok, group="run")

    def phases_op(prog: Program) -> Op:
        """Each phase's public function in sequence, a span around each
        (traced build only: the compile ops above already do this work)."""

        def run() -> Result:
            sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
            with env.span("lang", "parse"):
                program = parse(prog.source)
            with env.span("lang", "typecheck"):
                checked = check(program)
            with env.span("lang", "instantiate"):
                inst = instantiate_program(checked)
            with env.span("lang", "fusion"):
                fuse_program(inst)
            with env.span("lang", "codegen"):
                py = generate_python(inst)
            with env.span("lang", "pyexec"):
                exec(compile(py, "<skil-generated>", "exec"), {})  # noqa: S102
            return Result()

        return Op(f"phases/{prog.name}", run, group="phases", trace_only=True)

    for prog in corpus:
        ops.append(compile_op(prog, False))
        ops.append(compile_op(prog, True))
        ops.append(run_op(prog))
        if env.traced:
            ops.append(phases_op(prog))

    def layers(rows, outcomes) -> dict[str, float]:
        total = lambda key: sum(o.counts.get(key, 0) for o in outcomes.values())
        parse_s = sum(r.dur for r in rows if r.layer == "lang" and r.name == "parse")
        n_tokens = sum(tokens.values())
        return {
            "lang.programs": len(corpus),
            "lang.tokens": n_tokens,
            "lang.tokens_per_s": n_tokens / parse_s if parse_s else 0.0,
            "lang.instances": total("instances"),
            "lang.py_bytes": total("py_bytes"),
            "lang.fusion_rewrites": total("fusion_rewrites"),
            "lang.rounds_eliminated": total("rounds_eliminated"),
        }

    sizes = {"programs": len(corpus), "fuzz_token_budget": token_budget,
             "tokens": sum(tokens.values()), "p": P}
    return Workload(ops, layers=layers, sizes=sizes)
