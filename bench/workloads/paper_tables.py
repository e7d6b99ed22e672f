"""``paper_tables``: the Table 1 / Table 2 cells a reader regenerates.

Why: it is the artefact of the paper.  Blocks are tiny (p <= 64, n = 64),
so per-call skeleton glue, small-p ``Network`` charging and the comparator
drivers dominate and numpy kernels do little.

Untraced, a cell is one call of ``repro.eval.harness.run_shpaths`` /
``run_gauss`` (input generation, driver, oracle check).  Traced, the same
steps are made from here with spans around each, on an instrumented context.
"""

from __future__ import annotations

import numpy as np

from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shortest_paths_oracle,
    shpaths,
)
from repro.baselines.parix_c import gauss_c, make_c_machine, shpaths_c
from repro.eval.experiments import TABLE1_PS, TABLE2_PS
from repro.eval.harness import run_gauss, run_shpaths
from repro.machine.costmodel import DPFL, SKIL
from repro.machine.machine import Machine

from bench.env import Env, Op, Result
from bench.workloads import Workload

PROFILES = {"skil": SKIL, "dpfl": DPFL}

#: what the paper states (Table 1, 2x2 and 8x8 networks, n = 200)
PAPER_SKIL_2X2 = 234.29
PAPER_DPFL_2X2 = 1524.22
PAPER_DPFL_OVER_SKIL_8X8 = 6.04


def _driver_layer(lang: str) -> str:
    return "apps" if lang == "skil" else "baselines.dpfl"


def _traced_shpaths(env: Env, lang: str, p: int, n: int, seed: int) -> Result:
    with env.span("eval", "inputs"):
        n_eff = round_up_to_grid(n, Machine(p).mesh.rows)
        dist = random_distance_matrix(n_eff, density=0.25, seed=seed)
    with env.span("eval", "oracle"):
        oracle = shortest_paths_oracle(dist)
    if lang == "parix-c-old":
        machine = env.adopt(make_c_machine(p, old=True))
        with env.span("baselines.parix_c", "shpaths_c"):
            result, report = shpaths_c(machine, dist, old=True)
    else:
        machine = env.machine(p)
        ctx = env.context(machine, PROFILES[lang])
        with env.span(_driver_layer(lang), "shpaths"):
            result, report = shpaths(ctx, dist)
    with env.span("eval", "check"):
        if not np.allclose(result, oracle):
            raise AssertionError("wrong shortest paths")
    return _result(report.seconds, machine)


def _traced_gauss(env: Env, lang: str, p: int, n: int, full: bool, seed: int) -> Result:
    with env.span("eval", "inputs"):
        a_mat, rhs = random_system(n, seed=seed)
    with env.span("eval", "oracle"):
        x_ref = np.linalg.solve(a_mat, rhs)
    if lang == "parix-c":
        machine = env.adopt(make_c_machine(p))
        with env.span("baselines.parix_c", "gauss_c"):
            x, report = gauss_c(machine, a_mat, rhs)
    else:
        machine = env.machine(p)
        ctx = env.context(machine, PROFILES[lang])
        driver = gauss_full if full else gauss_simple
        with env.span(_driver_layer(lang), driver.__name__):
            x, report = driver(ctx, a_mat, rhs)
    with env.span("eval", "check"):
        if not np.allclose(x, x_ref, rtol=1e-6, atol=1e-8):
            raise AssertionError("wrong solution")
    return _result(report.seconds, machine)


def _result(seconds: float, machine) -> Result:
    return Result(
        sim_s=seconds,
        counts={"msgs": machine.stats.messages, "bytes": machine.stats.bytes_sent},
    )


def _harness_result(r) -> Result:
    return Result(sim_s=r.seconds, counts={"msgs": r.messages, "bytes": r.bytes_sent})


def build(env: Env, seed: int, quick: bool) -> Workload:
    shp_n = 16 if quick else 64
    gauss_ns = (32,) if quick else (64,)
    table1_ps = TABLE1_PS[:2] if quick else TABLE1_PS
    table2_ps = TABLE2_PS[:2] if quick else TABLE2_PS
    full_ps = (16,) if quick else (16, 64)
    full_n = 32 if quick else 64

    ops: list[Op] = []

    def shp(lang: str, p: int) -> None:
        if env.traced:
            run = lambda: _traced_shpaths(env, lang, p, shp_n, seed)
        else:
            run = lambda: _harness_result(run_shpaths(lang, p, shp_n, seed=seed))
        ops.append(Op(f"shpaths/{lang}/p{p}/n{shp_n}", run,
                      group="shpaths", skil=lang == "skil"))

    def gau(lang: str, p: int, n: int, full: bool = False) -> None:
        if env.traced:
            run = lambda: _traced_gauss(env, lang, p, n, full, seed)
        else:
            run = lambda: _harness_result(run_gauss(lang, p, n, full=full, seed=seed))
        name = "gauss_full" if full else "gauss"
        ops.append(Op(f"{name}/{lang}/p{p}/n{n}", run,
                      group=name, skil=lang == "skil"))

    for p in table1_ps:
        for lang in ("skil", "dpfl", "parix-c-old"):
            shp(lang, p)
    for n in gauss_ns:
        for p in table2_ps:
            for lang in ("skil", "dpfl", "parix-c"):
                gau(lang, p, n)
    for p in full_ps:
        gau("skil", p, full_n, full=True)

    def probes(base_wall_s: float) -> dict[str, float]:
        if quick:
            return {}
        skil4 = run_shpaths("skil", 4, 200, seed=seed).seconds
        dpfl4 = run_shpaths("dpfl", 4, 200, seed=seed).seconds
        skil64 = run_shpaths("skil", 64, 200, seed=seed).seconds
        dpfl64 = run_shpaths("dpfl", 64, 200, seed=seed).seconds
        errs = (
            abs(skil4 - PAPER_SKIL_2X2) / PAPER_SKIL_2X2,
            abs(dpfl4 - PAPER_DPFL_2X2) / PAPER_DPFL_2X2,
            abs(dpfl64 / skil64 - PAPER_DPFL_OVER_SKIL_8X8) / PAPER_DPFL_OVER_SKIL_8X8,
        )
        return {"eval.paper_anchor_err": max(errs)}

    sizes = {
        "shpaths_n": shp_n, "table1_ps": list(table1_ps),
        "gauss_ns": list(gauss_ns), "table2_ps": list(table2_ps),
        "gauss_full": {"ps": list(full_ps), "n": full_n},
        "anchor_probe": {"p": [4, 64], "n": 200},
    }
    return Workload(ops, probes=probes, sizes=sizes)
