"""One workload in one process: set-up, then a closed loop of one client.

Started by ``bench/run.py`` with BLAS pinned to one thread and a fixed hash
seed.  Prints one JSON object on the last line of its standard output.

``--mode measure``: set-up (import, inputs from the seed, references, one
warm-up pass), then untraced passes over the op list until ``--seconds`` have
gone by.  ``--mode trace``: the workload is built twice, on plain and on
instrumented objects, and untraced and traced passes alternate; the
per-layer ledger comes from the traced ones, the base of the tracing overhead
from the untraced ones.

Exit code 3 means the determinism guard tripped: a simulated second or a
count differed between two passes over the same inputs.
"""

from __future__ import annotations

from time import perf_counter

_T_START = perf_counter()  # before numpy and repro are imported: set-up pays for both

import argparse
import json
import math
import resource
import statistics
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT_DIR, add_src_to_path

add_src_to_path()

from bench.env import Env, Op
from bench.passes import Pass, best, guard, run_pass
from bench.metrics import PER_LAYER
from bench.spans import Recorder, Row, sum_check
from bench.workloads import build

_T_IMPORTED = perf_counter()

COLLECTIVES = {"broadcast", "reduce", "allreduce", "gather", "scatter",
               "allgather", "alltoall", "barrier"}
FAMILIES = {
    "map": {"array_map"},
    "zip": {"array_zip"},
    "fold": {"array_fold"},
    "create": {"array_create", "array_create_uninit", "array_destroy"},
    "copy": {"array_copy"},
    "scan": {"array_scan"},
    "gen_mult": {"array_gen_mult", "array_gen_mult_square"},
    "broadcast_part": {"array_broadcast_part"},
    "permute_rows": {"array_permute_rows", "array_rotate_rows"},
}


def peak_rss_mb() -> float:
    a = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    b = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(a, b) / 1024.0  # Linux reports KiB


def sim_seconds(ops: list[Op], p: Pass) -> float:
    return math.fsum(
        p.outcomes[op.id].sim_s for op in ops
        if op.skil and not op.trace_only and p.outcomes[op.id].ok
        and p.outcomes[op.id].sim_s is not None
    )


def report(ops: list[Op], warm: Pass, passes: list[Pass]) -> dict:
    timed = [op for op in ops if not op.trace_only]
    errors = {i: warm.outcomes[i].error for i in warm.failed()}
    for p in passes:
        for i in p.failed():
            errors.setdefault(i, p.outcomes[i].error)
    return {
        "ops": len(timed),
        "errors": errors,
        "attempted": len(timed) * len(passes),
        "failed": sum(len(p.failed()) for p in passes),
        "sim_s": sim_seconds(ops, warm),
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "best_wall": best(timed, passes, "wall"),
        "best_cpu": best(timed, passes, "cpu"),
    }


# ------------------------------------------------------------------ ledger
def ledger(rows: list[Row], ops: list[Op], tp: Pass) -> dict[str, float]:
    """Every per-layer metric that can be read off the spans of one pass."""
    group = {op.id: op.group for op in ops}

    def dur(pred) -> float:
        return math.fsum(r.dur for r in rows if pred(r))

    def self_s(pred) -> float:
        return math.fsum(r.self_s for r in rows if pred(r))

    def count(pred) -> int:
        return sum(1 for r in rows if pred(r))

    out: dict[str, float] = {}

    skel = lambda r: r.layer == "skeletons" and r.outer
    calls = count(skel)
    span = dur(skel)
    kernel = self_s(lambda r: r.layer == "skeletons.kernel")
    glue = self_s(lambda r: r.layer == "skeletons")
    out["skeletons.calls"] = calls
    out["skeletons.span_s"] = span
    out["skeletons.self_s"] = glue
    out["skeletons.kernel_s"] = kernel
    # over the ops that ran a kernel the benchmark owns: the numpy work of
    # built-in skeletons (copy, scan, gen_mult) cannot be told from their glue
    owned = {r.op for r in rows if r.layer == "skeletons.kernel"}
    owned_span = dur(lambda r: skel(r) and r.op in owned)
    out["skeletons.kernel_share"] = kernel / owned_span if owned_span else 0.0
    out["skeletons.us_per_call"] = 1e6 * glue / calls if calls else 0.0
    out["skeletons.elems_per_s"] = (
        sum(r.elems for r in rows if skel(r)) / span if span else 0.0
    )
    for fam, names in FAMILIES.items():
        out[f"skeletons.{fam}_s"] = dur(lambda r: skel(r) and r.name in names)
    for g in ("block", "cyclic", "rankdep"):
        out[f"skeletons.{g}_s"] = dur(lambda r: skel(r) and group.get(r.op) == g)

    net = lambda r: r.layer == "machine.network" and r.outer
    named = lambda *names: (lambda r: net(r) and r.name in names)
    out["machine.network.calls"] = count(lambda r: r.layer == "machine.network")
    out["machine.network.charge_s"] = dur(net)
    out["machine.network.compute_s"] = dur(named("compute", "compute_at"))
    out["machine.network.p2p_batch_s"] = dur(named("p2p", "p2p_batch"))
    out["machine.network.shift_batch_s"] = dur(named("shift", "shift_batch"))
    out["machine.network.collective_s"] = dur(named(*COLLECTIVES))
    msgs = sum(o.counts.get("msgs", 0) for o in tp.outcomes.values())
    out["machine.network.msgs"] = msgs
    out["machine.network.bytes"] = sum(
        o.counts.get("bytes", 0) for o in tp.outcomes.values()
    )
    wire = out["machine.network.charge_s"] - out["machine.network.compute_s"]
    out["machine.network.us_per_msg"] = 1e6 * wire / msgs if msgs else 0.0

    back = lambda r: r.layer == "machine.backend"
    out["machine.backend.blocks"] = sum(r.elems for r in rows if back(r))
    out["machine.backend.run_blocks_s"] = dur(back)

    out["apps.driver_self_s"] = self_s(lambda r: r.layer == "apps")
    out["baselines.dpfl_s"] = dur(lambda r: r.layer == "baselines.dpfl" and r.outer)
    out["baselines.parix_c_s"] = dur(
        lambda r: r.layer == "baselines.parix_c" and r.outer
    )
    out["eval.oracle_s"] = dur(lambda r: r.layer == "eval" and r.name == "oracle")
    for phase in ("parse", "typecheck", "instantiate", "fusion", "codegen",
                  "pyexec", "compile", "run"):
        out[f"lang.{phase}_s"] = dur(lambda r: r.layer == "lang" and r.name == phase)
    for step in ("analysis", "export"):
        out[f"obs.{step}_s"] = dur(lambda r: r.layer == "obs" and r.name == step)
    return out


# ------------------------------------------------------------------- modes
def measure(args) -> dict:
    wl = build(args.workload, Env(), args.seed, args.quick)
    t_built = perf_counter()
    warm = run_pass(wl.ops)
    warm_up = perf_counter() - t_built
    # the cold pass op by op, so that run.py can take each part's least time
    setup = {f"warm_up/{i}": o.wall for i, o in warm.outcomes.items()}
    setup["warm_up checks"] = warm_up - math.fsum(setup.values())
    setup.update({"import": _T_IMPORTED - _T_START, "inputs": t_built - _T_IMPORTED})
    passes: list[Pass] = []
    try:
        deadline = perf_counter() + args.seconds
        while not passes or perf_counter() < deadline:
            p = run_pass(wl.ops)
            guard(warm, p, f"untraced pass {len(passes) + 1}")
            passes.append(p)
    finally:
        wl.close()
    out = report(wl.ops, warm, passes)
    out.update(setup=setup, peak_rss_mb=peak_rss_mb(), sizes=wl.sizes)
    return out


def trace(args) -> dict:
    quick = args.quick
    rec = Recorder()
    # both builds live side by side and their passes alternate, so that the
    # overhead ratio compares like with like: a build made after another was
    # freed finds the allocator warm and ran skeleton_calls 12 % faster
    wl = build(args.workload, Env(), args.seed, quick)
    twl = build(args.workload, Env(rec), args.seed, quick)
    base: list[Pass] = []
    traced: list[Pass] = []
    per_pass: list[dict[str, float]] = []
    worst_gap = 0.0
    try:
        warm = run_pass(wl.ops)
        if not quick:
            guard(warm, run_pass(twl.ops, rec), "the traced warm-up")
        deadline = perf_counter() + args.seconds * 2 / 3
        while not per_pass or perf_counter() < deadline:
            p = run_pass(wl.ops)
            guard(warm, p, f"untraced pass {len(base) + 1}")
            base.append(p)
            rec.clear()
            tp = run_pass(twl.ops, rec)
            guard(warm, tp, f"traced pass {len(per_pass) + 1}")
            rows = rec.rows()
            worst_gap = max(worst_gap, sum_check(rows))
            m = ledger(rows, twl.ops, tp)
            m.update(twl.layers(rows, tp.outcomes))
            per_pass.append(m)
            traced.append(tp)
        out = report(wl.ops, warm, base)
        for tp in traced:
            out["failed"] += len(tp.failed())
            out["attempted"] += len(tp.outcomes)
            out["errors"].update({i: tp.outcomes[i].error for i in tp.failed()})
        base_wall = math.fsum(out["best_wall"].values())
        probes = twl.probes(base_wall)
    finally:
        wl.close()
        twl.close()
    timed = [op for op in twl.ops if not op.trace_only]
    layers = {name: 0.0 for name in PER_LAYER}
    for name in per_pass[0]:
        layers[name] = statistics.median(m[name] for m in per_pass)
    layers.update(probes)
    # base: the untraced passes of this process, least time per op on both sides
    layers["bench.trace_overhead_x"] = (
        math.fsum(best(timed, traced, "wall").values()) / base_wall)
    layers["sim_s"] = out["sim_s"]
    layers["ops"] = out["ops"]
    unknown = sorted(set(layers) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}.json"
    rec.dump(trace_file)
    out.update(
        per_layer=layers,
        traced_passes=len(per_pass),
        self_time_gap=worst_gap,
        trace_file=str(trace_file.relative_to(OUT_DIR.parent.parent)),
        sizes=twl.sizes,
    )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--mode", choices=("measure", "trace"), default="measure")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    # array_fold warns about folding functions that do not promise
    # associativity (the gauss pivot search); not this benchmark's concern
    warnings.simplefilter("ignore", UserWarning)
    out = measure(args) if args.mode == "measure" else trace(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
