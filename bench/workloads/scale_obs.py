"""``scale_obs``: large machines, where charging and observability are the cost.

Why: at large p the closed-form ``machine.network`` charging and ``obs`` are
the whole cost and kernels are noise.  ``obs`` is used two ways, streaming
aggregates and a recorded DAG with critical path and export, so that ROADMAP
item 5's online critical path or item 2's single charging path cannot win
one mode by losing the other.

Checks: the untraced, streamed and recorded runs of the same program agree
bit for bit on simulated seconds, messages and bytes; the bare-``Network``
collectives send exactly the number of messages their definition implies.
"""

from __future__ import annotations

import os
import shutil
from typing import Callable

from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shpaths,
)
from repro.eval.tracecmd import run_traced
from repro.machine.costmodel import SKIL, T800_PARSYTEC
from repro.machine.network import Network
from repro.machine.topology import DefaultMapping, Mesh2D
from repro.obs import analyze_machine, write_chrome_trace
from repro.obs.stream import StreamConfig

from bench import OUT_DIR
from bench.env import Env, Op, Result
from bench.workloads import Workload

NBYTES = 4096


def build(env: Env, seed: int, quick: bool) -> Workload:
    big_p, big_n = (64, 16) if quick else (256, 32)
    rec_p, rec_n = (16, 16) if quick else (16, 32)
    coll_p = 1024 if quick else 65536
    a2a_p = 64 if quick else 256

    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)

    def run_shpaths(p: int, n: int, **machine_kw):
        """``run_traced``; in a traced pass, its steps on instrumented objects."""
        if not env.traced:
            run = run_traced("shpaths", p=p, n=n, seed=seed, **machine_kw)
            return run.machine, run.seconds
        machine = env.machine(p, **machine_kw)
        ctx = env.context(machine, SKIL)
        with env.span("eval", "inputs"):
            n_eff = round_up_to_grid(n, machine.mesh.rows)
            dist = random_distance_matrix(n_eff, density=0.25, seed=seed)
        with env.span("apps", "shpaths"):
            _, report = shpaths(ctx, dist)
        return machine, report.seconds

    def result(machine, seconds: float, **extra) -> Result:
        counts = {"msgs": machine.stats.messages, "bytes": machine.stats.bytes_sent}
        counts.update(extra)
        return Result(sim_s=seconds, counts=counts)

    #: what the untraced run of this pass reported, by p
    plain: dict[int, Result] = {}

    def same_as_plain(p: int) -> Callable[[Result], bool]:
        def check(res: Result) -> bool:
            ref = plain[p]
            return res.sim_s == ref.sim_s and all(
                res.counts[k] == ref.counts[k] for k in ("msgs", "bytes"))

        return check

    def off(p: int, n: int) -> Callable[[], Result]:
        def run() -> Result:
            plain[p] = result(*run_shpaths(p, n, trace_level=0))
            return plain[p]

        return run

    def stream() -> Result:
        return result(*run_shpaths(big_p, big_n, trace_level=2, trace_mode="stream"))

    def record() -> Result:
        machine, seconds = run_shpaths(rec_p, rec_n, trace_level=2,
                                       trace_mode="record")
        with env.span("obs", "analysis"):
            analysis = analyze_machine(machine)
        path = tmp / "chrome.json"
        with env.span("obs", "export"):
            write_chrome_trace(path, machine)
        return result(machine, seconds, records=len(machine.stats.records),
                      path_steps=len(analysis.path.steps),
                      export_bytes=path.stat().st_size)

    def spill() -> Result:
        path = tmp / "spill.jsonl"
        for old in tmp.glob("spill.jsonl*"):
            old.unlink()
        machine, seconds = run_shpaths(
            rec_p, rec_n, trace_level=2, trace_mode="stream",
            stream=StreamConfig(spill_path=str(path)))
        machine.stream_obs.close()
        size = sum(f.stat().st_size for f in tmp.glob("spill.jsonl*"))
        return result(machine, seconds, spill_bytes=size)

    def bare(p: int) -> tuple[Network, DefaultMapping]:
        return (env.network(Network(T800_PARSYTEC, p)),
                DefaultMapping(Mesh2D.for_processors(p)))

    coll_net, coll_topo = bare(coll_p)
    a2a_net, a2a_topo = bare(a2a_p)

    def on_bare(net: Network, calls: Callable[[], None]) -> Callable[[], Result]:
        def run() -> Result:
            net.reset()
            net.stats.clear()
            calls()
            return Result(sim_s=net.time, counts={"msgs": net.stats.messages,
                                                  "bytes": net.stats.bytes_sent})

        return run

    def collectives() -> None:
        coll_net.broadcast(0, NBYTES, coll_topo)
        coll_net.allreduce(NBYTES, coll_topo, combine_seconds=1e-6)
        coll_net.gather(0, NBYTES, coll_topo)

    def sends(n: int) -> Callable[[Result], bool]:
        return lambda res: (res.counts["msgs"] == n
                            and res.counts["bytes"] == n * NBYTES)

    ops = [
        Op(f"shpaths/off/p{big_p}", off(big_p, big_n), group="off"),
        Op(f"shpaths/stream/p{big_p}", stream, same_as_plain(big_p), group="stream"),
        Op(f"shpaths/off/p{rec_p}", off(rec_p, rec_n), group="off"),
        Op(f"shpaths/record/p{rec_p}", record, same_as_plain(rec_p), group="record"),
        Op(f"shpaths/spill/p{rec_p}", spill, same_as_plain(rec_p), group="spill"),
        # broadcast p-1, allreduce 2(p-1), gather p-1 messages
        Op(f"collectives/p{coll_p}", on_bare(coll_net, collectives),
           sends(4 * (coll_p - 1)), group="collectives", skil=False),
        Op(f"alltoall/p{a2a_p}",
           on_bare(a2a_net, lambda: a2a_net.alltoall(NBYTES, a2a_topo)),
           sends(a2a_p * (a2a_p - 1)), group="collectives", skil=False),
    ]

    def layers(rows, outcomes) -> dict[str, float]:
        wall = {r.op: r.dur for r in rows if r.layer == "bench"}
        post = sum(r.dur for r in rows if r.layer == "obs")
        rec_id = f"shpaths/record/p{rec_p}"
        counts = lambda op_id, key: outcomes[op_id].counts.get(key, 0)
        return {
            # base: the untraced run of the same program in the same pass
            "obs.stream_x": wall[f"shpaths/stream/p{big_p}"] / wall[f"shpaths/off/p{big_p}"],
            "obs.record_x": (wall[rec_id] - post) / wall[f"shpaths/off/p{rec_p}"],
            "obs.records": counts(rec_id, "records"),
            "obs.spill_bytes": counts(f"shpaths/spill/p{rec_p}", "spill_bytes"),
            "machine.network.collective_p65536_s": wall[f"collectives/p{coll_p}"],
        }

    sizes = {"shpaths": {"p": big_p, "n": big_n},
             "recorded": {"p": rec_p, "n": rec_n},
             "collectives_p": coll_p, "alltoall_p": a2a_p, "nbytes": NBYTES}
    return Workload(ops, layers=layers,
                    close=lambda: shutil.rmtree(tmp, ignore_errors=True), sizes=sizes)
