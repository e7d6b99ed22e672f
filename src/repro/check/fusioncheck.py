"""The ``fusion`` conformance pillar: fused ≡ unfused, and cheaper.

Every trial draws a program from one of the fusable families
(:mod:`repro.check.fusionprog`), compiles it twice — once with the
skeleton discovery & fusion pass off, once on — and checks, at every
p in ``FUSION_PS``:

1. **value equality, bit-exact** — the fused program's result equals
   the unfused one with no tolerance (the pass's dtype gate guarantees
   exactness even for ``double`` chains);
2. **the reference interpreter agrees** (families it supports) — ties
   the pair to the same oracle the fuzzer uses;
3. **simulated seconds do not regress** — fused time ≤ unfused time;
4. **whole rounds disappear** for the skeleton-chain families —
   ``stats.skeleton_calls`` strictly drops (discovery families instead
   trade per-element front-end messages for one collective, so only
   the time bound applies);
5. the pass actually fired (``fusion_report.rewrites`` non-empty) —
   a silent no-op pass would otherwise vacuously satisfy 1–4.
"""

from __future__ import annotations

import random
import time
import traceback

import numpy as np

from repro.check.fusionprog import FAMILIES, FUSION_PS, FusionProgram
from repro.check.interp import Interp
from repro.check.report import CheckResult, Failure

__all__ = ["run_fusion", "run_fusion_raw", "check_fusion_program"]


def _value_of(out):
    if hasattr(out, "global_view"):
        return np.array(out.global_view())
    return out


def _bit_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    # scalars: bit-exact value comparison, indifferent to Python-int vs
    # numpy-int64 wrappers (a fold returns a numpy scalar)
    a = np.asarray(a).item()
    b = np.asarray(b).item()
    return type(a) is type(b) and a == b


def check_fusion_program(prog: FusionProgram) -> str | None:
    """All pillar properties over one program; None if OK."""
    from repro.lang.compiler import compile_skil
    from repro.machine.machine import Machine
    from repro.skeletons import SkilContext

    unfused = compile_skil(prog.source, fusion=False)
    fused = compile_skil(prog.source, fusion=True)
    if prog.expect_rewrites and not fused.fusion_report.rewrites:
        return (
            f"{prog.family}: the fusion pass made no rewrites on a "
            "fusable family program"
        )

    interp_expected = None
    if prog.interp_ok:
        interp_expected = Interp(unfused.checked).run(prog.entry, *prog.args)
        if hasattr(interp_expected, "data"):
            interp_expected = np.array(interp_expected.data)

    for p in FUSION_PS:
        with Machine(p) as m0:
            v0 = _value_of(unfused.run(prog.entry, *prog.args,
                                       ctx=SkilContext(m0)))
            rounds0, sim0 = m0.stats.skeleton_calls, m0.time
        with Machine(p) as m1:
            v1 = _value_of(fused.run(prog.entry, *prog.args,
                                     ctx=SkilContext(m1)))
            rounds1, sim1 = m1.stats.skeleton_calls, m1.time
        if not _bit_equal(v0, v1):
            return (
                f"{prog.family} p={p}: fused value differs from unfused\n"
                f"unfused: {v0!r}\nfused:   {v1!r}"
            )
        if interp_expected is not None:
            iv = interp_expected
            ok = (
                np.array_equal(iv, v0)
                if isinstance(iv, np.ndarray)
                else float(iv) == float(v0)
                if prog.elem == "double"
                else int(iv) == int(v0)
            )
            if not ok:
                return (
                    f"{prog.family} p={p}: interpreter disagrees with the "
                    f"unfused program\ninterp:  {iv!r}\nunfused: {v0!r}"
                )
        if sim1 > sim0:
            return (
                f"{prog.family} p={p}: fusion made the simulated schedule "
                f"slower ({sim1:.6g}s fused vs {sim0:.6g}s unfused)"
            )
        if prog.expect_fewer_rounds and not rounds1 < rounds0:
            return (
                f"{prog.family} p={p}: expected strictly fewer skeleton "
                f"rounds, got {rounds0} unfused vs {rounds1} fused"
            )
    return None


def _run_trial(trial_seed: int, res: CheckResult, verbose: bool = False) -> None:
    from repro.obs.metrics import isolated_metrics

    rng = random.Random(trial_seed)
    fam = FAMILIES[trial_seed % len(FAMILIES)]
    res.trials += 1
    prog = None
    try:
        prog = fam(rng)
        with isolated_metrics():
            msg = check_fusion_program(prog)
    except Exception:
        msg = traceback.format_exc(limit=8)
    name = prog.family if prog is not None else fam.__name__
    res.coverage[f"family.{name}"] = res.coverage.get(f"family.{name}", 0) + 1
    if msg is not None:
        res.failures.append(
            Failure(
                pillar="fusion",
                seed=trial_seed,
                title=f"fusion trial failed ({name})",
                detail=msg,
                reproducer=prog.source if prog is not None else "",
            )
        )
        if verbose:
            print(f"fusion seed {trial_seed}: FAIL ({name})")


def run_fusion(
    seed: int = 0,
    budget: int = 35,
    time_budget: float | None = None,
    verbose: bool = False,
) -> CheckResult:
    """Run *budget* fused-vs-unfused trials across the 7 families."""
    res = CheckResult("fusion")
    t0 = time.monotonic()
    for i in range(budget):
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        _run_trial(seed * 1_000_003 + i, res, verbose=verbose)
    return res


def run_fusion_raw(seed: int, budget: int = 1) -> CheckResult:
    """Replay exact per-trial seeds printed by a failure report."""
    res = CheckResult("fusion")
    for k in range(budget):
        _run_trial(seed + k, res)
    return res
