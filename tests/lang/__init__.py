"""Tests of ``repro.lang``; :func:`skil_corpus` is the set of valid
programs the corpus-wide tests (traversal kit, mutation sweep) share."""

import random
from pathlib import Path

SKIL_DIR = Path(__file__).resolve().parents[2] / "examples" / "skil"


def skil_corpus() -> dict[str, str]:
    """Valid Skil sources by name: the five ``apps.skil_sources``,
    ``examples/skil/*.skil``, a few fuzz programs and one program of
    every ``check.fusionprog`` family."""
    from repro.apps import skil_sources
    from repro.check.fusionprog import FAMILIES
    from repro.check.fuzz import generate_spec, render

    return {
        **{n: getattr(skil_sources, n) for n in dir(skil_sources) if n.endswith("_SKIL")},
        **{p.name: p.read_text() for p in sorted(SKIL_DIR.glob("*.skil"))},
        **{f"fuzz{seed}": render(generate_spec(seed)) for seed in range(4)},
        **{
            f"family{i}": family(random.Random(i)).source
            for i, family in enumerate(FAMILIES)
        },
    }
