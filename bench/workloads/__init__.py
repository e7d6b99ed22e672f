"""The benchmark's workloads.

Each module exposes ``build(env, seed, quick) -> Workload``.  Set-up (inputs
from the seed, references) happens inside ``build``; the returned ops are run
in order, once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable

import numpy as np

from bench.env import Env, Op
from bench.spans import Row

NAMES = (
    "paper_tables",
    "skeleton_calls",
    "backend_threads",
    "skil_compile",
    "scale_obs",
)


@dataclass
class Workload:
    ops: list[Op]
    #: per-layer metrics only this workload can compute, from a traced
    #: pass's rows and its outcomes by op id
    layers: Callable[[list[Row], dict], dict[str, float]] = lambda rows, results: {}
    #: extra measurements taken once in a traced run (never in a timed pass)
    #: (given the wall seconds of this run's untraced pass, for ratios against it)
    probes: Callable[[float], dict[str, float]] = lambda base_wall_s: {}
    #: releases worker threads and the like
    close: Callable[[], None] = lambda: None
    #: sizes as run, recorded in the output
    sizes: dict = field(default_factory=dict)


def build(name: str, env: Env, seed: int, quick: bool) -> Workload:
    if name not in NAMES:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return import_module(f"bench.workloads.{name}").build(env, seed, quick)


def seeded(seed: int, *stream: int) -> np.random.Generator:
    """One independent generator per named input of a workload."""
    return np.random.default_rng([seed, *stream])
