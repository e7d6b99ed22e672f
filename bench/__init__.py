"""The repository benchmark: five workloads, two clocks, one per-layer ledger.

Run ``python3 bench/run.py --help``; see ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout (it is not installed)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
