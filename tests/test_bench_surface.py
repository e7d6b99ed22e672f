"""The benchmark's surface in the package: every name ``bench/`` imports
from ``repro`` and every ``Network`` method its seam wraps must exist.

Read from the source with ``ast`` — ``bench`` itself is not imported —
so a removal that would break the benchmark fails here, and not only in
a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

from repro.machine.network import Network

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees():
    return [(f, ast.parse(f.read_text())) for f in sorted(BENCH.rglob("*.py"))]


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_repro_import_of_the_benchmark_resolves():
    imports = []
    for f, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    imports += [(f, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imports += [(f, a.name, None) for a in node.names
                            if a.name.split(".")[0] == "repro"]
    assert len(imports) > 20  # the parse found the benchmark's imports
    missing = [f"{f.relative_to(BENCH.parent)}: from {m} import {n}"
               for f, m, n in imports if not _resolves(m, n)]
    assert missing == []


def test_every_wrapped_network_method_is_public():
    (value,) = [
        node.value
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "NETWORK_METHODS" for t in node.targets)
    ]
    names = ast.literal_eval(value)
    assert "shift_batch" in names and "barrier" in names
    bad = [name for name in names if name.startswith("_")
           or not inspect.isfunction(getattr(Network, name, None))]
    assert bad == []
