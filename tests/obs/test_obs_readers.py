"""Observability keeps only what something reads (ROADMAP item 6).

Every value the stream sinks update per wave or per span must name a
reader among the code that runs (`repro.eval`, the report formatters,
the heartbeat): an attribute only its own module and the reference
checks of ``repro.check`` ever look at is bookkeeping, and bookkeeping
was most of stream mode's cost.  The structural half is an ``ast`` scan
in the style of ``tests/skeletons/test_charge_seam.py``; the behavioural
half holds the other promise of the diet, that stream mode retains no
closed span.
"""

import ast
import gc
from pathlib import Path

import repro
from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.machine.machine import Machine
from repro.obs.metrics import isolated_metrics
from repro.obs.span import Span
from repro.skeletons import SkilContext

SRC = Path(repro.__file__).parent

#: class name -> the module (relative to ``src/repro``) that defines it
KEPT = {
    "StreamObserver": "obs/stream.py",
    "StreamTimeline": "obs/stream.py",
    "SkeletonAgg": "obs/span.py",
}
#: attributes that are wiring rather than observations, and why no code
#: outside the defining module reads them
ALLOWED = {
    ("StreamObserver", "spill"): "the writer the timeline and the sinks "
    "share; its product is the JSONL file, read by whoever asked for it",
    ("StreamObserver", "heartbeat"): "set by run_traced, ticked by on_span; "
    "its product is the progress line",
}


def _state(cls: ast.ClassDef) -> set[str]:
    """Public attributes *cls* declares: dataclass fields and whatever
    ``__init__`` assigns on ``self``."""
    names = {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
            names |= {
                node.attr
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
    return {n for n in names if not n.startswith("_")}


def _reads(path: Path) -> set[str]:
    """Names *path* reads: attribute loads, and string subscripts —
    ``accounting()`` hands the ``*_seen`` counters on under their own
    names, so ``acc["messages_seen"]`` is a read of ``messages_seen``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            out.add(node.slice.value)
    return out


def test_every_kept_value_has_a_reader_that_runs():
    unread, excused = [], set()
    for cls_name, rel in KEPT.items():
        tree = ast.parse((SRC / rel).read_text())
        cls = next(
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == cls_name
        )
        readers = set()
        for path in SRC.rglob("*.py"):
            if path != SRC / rel and "check" not in path.relative_to(SRC).parts:
                readers |= _reads(path)
        for attr in sorted(_state(cls)):
            if attr in readers:
                continue
            if (cls_name, attr) in ALLOWED:
                excused.add((cls_name, attr))
            else:
                unread.append(f"{cls_name}.{attr}")
    assert not unread, f"kept but read by nothing that runs: {unread}"
    # the allow-list names only attributes that still need it
    assert excused == set(ALLOWED)


def test_the_scan_covers_the_wall_columns():
    """``SkeletonAgg``'s wall total is kept state like its simulated
    fields, so the scan above holds it to the same rule: the
    per-skeleton table reads it."""
    tree = ast.parse((SRC / KEPT["SkeletonAgg"]).read_text())
    cls = next(
        n for n in tree.body
        if isinstance(n, ast.ClassDef) and n.name == "SkeletonAgg"
    )
    assert "wall_seconds" in _state(cls)
    assert "wall_seconds" in _reads(SRC / "eval" / "trace_report.py")


def test_the_scan_sees_an_unread_attribute(tmp_path):
    """The rule can fail: a counter nothing reads is found."""
    (tmp_path / "a.py").write_text(
        "class K:\n"
        "    def __init__(self):\n"
        "        self.kept = 0\n"
        "        self.dead = 0\n"
        "        self._private = 0\n"
    )
    (tmp_path / "b.py").write_text("def f(k, acc):\n    return k.kept\n")
    cls = ast.parse((tmp_path / "a.py").read_text()).body[0]
    assert _state(cls) == {"kept", "dead"}
    assert _state(cls) - _reads(tmp_path / "b.py") == {"dead"}


def test_stream_mode_retains_no_closed_span():
    machine = Machine(64, trace_level=2, trace_mode="stream")
    with isolated_metrics():
        shpaths(SkilContext(machine), random_distance_matrix(16, seed=3))
    obs = machine.stream_obs
    assert obs.spans_seen > 50
    # everything reachable from the observer, following strong references
    seen, todo = {id(obs)}, [obs]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                todo.append(ref)
    held = [
        o for o in gc.get_objects()
        if isinstance(o, Span) and o.closed and id(o) in seen
    ]
    assert held == []
    assert obs.accounting()["spans_retained"] == 0
    obs.assert_bounded()
