"""Consistency checks tying the documentation to the code base.

Documentation that references missing files or modules rots silently;
these tests make the references load-bearing.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class TestReadme:
    def test_exists_and_names_the_paper(self):
        text = (ROOT / "README.md").read_text()
        assert "Skil" in text
        assert "Botorog" in text and "Kuchen" in text
        assert "HPDC 1996" in text

    def test_example_table_entries_exist(self):
        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"\| `([a-z_]+\.py)` \|", text):
            assert (ROOT / "examples" / name).exists(), name

    def test_quickstart_snippet_runs(self):
        """The README's quickstart block must execute as written."""
        text = (ROOT / "README.md").read_text()
        block = text.split("```python")[1].split("```")[0]
        ns: dict = {}
        exec(block, ns)  # noqa: S102
        assert ns["total"] > 0


class TestDesignDoc:
    def test_module_map_points_at_real_modules(self):
        text = (ROOT / "DESIGN.md").read_text()
        for mod in re.findall(r"`(repro/[a-z_/]+\.py)`", text):
            assert (ROOT / "src" / mod).exists(), mod

    def test_experiment_index_benches_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for bench in re.findall(r"`benchmarks/([a-z0-9_]+\.py)`", text):
            assert (ROOT / "benchmarks" / bench).exists(), bench


class TestExperimentsDoc:
    def test_regeneration_commands_reference_real_benches(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in re.findall(r"benchmarks/([a-z0-9_]+\.py)", text):
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_measured_tables_present(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "Table 1" in text and "Table 2" in text and "Figure 1" in text
        for aid in ("A1", "A2", "A3", "A4", "A5"):
            assert aid in text, aid


#: every file whose prose or steps tell a reader what to run
COMMAND_DOCS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def _accepts(main, subcommand: str) -> bool:
    """Whether a CLI's parser takes *subcommand* (parse only: ``--help``
    stops it after the positional was validated)."""
    try:
        rc = main([subcommand, "--help"])
    except SystemExit as exc:
        rc = exc.code
    return rc == 0


@pytest.mark.parametrize(
    "doc", COMMAND_DOCS, ids=lambda d: str(d.relative_to(ROOT))
)
class TestCommandsAndPaths:
    """A command or artefact path written down must still exist — what
    keeps references to a retired entry point from dangling."""

    def test_module_commands_resolve(self, doc):
        import importlib.util

        from repro.check.__main__ import main as check_main
        from repro.eval.__main__ import main as eval_main

        cli = {"repro.eval": eval_main, "repro.check": check_main}
        found = set(re.findall(
            r"python3? -m (repro(?:\.\w+)*)(?:[ \t]+([a-z][\w-]*))?",
            doc.read_text(),
        ))
        for module, sub in sorted(found):
            assert importlib.util.find_spec(module) is not None, module
            if sub and module in cli:
                assert _accepts(cli[module], sub), f"{module} {sub}"

    def test_artefact_paths_exist(self, doc):
        found = set(re.findall(
            r"\b(BENCH_\w+\.json|results/[\w./-]*\w|"
            r"bench/[\w/-]+\.(?:py|json|md|txt))",
            doc.read_text(),
        ))
        for path in sorted(found):
            assert (ROOT / path).exists(), path


class TestBenchSnapshot:
    """``BENCH_perf.json`` is one full traced ``bench/run.py`` result,
    shaped by ``BENCHMARK.json`` — not a hand-merged file."""

    def test_is_a_full_traced_run_of_the_declared_benchmark(self):
        import json

        doc = json.loads((ROOT / "BENCH_perf.json").read_text())
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert doc["quick"] is False
        host = doc["host"]
        assert host["nproc"] >= 1 and host["python"] and host["numpy"]
        assert re.fullmatch(r"[0-9a-f]{40}", host["git_commit"])
        assert list(doc["workloads"]) == [
            w["name"] for w in declared["workloads"]
        ]
        metrics = {m["name"] for m in declared["end_to_end"]}
        layers = {m["name"] for m in declared["per_layer"]}
        for name, w in doc["workloads"].items():
            assert set(w["end_to_end"]) == metrics, name
            assert set(w["per_layer"]) == layers, name  # --trace
            assert w["failed_ops"] == 0 and w["failed"] == 0, name
            assert w["ops"] > 0 and w["attempted"] >= w["ops"], name


class TestLanguageDoc:
    def test_builtins_documented(self):
        from repro.lang.builtins import BUILTIN_FUNCTIONS

        text = (ROOT / "docs" / "LANGUAGE.md").read_text()
        for name in BUILTIN_FUNCTIONS:
            if name.startswith("array_"):
                assert name in text, f"{name} missing from LANGUAGE.md"

    def test_skeleton_doc_lists_context_methods(self):
        from repro.skeletons import SkilContext

        text = (ROOT / "docs" / "SKELETONS.md").read_text()
        for method in (
            "array_create", "array_map", "array_fold", "array_gen_mult",
            "array_map_overlap", "divide_and_conquer", "farm",
        ):
            assert hasattr(SkilContext, method)
            assert method in text, f"{method} missing from SKELETONS.md"


class TestSkilSourcesShipped:
    def test_skil_files_compile(self):
        from repro.lang import compile_skil_file

        for f in (ROOT / "examples" / "skil").glob("*.skil"):
            compile_skil_file(f)

    def test_at_least_two_skil_files(self):
        assert len(list((ROOT / "examples" / "skil").glob("*.skil"))) >= 2


class TestNoDeadModules:
    """Every module under ``src/repro/`` is imported, directly or not, by
    something a user runs — a module kept alive only by its own tests is
    periphery to delete, not to maintain (ROADMAP item 12)."""

    SRC = ROOT / "src"
    RUN_ROOTS = [
        SRC / "repro" / "eval" / "__main__.py",
        SRC / "repro" / "check" / "__main__.py",
        *sorted((ROOT / "examples").glob("*.py")),
        *sorted((ROOT / "benchmarks").glob("*.py")),
        *sorted((ROOT / "bench").rglob("*.py")),
    ]

    @classmethod
    def _file_of(cls, module: str) -> Path | None:
        base = cls.SRC.joinpath(*module.split("."))
        for f in (base / "__init__.py", base.with_suffix(".py")):
            if f.exists():
                return f
        return None

    @classmethod
    def _name_of(cls, f: Path) -> str:
        parts = f.relative_to(cls.SRC).with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    @staticmethod
    def _imported(f: Path) -> set[str]:
        """Dotted names *f* imports absolutely (the code base has no
        relative imports; one would show here as a module not reached).
        ``from m import x`` yields ``m`` and ``m.x``: *x* may be a module."""
        names: set[str] = set()
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{a.name}" for a in node.names)
        return names

    def test_every_module_is_reachable_from_a_run_root(self):
        reached = {self._name_of(f) for f in self.RUN_ROOTS if self.SRC in f.parents}
        todo = list(self.RUN_ROOTS)
        while todo:
            for name in self._imported(todo.pop()):
                parts = name.split(".")
                # importing a.b.c runs a/__init__ and a/b/__init__ too
                for module in (".".join(parts[: i + 1]) for i in range(len(parts))):
                    f = self._file_of(module)
                    if f is not None and module not in reached:
                        reached.add(module)
                        todo.append(f)
        every = {self._name_of(f) for f in (self.SRC / "repro").rglob("*.py")}
        assert sorted(every - reached) == []
