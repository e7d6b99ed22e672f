"""The Skil compiler driver: source text -> executable module.

Pipeline (the paper's front-end compiler, with Python standing in for
the C back end):

1. :func:`repro.lang.parser.parse` — lexing + parsing,
2. :func:`repro.lang.typecheck.check` — polymorphic type checking,
3. :func:`repro.lang.instantiate.instantiate_program` — translation by
   instantiation into first-order monomorphic functions,
4. only under ``compile_skil(src, fusion=True)``:
   :func:`repro.lang.fusion.fuse_program` — skeleton discovery & fusion,
5. :func:`repro.lang.codegen.generate_python` — code emission,
6. ``exec`` of the generated module.

External (host-supplied) functions are declared in Skil with prototypes
and bound at :meth:`SkilModule.run` time, like linking against the C
objects of the application's sequential parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SkilError
from repro.lang import runtime as _rt
from repro.lang.codegen import generate_python, py_name
from repro.lang.instantiate import InstantiatedProgram, instantiate_program
from repro.lang.parser import parse
from repro.lang.typecheck import CheckedProgram, check
from repro.lang.types import TPrim
from repro.skeletons import SkilContext

__all__ = ["SkilModule", "compile_skil"]


@dataclass
class SkilModule:
    """A compiled Skil program ready to run on a machine context."""

    source: str
    python_source: str
    checked: CheckedProgram
    instantiated: InstantiatedProgram
    namespace: dict = field(default_factory=dict)
    #: the :class:`repro.lang.fusion.FusionReport` when the program was
    #: compiled with skeleton fusion, else ``None``
    fusion_report: Any = None

    @property
    def instantiation_report(self) -> dict[str, list[str]]:
        """source function -> generated monomorphic instances."""
        return self.instantiated.report

    def entry_names(self) -> list[str]:
        return list(self.instantiated.entries)

    def dump_instances(self) -> str:
        """The instantiated program rendered back as Skil/C text — the
        readable counterpart of the paper's §2.4 intermediate code."""
        from repro.lang.printer import print_function

        out = []
        for f in self.instantiated.all_functions():
            out.append(print_function(f))
        return "\n".join(out)

    def run(
        self,
        entry: str,
        *args,
        ctx: SkilContext,
        externals: dict[str, Callable] | None = None,
    ) -> Any:
        """Execute *entry* with *args* on the given skeleton context.

        *externals* provides Python implementations for every Skil
        prototype without a body (checked here, like a linker would).
        """
        externals = dict(externals or {})
        missing = [n for n in self.checked.externals if n not in externals]
        if missing:
            raise SkilError(
                f"unresolved external function(s): {', '.join(sorted(missing))}"
            )
        unknown = [n for n in externals if n not in self.checked.externals]
        if unknown:
            raise SkilError(
                f"externals {', '.join(sorted(unknown))} were not declared in "
                "the Skil source"
            )
        if entry not in self.instantiated.entries:
            raise SkilError(
                f"{entry!r} is not an entry point (entries: "
                f"{', '.join(self.entry_names()) or 'none'})"
            )
        for name, fn in externals.items():
            if not hasattr(fn, "ops"):
                fn.ops = 1.0
            self.namespace[py_name(name)] = fn
        self.namespace["_ctx"] = ctx
        try:
            return self.namespace[py_name(entry)](*args)
        finally:
            self.namespace["_ctx"] = None


def compile_skil_file(path) -> SkilModule:
    """Compile a ``.skil`` source file (convenience wrapper)."""
    from pathlib import Path

    return compile_skil(Path(path).read_text())


def compile_skil(
    source: str,
    *,
    fusion: bool | None = False,
    no_fuse_lines=(),
) -> SkilModule:
    """Compile Skil source text into an executable :class:`SkilModule`.

    *fusion* enables the skeleton discovery & fusion pass
    (:mod:`repro.lang.fusion`) between instantiation and code emission.
    This keyword is the only place the pass is chosen: it is off (also
    for ``None``) unless a caller asks, because the unfused program is
    the one the paper measured.  *no_fuse_lines* opts individual source
    lines out of rewriting.
    """
    import sys

    from repro.obs import global_metrics

    global_metrics().inc("lang.compile_calls")

    # recursive-descent passes walk expression chains one frame per
    # operator; allow realistically long straight-line expressions
    limit = sys.getrecursionlimit()
    if limit < 20_000:
        sys.setrecursionlimit(20_000)
    program = parse(source)
    checked = check(program)
    # register struct dtypes for the runtime before executing anything
    for sd in checked.struct_decls.values():
        fields = []
        for fname, ftype in sd.fields:
            if isinstance(ftype, TPrim):
                fields.append((fname, ftype.name))
            else:
                # non-primitive fields are allowed by the checker but have
                # no numpy dtype; register lazily only when possible
                fields = []
                break
        if fields:
            _rt.register_struct(sd.name, fields)
    instantiated = instantiate_program(checked)
    fusion_report = None
    if fusion:
        from repro.lang.fusion import fuse_program

        fusion_report = fuse_program(instantiated, no_fuse_lines)
        global_metrics().inc(
            "lang.fusion_rewrites", len(fusion_report.rewrites)
        )
    python_source = generate_python(instantiated)
    namespace: dict = {}
    code = compile(python_source, "<skil-generated>", "exec")
    exec(code, namespace)  # noqa: S102 - compiling our own generated code
    return SkilModule(
        source,
        python_source,
        checked,
        instantiated,
        namespace,
        fusion_report=fusion_report,
    )
