"""The generic ``pardata`` construct.

The paper's ``pardata name <$t1,...,$tn> implem ;`` declares a
distributed ("parallel") data structure: one *implem* instance per
processor, identified collectively by *name*, with the implementation
hidden from user code.  ``array<$t>`` is the instance the paper builds
its skeletons on; this module provides the general mechanism so other
homogeneous distributed structures (distributed lists, hash tables, ...)
can be declared, and so the Skil front end has something to resolve
``pardata`` declarations against.

Two of the paper's static rules are enforced here:

* pardata types may **not be nested** — a type argument must not itself
  be (or contain) a pardata;
* the implementation is hidden — :class:`PardataInstance` exposes only
  the per-processor handle to the declaring module, not to user code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SkilError
from repro.machine.machine import Machine

__all__ = [
    "PardataDecl",
    "PardataInstance",
    "PardataRegistry",
    "GLOBAL_REGISTRY",
]


@dataclass(frozen=True)
class PardataDecl:
    """A declared distributed type.

    Parameters
    ----------
    name:
        The pardata's identifier (e.g. ``"array"``).
    type_params:
        Names of the type variables, e.g. ``("$t",)``.
    factory:
        ``factory(machine, rank, *type_args)`` building the per-processor
        local structure.  ``None`` declares only the visible "header"
        (like using the construct "without the implem part, similarly to
        prototypes of library functions").
    """

    name: str
    type_params: tuple[str, ...] = ()
    factory: Callable[..., Any] | None = None

    @property
    def arity(self) -> int:
        return len(self.type_params)


class PardataInstance:
    """One distributed value of a pardata type: a local structure per rank."""

    def __init__(self, decl: PardataDecl, machine: Machine, type_args: tuple):
        if decl.factory is None:
            raise SkilError(
                f"pardata {decl.name!r} was declared without an implementation"
            )
        if len(type_args) != decl.arity:
            raise SkilError(
                f"pardata {decl.name!r} expects {decl.arity} type arguments, "
                f"got {len(type_args)}"
            )
        for a in type_args:
            if isinstance(a, (PardataDecl, PardataInstance)):
                raise SkilError(
                    "pardata types may not be nested: type arguments cannot "
                    "be instantiated with other pardatas"
                )
        self.decl = decl
        self.machine = machine
        self.type_args = type_args
        self._locals = [
            decl.factory(machine, r, *type_args) for r in range(machine.p)
        ]

    def local(self, rank: int) -> Any:
        if not (0 <= rank < self.machine.p):
            raise SkilError(f"rank {rank} outside machine of {self.machine.p}")
        return self._locals[rank]


class PardataRegistry:
    """Name -> declaration table used by the Skil front end."""

    def __init__(self) -> None:
        self._decls: dict[str, PardataDecl] = {}

    def declare(self, decl: PardataDecl) -> PardataDecl:
        existing = self._decls.get(decl.name)
        if existing is not None:
            if existing.factory is not None and decl.factory is not None:
                raise SkilError(f"pardata {decl.name!r} already declared")
            if existing.type_params != decl.type_params:
                raise SkilError(
                    f"pardata {decl.name!r} redeclared with different type "
                    f"parameters {decl.type_params} (was {existing.type_params})"
                )
            # header + later implementation (or vice versa) merge
            merged = PardataDecl(
                decl.name, decl.type_params, decl.factory or existing.factory
            )
            self._decls[decl.name] = merged
            return merged
        self._decls[decl.name] = decl
        return decl

    def lookup(self, name: str) -> PardataDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise SkilError(f"unknown pardata type {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def instantiate(
        self, name: str, machine: Machine, *type_args
    ) -> PardataInstance:
        return PardataInstance(self.lookup(name), machine, type_args)


#: registry pre-populated with the paper's ``array`` header; the concrete
#: array implementation lives in :mod:`repro.arrays.darray` and is created
#: through the skeletons, so the factory here only covers generic use.
GLOBAL_REGISTRY = PardataRegistry()
GLOBAL_REGISTRY.declare(PardataDecl(name="array", type_params=("$t",)))
