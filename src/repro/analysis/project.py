"""Whole-project symbol table, call graph and dataflow for the domain linter.

PR 1's rules are per-file: each sees one module's AST and nothing else.
The invariants that matter at scale — no shared mutable state across agent
boundaries, no wall-clock reads on simulated-time paths, no unordered
iteration feeding the replay-critical event stream — are *cross-module
dataflow* properties: the offending call is usually three stack frames away
from the runtime entry point that makes it dangerous.  This module builds
the project-level facts those rules need:

* a **symbol table** per module: alias-aware import resolution
  (``import numpy as np``, ``from time import sleep``), function/method
  definitions with qualified names, class definitions with base names, and
  module-level mutable globals;
* a **call graph** over qualified names.  Calls that resolve statically
  (module-level functions, imported names, ``self.method()`` inside a
  class) get precise edges; calls through objects of unknown type
  (``obj.emit(...)``) get *method-name edges*, expanded conservatively to
  every project function of that name — an over-approximation, which is
  the right direction for a linter (reachability may over-report, never
  under-report);
* **reachability** in both directions: :meth:`ProjectContext.reachable_from`
  (what can a runtime entry point end up executing?) and
  :meth:`ProjectContext.reaching` (which functions can feed the
  trace-event stream?).

Everything is a plain AST pass — no imports of analyzed code, no
third-party dependencies — so ``repro lint --project`` stays safe to run
on broken working trees and finishes in well under the 10 s budget.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.engine import (
    Finding,
    ModuleContext,
    build_context,
    find_design_equations,
    iter_python_files,
)

#: A bare method-name call (``obj.emit(...)``) is expanded to every project
#: function of that name — unless more than this many share it, at which
#: point the name is too generic to carry signal.
_METHOD_FANOUT_LIMIT = 12

#: Container/stdlib vocabulary; expanding these would wire the whole graph
#: together through ``dict.get`` lookalikes.
_GENERIC_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "extend",
        "format",
        "get",
        "index",
        "items",
        "join",
        "keys",
        "partition",
        "pop",
        "read",
        "remove",
        "replace",
        "setdefault",
        "sort",
        "split",
        "startswith",
        "strip",
        "values",
        "write",
    }
)

#: Constructors whose result is a mutable container; module-level bindings
#: to these are shared-mutable-state candidates (R9).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "OrderedDict", "Counter"}
)

_MUTABLE_NUMPY_FACTORIES = frozenset({"array", "empty", "full", "ones", "zeros"})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: Dotted target when resolution succeeded: an internal qualname
    #: (``repro.core.lrgp.LRGP.step``), an external dotted name
    #: (``time.sleep``), or a bare builtin name (``open``).  ``None`` for
    #: calls through objects of unknown type.
    target: str | None
    #: Bare attribute name for ``obj.name(...)`` calls (set even when
    #: ``target`` resolved, for method-name matching).
    method: str | None
    line: int


@dataclass(frozen=True)
class MutableGlobal:
    """A module-level binding to a mutable container."""

    qualname: str  #: e.g. ``repro.runtime.registry.PENDING``
    module: str
    name: str
    line: int
    kind: str  #: ``list`` / ``dict`` / ``set`` / ``call:deque`` / ``ndarray:zeros``


@dataclass
class FunctionInfo:
    """One function or method definition, with project-wide identity."""

    qualname: str  #: e.g. ``repro.runtime.agents.SourceAgent.act``
    module: str
    name: str
    #: Enclosing class name (``SourceAgent``) or ``None`` at module level.
    owner: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: ModuleContext
    is_async: bool
    calls: list[CallSite] = field(default_factory=list)
    #: Qualnames of module-level mutable globals (any module) this function
    #: reads or writes.
    global_refs: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with its textual base names."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]


@dataclass
class ModuleSymbols:
    """Per-module symbol table."""

    module: str
    context: ModuleContext
    #: local alias -> dotted target: ``import numpy as np`` maps ``np ->
    #: numpy``; ``from time import sleep`` maps ``sleep -> time.sleep``.
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    mutable_globals: dict[str, MutableGlobal] = field(default_factory=dict)
    #: Module-level function name -> qualname (bare-name call resolution).
    toplevel_functions: dict[str, str] = field(default_factory=dict)


class ProjectContext:
    """Everything a project-level rule may inspect about the analyzed tree.

    Built once per ``repro lint --project`` run; the same parsed
    :class:`ModuleContext` objects back both the per-module rules and the
    project passes, so no file is read or parsed twice.
    """

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        #: Every analyzed module (including ones outside a ``repro`` tree).
        self.contexts: list[ModuleContext] = list(contexts)
        #: Modules with a resolvable ``repro.*`` dotted name.
        self.modules: dict[str, ModuleSymbols] = {}
        #: All function/method definitions across the project.
        self.functions: dict[str, FunctionInfo] = {}
        #: All class definitions across the project.
        self.classes: dict[str, ClassInfo] = {}
        #: All module-level mutable globals across the project.
        self.mutable_globals: dict[str, MutableGlobal] = {}
        self._by_method_name: dict[str, list[str]] = {}
        self._edges: dict[str, set[str]] = {}
        self._reverse: dict[str, set[str]] = {}

        for context in self.contexts:
            if not context.module:
                continue
            symbols = _collect_module(context)
            self.modules[symbols.module] = symbols
            self.functions.update(symbols.functions)
            self.classes.update(symbols.classes)
            self.mutable_globals.update(symbols.mutable_globals)

        for info in self.functions.values():
            self._by_method_name.setdefault(info.name, []).append(info.qualname)
        for symbols in self.modules.values():
            for info in symbols.functions.values():
                _scan_function(info, symbols, self)
        self._build_edges()

    # -- graph construction ---------------------------------------------------

    def _build_edges(self) -> None:
        for info in self.functions.values():
            edges = self._edges.setdefault(info.qualname, set())
            for site in info.calls:
                edges.update(self.expand_call(site))
        for caller, callees in self._edges.items():
            for callee in callees:
                self._reverse.setdefault(callee, set()).add(caller)

    def expand_call(self, site: CallSite) -> Iterator[str]:
        """Project-internal callee qualnames one call site may reach."""
        if site.target is not None and site.target in self.functions:
            yield site.target
            return
        method = site.method
        if method is None or method in _GENERIC_METHOD_NAMES:
            return
        candidates = self._by_method_name.get(method, ())
        if len(candidates) <= _METHOD_FANOUT_LIMIT:
            yield from candidates

    # -- queries --------------------------------------------------------------

    def callees(self, qualname: str) -> frozenset[str]:
        return frozenset(self._edges.get(qualname, ()))

    def callers(self, qualname: str) -> frozenset[str]:
        return frozenset(self._reverse.get(qualname, ()))

    def reachable_from(
        self,
        roots: Iterable[str],
        *,
        stop: Iterable[str] = (),
    ) -> set[str]:
        """Transitive call-graph closure from ``roots`` (inclusive).

        ``stop`` lists dotted module prefixes whose functions are included
        when reached but never traversed *through* — the allowlist
        mechanism R10 uses to keep the exempt telemetry layer from leaking
        its own callees into the reachable set.
        """
        return self._closure(roots, self._edges, tuple(stop))

    def reaching(self, sinks: Iterable[str]) -> set[str]:
        """All functions from which any of ``sinks`` is reachable (inclusive)."""
        return self._closure(sinks, self._reverse, ())

    def _closure(
        self,
        seeds: Iterable[str],
        edges: dict[str, set[str]],
        stop_prefixes: tuple[str, ...],
    ) -> set[str]:
        seen: set[str] = set()
        queue: deque[str] = deque()
        for seed in seeds:
            if seed in self.functions and seed not in seen:
                seen.add(seed)
                queue.append(seed)
        while queue:
            current = queue.popleft()
            info = self.functions[current]
            if any(_prefixed(info.module, prefix) for prefix in stop_prefixes):
                continue
            for neighbour in edges.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
        return seen

    def class_of(self, info: FunctionInfo) -> ClassInfo | None:
        if info.owner is None:
            return None
        return self.classes.get(f"{info.module}.{info.owner}")

    def context_for(self, module: str) -> ModuleContext | None:
        symbols = self.modules.get(module)
        return symbols.context if symbols else None


def _prefixed(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


# -- per-module collection -----------------------------------------------------


def _collect_module(context: ModuleContext) -> ModuleSymbols:
    symbols = ModuleSymbols(module=context.module, context=context)
    _collect_imports(context.tree, symbols)
    _collect_globals(context, symbols)
    _collect_functions(context, symbols)
    for info in symbols.functions.values():
        if info.owner is None:
            symbols.toplevel_functions[info.name] = info.qualname
    return symbols


def collect_import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local alias -> dotted target for every import in ``tree``.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import sleep``
    maps ``sleep -> time.sleep``.  Relative imports are skipped (their
    absolute target is unknowable without package layout assumptions).
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are out of scope for resolution
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _collect_imports(tree: ast.Module, symbols: ModuleSymbols) -> None:
    symbols.imports.update(collect_import_aliases(tree))


def _mutable_kind(node: ast.expr, symbols: ModuleSymbols) -> str | None:
    """``list``/``dict``/... when ``node`` builds a mutable container."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        resolved = resolve_dotted(node.func, symbols.imports)
        if resolved is None:
            return None
        head, _, tail = resolved.rpartition(".")
        if tail not in _MUTABLE_FACTORIES and tail not in _MUTABLE_NUMPY_FACTORIES:
            return None
        if not head and tail in _MUTABLE_FACTORIES:
            return f"call:{tail}"
        if head == "collections" and tail in _MUTABLE_FACTORIES:
            return f"call:{tail}"
        if head == "numpy" and tail in _MUTABLE_NUMPY_FACTORIES:
            return f"ndarray:{tail}"
    return None


def _collect_globals(context: ModuleContext, symbols: ModuleSymbols) -> None:
    for node in context.tree.body:
        targets: list[ast.expr]
        value: ast.expr | None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if value is None:
            continue
        kind = _mutable_kind(value, symbols)
        if kind is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name) or target.id == "__all__":
                continue
            qualname = f"{symbols.module}.{target.id}"
            symbols.mutable_globals[qualname] = MutableGlobal(
                qualname=qualname,
                module=symbols.module,
                name=target.id,
                line=target.lineno,
                kind=kind,
            )


def _collect_functions(context: ModuleContext, symbols: ModuleSymbols) -> None:
    def visit(body: Sequence[ast.stmt], owner: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                prefix = f"{symbols.module}.{owner}." if owner else f"{symbols.module}."
                qualname = f"{prefix}{node.name}"
                symbols.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=symbols.module,
                    name=node.name,
                    owner=owner,
                    node=node,
                    context=context,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )
                # Nested defs fold into the enclosing function (its body
                # walk covers them), so no recursion into node.body here.
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{symbols.module}.{node.name}",
                    module=symbols.module,
                    name=node.name,
                    node=node,
                    bases=tuple(
                        name
                        for name in (_base_name(base) for base in node.bases)
                        if name
                    ),
                )
                symbols.classes[info.qualname] = info
                visit(node.body, node.name)

    visit(context.tree.body, None)


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return ""


def resolve_dotted(node: ast.expr, imports: dict[str, str]) -> str | None:
    """``np.random.default_rng`` -> ``numpy.random.default_rng``.

    Resolves a Name/Attribute chain against the module's import aliases;
    bare un-imported names resolve to themselves (builtins like ``open``).
    Returns ``None`` for chains rooted at anything else (calls, subscripts,
    ``self`` ...).
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(imports.get(current.id, current.id))
    return ".".join(reversed(parts))


# -- call and global-reference resolution --------------------------------------


def _local_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally (params and assignments): these shadow globals."""
    args = node.args
    names = {
        arg.arg
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
    }
    for child in ast.walk(node):
        bound: list[ast.expr] = []
        if isinstance(child, ast.Assign):
            bound = list(child.targets)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
            bound = [child.target]
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            bound = [child.target]
        elif isinstance(child, ast.comprehension):
            bound = [child.target]
        elif isinstance(child, (ast.With, ast.AsyncWith)):
            bound = [
                item.optional_vars
                for item in child.items
                if item.optional_vars is not None
            ]
        elif isinstance(child, ast.Global):
            # ``global NAME`` explicitly un-shadows: assignments to it are
            # writes to the module global, not local bindings.
            names.difference_update(child.names)
            continue
        for target in bound:
            for leaf in ast.walk(target):
                # Store context only: ``PENDING[key] = v`` subscripts the
                # *global* (Load), it does not bind a local ``PENDING``.
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                    names.add(leaf.id)
    return names


def _scan_function(
    info: FunctionInfo, symbols: ModuleSymbols, project: ProjectContext
) -> None:
    """Populate ``info.calls`` and ``info.global_refs``."""
    module_globals = {g.name: g.qualname for g in symbols.mutable_globals.values()}
    globals_declared = {
        name
        for child in ast.walk(info.node)
        if isinstance(child, ast.Global)
        for name in child.names
    }
    locals_here = _local_names(info.node)
    shadowed = {
        name
        for name in module_globals
        if name in locals_here and name not in globals_declared
    }
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            info.calls.append(_call_site(node, info, symbols))
        elif isinstance(node, ast.Name):
            if node.id in module_globals and node.id not in shadowed:
                info.global_refs.add(module_globals[node.id])
            else:
                # ``from other.module import SHARED`` — the alias resolves
                # to a foreign module's global.
                imported = symbols.imports.get(node.id)
                if imported is not None and imported in project.mutable_globals:
                    info.global_refs.add(imported)
        elif isinstance(node, ast.Attribute):
            resolved = resolve_dotted(node, symbols.imports)
            if resolved is not None and resolved in project.mutable_globals:
                info.global_refs.add(resolved)


def _call_site(node: ast.Call, info: FunctionInfo, symbols: ModuleSymbols) -> CallSite:
    func = node.func
    line = node.lineno
    if isinstance(func, ast.Name):
        qualname = symbols.toplevel_functions.get(func.id)
        if qualname is not None and func.id not in symbols.imports:
            return CallSite(target=qualname, method=None, line=line)
        # Imported name, class constructor, or builtin: keep the dotted /
        # bare name so rules can match externals like ``open``.
        return CallSite(
            target=symbols.imports.get(func.id, func.id), method=None, line=line
        )
    if isinstance(func, ast.Attribute):
        # ``self.method()`` inside a class resolves precisely.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and info.owner is not None
        ):
            qualname = f"{info.module}.{info.owner}.{func.attr}"
            return CallSite(target=qualname, method=func.attr, line=line)
        resolved = resolve_dotted(func, symbols.imports)
        return CallSite(target=resolved, method=func.attr, line=line)
    return CallSite(target=None, method=None, line=line)


# -- project building ----------------------------------------------------------


def build_project(paths: Sequence[Path | str]) -> tuple[ProjectContext, list[Finding]]:
    """Parse files/trees into a :class:`ProjectContext`.

    Returns the project plus parse-error findings for files the compiler
    rejected (those files contribute no project facts).
    """
    contexts: list[ModuleContext] = []
    errors: list[Finding] = []
    equation_cache: dict[Path, frozenset[int] | None] = {}
    for path in iter_python_files(paths):
        anchor = path.resolve().parent
        if anchor not in equation_cache:
            equation_cache[anchor] = find_design_equations(anchor)
        result = build_context(path, known_equations=equation_cache[anchor])
        if isinstance(result, Finding):
            errors.append(result)
        else:
            contexts.append(result)
    project = ProjectContext(contexts)
    for context in contexts:
        context.project = project
    return project, errors
